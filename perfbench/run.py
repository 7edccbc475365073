"""Benchmark of the fock-toeplitz CLI and library; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Each workload runs in its own worker
process (``worker.py``) with ``src`` on ``PYTHONPATH`` and
``FOCK_TOEPLITZ_THREADS`` unset; workers run one at a time.  The last line
of standard output is one JSON object: with ``--trace 0`` it carries the
end-to-end metrics of BENCHMARK.json, their times scaled to a host of
fixed speed (see ``REF_NOMINAL_S``), with ``--trace 1`` the per-layer
metrics.  The lines before it give the tail percentile and sample count,
the unscaled times, the first message of each failure class and SHA-256
digests of the program's output bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("criterion-sweep", "matrix-build", "operator-algebra")

# Set-up is sampled this many times per untraced run (all but one in
# set-up-only workers) and reported as the median.
SETUP_SAMPLES = 3
# Tail ladder in per mille: the highest rung with >= 10 requests beyond it.
TAIL_RUNGS = (500, 900, 990, 999)
TAIL_BEYOND = 10
# Printed in place of an infinite latency (a failed request is infinitely
# slow), so that a tail that lands on a failure reads as a huge regression.
FAILED_LATENCY_S = 1e9
WORKER_TIMEOUT_S = 170.0
# End-to-end times are scaled to a host on which the worker's reference
# kernel takes this long (about its time on a shared 2-vCPU cloud host), so
# that the host's changes of speed between runs cancel.
REF_NOMINAL_S = 0.0025


class WorkerError(RuntimeError):
    pass


def spawn(args, role: str, work: Path, env: dict, timeout: float, spans: Path | None = None):
    """Run one worker; returns (start monotonic time, its JSON result)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--role", role, "--work", str(work),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    start = time.monotonic()
    # own process group, so a timeout also stops the worker's CLI children
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise WorkerError(f"{role} worker exceeded {timeout:.0f} s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{role} worker exited with code {proc.returncode}")
    return start, json.loads(lines[-1])


def percentile(ordered: list[float], permille: int) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values, and how many lie beyond it."""
    rank = max(1, math.ceil(permille * len(ordered) / 1000))
    return ordered[rank - 1], len(ordered) - rank


def tail(latencies: list[float], highest: int = TAIL_RUNGS[-1]) -> tuple[float, float, int]:
    """(value, percentile, requests beyond it) for the tail ladder.

    The highest rung up to ``highest`` (the workload's fixed tail
    percentile) with at least TAIL_BEYOND requests beyond it.  Below
    2 * TAIL_BEYOND samples no rung has enough and the median (the first
    rung) is reported.
    """
    ordered = sorted(latencies)
    chosen = TAIL_RUNGS[0]
    for rung in TAIL_RUNGS:
        if rung <= highest and percentile(ordered, rung)[1] >= TAIL_BEYOND:
            chosen = rung
    value, beyond = percentile(ordered, chosen)
    return value, chosen / 10.0, beyond


def finite(value: float) -> float:
    return value if math.isfinite(value) else FAILED_LATENCY_S


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """End-to-end metrics; ``setups`` holds (set-up seconds, reference time) pairs."""
    blocks = result["blocks"]
    scaled = result["scale_by_reference"]
    scale = REF_NOMINAL_S / statistics.median(result["refs"]) if scaled else 1.0
    raw = [math.inf if x is None else x for blk in blocks for x in blk["latencies"]]
    latencies = [x * scale for x in raw]
    attempted = len(latencies)
    succeeded = sum(math.isfinite(x) for x in latencies)
    tail_value, tail_pct, beyond = tail(latencies, result["tail_permille"])
    timed = sum(blk["wall"] for blk in blocks)
    raw_wall = statistics.median(blk["wall"] for blk in blocks)
    setup_times = [seconds * REF_NOMINAL_S / ref if scaled else seconds for seconds, ref in setups]
    metrics = {
        "wall_s": raw_wall * scale,
        "latency_p50_s": finite(percentile(sorted(latencies), 500)[0]),
        "latency_tail_s": finite(tail_value),
        "throughput_rps": succeeded / (timed * scale),
        "success_share": succeeded / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"latency_tail_s is p{tail_pct:g} of {attempted} requests ({beyond} beyond it); "
        f"wall_s is the median of {len(blocks)} fixed lists of {result['block_size']} requests",
        f"times are scaled by {scale:.4f} = {REF_NOMINAL_S} s / median reference kernel time of "
        f"{len(result['refs'])} samples; unscaled: wall {raw_wall:.4f} s, "
        f"p50 {finite(percentile(sorted(raw), 500)[0]):.4f} s",
        f"set-up samples (s): {', '.join(f'{x:.4f}' for x in setup_times)}; "
        f"unscaled {', '.join(f'{x:.4f}' for x, _ in setups)}",
    ]
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    metrics = result["layers"]
    notes = [
        "per-layer values are per request: counts from the first traced list of "
        f"{result['block_size']} requests, times the median over "
        f"{sum(blk['traced'] for blk in result['blocks'])} traced lists",
    ]
    if result["absent"]:
        notes.append(f"absent (wrapper target missing): {', '.join(result['absent'])}")
    if result["missing_targets"]:
        notes.append(f"wrapper targets not found: {', '.join(result['missing_targets'])}")
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="fock-toeplitz benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "fock_toeplitz" / "__init__.py").is_file():
        print(f"error: no fock_toeplitz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "FOCK_TOEPLITZ_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    spans = scratch / "spans" / f"{args.workload}-seed{args.seed}.json" if args.trace else None
    started = time.monotonic()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                start, sample = spawn(args, "setup", work, env, WORKER_TIMEOUT_S)
                setups.append((sample["ready"] - start, sample["setup_ref"]))
        remaining = WORKER_TIMEOUT_S - (time.monotonic() - started)
        start, result = spawn(args, "measure", work, env, remaining, spans)
        setups.append((result["ready"] - start, result["setup_ref"]))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, notes = per_layer(result)
    else:
        values, notes = end_to_end(result, setups)
    # names and units as BENCHMARK.json declares them; an absent one is left out
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
    attempted = sum(len(blk["latencies"]) for blk in result["blocks"])
    failed = sum(x is None for blk in result["blocks"] for x in blk["latencies"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} requests, {failed} failed, {result['mismatches']} wrong")
    for line in notes:
        print(line)
    for kind, message in sorted(result["failures"].items()):
        print(f"failure class {kind}: {message}")
    print(f"outputs sha256 first list {result['digest_first_block']} all {result['digest_all']}")
    print(json.dumps({
        "correct": result["mismatches"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
