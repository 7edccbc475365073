"""One workload in its own Python process: set-up, then the timed loop.

Started by ``run.py``; prints one JSON object as its last stdout line.
``--role setup`` stops when the first request would start (a set-up
sample); ``--role measure`` then runs blocks of requests until
``--seconds`` have passed.  With ``--trace 1`` the blocks alternate
untraced and traced, so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import time
import warnings
from pathlib import Path

from spans import Tracer, summarize
from workloads import WORKLOADS

# After each list, outside its timing, the reference kernel is timed for
# this share of the list's wall time (at least once), so that every run
# gathers some hundred samples; after set-up, this many samples.
REF_SHARE = 0.01
SETUP_REF_SAMPLES = 40

# Per-layer metrics that are counts or sizes: taken from the first traced
# block, so they repeat exactly for a seed.  The ratios are not divided by
# the block size; every other metric is a median over traced blocks.
COUNTS = {
    "cli.bytes_written",
    "criterion.cells",
    "operators.toeplitz_matrix_calls",
    "operators.entries_built",
    "operators.export_bytes",
    "mellin.requests",
    "mellin.computed",
    "special_functions.quad_calls",
    "special_functions.levels",
    "special_functions.nodes",
    "special_functions.failures",
}
RATIOS = {
    "criterion.toeplitz_builds_per_report",
    "mellin.hit_ratio",
    "special_functions.levels_per_quad",
}


def reference_s() -> float:
    """Time of a fixed kernel that does not call the program.

    The shared host's speed changes by up to a third for minutes at a
    time; this kernel measures that speed, so that ``run.py`` can scale it
    out.  It is plain Python arithmetic: the program's time goes mostly to
    the interpreter, and in a trial against Python-with-small-numpy, float
    formatting, 8 MB numpy streaming and a mix of these, its median tracked
    the matrix-build and operator-algebra times best.
    """
    start = time.perf_counter()
    x = 0
    for i in range(30_000):
        x += i * i
    return time.perf_counter() - start


def run_blocks(workload, seconds: float, trace: bool, first_block: list) -> dict:
    """The closed loop: whole blocks until ``seconds`` have passed.

    At least ``workload.min_blocks`` blocks run (two when traced), so that
    the tail percentile always has enough requests beyond it.
    """
    deadline = time.monotonic() + seconds
    blocks, failures, layer_blocks, refs = [], {}, [], []
    mismatches = 0
    digest_all, digest_first = hashlib.sha256(), hashlib.sha256()
    tracer_first = None
    requests = first_block
    b = 0
    while True:
        traced = trace and b % 2 == 1
        tracer = Tracer() if traced else None
        if tracer is not None and workload.name != "criterion-sweep":
            tracer.install()
        results = []
        block_start = time.perf_counter()
        for i, request in enumerate(requests):
            if tracer is not None:
                tracer.request = b * workload.block_size + i
            start = time.perf_counter()
            try:
                outcome = ("ok", workload.run(request, tracer))
            # a failed request is recorded and the loop goes on
            except Exception as exc:  # noqa: BLE001
                outcome = (getattr(exc, "kind", type(exc).__name__), str(exc))
            results.append((time.perf_counter() - start, outcome))
        wall = time.perf_counter() - block_start
        if tracer is not None:
            tracer.uninstall()

        latencies, extra_totals = [], {}
        for request, (latency, (kind, value)) in zip(requests, results):
            if kind == "ok":
                mismatch, payload, extra = workload.check(request, value)
                digest_all.update(payload)
                if b == 0:
                    digest_first.update(payload)
                for key, amount in extra.items():
                    extra_totals[key] = extra_totals.get(key, 0) + amount
                if mismatch is not None:
                    kind, value = "mismatch", mismatch
                    mismatches += 1
            else:
                workload.discard(request)
            if kind != "ok":
                failures.setdefault(kind, str(value).splitlines()[0] if str(value) else kind)
                latency = None
            latencies.append(latency)
        blocks.append({"traced": traced, "wall": wall, "latencies": latencies})
        spent = 0.0
        while spent == 0.0 or spent < REF_SHARE * wall:
            refs.append(reference_s())
            spent += refs[-1]
        if tracer is not None:
            totals = summarize(tracer.spans, tracer.counters)
            totals.update(extra_totals)
            layer_blocks.append(totals)
            if tracer_first is None:
                tracer_first = tracer
        b += 1
        if time.monotonic() >= deadline and b >= max(workload.min_blocks, 2 if trace else 1):
            break
        requests = workload.make_block(b)

    result = {
        "blocks": blocks,
        "refs": refs,
        "failures": failures,
        "mismatches": mismatches,
        "digest_all": digest_all.hexdigest(),
        "digest_first_block": digest_first.hexdigest(),
    }
    if trace:
        result.update(layer_metrics(workload, blocks, layer_blocks, tracer_first))
    return result


def layer_metrics(workload, blocks, layer_blocks, tracer) -> dict:
    size = workload.block_size
    first = layer_blocks[0]
    metrics = {}
    for key in first:
        if key in RATIOS:
            metrics[key] = first[key]
        elif key in COUNTS:
            metrics[key] = first[key] / size
        else:
            metrics[key] = statistics.median(totals[key] for totals in layer_blocks) / size
    for key in ("cli.bytes_written", "criterion.cells"):
        metrics.setdefault(key, 0)
    traced = [blk["wall"] for blk in blocks if blk["traced"]]
    untraced = [blk["wall"] for blk in blocks if not blk["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    absent = tracer.absent_metrics()
    for key in absent:
        metrics.pop(key, None)
    return {"layers": metrics, "absent": absent, "missing_targets": tracer.missing, "spans": tracer.spans}


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args()

    # numpy overflow warnings of the known failing inputs would flood stderr
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    workload = WORKLOADS[args.workload](args.seed, args.scale, Path(args.work), dict(os.environ))
    workload.setup()
    first_block = workload.make_block(0)
    ready = time.monotonic()
    # the host's speed during set-up, measured just after it
    setup_ref = statistics.median(reference_s() for _ in range(SETUP_REF_SAMPLES))
    if args.role == "setup":
        print(json.dumps({"ready": ready, "setup_ref": setup_ref}))
        return 0
    result = run_blocks(workload, args.seconds, bool(args.trace), first_block)
    result["ready"] = ready
    result["setup_ref"] = setup_ref
    result["block_size"] = workload.block_size
    result["tail_permille"] = workload.tail_permille
    result["scale_by_reference"] = workload.scale_by_reference
    result["peak_rss_mb"] = peak_rss_mb()
    spans = result.pop("spans", None)
    if spans is not None and args.spans:
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "amount"], "spans": spans}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
