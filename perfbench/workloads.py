"""The benchmark's three workloads: seeded inputs, one request, its check.

Each workload is one closed loop with one client.  Requests come in
*blocks*: block ``b`` of seed ``n`` is a fixed request list generated from
``random.Random(f"{name}:{n}:{b}")``, so the same seed always gives the
same inputs.  Inputs inside a block are stratified (every block covers the
whole input range once) and paired in a fixed pattern, which keeps the work
per block nearly the same from seed to seed and from block to block.

The program sees only the generated inputs: YAML files for the CLI, and
symbols built through the public ``fock_toeplitz`` API for the in-process
sessions.  Each request's check is computed independently of the timed
path, after the block's timing has stopped.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Input ranges per workload; "tiny" is for the benchmark's own tests.
SIZES = {
    "full": {
        "criterion-sweep": {"N": (48, 64, 80), "k_max": (40, 50), "s_count": 8, "s_max": 5.0},
        "matrix-build": {"N": (20, 160), "s_max": 30.0, "modes": (2, 5)},
        "operator-algebra": {"N": 128, "pool": 8, "s_count": 5, "s_max": 5.0, "z_max": 2.0},
    },
    "tiny": {
        "criterion-sweep": {"N": (16, 20, 24), "k_max": (4, 6), "s_count": 2, "s_max": 5.0},
        "matrix-build": {"N": (8, 24), "s_max": 5.0, "modes": (2, 3)},
        "operator-algebra": {"N": 24, "pool": 3, "s_count": 2, "s_max": 5.0, "z_max": 1.0},
    },
}

KINDS = ("monomial", "polynomial", "exp_decay", "gauss_decay")


class RequestFailed(Exception):
    """A request that did not complete; ``kind`` names its failure class."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _stratified(rng: random.Random, count: int, low: float, high: float) -> list[float]:
    """One uniform draw from each of ``count`` equal strata, in stratum order."""
    width = (high - low) / count
    return [low + width * (i + rng.random()) for i in range(count)]


def _systematic(rng: random.Random, count: int, low: float, high: float) -> list[float]:
    """``count`` evenly spaced points of [low, high) with one random offset."""
    offset = rng.random()
    return [low + (high - low) * (i + offset) / count for i in range(count)]


# Kinds of the non-monomial matrix-build modes, in turn: four in five decay.
OTHER_KINDS = ("exp_decay", "gauss_decay", "exp_decay", "gauss_decay", "polynomial")


def _profile_document(rng: random.Random, kind: str) -> dict:
    """A profile in the experiment-file format (config.build_profile kinds)."""
    sign = rng.choice((-1.0, 1.0))
    if kind == "monomial":
        return {"kind": "monomial", "power": rng.choice((0, 1, 2, 3))}
    if kind == "polynomial":
        degree = rng.randint(0, 2)
        coefficients = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(degree)]
        return {"kind": "polynomial", "coefficients": coefficients + [sign * round(rng.uniform(0.2, 1.0), 3)]}
    if kind == "exp_decay":
        return {
            "kind": "exp_decay",
            "rate": round(rng.uniform(0.3, 3.0), 3),
            "scale": sign * round(rng.uniform(0.5, 2.0), 3),
        }
    return {
        "kind": "gauss_decay",
        "rate": round(rng.uniform(0.3, 3.0), 3),
        "scale": sign * round(rng.uniform(0.5, 2.0), 3),
        "power": rng.choice((0, 1, 2)),
    }


class CriterionSweep:
    """``fock-toeplitz criterion`` in a fresh child process per request."""

    name = "criterion-sweep"
    block_size = 3
    # A 30 s run holds about 15 two-second requests: too few for any rung
    # above the median to have 10 requests beyond it.
    tail_permille = 500
    min_blocks = 1
    # Each request is a fresh child process (start-up, imports, file
    # output), which the worker's reference kernel does not track: scaling
    # by it made the 10-run spread of wall_s worse (0.14 against 0.11
    # unscaled), also with worker and children pinned to one vCPU.
    scale_by_reference = False

    def __init__(self, seed: int, scale: str, work: Path, env: dict):
        self.seed = seed
        self.size = SIZES[scale][self.name]
        self.work = work
        self.env = env

    def setup(self):
        pass

    def make_block(self, b: int) -> list[dict]:
        import yaml

        rng = random.Random(f"{self.name}:{self.seed}:{b}")
        k_low, k_high = self.size["k_max"]
        requests = []
        # Every block pairs the sizes with 3, 2 and 1 nonzero modes and adds
        # a j=0 mode to the first and last; the nonzero modes take the
        # profile kinds in turn, from a start set by the block index, so the
        # work per block hardly depends on the seed.
        counts = (3, 2, 1)
        kinds = iter(KINDS[(b + t) % len(KINDS)] for t in range(sum(counts)))
        for i, (n, count, radial_mode) in enumerate(zip(self.size["N"], counts, (True, False, True))):
            js = sorted(rng.sample((-3, -2, -1, 1, 2, 3), count))
            j_max = max(abs(j) for j in js)
            # k_max + 2 j_max < N keeps the commutator cross-check window nonempty
            k_max = rng.randint(k_low, min(k_high, n - 2 * j_max - 1))
            s_values = [round(x, 3) for x in _stratified(rng, self.size["s_count"], 0.0, self.size["s_max"])]
            degree = rng.randint(1, 2)
            u_coefficients = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(degree)]
            u_coefficients.append(rng.choice((-1.0, 1.0)) * round(rng.uniform(0.2, 1.0), 3))
            v_modes = [{"j": j, **_profile_document(rng, next(kinds))} for j in js]
            if radial_mode:
                v_modes.append({"j": 0, **_profile_document(rng, "polynomial")})
            directory = self.work / f"b{b}-r{i}"
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir(parents=True)
            document = {
                "s_values": s_values,
                "u": {"name": "u", "modes": [{"j": 0, "kind": "polynomial", "coefficients": u_coefficients}]},
                "v": {"name": "v", "modes": v_modes},
                "N": n,
                "k_max": k_max,
                "j_max": j_max,
                "output": {"directory": str(directory / "out"), "formats": ["json", "csv"]},
            }
            config = directory / "experiment.yaml"
            config.write_text(yaml.safe_dump(document, sort_keys=False))
            requests.append({"config": config, "dir": directory, "modes": js, "s_values": s_values})
        return requests

    def run(self, request: dict, tracer=None):
        if tracer is None:
            command = [sys.executable, "-m", "fock_toeplitz.cli"]
        else:
            spans_path = request["dir"] / "spans.json"
            command = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--"]
        command += ["criterion", "--config", str(request["config"]), "--quiet"]
        try:
            done = subprocess.run(command, env=self.env, capture_output=True, text=True, timeout=150)
        except subprocess.TimeoutExpired as exc:
            raise RequestFailed("timeout", f"criterion run exceeded {exc.timeout} s") from exc
        if tracer is not None and spans_path.exists():
            tracer.merge(json.loads(spans_path.read_text()))
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines() or ["(no stderr)"]
            raise RequestFailed(f"exit{done.returncode}", lines[-1])
        return None

    def discard(self, request: dict):
        shutil.rmtree(request["dir"], ignore_errors=True)

    def check(self, request: dict, result) -> tuple[str | None, bytes, dict]:
        files = sorted((request["dir"] / "out").glob("criterion_s*"))
        payload = b"".join(f.name.encode() + b"\0" + f.read_bytes() for f in files)
        extra = {"cli.bytes_written": sum(f.stat().st_size for f in files), "criterion.cells": 0}
        mismatch = None
        if len(files) != 2 * len(request["s_values"]):
            mismatch = f"expected {2 * len(request['s_values'])} report files, found {len(files)}"
        for f in files:
            if f.suffix != ".json":
                continue
            report = json.loads(f.read_text())
            extra["criterion.cells"] += len(report["cells"])
            verdict = report["verdict"]
            if mismatch is None and (
                verdict["kind"] != "nonradial_mode_detected" or verdict["modes"] != request["modes"]
            ):
                mismatch = (
                    f"{f.name}: verdict {verdict['kind']}{verdict['modes']} "
                    f"!= nonradial_mode_detected{request['modes']}"
                )
        self.discard(request)
        return mismatch, payload, extra


class _Session:
    """In-process workloads: the package is imported during set-up."""

    scale_by_reference = True

    def __init__(self, seed: int, scale: str, work: Path, env: dict):
        self.seed = seed
        self.size = SIZES[scale][self.name]

    def setup(self):
        self.ft = importlib.import_module("fock_toeplitz")

    def discard(self, request: dict):
        pass

    def profile(self, rng: random.Random, kind: str):
        """A RadialProfile built through the public API."""
        import numpy as np

        ft = self.ft
        document = _profile_document(rng, kind)
        if kind == "monomial":
            return ft.RadialProfile.monomial(document["power"])
        if kind == "polynomial":
            return ft.RadialProfile.polynomial(document["coefficients"])
        a, b = document["scale"], document["rate"]
        if kind == "exp_decay":
            return ft.RadialProfile.from_callable(
                lambda r: a * np.exp(-b * np.asarray(r, dtype=float)),
                growth_exponent=0.0,
                growth_constant=abs(a),
            )
        p = document["power"]
        peak = (p / (2.0 * b)) ** (p / 2.0) * math.exp(-p / 2.0) if p else 1.0
        return ft.RadialProfile.from_callable(
            lambda r: a * np.asarray(r, dtype=float) ** p * np.exp(-b * np.asarray(r, dtype=float) ** 2),
            growth_exponent=0.0,
            growth_constant=abs(a) * peak * 1.01,
        )


class MatrixBuild(_Session):
    """``toeplitz_matrix`` on a fresh symbol, then CSV and JSON export."""

    name = "matrix-build"
    block_size = 16
    # p90 needs 100 requests for 10 beyond it; 7 lists guarantee that even
    # when the host runs slow, so the percentile does not depend on speed.
    tail_permille = 900
    min_blocks = 7

    def make_block(self, b: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{self.seed}:{b}")
        n_low, n_high = self.size["N"]
        k = self.block_size
        sizes = [min(n_high, int(x)) for x in _systematic(rng, k, n_low, n_high + 1)]
        orders = _systematic(rng, k, 0.0, self.size["s_max"])
        low, high = self.size["modes"]
        requests = []
        others = 0
        # Evenly spaced sizes meet evenly spaced orders, mode counts and
        # profile kinds in a fixed pattern, so the work per block (and its
        # share of failing inputs) hardly depends on the seed or the block.
        for i, n in enumerate(sizes):
            s = orders[(7 * i + 3) % k]
            count = low + i % (high - low + 1)
            js = rng.sample(range(-4, 5), count)
            # the first mode is a monomial, checked against the closed Gamma form
            power = round(rng.uniform(0.0, 3.0), 3)
            modes = {js[0]: self.ft.RadialProfile.monomial(power)}
            for j in js[1:]:
                modes[j] = self.profile(rng, OTHER_KINDS[others % len(OTHER_KINDS)])
                others += 1
            spec = self.ft.SymbolSpec.from_modes(modes, name=f"b{b}r{i}")
            requests.append({"spec": spec, "s": s, "N": n, "monomial": (js[0], power)})
        return requests

    def run(self, request: dict, tracer=None):
        ft = self.ft
        op = ft.toeplitz_matrix(request["spec"], request["s"], request["N"])
        return op, ft.matrix_to_csv(op), ft.matrix_to_json(op)

    def check(self, request: dict, result) -> tuple[str | None, bytes, dict]:
        op, csv_text, json_text = result
        s, n_size = request["s"], request["N"]
        j, p = request["monomial"]
        eps = sys.float_info.epsilon
        worst = 0.0
        for m in range(max(0, -j), n_size - max(0, j)):
            logs = (
                math.lgamma(m + 1.0 + s + 0.5 * (j + p)),
                math.lgamma(s + m + 1.0),
                math.lgamma(s + m + j + 1.0),
            )
            closed = math.exp(logs[0] - 0.5 * (logs[1] + logs[2]))
            # entry_error bounds the quadrature error only.  Both the
            # program's basis normalisation and this closed form exponentiate
            # sums of log-Gammas, which rounds by a few ulp per unit of their
            # magnitude; that rounding is allowed on top of entry_error.
            rounding = 4.0 * eps * (2.0 + sum(abs(x) for x in logs)) * closed
            excess = abs(complex(op.entries[m + j, m]) - closed) - rounding
            worst = max(worst, excess)
        mismatch = None
        if not worst <= op.entry_error:
            mismatch = (
                f"monomial mode j={j} p={p} at s={s:.6g}, N={n_size}: closed-form deviation "
                f"beyond rounding {worst:.3e} > entry_error {op.entry_error:.3e}"
            )
        return mismatch, csv_text.encode() + json_text.encode(), {}


class OperatorAlgebra(_Session):
    """Warm session over a fixed symbol pool whose transforms are cached."""

    name = "operator-algebra"
    block_size = 64
    # p99 of these 5 ms requests measures the host's pre-emption, not the
    # program: it moved from 8.5 to 15.6 ms between runs of one seed.
    tail_permille = 900
    min_blocks = 2

    def setup(self):
        super().setup()
        ft = self.ft
        rng = random.Random(f"{self.name}:{self.seed}:pool")
        size = self.size
        self.n = size["N"]
        self.abs2 = ft.RadialProfile.monomial(2.0)
        self.pool = [ft.SymbolSpec.from_modes({0: self.abs2}, name="abs2")]
        for i in range(1, size["pool"]):
            js = rng.sample(range(-3, 4), 2 if i % 3 == 0 else 1)
            modes = {j: self.profile(rng, KINDS[(i + t) % 4]) for t, j in enumerate(js)}
            self.pool.append(ft.SymbolSpec.from_modes(modes, name=f"pool{i}"))
        self.orders = [round(x, 3) for x in _stratified(rng, size["s_count"], 0.0, size["s_max"])]
        # cache fill: every transform a request needs is computed here
        for s in self.orders:
            for symbol in self.pool:
                ft.toeplitz_matrix(symbol, s, self.n)

    def make_block(self, b: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{self.seed}:{b}")
        z_max = self.size["z_max"]
        requests = []
        for _ in range(self.block_size):
            points = [z_max * complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) for _ in range(3)]
            requests.append(
                {
                    "u": rng.randrange(len(self.pool)),
                    "v": rng.randrange(len(self.pool)),
                    "s": rng.choice(self.orders),
                    "z": points,
                }
            )
        return requests

    def run(self, request: dict, tracer=None):
        ft = self.ft
        s = request["s"]
        a = ft.toeplitz_matrix(self.pool[request["u"]], s, self.n)
        b = ft.toeplitz_matrix(self.pool[request["v"]], s, self.n)
        comm = ft.commutator(a, b)
        product = ft.compose(a, b)
        residual = ft.window_max_abs(comm, max(0, comm.exactness_window))
        berezin = [ft.berezin(product, z) for z in request["z"]]
        eigenvalues = ft.radial_eigenvalues(self.abs2, s, self.n)
        return residual, berezin, eigenvalues

    def check(self, request: dict, result) -> tuple[str | None, bytes, dict]:
        import numpy as np

        residual, berezin, eigenvalues = result
        s = request["s"]
        exact = s + np.arange(self.n) + 1.0
        deviation = float(np.max(np.abs(eigenvalues - exact) / exact))
        mismatch = None
        # the quadrature's relative tolerance is 1e-11
        if not deviation <= 1e-9:
            mismatch = f"radial_eigenvalues(|z|^2) at s={s}: relative deviation {deviation:.3e} from s+k+1"
        payload = repr((residual, berezin)).encode() + np.asarray(eigenvalues).tobytes()
        return mismatch, payload, {}


WORKLOADS = {cls.name: cls for cls in (CriterionSweep, MatrixBuild, OperatorAlgebra)}
