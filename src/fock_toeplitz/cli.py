"""Command-line front end.

Subcommands: matrix, commutator, criterion, decompose, selftest.  Each run
is driven by a YAML experiment file (see config.py); outputs are JSON and
CSV documents with stable key order and shortest-round-trip floats, so
identical configs produce byte-identical reports.  Every order value of a
sweep is computed before the first file is written, so a failing run leaves
no partial output.

Exit codes: 0 success, 1 runtime/accuracy failure, 2 configuration error or
violated precondition.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, _field, load_config
from .criterion import _commutes, functional_equation_residuals
from .errors import (
    AccuracyError,
    ClassificationError,
    ConfigurationError,
    DomainError,
    PreconditionError,
    ResourceError,
)
from .operators import commutator, matrix_to_csv, matrix_to_json, toeplitz_matrix, window_max_abs
from .symbols import decompose, polar_l2_norm, sample_polar

__all__ = ["main"]


def _s_tag(s: float) -> str:
    text = repr(float(s))
    if "e" not in text and s == int(s):
        return str(int(s))
    return text.replace(".", "p").replace("-", "m").replace("+", "")


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write(path: Path, text: str, quiet: bool):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    if not quiet:
        print(f"wrote {path}")


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.out is not None:
        config.out_dir = Path(args.out)
    if args.format is not None:
        config.formats = ("json", "csv") if args.format == "both" else (args.format,)
    return config


def _emit_matrix(op, stem: str, config: ExperimentConfig, quiet: bool):
    if config.want("csv"):
        _write(config.out_dir / f"{stem}.csv", matrix_to_csv(op), quiet)
    if config.want("json"):
        _write(config.out_dir / f"{stem}.json", matrix_to_json(op), quiet)


def cmd_matrix(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    symbols = [(name, sym) for name, sym in (("u", config.u), ("v", config.v)) if sym is not None]
    if not symbols:
        raise ConfigurationError("field 'u': matrix command needs at least one symbol (u or v)")

    ops = [
        (s, name, sym, toeplitz_matrix(sym, s, config.N, config.quad))
        for s in config.s_values
        for name, sym in symbols
    ]
    for s, name, sym, op in ops:
        _emit_matrix(op, f"matrix_{name}_s{_s_tag(s)}", config, args.quiet)
        if not args.quiet:
            print(
                f"{name}={sym.name} s={s:g}: N={op.size} band={op.exact_band} "
                f"window={op.exactness_window}"
            )
    return 0


def cmd_commutator(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if config.u is None or config.v is None:
        raise ConfigurationError("field 'u'/'v': commutator command needs both symbols")

    comms = [
        commutator(
            toeplitz_matrix(config.u, s, config.N, config.quad),
            toeplitz_matrix(config.v, s, config.N, config.quad),
        )
        for s in config.s_values
    ]
    rows = []
    for s, comm in zip(config.s_values, comms):
        # a product's band is at most N - 1, so its window is never empty
        window = comm.exactness_window
        residual = window_max_abs(comm, window)
        block = np.abs(comm.entries[: window + 1, : window + 1])
        row, col = np.unravel_index(int(np.argmax(block)), block.shape)
        commutes = _commutes(residual, comm, config.verdict_multiplier)
        rows.append(
            {
                "s": s,
                "window": window,
                "window_residual": residual,
                "argmax_row": int(row),
                "argmax_col": int(col),
                "commutes": commutes,
            }
        )
        _emit_matrix(comm, f"commutator_s{_s_tag(s)}", config, args.quiet)
        if not args.quiet:
            print(
                f"s={s:g}: window={window} residual={residual:.6g} at "
                f"({int(row)},{int(col)}) commutes={commutes}"
            )
    if config.want("json"):
        _write(config.out_dir / "commutator_summary.json", _dump_json(rows), args.quiet)
    if config.want("csv"):
        lines = ["s,window,window_residual,argmax_row,argmax_col,commutes"]
        for r in rows:
            lines.append(
                f"{r['s']!r},{r['window']},{r['window_residual']!r},"
                f"{r['argmax_row']},{r['argmax_col']},{str(r['commutes']).lower()}"
            )
        _write(config.out_dir / "commutator_summary.csv", "\n".join(lines) + "\n", args.quiet)
    return 0


def cmd_criterion(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if config.u is None or config.v is None:
        raise ConfigurationError("field 'u'/'v': criterion command needs both symbols")
    if not config.u.is_radial:
        raise ConfigurationError(
            "field 'u': the radiality criterion requires a radial u "
            f"(nonconstant-radial hypothesis); got modes {list(config.u.mode_indices)}"
        )
    u_profile = config.u.mode(0)

    reports = [
        functional_equation_residuals(
            u_profile,
            config.v,
            s,
            config.k_max,
            config.quad,
            N=config.N,
            assert_commutation=config.assert_commutation,
            verdict_multiplier=config.verdict_multiplier,
        )
        for s in config.s_values
    ]
    for s, report in zip(config.s_values, reports):
        if config.want("json"):
            _write(config.out_dir / f"criterion_s{_s_tag(s)}.json", report.to_json(), args.quiet)
        if config.want("csv"):
            _write(config.out_dir / f"criterion_s{_s_tag(s)}.csv", report.to_csv(), args.quiet)
        if not args.quiet:
            print(f"s={s:g}: verdict {report.verdict}")
    return 0


def _read_polar_samples(path: Path):
    """Parse a polar-sample CSV (r, theta, re, im) into grid arrays.  Each
    radius, finite and >= 0, holds exactly one finite sample at each of the
    M uniform angles 2 pi m / M; a refusal names the file and line."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read samples {path}: {exc}") from exc
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if number == 1 and stripped.lower().replace(" ", "") == "r,theta,re,im":
            continue
        where = f"samples {path}:{number}"
        parts = stripped.split(",")
        if len(parts) != 4:
            raise ConfigurationError(f"{where}: expected 'r,theta,re,im'")
        try:  # parses the text; _field refuses the numbers it reads
            fields = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigurationError(f"{where}: {exc}") from exc
        r, theta, re, im = (
            _field(name, x, f"{where}: ", minimum=0.0 if name == "r" else None)
            for name, x in zip(("r", "theta", "re", "im"), fields)
        )
        rows.append((number, r, theta, complex(re, im)))
    if not rows:
        raise ConfigurationError(f"samples {path}: no data rows")
    counts = Counter(r for _, r, _, _ in rows)
    radii = sorted(counts)
    m_angles = counts[radii[0]]
    for number, r, _, _ in rows:
        if counts[r] != m_angles:
            raise ConfigurationError(
                f"samples {path}:{number}: unequal angle counts across radii: "
                f"r={r!r} has {counts[r]}, r={radii[0]!r} has {m_angles}"
            )
    row_of = {r: i for i, r in enumerate(radii)}
    values = np.zeros((len(radii), m_angles), dtype=complex)
    line_of: dict[tuple[int, int], int] = {}
    for number, r, theta, value in rows:
        where = f"samples {path}:{number}"
        index = int(round(theta * m_angles / (2.0 * math.pi))) % m_angles
        expected = 2.0 * math.pi * index / m_angles
        if abs(theta - expected) > 1e-9 * (1.0 + abs(theta)):
            raise ConfigurationError(
                f"{where}: theta={theta!r} is not on the uniform grid of {m_angles}"
            )
        cell = (row_of[r], index)
        if cell in line_of:
            raise ConfigurationError(
                f"{where}: repeats line {line_of[cell]}, the sample at r={r!r}, angle index {index}"
            )
        line_of[cell] = number
        values[cell] = value
    return np.asarray(radii, dtype=float), values


def cmd_decompose(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    radii, values = _read_polar_samples(Path(args.samples))
    spec = decompose(radii, values, config.j_max, drop_floor=config.drop_floor)
    m_angles = values.shape[1]
    reconstruction = sample_polar(spec, radii, m_angles)
    difference = reconstruction - values
    per_sample = float(np.max(np.abs(difference))) if difference.size else 0.0
    residuals = {
        _s_tag(s): polar_l2_norm(radii, difference, s) for s in config.s_values
    }
    modes_payload = []
    for j, profile in spec.mode_items:
        samples_j = np.asarray(profile(radii), dtype=complex)
        modes_payload.append(
            {
                "j": j,
                "growth_exponent": profile.growth_exponent,
                "growth_constant": profile.growth_constant,
                "radii": [float(r) for r in radii],
                "re": [float(x) for x in samples_j.real],
                "im": [float(x) for x in samples_j.imag],
            }
        )
    payload = {
        "j_max": config.j_max,
        "n_angles": m_angles,
        "modes": modes_payload,
        "mode_indices": list(spec.mode_indices),
        "is_radial": spec.is_radial,
        "per_sample_error": per_sample,
        "l2_gs_residual": residuals,
    }
    if config.want("json"):
        _write(config.out_dir / "decompose_modes.json", _dump_json(payload), args.quiet)
    if config.want("csv"):
        lines = ["j,r,re,im"]
        for entry in modes_payload:
            for r, re, im in zip(entry["radii"], entry["re"], entry["im"]):
                lines.append(f"{entry['j']},{r!r},{re!r},{im!r}")
        _write(config.out_dir / "decompose_modes.csv", "\n".join(lines) + "\n", args.quiet)
    if not args.quiet:
        print(
            f"modes {list(spec.mode_indices)} per_sample_error={per_sample:.3e} "
            f"radial={spec.is_radial}"
        )
    return 0


def cmd_selftest(args) -> int:
    from .acceptance import run_all

    results = run_all(quiet=args.quiet)
    width = max(len(r.name) for r in results)
    print(f"{'':4}{'criterion':<{width}}  result  detail")
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{r.index:>2}  {r.name:<{width}}  {status:<6}  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} acceptance criteria passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fock-toeplitz",
        description=(
            "Toeplitz operator truncations, weighted Mellin transforms, and "
            "radial-commutant diagnostics on Fock-Sobolev spaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="YAML experiment file")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument(
            "--format", choices=["json", "csv", "both"], default=None,
            help="override output formats",
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    p_matrix = sub.add_parser("matrix", help="write truncated Toeplitz matrices")
    common(p_matrix)
    p_matrix.set_defaults(func=cmd_matrix)

    p_comm = sub.add_parser("commutator", help="write commutator matrices and residual summary")
    common(p_comm)
    p_comm.set_defaults(func=cmd_commutator)

    p_crit = sub.add_parser("criterion", help="evaluate functional equations and verdict")
    common(p_crit)
    p_crit.set_defaults(func=cmd_criterion)

    p_dec = sub.add_parser("decompose", help="recover angular modes from polar samples")
    common(p_dec)
    p_dec.add_argument("--samples", required=True, help="polar-sample CSV (r,theta,re,im)")
    p_dec.set_defaults(func=cmd_decompose)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--quiet", action="store_true", help="suppress per-check progress")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (DomainError, AccuracyError, ResourceError, ClassificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
