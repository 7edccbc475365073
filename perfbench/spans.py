"""Span recording around the program's layer boundaries.

Spans are recorded from the benchmark's own files: :class:`Tracer` replaces
a function with a recording wrapper *at the name a consumer module binds*
(for example ``fock_toeplitz.criterion.toeplitz_matrix``), so the program's
code is left as it is.  A target that no longer exists is skipped and
listed in :attr:`Tracer.missing`; a per-layer metric is reported only when
at least one of its targets was installed (see :data:`METRIC_TARGETS`).

A span is ``[name, start, end, parent, request, amount]``: ``parent`` is the
index of the enclosing span or -1, ``request`` the request id and
``amount`` a size recorded by the wrapper (entries built, bytes exported).
Counters that are not spans (quadrature levels and nodes, failures) live
in :attr:`Tracer.counters`.
"""

from __future__ import annotations

import functools
import importlib
import time

PKG = "fock_toeplitz"

# (span name, module, attribute path) for every binding that is wrapped.
# Each layer's public functions are wrapped where the consumers bind them.
TARGETS = [
    ("config.load_config", f"{PKG}.cli", "load_config"),
    ("criterion.functional_equation_residuals", f"{PKG}.cli", "functional_equation_residuals"),
    ("criterion.commutator_cross_check", f"{PKG}.criterion", "commutator_cross_check"),
    ("criterion.serialize", f"{PKG}.criterion", "CriterionReport.to_json"),
    ("criterion.serialize", f"{PKG}.criterion", "CriterionReport.to_csv"),
    ("operators.toeplitz_matrix", PKG, "toeplitz_matrix"),
    ("operators.toeplitz_matrix", f"{PKG}.cli", "toeplitz_matrix"),
    ("operators.toeplitz_matrix", f"{PKG}.criterion", "toeplitz_matrix"),
    ("operators.algebra", PKG, "commutator"),
    ("operators.algebra", PKG, "compose"),
    ("operators.algebra", PKG, "window_max_abs"),
    ("operators.algebra", PKG, "berezin"),
    ("operators.algebra", f"{PKG}.cli", "commutator"),
    ("operators.algebra", f"{PKG}.cli", "window_max_abs"),
    ("operators.algebra", f"{PKG}.criterion", "commutator"),
    ("operators.algebra", f"{PKG}.criterion", "window_max_abs"),
    ("operators.radial_eigenvalues", PKG, "radial_eigenvalues"),
    ("operators.export", PKG, "matrix_to_csv"),
    ("operators.export", PKG, "matrix_to_json"),
    ("operators.export", f"{PKG}.cli", "matrix_to_csv"),
    ("operators.export", f"{PKG}.cli", "matrix_to_json"),
    ("mellin.request", f"{PKG}.operators", "mellin_weighted_cached"),
    ("mellin.request", f"{PKG}.criterion", "mellin_weighted_cached"),
    ("mellin.compute", PKG, "mellin_weighted"),
    ("mellin.compute", f"{PKG}.mellin", "mellin_weighted"),
    ("special_functions.quad", f"{PKG}.mellin", "gaussian_weighted_integral_with_estimate"),
    ("special_functions.quad", f"{PKG}.criterion", "gaussian_weighted_integral_with_estimate"),
]

# Span names each per-layer metric is computed from.  Metrics of the CLI
# child and of output files are recorded by the benchmark itself.
METRIC_TARGETS = {
    "config.load_config_s": ["config.load_config"],
    "criterion.residuals_self_s": ["criterion.functional_equation_residuals"],
    "criterion.cross_check_s": ["criterion.commutator_cross_check"],
    "criterion.serialize_s": ["criterion.serialize"],
    "criterion.toeplitz_builds_per_report": [
        "criterion.functional_equation_residuals",
        "operators.toeplitz_matrix",
    ],
    "operators.toeplitz_matrix_self_s": ["operators.toeplitz_matrix"],
    "operators.toeplitz_matrix_calls": ["operators.toeplitz_matrix"],
    "operators.entries_built": ["operators.toeplitz_matrix"],
    "operators.algebra_s": ["operators.algebra"],
    "operators.radial_eigenvalues_s": ["operators.radial_eigenvalues"],
    "operators.export_s": ["operators.export"],
    "operators.export_bytes": ["operators.export"],
    "mellin.requests": ["mellin.request"],
    "mellin.computed": ["mellin.compute"],
    "mellin.hit_ratio": ["mellin.request", "mellin.compute"],
    "mellin.self_s": ["mellin.request", "mellin.compute"],
    "special_functions.quad_calls": ["special_functions.quad"],
    "special_functions.quad_s": ["special_functions.quad"],
    "special_functions.levels": ["special_functions.quad"],
    "special_functions.nodes": ["special_functions.quad"],
    "special_functions.levels_per_quad": ["special_functions.quad"],
    "special_functions.failures": ["special_functions.quad"],
}


def _entries_built(args, kwargs):
    """Band entries of toeplitz_matrix(spec, s, N): sum over modes of N - |j|."""
    spec = args[0] if args else kwargs.get("spec")
    n = args[2] if len(args) > 2 else kwargs.get("N")
    return sum(max(0, int(n) - abs(j)) for j in spec.mode_indices)


def _text_bytes(result):
    return len(result.encode())


# Size recorded on the span, computed from the call's arguments or result.
_AMOUNT_OF_ARGS = {"operators.toeplitz_matrix": _entries_built}
_AMOUNT_OF_RESULT = {"operators.export": _text_bytes}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.installed_names: set[str] = set()
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request, 0])
        self._stack.append(index)
        return index

    def end(self, index: int, amount: int = 0):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = amount
        self._stack.pop()

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def merge(self, recorded: dict):
        """Append the spans and counters a child process wrote out."""
        offset = len(self.spans)
        for name, start, end, parent, _, amount in recorded["spans"]:
            parent = parent + offset if parent >= 0 else -1
            self.spans.append([name, start, end, parent, self.request, amount])
        for name, amount in recorded["counters"].items():
            self.count(name, amount)
        self.installed_names.update(recorded["installed"])
        self.missing.extend(m for m in recorded["missing"] if m not in self.missing)

    def _wrap(self, name: str, fn):
        tracer = self
        amount_of_args = _AMOUNT_OF_ARGS.get(name)
        amount_of_result = _AMOUNT_OF_RESULT.get(name)
        is_quad = name == "special_functions.quad"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_quad and args:
                integrand = args[0]

                def counted(t):
                    tracer.count("special_functions.levels")
                    tracer.count("special_functions.nodes", len(t))
                    return integrand(t)

                args = (counted,) + args[1:]
            index = tracer.begin(name)
            amount = 0
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if is_quad:
                    tracer.count("special_functions.failures")
                raise
            else:
                if amount_of_args is not None:
                    amount = amount_of_args(args, kwargs)
                elif amount_of_result is not None:
                    amount = amount_of_result(result)
                return result
            finally:
                tracer.end(index, amount)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target that exists; remember the originals."""
        for name, module_name, attr_path in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                label = f"{module_name}.{attr_path}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            # A class attribute is read from the class dict so that the
            # wrapper stays a plain function (and so a method).
            if isinstance(owner, type):
                original = owner.__dict__.get(attr, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
            self.installed_names.add(name)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def absent_metrics(self) -> list[str]:
        """Per-layer metrics none of whose wrappers could be installed."""
        return sorted(
            metric
            for metric, names in METRIC_TARGETS.items()
            if not all(n in self.installed_names for n in names)
        )


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans nest strictly (one thread), so direct children never overlap and
    their durations add up to the covered time.
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def summarize(spans, counters) -> dict[str, float]:
    """Per-layer totals for one block of spans (not yet per request)."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    amount: dict[str, int] = {}
    for span, self_s in zip(spans, own):
        name = span[0]
        total[name] = total.get(name, 0.0) + (span[2] - span[1])
        self_total[name] = self_total.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        amount[name] = amount.get(name, 0) + span[5]

    # toeplitz_matrix builds whose nearest criterion ancestor is a report
    builds_in_reports = 0
    for span in spans:
        if span[0] != "operators.toeplitz_matrix":
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != "criterion.functional_equation_residuals":
            parent = spans[parent][3]
        builds_in_reports += parent >= 0

    reports = calls.get("criterion.functional_equation_residuals", 0)
    requests = calls.get("mellin.request", 0)
    computed = calls.get("mellin.compute", 0)
    quads = calls.get("special_functions.quad", 0)
    levels = counters.get("special_functions.levels", 0)
    return {
        "cli.import_s": total.get("cli.import", 0.0),
        "cli.main_self_s": self_total.get("cli.main", 0.0),
        "config.load_config_s": total.get("config.load_config", 0.0),
        "criterion.residuals_self_s": self_total.get(
            "criterion.functional_equation_residuals", 0.0
        ),
        "criterion.cross_check_s": total.get("criterion.commutator_cross_check", 0.0),
        "criterion.serialize_s": total.get("criterion.serialize", 0.0),
        "criterion.toeplitz_builds_per_report": builds_in_reports / reports if reports else 0.0,
        "operators.toeplitz_matrix_self_s": self_total.get("operators.toeplitz_matrix", 0.0),
        "operators.toeplitz_matrix_calls": calls.get("operators.toeplitz_matrix", 0),
        "operators.entries_built": amount.get("operators.toeplitz_matrix", 0),
        "operators.algebra_s": total.get("operators.algebra", 0.0),
        "operators.radial_eigenvalues_s": total.get("operators.radial_eigenvalues", 0.0),
        "operators.export_s": total.get("operators.export", 0.0),
        "operators.export_bytes": amount.get("operators.export", 0),
        "mellin.requests": requests,
        "mellin.computed": computed,
        "mellin.hit_ratio": (requests - computed) / requests if requests else 0.0,
        "mellin.self_s": self_total.get("mellin.request", 0.0)
        + self_total.get("mellin.compute", 0.0),
        "special_functions.quad_calls": quads,
        "special_functions.quad_s": total.get("special_functions.quad", 0.0),
        "special_functions.levels": levels,
        "special_functions.nodes": counters.get("special_functions.nodes", 0),
        "special_functions.levels_per_quad": levels / quads if quads else 0.0,
        "special_functions.failures": counters.get("special_functions.failures", 0),
    }
