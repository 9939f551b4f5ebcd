"""Outside-in tracing of a contactflow run.

Stand-ins replace module attributes of `contactflow` (public functions,
classes, `GeometryFields.sample_metric` and each module's
`scipy.sparse.linalg` handle) with wrappers that record a span per call:
name, start, end and the index of the enclosing span. Spans stay in memory
and are written when the run ends; self times are computed afterwards from
the parent links. No file of the program changes.

This module imports neither numpy nor contactflow, so `run.py`
can compute metrics without loading the program.
"""

import contextlib
import functools
import time

# (module, attribute) pairs wrapped as spans named "<module>.<attribute>".
TRACED = (
    ("equilibrium", "solve_equilibrium"),
    ("geometry", "build_geometry"),
    ("heat", "HeatOperators"),
    ("heat", "step_fd"),
    ("flow", "FlowOperators"),
    ("flow", "momentum_step"),
    ("flow", "coupled_step"),
    ("diagnostics", "energy_report"),
    ("diagnostics", "surface_norm"),
    ("diagnostics", "bulk_norm"),
    ("corner", "angular_eigenvalues"),
    ("corner", "wedge_poisson_probe"),
    ("cli", "write_series_csv"),
)
# Modules whose `spla` handle gets its own factorization stand-in, so each
# factorization is charged to the module that asked for it.
LINALG_OWNERS = ("flow", "heat", "corner")


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, attrs=None):
        """`fn` wrapped so each call records a span called `name`.

        attrs(args, result) -> dict, if given, adds exact counts to the span.
        """
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter_ns(),
                    "end": None,
                    "parent": self._open[-1] if self._open else -1}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._open.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            return result
        return traced


class _TimedLU:
    """SuperLU whose `solve` records a span; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _LinalgStandIn:
    """A module's `scipy.sparse.linalg` handle with traced factorizations."""

    def __init__(self, tracer, owner, spla):
        self._spla = spla
        self.spsolve = tracer.wrap(owner + ".spsolve", spla.spsolve)

        def factor(A, *args, **kwargs):
            lu = spla.splu(A, *args, **kwargs)
            return _TimedLU(lu, tracer.wrap(owner + ".lu_solve", lu.solve))

        self.splu = tracer.wrap(
            owner + ".splu", factor,
            attrs=lambda args, lu: {"n": int(args[0].shape[0]),
                                    "nnz": int(args[0].nnz),
                                    "lu_nnz": int(lu.nnz)})

    def __getattr__(self, name):
        return getattr(self._spla, name)


def stand_ins(tracer, modules):
    """(owner, attribute, replacement) triples for a traced run.

    modules: dict of contactflow submodules by short name.
    """
    out = []
    for mod, attr in TRACED:
        owner = modules[mod]
        out.append((owner, attr, tracer.wrap(mod + "." + attr,
                                             getattr(owner, attr))))
    fields_cls = modules["geometry"].GeometryFields
    out.append((fields_cls, "sample_metric",
                tracer.wrap("geometry.sample_metric",
                            vars(fields_cls)["sample_metric"])))
    for mod in LINALG_OWNERS:
        owner = modules[mod]
        out.append((owner, "spla", _LinalgStandIn(tracer, mod, owner.spla)))
    return out


@contextlib.contextmanager
def patched(targets):
    """Set each (owner, attribute, value); restore the originals on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# ============================================================
# metrics from spans
# ============================================================

def span_stats(spans):
    """name -> {"calls", "ms", "self_ms", "durations_ms"} from a span list.

    Self time is the span's duration minus the durations of its direct
    children; calls in one process never overlap, so children are disjoint.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ns[span["parent"]] += span["end"] - span["start"]
    stats = {}
    for span, nested in zip(spans, child_ns):
        dur = span["end"] - span["start"]
        st = stats.setdefault(span["name"], {"calls": 0, "ms": 0.0,
                                             "self_ms": 0.0,
                                             "durations_ms": []})
        st["calls"] += 1
        st["ms"] += dur / 1e6
        st["self_ms"] += (dur - nested) / 1e6
        st["durations_ms"].append(dur / 1e6)
    return stats


def percentile(values, p):
    """Nearest-rank percentile (p in (0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _first_saddle(spans):
    """The first flow factorization made inside a momentum step."""
    for span in spans:
        if span["name"] != "flow.splu":
            continue
        parent = span["parent"]
        while parent >= 0 and spans[parent]["name"] != "flow.momentum_step":
            parent = spans[parent]["parent"]
        if parent >= 0:
            return span
    return None


def layer_metrics(spans, report, series_bytes):
    """Per-layer metric values of one traced run, by metric name.

    Layers that did not run read 0. `report` is the run's report.json and
    `series_bytes` the size of its series.csv (0 when the mode writes none).
    """
    stats = span_stats(spans)

    def get(name, key):
        return stats[name][key] if name in stats else 0

    out = {}
    for name, keys in (
            ("equilibrium.solve_equilibrium", ("ms",)),
            ("geometry.build_geometry", ("calls", "ms")),
            ("geometry.sample_metric", ("calls", "ms")),
            ("heat.HeatOperators", ("calls", "self_ms")),
            ("heat.splu", ("calls", "ms")),
            ("heat.lu_solve", ("ms",)),
            ("heat.step_fd", ("calls", "self_ms")),
            ("flow.FlowOperators", ("calls", "self_ms")),
            ("flow.splu", ("calls", "ms")),
            ("flow.lu_solve", ("ms",)),
            ("flow.momentum_step", ("self_ms",)),
            ("diagnostics.energy_report", ("calls", "ms")),
            ("diagnostics.surface_norm", ("ms",)),
            ("diagnostics.bulk_norm", ("ms",)),
            ("corner.angular_eigenvalues", ("calls", "ms")),
            ("corner.wedge_poisson_probe", ("calls", "self_ms")),
            ("corner.spsolve", ("ms",)),
            ("cli.write_series_csv", ("ms",))):
        for key in keys:
            out[name + "." + key] = get(name, key)

    heat_lu = get("heat.splu", "calls")
    out["heat.lu_reuse"] = (get("heat.step_fd", "calls") / heat_lu
                            if heat_lu else 0.0)
    steps = get("flow.coupled_step", "durations_ms") or [0.0]
    out["flow.coupled_step.p50_ms"] = percentile(steps, 50)
    out["flow.coupled_step.p80_ms"] = percentile(steps, 80)
    saddle = _first_saddle(spans) or {"n": 0, "nnz": 0, "lu_nnz": 0}
    out["flow.saddle.n"] = saddle["n"]
    out["flow.saddle.nnz"] = saddle["nnz"]
    out["flow.lu.nnz"] = saddle["lu_nnz"]
    # computed, not measured: one float64 value and one int32 index per
    # stored L/U entry
    out["flow.lu.bytes_computed"] = 12 * saddle["lu_nnz"]
    out["flow.max_div_residual"] = report.get("max_div_residual", 0.0)
    out["cli.series_bytes"] = series_bytes
    return out
