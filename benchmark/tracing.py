"""Spans around the calls into each layer of loopinv, and the per-layer
metrics derived from them.

``install`` replaces each function named in LAYERS, at every place a
loopinv module holds it, with a wrapper that records one span: layer,
name, start, end, parent span, request id, and a few shape counts read
with defensive ``getattr``.  A name that no longer exists is skipped, so
its layer reports zero calls; a refactor of the program never needs an
edit here to keep the benchmark running.

A layer's self time is the time its spans cover minus the part their
child spans cover.  Over one request the self times of all spans add up
to the request span, which ``trace.coverage`` checks.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# layer -> "module:qualified.name" of every function whose calls it owns
LAYERS = {
    "cli": ["loopinv.cli:main"],
    "pseudoisotopy": ["loopinv.pseudoisotopy:pseudoisotopy_table"],
    "models": [
        "loopinv.models:parse_model",
        "loopinv.models:borel_model",
        "loopinv.models:loop_model",
        "loopinv.models:base_dga",
        "loopinv.models:point_borel_model",
    ],
    "models.gate": ["loopinv.algebra:check_differential"],
    "cohomology": ["loopinv.cohomology:eigen_table"],
    "cohomology.assembly": ["loopinv.cohomology:cochain_matrix"],
    "algebra.derivation": ["loopinv.algebra:Derivation.__call__"],
    "algebra.basis": ["loopinv.algebra:GradedAlgebra.monomial_basis"],
    "linalg.kernel": [
        "loopinv.linalg:kernel_and_pivots",
        "loopinv.linalg:rank",
        "loopinv.linalg:kernel_basis",
    ],
    "linalg.span": [
        "loopinv.linalg:pivot_columns",
        "loopinv.linalg:solve_in_span",
        "loopinv.linalg:involution_eigen_dims",
    ],
}
TRACE_LAYER = "trace"  # time the wrappers spend reading shapes

# layer -> (self-time metric, call-count metric)
LAYER_METRICS = {
    "cli": ("cli.s", None),
    "pseudoisotopy": ("pseudoisotopy.s", None),
    "models": ("models.s", "models.calls"),
    "models.gate": ("models.gate_s", "models.gate_calls"),
    "cohomology": ("cohomology.s", None),
    "cohomology.assembly": ("cohomology.assembly_s", "cohomology.assembly_calls"),
    "algebra.derivation": ("algebra.derivation_s", "algebra.derivation_calls"),
    "algebra.basis": ("algebra.basis_s", "algebra.basis_calls"),
    "linalg.kernel": ("linalg.kernel_s", "linalg.kernel_calls"),
    "linalg.span": ("linalg.span_s", "linalg.span_calls"),
}

# A span is a list of these fields, in this order.
FIELDS = ("id", "parent", "request", "layer", "name", "start", "end", "stats")
ID, PARENT, REQUEST, LAYER, NAME, START, END, STATS = range(len(FIELDS))


def _size(m) -> tuple[int, int] | None:
    rows, cols = getattr(m, "rows", None), getattr(m, "cols", None)
    if isinstance(rows, int) and isinstance(cols, int):
        return rows, cols
    return None


def _matrix_stats(args, kwargs, result) -> dict:
    size = _size(args[0]) if args else None
    return {"rows": size[0], "cols": size[1]} if size else {}


def _assembly_stats(args, kwargs, result) -> dict:
    size = _size(result)
    if not size:
        return {}
    stats = {"rows": size[0], "cols": size[1]}
    nnz = getattr(result, "nnz", None)
    if nnz is None:
        entries = getattr(result, "entries", None)
        nnz = sum(1 for e in entries if e) if entries is not None else None
    if isinstance(nnz, int):
        stats["nonzero"] = nnz
    return stats


def _table_stats(args, kwargs, result) -> dict:
    slices = getattr(result, "slices", None)
    return {"degrees": len(slices)} if slices is not None else {}


def _basis_stats(args, kwargs, result) -> dict:
    return {"monomials": len(result)} if hasattr(result, "__len__") else {}


SHAPE_READERS = {
    "linalg.kernel": _matrix_stats,
    "linalg.span": _matrix_stats,
    "cohomology.assembly": _assembly_stats,
    "cohomology": _table_stats,
    "algebra.basis": _basis_stats,
}


class Tracer:
    """Spans of one child interpreter, kept in memory until it exits.
    Single-threaded: the current span is a plain attribute."""

    def __init__(self):
        self.spans: list[list] = []
        self.current: int | None = None
        self.request: int | None = None
        self.missing: list[str] = []

    def wrap(self, layer: str, name: str, fn):
        stats = SHAPE_READERS.get(layer)
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = self.current
            sid = len(spans)
            span = [sid, parent, self.request, layer, name, 0.0, 0.0, None]
            spans.append(span)
            self.current = sid
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = perf_counter()
                self.current = parent
            if stats is not None:
                span[STATS] = stats(args, kwargs, result)
                spans.append(
                    [len(spans), parent, self.request, TRACE_LAYER, name, end, perf_counter(), None]
                )
            return result

        return wrapper


def _resolve(target: str):
    """(owner, attribute, function) for "module:Qual.name", or None."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


def install(tracer: Tracer, layers: dict | None = None) -> Tracer:
    """Wrap every function named in ``layers`` that exists.  A module-level
    function is replaced in every loaded ``loopinv`` module that holds it
    (its use sites); a method is replaced on its class."""
    for layer, targets in (LAYERS if layers is None else layers).items():
        for target in targets:
            found = _resolve(target)
            if found is None:
                tracer.missing.append(target)
                continue
            owner, attr, fn = found
            wrapper = tracer.wrap(layer, target.partition(":")[2], fn)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                for name, module in list(sys.modules.items()):
                    if module is None or not (name == "loopinv" or name.startswith("loopinv.")):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)
    return tracer


# ---------------------------------------------------------------------
# metrics from spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover
    (children clipped to their parent's interval)."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s[ID]: s for s in spans}
    for s in spans:
        p = s[PARENT]
        if p is not None and p in by_id:
            parent = by_id[p]
            lo, hi = max(s[START], parent[START]), min(s[END], parent[END])
            if hi > lo:
                children.setdefault(p, []).append((lo, hi))
    return {
        s[ID]: (s[END] - s[START]) - _covered(children.get(s[ID], [])) for s in spans
    }


def _outermost(spans: list, by_id: dict) -> list:
    """Spans whose parent is not in the same layer: one per call into the
    layer from outside it."""
    out = []
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is None or parent[LAYER] != s[LAYER]:
            out.append(s)
    return out


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  A layer without spans, for
    instance because its functions no longer exist, reports zeros."""
    by_id = {s[ID]: s for s in spans}
    own = self_times(spans)
    metrics: dict[str, float] = {}
    for layer, (time_name, calls_name) in LAYER_METRICS.items():
        metrics[time_name] = sum(own[s[ID]] for s in spans if s[LAYER] == layer)
        if calls_name:
            metrics[calls_name] = 0
    outer = [s for s in _outermost(spans, by_id) if s[LAYER] != TRACE_LAYER]
    stats = {layer: [] for layer in LAYER_METRICS}
    for s in outer:
        if s[LAYER] in stats:
            stats[s[LAYER]].append(s[STATS] or {})
            _, calls_name = LAYER_METRICS[s[LAYER]]
            if calls_name:
                metrics[calls_name] += 1

    def total(layer, key):
        return sum(st.get(key, 0) for st in stats[layer])

    def entries(layer):
        return sum(st.get("rows", 0) * st.get("cols", 0) for st in stats[layer])

    metrics["linalg.kernel_entries"] = entries("linalg.kernel")
    metrics["linalg.max_cols"] = max((st.get("cols", 0) for st in stats["linalg.kernel"]), default=0)
    metrics["linalg.span_entries"] = entries("linalg.span")
    metrics["cohomology.degrees"] = total("cohomology", "degrees")
    assembly_entries = entries("cohomology.assembly")
    metrics["cohomology.assembly_entries"] = assembly_entries
    metrics["cohomology.assembly_nonzero_ratio"] = (
        total("cohomology.assembly", "nonzero") / assembly_entries if assembly_entries else 0.0
    )
    metrics["algebra.basis_monomials"] = total("algebra.basis", "monomials")

    def inside(span, layer):
        p = span[PARENT]
        while p is not None and p in by_id:
            if by_id[p][LAYER] == layer:
                return True
            p = by_id[p][PARENT]
        return False

    pseudo_calls = sum(1 for s in outer if s[LAYER] == "pseudoisotopy")
    tables = sum(1 for s in outer if s[LAYER] == "cohomology" and inside(s, "pseudoisotopy"))
    metrics["pseudoisotopy.tables_per_request"] = tables / pseudo_calls if pseudo_calls else 0.0

    roots = [s for s in spans if s[PARENT] is None and s[LAYER] != TRACE_LAYER]
    request_wall = sum(s[END] - s[START] for s in roots)
    metrics["trace.coverage"] = sum(own.values()) / request_wall if request_wall else 0.0
    return metrics
