"""Spans around the public calls into each a2zeta layer.

The benchmark wraps the functions listed in LAYERS from the outside: every
module namespace of the a2zeta package that holds one of them (its own
module, and the modules that imported it by name, such as cli) gets a
wrapper that records a span.  The traced run therefore executes the same
cli.main calls as the untraced one; the program itself has no hook.

A span's self time is its duration minus the time covered by its child
spans, so the self times of one pass add up to the time spent inside
traced calls.  Spans stay in memory and are written out with the report.
"""

import functools
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    """One traced function: metric prefix and attribute path in its module."""

    name: str  # <module>.<function>, the prefix of its metric names
    attr: str  # attribute path inside a2zeta.<module>
    counts: tuple = ()  # names of the counts measure() returns
    measure: object = None  # (args, kwargs, result) -> {count: value}
    kinds: tuple = ()  # labels that split the span by argument
    kind: object = None  # (args, kwargs) -> one of kinds


def _det_kind(args, kwargs):
    # det_i_minus_u3(m, sign): sign 1 gives PE = det(I - u^3 ME), -1 gives PB.
    sign = kwargs.get("sign", args[1] if len(args) > 1 else 1)
    return "pb" if sign == -1 else "pe"


def _det_counts(args, kwargs, p):
    return {
        "dim": len(args[0]),
        "degree": p.degree,
        "coeff_bits": max(abs(c) for c in p.coeffs).bit_length(),
    }


def _operator_counts(args, kwargs, op):
    if isinstance(op, tuple):  # vertex_hecke returns (A1, A2)
        op = op[0]
    return {"dim": op.dim, "nnz": len(op.entries)}


def _walks(args, kwargs, count):
    return {"walks": count}


OPERATOR = dict(counts=("dim", "nnz"), measure=_operator_counts)
WALKS = dict(counts=("walks",), measure=_walks)

LAYERS = (
    Layer("fileio.parse_complex", "parse_complex"),
    Layer("fileio.parse_graph", "parse_graph"),
    Layer("complexes.validate", "validate"),
    Layer("operators.vertex_hecke", "vertex_hecke", **OPERATOR),
    Layer("operators.edge_operator", "edge_operator", **OPERATOR),
    Layer("operators.chamber_operator", "chamber_operator", **OPERATOR),
    Layer("operators.trace_power", "SparseOperator.trace_power"),
    Layer("zeta.zeta_bundle", "zeta_bundle"),
    Layer("zeta.vertex_determinant", "vertex_determinant"),
    Layer(
        "zeta.cyclic_block_product",
        "cyclic_block_product",
        counts=("dim",),
        measure=lambda args, kwargs, m: {"dim": len(m)},
    ),
    Layer(
        "zeta.det_i_minus_u3",
        "det_i_minus_u3",
        counts=("dim", "degree", "coeff_bits"),
        measure=_det_counts,
        kinds=("pe", "pb"),
        kind=_det_kind,
    ),
    Layer("zeta.check_main_identity", "check_main_identity"),
    Layer("zeta.ramanujan_check", "ramanujan_check"),
    Layer("enumeration.count_galleries", "count_galleries", **WALKS),
    Layer("enumeration.count_type1_geodesics", "count_type1_geodesics", **WALKS),
    Layer("building.verify_tamagawa", "verify_tamagawa"),
    Layer("building.verify_geodesic_criterion", "verify_geodesic_criterion"),
    Layer("satake.verify_recursion_42", "verify_recursion_42"),
    Layer("satake.verify_sigma3_identity", "verify_sigma3_identity"),
    Layer("graphs.edge_adjacency", "edge_adjacency"),
    Layer(
        "graphs.ihara_zeta",
        "ihara_zeta",
        counts=("dim",),
        # the Hashimoto matrix acts on the 2m directed edges
        measure=lambda args, kwargs, result: {"dim": 2 * args[0].m},
    ),
    Layer("graphs.ramanujan_graph_check", "ramanujan_graph_check"),
    Layer("graphs.count_closed_walks", "count_closed_walks", **WALKS),
    Layer("planes.build_plane", "build_plane"),
    Layer("presentations.search_triangle_presentations", "search_triangle_presentations"),
    Layer("presentations.complex_from_presentation", "complex_from_presentation"),
    Layer("fileio.serialize_complex", "serialize_complex"),
)

# Layers that only the set-up calls; their numbers come from a traced set-up.
SETUP_LAYERS = frozenset(
    {
        "planes.build_plane",
        "presentations.search_triangle_presentations",
        "presentations.complex_from_presentation",
        "fileio.serialize_complex",
    }
)

# Counts that add up over calls; every other count keeps its largest value.
SUMMED_COUNTS = frozenset({"walks"})


def span_names(layer):
    if layer.kinds:
        return [f"{layer.name}.{k}" for k in layer.kinds]
    return [layer.name]


def layer_metric_units():
    """Metric name -> unit for the self times and counts of LAYERS."""
    units = {}
    for layer in LAYERS:
        for span in span_names(layer):
            units[f"{span}.self_s"] = "s"
            for c in layer.counts:
                units[f"{span}.{c}"] = "count"
    return units


class Tracer:
    """Collects spans, self times and counts while it is installed."""

    def __init__(self, keep=()):
        self.spans = []  # [name, start, end, parent index, operation label]
        self.self_s = {}
        self.counts = {}
        self.kept = {name: [] for name in keep}  # span name -> [(label, result)]
        self.operation = None
        self._stack = []  # [span index, child time]

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.operation])
        self._stack.append([index, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, child = self._stack.pop()
            span = self.spans[index]
            span[2] = end
            duration = end - span[1]
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
            if self._stack:
                self._stack[-1][1] += duration

    def count(self, name, values):
        for key, value in values.items():
            metric = f"{name}.{key}"
            old = self.counts.get(metric, 0)
            self.counts[metric] = old + value if key in SUMMED_COUNTS else max(old, value)

    def traced_total(self):
        """Time spent inside traced calls: the sum of all self times."""
        return sum(self.self_s.values())


def _wrap(tracer, layer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = f"{layer.name}.{layer.kind(args, kwargs)}" if layer.kind else layer.name
        result = tracer.call(name, fn, args, kwargs)
        if layer.measure:
            tracer.count(name, layer.measure(args, kwargs, result))
        if name in tracer.kept:
            tracer.kept[name].append((tracer.operation, result))
        return result

    return wrapper


def install(tracer):
    """Wrap every layer function in every a2zeta namespace; returns an undo list.

    A layer absent from this version of the program is skipped, and its
    metrics read 0.
    """
    modules = [
        m for n, m in list(sys.modules.items()) if n == "a2zeta" or n.startswith("a2zeta.")
    ]
    undo = []
    for layer in LAYERS:
        module = sys.modules.get("a2zeta." + layer.name.split(".")[0])
        owner_path, _, attr = layer.attr.rpartition(".")
        owner = module
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapper = _wrap(tracer, layer, original)
        targets = [(owner, attr)] if owner_path else [
            (m, key) for m in modules for key, value in vars(m).items() if value is original
        ]
        for obj, key in targets:
            setattr(obj, key, wrapper)
            undo.append((obj, key, original))
    return undo


def uninstall(undo):
    for obj, key, original in reversed(undo):
        setattr(obj, key, original)
