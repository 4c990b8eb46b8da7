"""Outside-in tracing of the apdrec layers.

The tracer replaces library functions at every module attribute their
callers look them up by (``apdrec.higher.is_simplex``,
``apdrec.edges.radial_order``, the ``Oracle.query`` method, ...) with timing
wrappers, and restores the originals when it closes.  No library code is
edited.  Each wrapped call pushes a frame on a stack, so every call knows the
time its wrapped children took and its self time is exact.  Calls of the
layers below the oracle and the hottest geometry helpers are counted only;
every other call is also kept as a span (name, start, end, parent span, item
id, self time) for the JSON trace.
"""

from __future__ import annotations

import importlib
import sys
import time
import weakref
from fractions import Fraction
from statistics import median
from typing import Callable, Dict, List, Optional

# (module, attribute, label, keep spans).  "Class.method" patches the class.
TARGETS = [
    ("apdrec.oracle", "Oracle.query", "oracle.query", True),
    ("apdrec.oracle", "lower_star_heights", "oracle.heights", False),
    ("apdrec.oracle", "index_filtration", "oracle.filtration", False),
    ("apdrec.oracle", "_reduce_pairs", "oracle.reduce", False),
    ("apdrec.oracle", "_emit_points", "oracle.emit", False),
    ("apdrec.geometry", "dot", "geometry.dot", False),
    ("apdrec.geometry", "primitive_direction", "geometry.primitive_direction", False),
    ("apdrec.geometry", "_rref", "geometry._rref", False),
    ("apdrec.geometry", "orthogonal_to_affine_hull", "geometry.orthogonal_to_affine_hull", True),
    ("apdrec.geometry", "second_perpendicular_direction", "geometry.second_perpendicular_direction", True),
    ("apdrec.geometry", "tilt", "geometry.tilt", True),
    ("apdrec.geometry", "radial_order", "geometry.radial_order", True),
    ("apdrec.geometry", "separating_direction", "geometry.separating_direction", True),
    ("apdrec.vertices", "vertex_stage", "vertices.stage", True),
    ("apdrec.edges", "find_edges", "edges.stage", True),
    ("apdrec.edges", "split_wedge", "edges.split_wedge", True),
    ("apdrec.higher", "reconstruct", "higher.reconstruct", True),
    ("apdrec.higher", "is_simplex", "higher.is_simplex", True),
    ("apdrec.higher", "compute_indegree", "higher.compute_indegree", True),
    ("apdrec.descriptors", "betti_curve_from_apd", "descriptors.betti", True),
    ("apdrec.descriptors", "euler_curve_from_apd", "descriptors.euler", True),
    ("apdrec.complexes", "build_complex", "complexes.build_complex", True),
    ("apdrec.harness", "generate_complex", "harness.generate_complex", True),
    ("apdrec.harness", "verify_roundtrip", "harness.verify_roundtrip", True),
]

# the oracle queries of a stage are those made inside one of these calls
STAGE_OF = {
    "vertices.stage": "vertices",
    "edges.stage": "edges",
    "higher.is_simplex": "higher",
}


class Tracer:
    """Wraps the TARGETS while open; collects call statistics and spans.

    Use as a context manager around one phase of a run.  ``item`` is the
    identifier stamped on the spans recorded while it is set; ``active`` set
    to False makes every wrapper call straight through (used while the
    benchmark checks answers, so the checks are neither timed nor counted).
    """

    def __init__(self) -> None:
        self.item: Optional[str] = None
        self.active = True
        self.spans: List[Optional[tuple]] = []
        # label -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.query_seconds: List[float] = []
        self._stack: List[list] = []
        self._seen = weakref.WeakKeyDictionary()  # oracle -> primitive directions asked
        self._restore: List[tuple] = []
        self._t0 = 0.0
        self._primitive = None

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        geometry = importlib.import_module("apdrec.geometry")
        self._primitive = geometry.primitive_direction
        hooks = {
            "oracle.query": self._on_query,
            "higher.is_simplex": self._on_predicate,
            "harness.verify_roundtrip": self._on_verify,
        }
        for module_name, attr, label, keep in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name, None)
                original = getattr(owner, meth, None) if owner is not None else None
                if original is None:
                    continue
                wrapper = self._wrap(original, label, keep, hooks.get(label))
                self._restore.append((owner, meth, original))
                setattr(owner, meth, wrapper)
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue  # renamed or removed by a later version: reported as 0
            wrapper = self._wrap(original, label, keep, hooks.get(label))
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "apdrec" or name.startswith("apdrec.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, fn: Callable, label: str, keep: bool, hook: Optional[Callable]):
        tracer = self
        clock = time.perf_counter
        stats = self.stats.setdefault(label, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = None
            if keep:
                sid = len(tracer.spans)
                tracer.spans.append(None)
            frame = [label, 0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += own
                if keep:
                    parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                    tracer.spans[sid] = (
                        label, start - tracer._t0, end - tracer._t0, parent, tracer.item, own
                    )
            if hook is not None:
                hook(args, result, duration)
            return result

        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _on_query(self, args, dgm, duration) -> None:
        oracle, direction = args[0], args[1]
        stage = next((STAGE_OF[f[0]] for f in reversed(self._stack) if f[0] in STAGE_OF), None)
        if stage is not None:
            self._count(f"{stage}.queries")
        self.query_seconds.append(duration)
        self._count("oracle.points_emitted", len(dgm.points))
        complex_ = getattr(oracle, "_complex", None)
        if complex_ is not None:
            self._count("oracle.simplices", len(complex_.simplices))
        seen = self._seen.setdefault(oracle, set())
        canon = self._primitive(tuple(Fraction(x) for x in direction))
        if canon in seen:
            self._count("oracle.repeats")
        else:
            self._count("oracle.distinct_directions")
            seen.add(canon)

    def _on_predicate(self, args, hit, duration) -> None:
        self._count(f"higher.is_simplex.calls.k{len(args[0])}")
        if hit:
            self._count("higher.is_simplex.hits")

    def _on_verify(self, args, report, duration) -> None:
        self._count("edges.bound", report.edge_bound)

    # -- results -------------------------------------------------------------

    def calls(self, label: str) -> int:
        return int(self.stats.get(label, (0, 0.0, 0.0))[0])

    def seconds(self, label: str) -> float:
        return self.stats.get(label, (0, 0.0, 0.0))[1]

    def self_seconds(self, label: str) -> float:
        return self.stats.get(label, (0, 0.0, 0.0))[2]

    def dump(self) -> dict:
        """Spans and counters in JSON-ready form."""
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "item", "self_s"],
            "spans": [s for s in self.spans if s is not None],
            "calls": {k: {"calls": int(v[0]), "s": v[1], "self_s": v[2]} for k, v in self.stats.items()},
            "counts": dict(self.counts),
        }


GEOMETRY = [
    "dot",
    "primitive_direction",
    "_rref",
    "orthogonal_to_affine_hull",
    "second_perpendicular_direction",
    "tilt",
    "radial_order",
    "separating_direction",
]


def per_layer_metrics(setup: Tracer, run: Tracer, overhead_ratio: float) -> Dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit), from a traced setup and pass.

    Setup-phase figures (``harness.generate_complex.s`` and
    ``complexes.build_complex.*``) come from ``setup``; everything else from
    the traced pass ``run``.  A layer that did not run reads 0.
    """
    c = run.counts
    m: Dict[str, tuple] = {}
    queries = run.calls("oracle.query")
    m["oracle.query.calls"] = (queries, "count")
    m["oracle.query.s"] = (run.seconds("oracle.query"), "s")
    m["oracle.query.ms_p50"] = (
        median(run.query_seconds) * 1000 if run.query_seconds else 0.0, "ms"
    )
    m["oracle.simplices_per_query"] = (
        c.get("oracle.simplices", 0) / queries if queries else 0.0, "count"
    )
    m["oracle.points_emitted"] = (c.get("oracle.points_emitted", 0), "count")
    m["oracle.distinct_directions"] = (c.get("oracle.distinct_directions", 0), "count")
    m["oracle.repeat_ratio"] = (c.get("oracle.repeats", 0) / queries if queries else 0.0, "ratio")
    m["oracle.heights.s"] = (run.seconds("oracle.heights"), "s")
    m["oracle.sort.s"] = (run.self_seconds("oracle.filtration"), "s")
    m["oracle.reduce.s"] = (run.seconds("oracle.reduce"), "s")
    m["oracle.emit.s"] = (run.seconds("oracle.emit"), "s")
    for fn in GEOMETRY:
        m[f"geometry.{fn}.calls"] = (run.calls(f"geometry.{fn}"), "count")
        m[f"geometry.{fn}.s"] = (run.seconds(f"geometry.{fn}"), "s")

    m["vertices.stage.s"] = (run.seconds("vertices.stage"), "s")
    m["vertices.queries"] = (c.get("vertices.queries", 0), "count")

    edge_queries = c.get("edges.queries", 0)
    m["edges.stage.s"] = (run.seconds("edges.stage"), "s")
    m["edges.self_s"] = (
        run.self_seconds("edges.stage") + run.self_seconds("edges.split_wedge"), "s"
    )
    m["edges.queries"] = (edge_queries, "count")
    m["edges.split_wedge.calls"] = (run.calls("edges.split_wedge"), "count")
    bound = c.get("edges.bound", 0)
    m["edges.budget_use"] = (edge_queries / bound if bound else 0.0, "ratio")

    predicates = run.calls("higher.is_simplex")
    m["higher.stage.s"] = (
        max(
            0.0,
            run.seconds("higher.reconstruct")
            - run.seconds("vertices.stage")
            - run.seconds("edges.stage"),
        ),
        "s",
    )
    m["higher.self_s"] = (
        sum(
            run.self_seconds(k)
            for k in ("higher.reconstruct", "higher.is_simplex", "higher.compute_indegree")
        ),
        "s",
    )
    m["higher.queries"] = (c.get("higher.queries", 0), "count")
    for k in (2, 3, 4):
        m[f"higher.is_simplex.calls.k{k}"] = (c.get(f"higher.is_simplex.calls.k{k}", 0), "count")
    m["higher.compute_indegree.calls"] = (run.calls("higher.compute_indegree"), "count")
    m["higher.hit_ratio"] = (
        c.get("higher.is_simplex.hits", 0) / predicates if predicates else 0.0, "ratio"
    )

    m["descriptors.betti.calls"] = (run.calls("descriptors.betti"), "count")
    m["descriptors.betti.s"] = (run.seconds("descriptors.betti"), "s")
    m["descriptors.euler.calls"] = (run.calls("descriptors.euler"), "count")
    m["descriptors.euler.s"] = (run.seconds("descriptors.euler"), "s")

    m["complexes.build_complex.calls"] = (setup.calls("complexes.build_complex"), "count")
    m["complexes.build_complex.s"] = (setup.seconds("complexes.build_complex"), "s")
    m["harness.generate_complex.s"] = (setup.seconds("harness.generate_complex"), "s")
    m["harness.verify_roundtrip.s"] = (run.seconds("harness.verify_roundtrip"), "s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    m["trace.spans"] = (len(run.spans), "count")
    return m
