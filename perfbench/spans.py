"""Span tracing of weightopt from outside the package, and the per-layer
numbers derived from the spans.

Each traced function is replaced, in every ``weightopt`` module namespace
that binds it, by a wrapper that records a span (name, start, end, parent,
op id, attributes).  Every binding is replaced because callers resolve the
name in their own module: ``cli`` calls ``weightopt.cli.symmetrize_function``
and ``optimize`` calls ``weightopt.optimize.principal_positive_eigenvalue``.
Spans stay in memory until the run ends; nothing inside ``src/`` changes.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

# (layer, module, public functions of that module whose calls make up the layer)
TRACED = (
    ("cli", "weightopt.cli", ("main",)),
    ("grid", "weightopt.io", ("domain_from_config",)),
    ("grid", "weightopt.grid", ("make_box", "make_rectangle", "make_ellipse", "from_mask")),
    ("eig", "weightopt.eig", ("principal_positive_eigenvalue", "assemble_stiffness",
                              "dominating_shift")),
    ("optimize", "weightopt.optimize", ("optimize_two", "optimize_single",
                                        "rearrangement_step")),
    ("steiner", "weightopt.steiner", ("symmetrize_function", "symmetrize_set",
                                      "symmetry_defect")),
    ("io", "weightopt.io", ("write_field_csv", "write_pgm", "write_results_json")),
)
LAYER_OF = {fn: layer for layer, _, fns in TRACED for fn in fns}
SOLVE = "principal_positive_eigenvalue"
OPTIMIZERS = ("optimize_two", "optimize_single")
WRITERS = TRACED[-1][2]


class Span:
    """A traced call; `dur` is its wall time times the op's speed factor."""

    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "scale")

    def __init__(self, name: str, parent: int | None, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.attrs: dict = {}
        self.scale = 1.0

    @property
    def dur(self) -> float:
        return (self.end - self.start) * self.scale


class Tracer:
    """Records spans for calls made while an op is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        # identities within one op: weights made by rearrangement_step, and
        # eigenfunctions returned by polish probes
        self._step_results: dict[int, object] = {}
        self._probe_us: dict[int, object] = {}

    def start_op(self, op) -> None:
        self.op = op
        self._step_results.clear()
        self._probe_us.clear()

    def end_op(self) -> None:
        self.op = None
        self._step_results.clear()
        self._probe_us.clear()

    def install(self) -> None:
        bindings = [m for name, m in sys.modules.items()
                    if name == "weightopt" or name.startswith("weightopt.")]
        for _, module_name, names in TRACED:
            for name in names:
                fn = getattr(sys.modules[module_name], name)
                wrapper = self._wrap(name, fn)
                for mod in bindings:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = Span(name, tracer._stack[-1] if tracer._stack else None, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer._annotate(span, args, kwargs, result)  # only calls that returned
            return result

        return traced

    def _annotate(self, span: Span, args, kwargs, result) -> None:
        a = span.attrs
        if span.name == SOLVE:
            a["iterations"] = result.iterations
            a["residual"] = result.residual
            a["cold"] = kwargs.get("u0") is None
            if any(self.spans[i].name in OPTIMIZERS for i in self._stack):
                m = args[1] if len(args) > 1 else kwargs["m"]
                if a["cold"]:
                    a["kind"] = "seed"
                elif id(m) in self._step_results:
                    a["kind"] = "descent"
                else:
                    a["kind"] = "probe"
                    self._probe_us[id(result.u)] = result.u
        elif span.name == "rearrangement_step":
            self._step_results[id(result)] = result
            u = args[1] if len(args) > 1 else kwargs["u"]
            # the optimizer resumes descent from an accepted swap by ranking
            # cells by that probe's eigenfunction
            a["after_accept"] = self._probe_us.pop(id(u), None) is not None
        elif span.name == "domain_from_config":
            a["n_cells"] = result.n_cells
        elif span.name in WRITERS:
            a["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "scale": s.scale, "parent": s.parent, "op": s.op,
                                     **s.attrs}) + "\n")


class OpView:
    """The spans of a set of ops, with the relations the metrics need."""

    def __init__(self, spans: list[Span], ops):
        ops = set(ops)
        self.spans = spans
        self.ids = [i for i, s in enumerate(spans) if s.op in ops]
        self.children: dict[int, list[int]] = {}
        for i in self.ids:
            if spans[i].parent is not None:
                self.children.setdefault(spans[i].parent, []).append(i)

    def named(self, *names: str) -> list[Span]:
        return [self.spans[i] for i in self.ids if self.spans[i].name in names]

    def self_time(self, i: int) -> float:
        return self.spans[i].dur - sum(self.spans[c].dur for c in self.children.get(i, ()))

    def outermost(self, layer: str, names=None) -> list[int]:
        """Spans of `layer` (optionally only `names`) with no ancestor in it."""
        out = []
        for i in self.ids:
            s = self.spans[i]
            if LAYER_OF[s.name] != layer or (names and s.name not in names):
                continue
            p = s.parent
            while p is not None and LAYER_OF[self.spans[p].name] != layer:
                p = self.spans[p].parent
            if p is None:
                out.append(i)
        return out

    def total(self, ids) -> float:
        return sum(self.spans[i].dur for i in ids)


def op_counters(view: OpView) -> dict:
    """Machine-independent counts over the spans of `view`."""
    solves = view.named(SOLVE)
    steps = view.named("rearrangement_step")
    writes = view.named(*WRITERS)
    return {
        "solves": len(solves),
        "cold_solves": sum(s.attrs.get("cold", False) for s in solves),
        "outer_iters": sum(s.attrs.get("iterations", 0) for s in solves),
        "seed_solves": sum(s.attrs.get("kind") == "seed" for s in solves),
        "descent_solves": sum(s.attrs.get("kind") == "descent" for s in solves),
        "polish_probes": sum(s.attrs.get("kind") == "probe" for s in solves),
        "polish_accepts": sum(s.attrs.get("after_accept", False) for s in steps),
        "fixed_point_steps": len(steps),
        "steiner_calls": len(view.outermost("steiner")),
        "files": len(writes),
        "bytes_written": sum(s.attrs.get("bytes", 0) for s in writes),
    }


def per_layer(spans: list[Span], ops: list) -> dict[str, float]:
    """Per-layer metrics, per op over `ops` (sums divided by their count)."""
    v = OpView(spans, ops)
    n = len(ops)
    c = op_counters(v)
    mains = [i for i in v.ids if spans[i].name == "main"]
    op_time = v.total(mains)
    solves = v.named(SOLVE)
    probes = c["polish_probes"]
    cells = [s.attrs.get("n_cells", 0) for s in v.named("domain_from_config")]
    return {
        "cli.self_s": sum(v.self_time(i) for i in mains) / n,
        "grid.domain_s": v.total(v.outermost("grid")) / n,
        "grid.n_cells": statistics.fmean(cells) if cells else 0.0,
        "eig.solve_s_total": sum(s.dur for s in solves) / n,
        "eig.solve_s_p50": statistics.median(s.dur for s in solves) if solves else 0.0,
        "eig.share": v.total(v.outermost("eig")) / op_time,
        "eig.assemble_s": sum(s.dur for s in v.named("assemble_stiffness")) / n,
        "eig.shift_s": sum(s.dur for s in v.named("dominating_shift")) / n,
        "eig.solves": c["solves"] / n,
        "eig.cold_solves": c["cold_solves"] / n,
        "eig.warm_solves": (c["solves"] - c["cold_solves"]) / n,
        "eig.outer_iters": c["outer_iters"] / n,
        "eig.iters_per_solve": c["outer_iters"] / c["solves"] if solves else 0.0,
        "eig.residual_max": max((s.attrs.get("residual", 0.0) for s in solves), default=0.0),
        "optimize.self_s": sum(v.self_time(i) for i in v.outermost("optimize", OPTIMIZERS)) / n,
        "optimize.step_s": sum(s.dur for s in v.named("rearrangement_step")) / n,
        "optimize.seed_solves": c["seed_solves"] / n,
        "optimize.descent_solves": c["descent_solves"] / n,
        "optimize.polish_probes": probes / n,
        "optimize.polish_accepts": c["polish_accepts"] / n,
        "optimize.accept_ratio": c["polish_accepts"] / probes if probes else 0.0,
        "optimize.solves_per_op": (c["seed_solves"] + c["descent_solves"] + probes) / n,
        "optimize.fixed_point_steps": c["fixed_point_steps"] / n,
        "steiner.symmetrize_s": v.total(v.outermost(
            "steiner", ("symmetrize_function", "symmetrize_set"))) / n,
        "steiner.defect_s": v.total(v.outermost("steiner", ("symmetry_defect",))) / n,
        "steiner.calls": c["steiner_calls"] / n,
        "io.write_s": v.total(v.outermost("io")) / n,
        "io.files": c["files"] / n,
        "io.bytes_written": c["bytes_written"] / n,
    }
