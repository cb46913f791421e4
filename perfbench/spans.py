"""In-memory span tracer for the traced benchmark run.

The tracer replaces public functions of ``nvortex`` at the module attributes
their callers resolve (``nvortex.moduli.solve_taubes_2d``,
``nvortex.cli.compute_observables``, ...) and scipy's ``splu``, ``cg`` and
``spsolve`` entry points with wrappers that record a span per call.  Nothing
under ``src/`` changes; the patches are undone when the traced pass ends.

A span records its name, layer, start, end, parent span and job id.  A
span's self time is its duration minus the part of it covered by its child
spans, so the self times of all spans under a root add up to the root's
duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = (
    "config",
    "geometry",
    "operators",
    "singular",
    "solver2d",
    "shooting",
    "moduli",
    "observables",
    "verification",
    "cli",
)
#: scipy's sparse solvers.  Their spans form a layer of their own, ``scipy``,
#: so that ``solver2d.self_s`` is the Newton loop without the linear solves.
SCIPY_ENTRY_POINTS = ("splu", "cg", "spsolve")


@dataclass
class Span:
    name: str
    layer: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_info(result) -> dict:
    report = result[1]
    return {
        "iterations": report.iterations,
        "damping_events": report.damping_events,
        "converged": bool(report.converged),
    }


def _file_info(path) -> dict:
    return {"bytes": os.path.getsize(path)}


#: Counts taken from a wrapped call's public return value.
RESULT_INFO = {
    "solver2d.solve_taubes_2d": _solve_info,
    "observables.export_field_csv": _file_info,
    "observables.export_profile_csv": _file_info,
    "observables.export_scalar_csv": _file_info,
}


class Tracer:
    """Collects spans; ``job`` tags every span opened until it changes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, self.job, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str):
        info = RESULT_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = {"raised": type(exc).__name__}
                raise
            finally:
                self.close(span)
            if info is not None:
                span.info = info(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every attribute through which a public nvortex function is reached."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"nvortex.{layer}")
            for public in getattr(module, "__all__", ()):
                fn = getattr(module, public)
                if inspect.isfunction(fn):
                    originals[fn] = f"{layer}.{public}"
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"nvortex.{layer}")
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    name = originals[value]
                    if value not in wrappers:
                        wrappers[value] = self.wrap(value, name, name.split(".")[0])
                    self._patch(module, attr, wrappers[value])
        linalg = importlib.import_module("scipy.sparse.linalg")
        for attr in SCIPY_ENTRY_POINTS:
            self._patch(linalg, attr, self.wrap(getattr(linalg, attr), f"scipy.{attr}", "scipy"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for k, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for k, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[k], key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _ancestors(spans: list[Span], k: int):
    parent = spans[k].parent
    while parent is not None:
        yield parent
        parent = spans[parent].parent


def _has_ancestor(spans: list[Span], k: int, layer: str) -> bool:
    return any(spans[p].layer == layer for p in _ancestors(spans, k))


def calibrate_span_cost(calls: int = 20_000) -> float:
    """Seconds a wrapper adds to one call, timed on a no-op in this process."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "calibration.noop", "calibration")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, time.perf_counter() - start - bare) / calls


def layer_metrics(spans: list[Span], traced_wall: float, span_cost: float) -> dict:
    """Per-layer metrics of one traced pass, as ``{name: (value, unit)}``.

    ``trace.overhead_s`` is the spans recorded times ``span_cost``, the
    calibrated cost of one wrapped call; the wall time of a traced pass
    differs from an untraced one by this plus run-to-run noise, which on a
    shared machine is far larger.
    """
    own = self_times(spans)

    def pick(*names):
        return [k for k, s in enumerate(spans) if s.name in names]

    def total(ks):
        return sum(spans[k].duration for k in ks)

    def ratio(num, den):
        return num / den if den else 0.0

    solves = pick("solver2d.solve_taubes_2d")
    factors = pick("scipy.splu")
    cgs = pick("scipy.cg")
    builds = pick("singular.build_singular_part")
    greens = pick("singular.neumann_green", "singular.boundary_neumann_green")
    shoots = pick("shooting.shoot")
    final_passes = [k for k in pick("shooting.integrate_radial") if _has_ancestor(spans, k, "shooting")]
    metrics = pick("moduli.metric_coefficient")
    moduli_solves = [k for k in solves if _has_ancestor(spans, k, "moduli")]
    moduli_shoots = [k for k in shoots if _has_ancestor(spans, k, "moduli")]
    metric_solves = [
        k for k in solves
        if any(spans[p].name == "moduli.metric_coefficient" for p in _ancestors(spans, k))
    ]
    direct = {spans[k].parent for k in factors}
    csv = pick("observables.export_field_csv", "observables.export_profile_csv", "observables.export_scalar_csv")
    # Solves refused by the existence gate raise and carry no report.
    reports = [spans[k].info for k in solves if "iterations" in spans[k].info]
    newton_iters = sum(r["iterations"] for r in reports)

    out = {
        "solver2d.solve_s": (total(solves), "s"),
        "solver2d.solves": (len(solves), "count"),
        "solver2d.s_per_newton_iter": (ratio(total(solves), newton_iters), "s/iter"),
        "solver2d.factor_s": (total(factors), "s"),
        "solver2d.factor_calls": (len(factors), "count"),
        "solver2d.factor_share": (ratio(total(factors), total(k for k in solves if k in direct)), "ratio"),
        "solver2d.cg_s": (total(cgs), "s"),
        "solver2d.cg_calls": (len(cgs), "count"),
        "solver2d.newton_iters": (newton_iters, "count"),
        "solver2d.damping_events": (sum(r["damping_events"] for r in reports), "count"),
        "solver2d.unconverged": (sum(not r["converged"] for r in reports), "count"),
        "operators.assemble_s": (total(pick("operators.assemble_neumann_laplacian")), "s"),
        "operators.assemble_calls": (len(pick("operators.assemble_neumann_laplacian")), "count"),
        "singular.build_s": (total(builds), "s"),
        "singular.build_calls": (len(builds), "count"),
        "singular.builds_per_solve": (ratio(len(builds), len(solves)), "ratio"),
        "singular.green_s": (total(greens), "s"),
        "singular.green_calls": (len(greens), "count"),
        "shooting.shoot_s": (total(shoots), "s"),
        "shooting.shoots": (len(shoots), "count"),
        "shooting.final_pass_s": (total(final_passes), "s"),
        "shooting.passes_est": (ratio(total(shoots), total(final_passes)), "count"),
        "moduli.metric_s": (total(metrics), "s"),
        "moduli.nonlinear_solves": (len(moduli_solves), "count"),
        "moduli.solves_per_metric": (ratio(len(metric_solves), len(metrics)), "count"),
        "moduli.solve2d_s": (total(moduli_solves), "s"),
        "moduli.shoot_s": (total(moduli_shoots), "s"),
        "moduli.linear_bvp_s": (total(pick("moduli.solve_linear_bvp")), "s"),
        "observables.compute_s": (total(pick("observables.compute_observables")), "s"),
        "observables.csv_s": (total(csv), "s"),
        "observables.csv_bytes": (sum(spans[k].info.get("bytes", 0) for k in csv), "B"),
        "observables.json_s": (total(pick("observables.export_json")), "s"),
        "config.load_s": (total(pick("config.load_run_config")), "s"),
    }
    by_layer = defaultdict(float)
    for span, seconds in zip(spans, own):
        by_layer[span.layer] += seconds
    for layer in LAYERS + ("scipy", "bench"):
        out[f"{layer}.self_s"] = (by_layer[layer], "s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (len(spans) * span_cost, "s")
    out["trace.spans"] = (len(spans), "count")
    return out

