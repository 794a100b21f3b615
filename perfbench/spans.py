"""Outside-in tracing for the podsnap benchmark.

Spans are recorded only around calls *into* the package's layers; the
package itself is not modified. :func:`installed` swaps the traced names
for recording wrappers and puts the originals back on exit:

* ``solidify2d.solver``: every public ``CavitySolver`` method plus
  ``__init__``, and the ``splu`` that the solver module calls;
* ``solidify2d.model``: the ``viscosity_of`` name the solver module calls;
* ``pod``: ``decompose``, ``component_split``, ``write_spectrum_csv`` and
  the ``numpy.linalg`` svd/eigh/qr calls made from inside ``pod``;
* ``snapshots``: ``write_snap`` / ``read_snap``;
* ``cases1d``: the three generators;
* ``analysis``: ``compare`` and the two report writers;
* ``cli``: ``main``, the ``ThreadPoolExecutor`` that ``repro`` generates
  with, and the ``run_case`` / ``write_snap`` / ``write_config`` names it
  imports.

A span is ``[name, start, end, parent, thread, info]``: times are
``perf_counter`` seconds, ``parent`` is the index of the enclosing span
on the same thread (-1 at a thread's top level), and ``info`` holds the
counts taken at that boundary (factor fill, bytes, matrix shape).
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import weakref
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np
import scipy.sparse.linalg as spla

from podsnap import analysis, cases1d, cli, pod, snapshots
from podsnap.solidify2d import solver

NAME, START, END, PARENT, THREAD, INFO = range(6)


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[START] = perf_counter()
        return index

    def end(self, index):
        self.spans[index][END] = perf_counter()
        self._stack().pop()

    def wrap(self, name, fn, info=None):
        """``fn`` recording one span per call; ``info(args, result)``
        runs after the span closes and returns its counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if info is not None:
                self.spans[index][INFO] = info(args, result)
            return result

        return traced

    def load(self, path):
        """Append the spans another process dumped, keeping parent links."""
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
        offset = len(self.spans)
        for span in spans:
            if span[PARENT] >= 0:
                span[PARENT] += offset
        self.spans.extend(spans)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class _Proxy:
    """Module stand-in: listed attributes replaced, the rest delegated."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _splu_info(args, lu):
    return {"fill_nnz": int(lu.L.nnz + lu.U.nnz)}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else args[0])}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace the layer boundaries listed in the module docstring."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def trace(owner, attr, name, info=None):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), info))

    components = weakref.WeakValueDictionary()

    def component_info(args, result):
        components.update((id(sub), sub) for sub in result.values())
        return None

    def decompose_info(args, basis):
        m = args[0]
        return {
            "shape": [m.n_dof, m.n_snaps],
            "kept": basis.n_modes,
            "component": components.get(id(m)) is m,
        }

    cls = solver.CavitySolver
    try:
        trace(cls, "__init__", "solver.setup")
        for method in (
            "run", "step", "tentative_velocity", "pressure_correction",
            "velocity_update", "temperature_step", "check_cfl",
        ):
            trace(cls, method, f"solver.{method}")
        patch(solver, "spla", _Proxy(spla, splu=tracer.wrap("solver.splu", spla.splu, _splu_info)))
        trace(solver, "viscosity_of", "model.viscosity_of")

        linalg = np.linalg
        patch(pod, "np", _Proxy(np, linalg=_Proxy(
            linalg,
            svd=tracer.wrap("pod.linalg.svd", linalg.svd),
            eigh=tracer.wrap("pod.linalg.eigh", linalg.eigh),
            qr=tracer.wrap("pod.linalg.qr", linalg.qr),
        )))
        trace(pod, "decompose", "pod.decompose", decompose_info)
        trace(pod, "component_split", "pod.component_split", component_info)
        trace(pod, "write_spectrum_csv", "pod.write_spectrum_csv")

        trace(snapshots, "write_snap", "snapshots.write_snap", _file_bytes)
        trace(snapshots, "read_snap", "snapshots.read_snap", _file_bytes)
        for gen in ("solve_heat1d", "gen_advected_jump", "gen_sigmoid"):
            trace(cases1d, gen, f"cases1d.{gen}")
        for fn in ("compare", "write_report_csv", "write_verdicts_csv"):
            trace(analysis, fn, f"analysis.{fn}")

        patch(cli, "write_snap", tracer.wrap("cli.write_snap", snapshots.write_snap))
        trace(cli, "write_config", "cli.write_config")
        trace(cli, "run_case", "cli.run_case")
        trace(cli, "main", "cli.main")

        class GenerationPool(ThreadPoolExecutor):
            """The repro generation phase: pool entry to pool exit."""

            def __enter__(self):
                self._span = tracer.begin("cli.generate")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self._span)

        patch(cli, "ThreadPoolExecutor", GenerationPool)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# ----------------------------------------------------------------------
# reduction of spans to per-layer metrics
# ----------------------------------------------------------------------
def _flop_estimate(span, children):
    """Operation count of one decompose call from its shapes (Golub & Van
    Loan counts): thin SVD with vectors 6mn^2 + 20n^3; method of
    snapshots Gram 2mn^2, eigh 9n^3, lift 2mnk, reduced QR 4mk^2."""
    m, n = span[INFO]["shape"]
    if any(c[NAME] == "pod.linalg.svd" for c in children):
        big, small = max(m, n), min(m, n)
        return 6.0 * big * small**2 + 20.0 * small**3
    k = span[INFO]["kept"]
    return 2.0 * m * n * n + 9.0 * n**3 + 2.0 * m * n * k + 4.0 * m * k * k


def layer_metrics(spans, iterations: int) -> dict[str, float]:
    """Per-layer numbers from the spans of ``iterations`` traced iterations.

    Solver stage times are ms per step; ``solver.setup_ms`` is ms per
    construction; other layer times are totals per iteration.
    """
    dur = [s[END] - s[START] for s in spans]
    kids = defaultdict(list)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)

    def total(name):
        return sum(dur[i] for i in by_name[name])

    def child_total(i, names):
        return sum(dur[c] for c in kids[i] if spans[c][NAME] in names)

    out = {}
    ms = 1e3

    # solidify2d.solver and solidify2d.model -----------------------------
    steps = by_name["solver.step"]
    n_steps = len(steps)
    per_step = ms / max(n_steps, 1)
    stages = (
        "solver.tentative_velocity", "solver.pressure_correction",
        "solver.velocity_update", "solver.check_cfl", "solver.temperature_step",
    )
    factor = [c for i in by_name["solver.tentative_velocity"] for c in kids[i]
              if spans[c][NAME] == "solver.splu"]
    factor_s = sum(dur[c] for c in factor)
    step_ms = np.array([dur[i] for i in steps]) * ms
    out["solver.step_ms.p50"] = float(np.percentile(step_ms, 50)) if n_steps else 0.0
    out["solver.step_ms.p99"] = float(np.percentile(step_ms, 99)) if n_steps else 0.0
    out["solver.step_ms.mean"] = float(step_ms.mean()) if n_steps else 0.0
    out["solver.step_samples"] = n_steps
    out["solver.momentum_factor_ms"] = factor_s * per_step
    out["solver.momentum_rest_ms"] = (total("solver.tentative_velocity") - factor_s) * per_step
    out["solver.pressure_ms"] = total("solver.pressure_correction") * per_step
    out["solver.update_ms"] = total("solver.velocity_update") * per_step
    out["solver.cfl_ms"] = total("solver.check_cfl") * per_step
    out["solver.temperature_ms"] = total("solver.temperature_step") * per_step
    out["solver.step_self_ms"] = sum(dur[i] - child_total(i, stages) for i in steps) * per_step
    out["solver.collect_ms"] = sum(
        dur[i] - child_total(i, ("solver.step",)) for i in by_name["solver.run"]
    ) * per_step
    setups = by_name["solver.setup"]
    out["solver.setup_ms"] = total("solver.setup") * ms / max(len(setups), 1)
    out["solver.factor_calls_per_step"] = len(factor) / max(n_steps, 1)
    out["solver.factor_fill_nnz"] = sum(
        (spans[c][INFO] or {}).get("fill_nnz", 0) for c in factor) / max(n_steps, 1)
    out["model.viscosity_ms"] = total("model.viscosity_of") * per_step

    # pod -----------------------------------------------------------------
    per_iter = 1.0 / iterations
    linalg = ("pod.linalg.svd", "pod.linalg.eigh", "pod.linalg.qr")
    routes = {"direct": [0.0, 0, 0], "mos": [0.0, 0, 0]}
    components_s = total("pod.component_split")
    linalg_s = flop = nbytes = 0.0
    for i in by_name["pod.decompose"]:
        info = spans[i][INFO]
        if info is None:  # the call raised
            continue
        children = [spans[c] for c in kids[i]]
        route = "direct" if any(c[NAME] == "pod.linalg.svd" for c in children) else "mos"
        routes[route][0] += dur[i]
        routes[route][1] += info["kept"]
        routes[route][2] += min(info["shape"])
        if info["component"]:
            components_s += dur[i]
        linalg_s += child_total(i, linalg)
        nbytes += 8.0 * info["shape"][0] * info["shape"][1]
        flop += _flop_estimate(spans[i], children)
    out["pod.direct_ms"] = routes["direct"][0] * ms * per_iter
    out["pod.mos_ms"] = routes["mos"][0] * ms * per_iter
    out["pod.components_ms"] = components_s * ms * per_iter
    out["pod.linalg_ms"] = linalg_s * ms * per_iter
    out["pod.rest_ms"] = (total("pod.decompose") - linalg_s) * ms * per_iter
    for route, (_, kept, possible) in routes.items():
        out[f"pod.kept_fraction.{route}"] = kept / possible if possible else 0.0
    out["pod.gflop_computed"] = flop * 1e-9 * per_iter
    out["pod.mb_decomposed"] = nbytes / 1e6 * per_iter

    # snapshots -------------------------------------------------------------
    for op in ("write", "read"):
        idx = by_name[f"snapshots.{op}_snap"]
        nbytes = sum((spans[i][INFO] or {}).get("bytes", 0) for i in idx)
        seconds = sum(dur[i] for i in idx)
        out[f"snapshots.{op}_mb_per_s"] = nbytes / 1e6 / seconds if seconds else 0.0
        if op == "write":
            out["snapshots.bytes"] = nbytes * per_iter

    # cases1d and analysis ----------------------------------------------------
    out["cases1d.gen_ms"] = sum(
        total(f"cases1d.{g}") for g in ("solve_heat1d", "gen_advected_jump", "gen_sigmoid")
    ) * ms * per_iter
    out["analysis.compare_ms"] = total("analysis.compare") * ms * per_iter

    # cli ---------------------------------------------------------------------
    phases = {"generate": ("cli.generate",), "write": ("cli.write_snap", "cli.write_config"),
              "pod": ("pod.decompose", "pod.component_split", "pod.write_spectrum_csv"),
              "report": ("analysis.compare", "analysis.write_report_csv",
                         "analysis.write_verdicts_csv")}
    for phase, names in phases.items():
        out[f"cli.{phase}_s"] = sum(child_total(i, names) for i in by_name["cli.main"]) * per_iter
    overlap = []
    for g in by_name["cli.generate"]:
        main_thread = spans[g][THREAD]
        busy = sum(dur[i] for i, s in enumerate(spans)
                   if s[PARENT] == -1 and s[THREAD] != main_thread
                   and s[START] >= spans[g][START] and s[END] <= spans[g][END])
        overlap.append(busy / dur[g])
    out["cli.task_overlap"] = float(np.mean(overlap)) if overlap else 0.0
    return out
