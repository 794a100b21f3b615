"""The benchmark in ``perfbench/`` imports and patches package names and
freezes outputs; a rename, a deletion or a moved output fails here rather
than only in a benchmark run."""

import importlib.util
import pathlib

import numpy as np
import pytest

from podsnap import cli, pod
from podsnap.grids import StaggeredGrid2D
from podsnap.snapshots import matrix_from_array
from podsnap.solidify2d import SimConfig, run_case

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_resolve_and_tracer_restores_them():
    load("workloads")
    spans = load("spans")
    before = {name: getattr(cli, name) for name in
              ("ThreadPoolExecutor", "run_case", "write_snap", "write_config", "main")}
    with spans.installed(spans.Tracer()):
        assert cli.main is not before["main"]
    assert {name: getattr(cli, name) for name in before} == before


def test_traced_spectrum_reads_do_not_force_the_factor():
    # decompose_info reads basis.n_modes after every traced call; that
    # read, like .spectrum, must not compute the modes. The tracer sees
    # the numpy.linalg calls, which only the factor paths make.
    spans = load("spans")
    m = matrix_from_array(np.random.default_rng(1).normal(size=(40, 6)))
    with spans.installed(spans.Tracer()) as tracer:
        bases = [pod.decompose(m, method) for method in ("direct", "method_of_snapshots")]
        assert [basis.spectrum.sigma.size for basis in bases] == [6, 6]
        names = [span[spans.NAME] for span in tracer.spans]
        assert names == ["pod.decompose", "pod.decompose"]
        for basis in bases:
            basis.modes
    names = [span[spans.NAME] for span in tracer.spans]
    assert names[2:] == ["pod.linalg.svd", "pod.linalg.svd"]


def test_traced_step_factors_both_momentum_systems():
    # the momentum metrics read the splu spans under tentative_velocity,
    # so a change to what the solver hands splu must show here
    spans = load("spans")
    cfg = SimConfig(grid=StaggeredGrid2D(8, 8), dt=2e-3, n_steps=4, snap_every=2)
    with spans.installed(spans.Tracer()) as tracer:
        run_case(cfg)
    steps = [i for i, span in enumerate(tracer.spans)
             if span[spans.NAME] == "solver.tentative_velocity"]
    assert len(steps) == 4
    for i in steps:
        factors = [span for span in tracer.spans
                   if span[spans.PARENT] == i and span[spans.NAME] == "solver.splu"]
        assert len(factors) == 2
        assert all(span[spans.INFO]["fill_nnz"] > 0 for span in factors)
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["solver.factor_calls_per_step"] == 2


@pytest.mark.slow
def test_one_iteration_meets_the_frozen_outputs(tmp_path, monkeypatch):
    # repro-small runs the CLI in a child process, which must import this checkout
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    workloads = load("workloads")
    for workload in (workloads.CavityDesk(0, tmp_path), workloads.PodSpectra(0, tmp_path),
                     workloads.ReproSmall(0, tmp_path)):
        workload.prepare()
        checks = workloads.Checks()
        outputs, _ = workload.run(None)
        workload.check(outputs, checks)
        assert checks.failed == 0, (workload.name, checks.messages)
