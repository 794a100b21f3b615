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
from podsnap.solidify2d import solver as solver_module

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
    # read, like .spectrum, must not compute the modes, which the basis
    # keeps in its cached _factor once computed
    spans = load("spans")
    m = matrix_from_array(np.random.default_rng(1).normal(size=(40, 6)))
    with spans.installed(spans.Tracer()) as tracer:
        bases = [pod.decompose(m, method) for method in ("direct", "method_of_snapshots")]
        assert [basis.spectrum.sigma.size for basis in bases] == [6, 6]
        names = [span[spans.NAME] for span in tracer.spans]
        assert names == ["pod.decompose", "pod.decompose"]
        for basis in bases:
            assert "_factor" not in vars(basis)
            assert basis.modes.shape == (40, 6)
            assert "_factor" in vars(basis)


def test_traced_step_factors_both_momentum_systems():
    # the momentum systems are factored by LAPACK's banded Cholesky, which
    # the tracer does not wrap: the factor metrics read 0 and
    # solver.momentum_rest_ms holds the whole momentum solve
    spans = load("spans")
    spla = solver_module.spla
    cfg = SimConfig(grid=StaggeredGrid2D(8, 8), dt=2e-3, n_steps=4, snap_every=2)
    with spans.installed(spans.Tracer()) as tracer:
        assert solver_module.spla is not spla
        run_case(cfg)
    assert solver_module.spla is spla
    names = [span[spans.NAME] for span in tracer.spans]
    assert names.count("solver.tentative_velocity") == 4
    assert "solver.splu" not in names
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["solver.factor_calls_per_step"] == 0


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
