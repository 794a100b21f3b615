"""The benchmark in ``perfbench/`` imports and patches package names; a
rename or deletion of one fails here rather than only in a benchmark run."""

import importlib.util
import pathlib

import numpy as np

from podsnap import cli, pod
from podsnap.snapshots import matrix_from_array

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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
    # read, like .spectrum, must not compute the modes
    spans = load("spans")
    m = matrix_from_array(np.random.default_rng(1).normal(size=(40, 6)))
    with spans.installed(spans.Tracer()) as tracer:
        for method in ("direct", "method_of_snapshots"):
            assert pod.decompose(m, method).spectrum.sigma.size == 6
    names = [span[spans.NAME] for span in tracer.spans]
    assert "pod.linalg.qr" not in names
    assert names.count("pod.linalg.svd") == 1
    direct_call = names.index("pod.decompose")
    assert tracer.spans[names.index("pod.linalg.svd")][spans.PARENT] == direct_call
