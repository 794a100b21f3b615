"""The benchmark in ``perfbench/`` imports and patches package names; a
rename or deletion of one fails here rather than only in a benchmark run."""

import importlib.util
import pathlib

from podsnap import cli

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
