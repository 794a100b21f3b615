"""podsnap benchmark: one command runs a workload, checks its outputs and
prints its metrics.

    python3 perfbench/run.py --workload cavity-desk --seed 1 --seconds 25 --trace 0

``--trace 0`` times plain iterations and prints the end-to-end metrics;
``--trace 1`` alternates plain and traced iterations and prints the
per-layer metrics. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The full record
(environment, every iteration, failures) goes to
``.perfbench_out/result-<workload>-seed<n>-trace<t>.json`` and traced
spans to ``.perfbench_out/spans-<workload>-seed<n>.json``. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# an iteration during which the hypervisor took this share of the VM's CPU
# time or more measured the host, not the program (see README)
STEAL_LIMIT = 0.05


def metric_units(kind):
    """``{name: unit}`` of one metric list in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cavity-desk", "pod-spectra", "repro-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------
def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return done.stdout.strip()


def _source_digest():
    """SHA-256 over src/ file paths and bytes: identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads():
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def _caches():
    caches = {}
    for index in sorted(pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip())
        except OSError:
            continue
    return caches


def environment(wl, args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _caches()
    return {
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "caches": caches,
        "cache_note": "a 66 MB planted matrix fits in an L3 of "
                      f"{caches.get('L3', 'unknown size')}, so SNAP1 MB/s measures "
                      "page-cache and copy throughput, not DRAM bandwidth",
        "workload": args.workload,
        "inputs": wl.describe(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def setup_seconds(workload, seed):
    """Median of SETUP_REPEATS fresh-interpreter set-ups (imports plus
    the workload's construct step)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        import_s, construct_s = map(float, done.stdout.split()[-2:])
        samples.append(import_s + construct_s)
    return statistics.median(samples), samples


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def _steal_s():
    """Machine-wide CPU time the hypervisor took from this VM (0 elsewhere)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def iterate(wl, tracer, checks):
    """One timed iteration followed by its untimed output checks."""
    from spans import installed

    traced = tracer is not None and wl.in_process
    with installed(tracer) if traced else contextlib.nullcontext():
        before = resource.getrusage(resource.RUSAGE_SELF)
        steal0 = _steal_s()
        t0 = perf_counter()
        try:
            out, child = wl.run(tracer)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            checks.expect(False, f"{wl.name} iteration raised")
            return None
        wall = perf_counter() - t0
        steal = _steal_s() - steal0
        after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = _cpu(after) - _cpu(before)
    if child is not None:
        cpu += _cpu(child)
        rss = child.ru_maxrss / 1024
    else:
        rss = after.ru_maxrss / 1024
    try:
        wl.check(out, checks)
    except Exception:
        traceback.print_exc()
        checks.expect(False, f"{wl.name} output check raised")
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "steal_s": steal}


def measure(wl, args, checks):
    """Closed loop: rounds back to back while the next one, as long as the
    longest so far, still ends within ``--seconds``. A round is one plain
    iteration, or a plain and a traced one with ``--trace 1``; at least
    two plain iterations, or one pair, are always made."""
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    kinds = [None] if not args.trace else [None, tracer]
    min_rounds = 1 if args.trace else 2
    records = []
    start = perf_counter()
    longest = 0.0
    n = 0
    while True:
        t0 = perf_counter()
        for t in kinds:
            record = iterate(wl, t, checks)
            if record is not None:
                records.append(record)
        n += 1
        longest = max(longest, perf_counter() - t0)
        if n >= min_rounds and perf_counter() - start + longest > args.seconds:
            break
    return records, tracer


def quiet(records, traced, least):
    """Iterations of one kind during which steal stayed under STEAL_LIMIT;
    the ``least`` calmest of that kind when fewer qualify."""
    cpus = os.cpu_count() or 1
    kind = sorted((r for r in records if r["traced"] == traced),
                  key=lambda r: r["steal_s"] / (r["wall_s"] * cpus))
    calm = [r for r in kind if r["steal_s"] < STEAL_LIMIT * r["wall_s"] * cpus]
    return calm if len(calm) >= least else kind[:least]


def end_to_end(records, setup):
    plain = [r for r in records if not r["traced"]]
    calm = quiet(records, False, 2)
    return {
        "setup_s": setup,
        "wall_s": statistics.median(r["wall_s"] for r in calm) if calm else 0.0,
        "cpu_s": statistics.median(r["cpu_s"] for r in calm) if calm else 0.0,
        "peak_rss_mb": max((r["peak_rss_mb"] for r in plain), default=0.0),
    }


def per_layer(wl, records, tracer, checks):
    from spans import layer_metrics

    plain = [r["wall_s"] for r in quiet(records, False, 1)]
    traced = [r["wall_s"] for r in quiet(records, True, 1)]
    n_traced = max(sum(r["traced"] for r in records), 1)
    metrics = layer_metrics(tracer.spans, n_traced)
    wall = statistics.median(plain) if plain else 0.0
    steps = metrics["solver.step_samples"] / n_traced
    overhead = statistics.median(traced) - wall if plain and traced else 0.0

    def per_wall(x):
        return x / wall if wall else 0.0

    metrics["steps_per_s"] = per_wall(steps)
    metrics["pod_mb_per_s"] = per_wall(metrics["pod.mb_decomposed"])
    metrics["failed_ratio"] = checks.failed / max(checks.attempted, 1)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * per_wall(overhead)
    metrics["trace.overhead_ms_per_step"] = 1e3 * overhead / steps if steps else 0.0
    frozen = getattr(wl, "frozen", {})
    for case in ("mushy", "pure"):
        metrics[f"solver.frozen_fraction.{case}"] = frozen.get(case, 0.0)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "podsnap" / "__init__.py").is_file():
        print(f"error: no podsnap sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import workloads

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        env = environment(wl, args)
        print("env " + json.dumps(env, sort_keys=True))
        setup, setup_samples = (None, []) if args.trace else setup_seconds(args.workload, args.seed)
        wl.prepare()
        checks = workloads.Checks()
        records, tracer = measure(wl, args, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for r in records:
        print("iteration " + json.dumps(r))
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)

    if args.trace:
        values = per_layer(wl, records, tracer, checks)
        units = metric_units("per_layer")
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        values = end_to_end(records, setup)
        units = metric_units("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    record = dict(result, env=env, iterations=records, setup_samples=setup_samples,
                  failures=checks.messages)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
