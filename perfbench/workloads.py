"""The three benchmark workloads: inputs, one iteration, output checks.

Each workload exposes ``construct()``, the set-up that ``setup_s``
times; ``prepare()``, what the benchmark itself needs before iterating;
``run(tracer)``, one iteration of the timed work, returning
``(outputs, child_rusage)``; and ``check(outputs, checks)``, which runs
untimed afterwards. Frozen values were produced by this package at the
commit that introduced the benchmark and pin its outputs.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy.fft

from podsnap import analysis, cases1d, pod, snapshots
from podsnap.grids import Grid1D, StaggeredGrid2D
from podsnap.snapshots import FieldLayout, SnapshotMatrix
from podsnap.solidify2d import CavitySolver, default_mushy_config, default_pure_metal_config
from podsnap.solidify2d.model import FREEZE_DEFAULT

THRESHOLD = 0.9999
ROUTES = ("auto", "direct", "method_of_snapshots")
CASES_1D = {"heat": 4, "jump": 125, "sigmoid_steep": 31, "sigmoid_stretched": 7}


class Checks:
    """Output checks and failed operations, counted against attempts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


def frozen_fraction(m: SnapshotMatrix, t_freeze: float) -> float:
    """Share of cells below the freezing point in the last snapshot."""
    temp = m.field("T")[:, -1]
    return float(np.count_nonzero(temp < t_freeze)) / temp.size


def raw_spectra(m: SnapshotMatrix) -> dict[str, pod.PodSpectrum]:
    """Raw (unweighted) spectrum of each field and of the whole matrix."""
    parts = dict(pod.component_split(m), combined=m)
    return {name: pod.decompose(sub).spectrum for name, sub in parts.items()}


def cases_1d():
    """The four 1D case matrices at the package's default sizes."""
    grid = Grid1D(256)
    return {
        "heat": cases1d.solve_heat1d(cases1d.Heat1DConfig()),
        "jump": cases1d.gen_advected_jump(grid, 128),
        "sigmoid_steep": cases1d.gen_sigmoid(grid, 128, k=cases1d.STEEP_K),
        "sigmoid_stretched": cases1d.gen_sigmoid(grid, 128, k=cases1d.STRETCHED_K),
    }


# ----------------------------------------------------------------------
# cavity-desk
# ----------------------------------------------------------------------
class CavityDesk:
    """Mushy then pure-metal cavity on the 64x64 desk grid, desk dt.

    100 steps per case: the first frozen cells appear before step 50,
    and by step 100 a fifth of the cavity is frozen.
    """

    name = "cavity-desk"
    in_process = True
    n_steps = 100
    # frozen from the introducing commit: raw counts at 0.9999, the
    # number of frozen cells (of 4096) in the last snapshot, and the three
    # leading combined singular values (to SIGMA_RTOL: round-off level
    # changes pass, a changed physical law does not)
    expected = {
        "mushy": ({"u": 4, "v": 8, "p": 2, "T": 2, "combined": 2}, 832,
                  (309411.78388747276, 4055.459811409587, 1175.0764346894061)),
        "pure": ({"u": 11, "v": 13, "p": 2, "T": 2, "combined": 2}, 832,
                 (309410.56797810574, 4006.9506441821195, 1145.9401637275118)),
    }
    sigma_rtol = 1e-8

    def __init__(self, seed, work_dir):
        self.configs = {
            "mushy": default_mushy_config(n_steps=self.n_steps),
            "pure": default_pure_metal_config(n_steps=self.n_steps),
        }
        self.frozen = {}

    def construct(self):
        for cfg in self.configs.values():
            CavitySolver(cfg)

    def prepare(self):
        pass

    def run(self, tracer):
        return {case: CavitySolver(cfg).run() for case, cfg in self.configs.items()}, None

    def check(self, outputs, checks):
        for case, (counts, frozen_cells, leading) in self.expected.items():
            m = outputs[case]
            spectra = raw_spectra(m)
            got = {name: pod.modes_for_energy(s, THRESHOLD).modes_needed
                   for name, s in spectra.items()}
            checks.expect(got == counts, f"{case} mode counts {got} != {counts}")
            top = spectra["combined"].sigma[: len(leading)]
            checks.expect(np.allclose(top, leading, rtol=self.sigma_rtol, atol=0),
                          f"{case} leading singular values {top} != {leading}")
            fraction = frozen_fraction(m, self.configs[case].viscosity.t_freeze)
            expected = frozen_cells / m.field("T").shape[0]
            checks.expect(fraction == expected, f"{case} frozen fraction {fraction} != {expected}")
            self.frozen[case] = fraction

    def describe(self):
        g = self.configs["mushy"].grid
        return {"grid": f"{g.nx}x{g.ny}", "dt": self.configs["mushy"].dt,
                "steps_per_case": self.n_steps, "snap_every": self.configs["mushy"].snap_every,
                "cases": list(self.configs)}


# ----------------------------------------------------------------------
# pod-spectra
# ----------------------------------------------------------------------
SEGMENTS = (("u", 4160), ("v", 4160), ("p", 4096), ("T", 4096))
# raw-unit field magnitudes: temperature swamps velocity, as in the cavity
SCALES = {"u": 1.0, "v": 1.0, "p": 10.0, "T": 700.0}
N_SNAPS = 500
DECAYS = {"pure_like": 3.7, "mushy_like": 5.0}
# a route's spectrum must match the planted one to RTOL wherever the
# planted value is above the route's resolution floor (times sigma_1):
# near eps for the SVD; near sqrt(eps) for the squared-conditioned Gram
# route, which "auto" takes on every planted matrix (n_dof > 4 n_snaps)
RESOLVED = {"direct": 1e-8, "method_of_snapshots": 1e-4, "auto": 1e-4}
RTOL = 1e-6
SLOPE_TOL = 0.05


def _orthonormal(rng, rows, cols):
    """Seeded orthonormal columns: DCT-II basis vectors at random
    frequencies, with rows sign-flipped and permuted."""
    pick = np.zeros((rows, cols))
    pick[rng.choice(rows, cols, replace=False), np.arange(cols)] = 1.0
    q = scipy.fft.idct(pick, norm="ortho", axis=0)
    return (rng.choice((-1.0, 1.0), rows)[:, None] * q)[rng.permutation(rows)]


def planted_matrix(rng, exponent):
    """Cavity-shaped snapshot matrix with a planted spectrum.

    Field k is ``c_k U_k diag(s) V^T`` with ``s_n = n^-exponent`` and one
    shared V, so each field has spectrum ``c_k s`` and the stacked
    matrix has spectrum ``||c|| s``. Returns the matrix and the planted
    spectrum of each part.
    """
    s = np.arange(1, N_SNAPS + 1, dtype=np.float64) ** -exponent
    v = _orthonormal(rng, N_SNAPS, N_SNAPS)
    blocks = [SCALES[name] * _orthonormal(rng, rows, N_SNAPS) * s for name, rows in SEGMENTS]
    data = np.vstack(blocks) @ v.T
    layout = FieldLayout.from_sizes(SEGMENTS)
    planted = {name: SCALES[name] * s for name, _ in SEGMENTS}
    planted["combined"] = np.sqrt(sum(c * c for c in SCALES.values())) * s
    return SnapshotMatrix(data, layout, np.arange(N_SNAPS, dtype=np.float64)), planted


def planted_matrices(seed):
    rng = np.random.default_rng(seed)
    return {case: planted_matrix(rng, p) for case, p in DECAYS.items()}


class PodSpectra:
    """Planted cavity-shaped spectra plus the four 1D cases through every
    decomposition route, the comparison report and SNAP1 round trips;
    the solver is not used."""

    name = "pod-spectra"
    in_process = True

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = pathlib.Path(work_dir or ".")
        self.planted = None

    def construct(self):
        self.planted = planted_matrices(self.seed)

    prepare = construct

    def run(self, tracer):
        out = {"spectra": {}, "roundtrip": {}}
        matrices = {case: m for case, (m, _) in self.planted.items()}
        matrices.update(cases_1d())
        for case, m in matrices.items():
            parts = {"combined": m}
            if case in self.planted:
                parts.update(pod.component_split(m))
            for part, sub in parts.items():
                for route in ROUTES:
                    out["spectra"][case, part, route] = pod.decompose(sub, route).spectrum
        out["reports"] = {
            "planted": analysis.compare(
                [(c, out["spectra"][c, "combined", "direct"]) for c in DECAYS], (THRESHOLD,)),
            "1d": analysis.compare(
                [(c, out["spectra"][c, "combined", "auto"]) for c in CASES_1D], (THRESHOLD,)),
        }
        for case, (m, _) in self.planted.items():
            path = self.work_dir / f"{case}.snap"
            snapshots.write_snap(m, path)
            out["roundtrip"][case] = snapshots.read_snap(path)
            path.unlink()
        return out, None

    def check(self, out, checks):
        for (case, part, route), spectrum in out["spectra"].items():
            what = f"{case}/{part}/{route}"
            got = pod.modes_for_energy(spectrum, THRESHOLD).modes_needed
            if case in CASES_1D:
                checks.expect(got == CASES_1D[case], f"{what}: {got} modes, want {CASES_1D[case]}")
                continue
            planted = self.planted[case][1][part]
            want = pod.modes_for_energy(pod.PodSpectrum(planted), THRESHOLD).modes_needed
            resolved = planted >= RESOLVED[route] * planted[0]
            sigma = spectrum.sigma[: planted.size]
            ok = got == want and np.allclose(sigma[resolved], planted[resolved], rtol=RTOL, atol=0)
            checks.expect(ok, f"{what}: {got} modes (want {want}) or spectrum off the planted one")
        for label, report in out["reports"].items():
            for summary in report.cases:
                got = summary.modes_needed[THRESHOLD]
                if label == "1d":
                    ok = got == CASES_1D[summary.name]
                else:
                    planted = self.planted[summary.name][1]["combined"]
                    want = pod.modes_for_energy(pod.PodSpectrum(planted), THRESHOLD).modes_needed
                    slope = summary.loglog_fit.slope if summary.loglog_fit else np.nan
                    ok = got == want and abs(slope + DECAYS[summary.name]) <= SLOPE_TOL
                checks.expect(ok, f"compare {label}/{summary.name}: {got} modes")
        for case, back in out["roundtrip"].items():
            checks.expect(back == self.planted[case][0], f"SNAP1 round trip of {case} differs")

    def describe(self):
        return {"planted_shape": [sum(r for _, r in SEGMENTS), N_SNAPS],
                "segments": dict(SEGMENTS), "decay_exponents": DECAYS,
                "routes": list(ROUTES), "cases_1d": list(CASES_1D), "matrix_mb":
                sum(r for _, r in SEGMENTS) * N_SNAPS * 8 / 1e6}


# ----------------------------------------------------------------------
# repro-small
# ----------------------------------------------------------------------
# 250 steps (not the default 1000) keep an iteration near 4 s, so a run
# holds about seven: this host's CPU availability changes over tens of
# seconds, and with two 15 s iterations per run the run-to-run spread of
# wall_s was 0.30
REPRO_STEPS = 250
REPRO_CONFIG = f"[grid]\nnx = 32\nny = 32\n[time]\nn_steps = {REPRO_STEPS}\n"
REPRO_ARTIFACTS = frozenset(
    [f"{c}.{ext}" for c in ("heat", "jump", "sigmoid_steep", "sigmoid_stretched",
                            "cavity_mushy", "cavity_pure") for ext in ("snap", "csv")]
    + [f"cavity_{k}.cfg" for k in ("mushy", "pure")]
    + [f"cavity_{k}_{f}.csv" for k in ("mushy", "pure") for f in "uvpT"]
    + [f"report_{r}{v}.csv" for r in ("1d", "2d", "components") for v in ("", "_verdicts")]
)
# frozen report counts at 0.9999 for the 32x32, 250-step study
REPRO_COUNTS = {
    "report_1d.csv": CASES_1D,
    "report_2d.csv": {"cavity_mushy": 2, "cavity_pure": 2},
    "report_components.csv": {"cavity_pure_u": 23, "cavity_pure_v": 23,
                              "cavity_pure_p": 2, "cavity_pure_T": 2},
}


class ReproSmall:
    """``podsnap repro`` on a 32x32, 250-step cavity config, in its own
    process."""

    name = "repro-small"
    in_process = False

    def __init__(self, seed, work_dir):
        self.work_dir = pathlib.Path(work_dir or ".")
        self.config = self.work_dir / "repro_small.cfg"
        self.hashes = None
        self.frozen = {}
        self.runs = 0

    def construct(self):
        grid = StaggeredGrid2D(32, 32)
        CavitySolver(default_mushy_config(grid=grid, n_steps=REPRO_STEPS))
        CavitySolver(default_pure_metal_config(grid=grid, n_steps=REPRO_STEPS))

    def prepare(self):
        self.config.write_text(REPRO_CONFIG, encoding="utf-8")

    def run(self, tracer):
        self.runs += 1
        out_dir = self.work_dir / f"repro-{self.runs}"
        argv = ["repro", "--out-dir", str(out_dir), "--cavity-config", str(self.config)]
        here = pathlib.Path(__file__).resolve().parent
        if tracer is None:
            cmd = [sys.executable, "-m", "podsnap.cli", *argv]
        else:
            spans_path = self.work_dir / f"spans-repro-{self.runs}.json"
            cmd = [sys.executable, str(here / "child.py"), "repro-traced", str(spans_path), *argv]
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        # reaped here for its rusage; tell Popen so it does not wait again
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if tracer is not None and code == 0:
            tracer.load(spans_path)
            spans_path.unlink()
        return {"code": code, "dir": out_dir, "stderr": err.decode(errors="replace")}, usage

    def check(self, out, checks):
        out_dir = out["dir"]
        checks.expect(out["code"] == 0, f"repro exited {out['code']}: {out['stderr'][-400:]!r}")
        present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
        checks.expect(present == REPRO_ARTIFACTS,
                      f"artifacts missing {sorted(REPRO_ARTIFACTS - present)}, "
                      f"extra {sorted(present - REPRO_ARTIFACTS)}")
        for report, counts in REPRO_COUNTS.items():
            got = {}
            path = out_dir / report
            if path.is_file():
                for line in path.read_text(encoding="utf-8").splitlines()[1:]:
                    case, _, needed = line.split(",")[:3]
                    got[case] = int(needed)
            checks.expect(got == counts, f"{report} counts {got} != {counts}")
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out_dir.glob("*.snap"))}
        if self.hashes is None:
            self.hashes = hashes
        checks.expect(hashes == self.hashes and len(hashes) == 6,
                      "SNAP1 files differ from the first iteration's")
        for case in ("mushy", "pure"):
            path = out_dir / f"cavity_{case}.snap"
            if path.is_file():
                self.frozen[case] = frozen_fraction(snapshots.read_snap(path), FREEZE_DEFAULT)
        shutil.rmtree(out_dir, ignore_errors=True)

    def describe(self):
        return {"grid": "32x32", "config": REPRO_CONFIG.strip().replace("\n", "; "),
                "steps_per_case": REPRO_STEPS,
                "snap_every": default_mushy_config().snap_every}


WORKLOADS = {w.name: w for w in (CavityDesk, PodSpectra, ReproSmall)}


def timed_setup(workload: str, seed: int) -> float:
    """Seconds spent in one workload's :meth:`construct`."""
    t0 = perf_counter()
    WORKLOADS[workload](seed, None).construct()
    return perf_counter() - t0
