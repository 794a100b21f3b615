"""Command-line pipeline: generate snapshots, decompose, analyze.

Verbs
-----
* ``gen-heat1d``, ``gen-jump``, ``gen-sigmoid`` -- 1D snapshot matrices
* ``gen-cavity2d`` -- 2D freezing cavity (config file required)
* ``pod`` -- SNAP1 matrix -> spectrum CSV, plus one per field
* ``analyze`` -- spectrum CSVs -> mode-count report + pairwise verdicts
* ``repro`` -- the full desk-scale study in one invocation

Every run echoes its fully resolved configuration to standard error.
Exit codes: 0 on success, otherwise as :mod:`podsnap.errors` states.
"""

from __future__ import annotations

import argparse
import multiprocessing
import pathlib
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from . import analysis, cases1d, pod
from .errors import ArgumentError, PodsnapError
from .grids import Grid1D
from .snapshots import read_snap, write_snap
from .solidify2d import (
    SimConfig,
    default_mushy_config,
    read_config,
    run_case,
    with_viscosity,
    write_config,
)
from .solidify2d.configfile import config_text, finite_float
from .solidify2d.solver import snapshot_layout


class _Parser(argparse.ArgumentParser):
    """argparse whose usage failures raise :class:`ArgumentError`."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ArgumentError(message)


def _echo(args, cfg: SimConfig | None = None) -> None:
    """Echo every parsed option, then the resolved cavity configuration."""
    for dest, value in vars(args).items():
        if dest not in ("verb", "handler"):
            if isinstance(value, list):
                value = " ".join(map(str, value))
            print(f"config: {dest} = {value}", file=sys.stderr)
    if cfg is not None:
        for line in config_text(cfg).splitlines():
            print(f"config: {line}", file=sys.stderr)


def _check_distinct(inputs, outputs) -> None:
    """Reject an output path that names an input or an earlier output."""
    taken = {pathlib.Path(p).resolve() for p in inputs}
    for out in outputs:
        resolved = pathlib.Path(out).resolve()
        if resolved in taken:
            raise ArgumentError(f"output path {out} collides with another input or output path")
        taken.add(resolved)


# ----------------------------------------------------------------------
# generation verbs
# ----------------------------------------------------------------------
# verb -> (help text, the matrix its parsed options build)
_GEN1D = {
    "gen-heat1d": ("1D heat-equation snapshots", lambda args: cases1d.solve_heat1d(
        cases1d.Heat1DConfig(grid=Grid1D(args.nodes), n_snaps=args.snapshots))),
    "gen-jump": ("advected-jump snapshots",
                 lambda args: cases1d.gen_advected_jump(Grid1D(args.nodes), args.snapshots)),
    "gen-sigmoid": ("advected-sigmoid snapshots", lambda args: cases1d.gen_sigmoid(
        Grid1D(args.nodes), args.snapshots, k=args.steepness)),
}


def _cmd_gen1d(args) -> None:
    _echo(args)
    write_snap(_GEN1D[args.verb][1](args), args.out)


def _generate_cavity(cfg: SimConfig, path) -> None:
    """Run one cavity case and write its SNAP1 file. ``gen-cavity2d``
    calls this directly; ``repro`` calls it in a worker process, so only
    completion or an exception crosses back. Workers receive this
    function by name and look ``run_case`` and ``write_snap`` up when
    they call them."""
    write_snap(run_case(cfg), path)


def _cmd_gen_cavity2d(args) -> None:
    _check_distinct([args.config], [args.out])
    cfg = read_config(args.config)
    _echo(args, cfg)
    _generate_cavity(cfg, args.out)


# ----------------------------------------------------------------------
# decomposition and analysis verbs
# ----------------------------------------------------------------------
def _sibling(path, name) -> str:
    """``<stem>_<name><suffix or .csv>`` beside ``path``."""
    path = pathlib.Path(path)
    return str(path.with_name(f"{path.stem}_{name}{path.suffix or '.csv'}"))


def _pod(in_path, out) -> None:
    """Spectrum CSV of the SNAP1 file ``in_path`` to ``out``, plus one
    ``<stem>_<field>.csv`` beside it per field when there are several.
    Every part is decomposed before the first file is written."""
    matrix = read_snap(in_path)
    fields = pod.component_split(matrix) if len(matrix.layout.names) > 1 else {}
    # fields before the whole, which is all zero only if every field is
    parts = {_sibling(out, name): (name, sub) for name, sub in fields.items()}
    parts[out] = (matrix.layout.names[0], matrix)
    _check_distinct([in_path], parts)
    spectra = {}
    for path, (name, m) in parts.items():
        try:
            spectra[path] = pod.decompose(m).spectrum
        except PodsnapError as exc:  # the class carries the exit code
            raise type(exc)(f"{in_path}: field {name!r}: {exc}") from exc
    for path, spectrum in spectra.items():
        pod.write_spectrum_csv(spectrum, path)


def _analyze(in_paths, thresholds, out) -> None:
    """Report CSV ``out`` and its verdicts sibling of the spectrum CSVs ``in_paths``."""
    verdicts_out = _sibling(out, "verdicts")
    _check_distinct(in_paths, [out, verdicts_out])
    named = [(pathlib.Path(p).stem, pod.read_spectrum_csv(p)) for p in in_paths]
    report = analysis.compare(named, thresholds)
    analysis.write_report_csv(report, out)
    analysis.write_verdicts_csv(report, verdicts_out)


def _cmd_pod(args) -> None:
    _echo(args)
    _pod(args.in_path, args.out)


def _cmd_analyze(args) -> None:
    args.threshold = args.threshold or [analysis.ENERGY_THRESHOLD]
    _echo(args)
    _analyze(args.in_paths, args.threshold, args.out)


# ----------------------------------------------------------------------
# repro
# ----------------------------------------------------------------------
# The two cavity cases run no faster on two threads than one after the
# other, so they run in worker processes. ``fork`` starts a worker without
# re-importing numpy/scipy (``forkserver`` and ``spawn`` gain nothing);
# other platforms keep their default start method.
_CAVITY_CONTEXT = multiprocessing.get_context("fork" if sys.platform == "linux" else None)


def _cmd_repro(args) -> None:
    """The whole study. Each case's SNAP1 file is written by the job that
    made it: a worker process per cavity case, a thread per 1D case. The
    parent then runs the ``pod`` step on every SNAP1 file and the
    ``analyze`` step on each report's spectrum CSVs."""
    out_dir = pathlib.Path(args.out_dir)
    base = (read_config(args.cavity_config) if args.cavity_config is not None
            else default_mushy_config())
    cavity = {
        f"cavity_{label}": with_viscosity(base, kind)
        for label, kind in (("mushy", "mushy"), ("pure", "sharp_jump"))
    }
    _echo(args, cavity["cavity_mushy"])

    grid = Grid1D(cases1d.N_NODES)
    tasks = {
        "heat": lambda: cases1d.solve_heat1d(cases1d.Heat1DConfig()),
        "jump": lambda: cases1d.gen_advected_jump(grid),
        "sigmoid_steep": lambda: cases1d.gen_sigmoid(grid, k=cases1d.STEEP_K),
        "sigmoid_stretched": lambda: cases1d.gen_sigmoid(grid, k=cases1d.STRETCHED_K),
    }
    fields = snapshot_layout(base.grid).names
    spectra = {name: out_dir / f"{name}.csv" for name in (*tasks, *cavity)}
    reports = {  # report CSV -> its input spectrum CSVs
        out_dir / "report_1d.csv": [spectra[name] for name in tasks],
        out_dir / "report_2d.csv": [spectra[name] for name in cavity],
        out_dir / "report_components.csv": [_sibling(spectra["cavity_pure"], f) for f in fields],
    }
    artifacts = (
        [out_dir / f"{name}.cfg" for name in cavity]
        + [out_dir / f"{name}.snap" for name in spectra]
        + [*spectra.values(), *(_sibling(spectra[name], f) for name in cavity for f in fields)]
        + [path for report in reports for path in (report, _sibling(report, "verdicts"))]
    )
    _check_distinct([args.cavity_config] if args.cavity_config is not None else [], artifacts)

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, cfg in cavity.items():
        write_config(cfg, out_dir / f"{name}.cfg")

    # The process pool forks all its workers at the first submit; submitting
    # both cavity cases before the thread pool exists means no other thread
    # is running when the process forks.
    with ProcessPoolExecutor(max_workers=len(cavity), mp_context=_CAVITY_CONTEXT) as procs:
        in_workers = [procs.submit(_generate_cavity, cfg, out_dir / f"{name}.snap")
                      for name, cfg in cavity.items()]
        with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
            in_threads = [pool.submit(lambda make, path: write_snap(make(), path),
                                      make, out_dir / f"{name}.snap")
                          for name, make in tasks.items()]
            for fut in (*in_threads, *in_workers):
                fut.result()

    # POD runs here rather than in the workers, where each forked worker's
    # BLAS thread pool would contend with the other's. Each case is read
    # back from its file, so the process holds one matrix at a time.
    for name, spectrum in spectra.items():
        _pod(out_dir / f"{name}.snap", spectrum)
    for report, in_paths in reports.items():
        _analyze(in_paths, (analysis.ENERGY_THRESHOLD,), report)
    print(f"repro artifacts written to {out_dir}", file=sys.stderr)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> _Parser:
    parser = _Parser(
        prog="podsnap",
        description="Generate PDE snapshot matrices, decompose them, and "
        "compare singular-value decay across cases.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    # the grid, snapshot count and output path every 1D generator takes
    gen1d = argparse.ArgumentParser(add_help=False)
    gen1d.add_argument("--nodes", type=int, default=cases1d.N_NODES, help="number of grid nodes")
    gen1d.add_argument("--snapshots", type=int, default=cases1d.N_SNAPS,
                       help="number of snapshot columns")
    gen1d.add_argument("--out", required=True, help="output SNAP1 path")

    for verb, (help_text, _) in _GEN1D.items():
        p = sub.add_parser(verb, help=help_text, parents=[gen1d], formatter_class=fmt)
        p.set_defaults(handler=_cmd_gen1d)
    p = sub.choices["gen-sigmoid"]
    p.add_argument("--steepness", type=finite_float, default=cases1d.STEEP_K,
                   help="sigmoid front steepness k")

    p = sub.add_parser("gen-cavity2d", help="2D freezing-cavity snapshots",
                       formatter_class=fmt)
    p.add_argument("--config", required=True, help="cavity config file (key = value sections)")
    p.add_argument("--out", required=True, help="output SNAP1 path")
    p.set_defaults(handler=_cmd_gen_cavity2d)

    p = sub.add_parser("pod", help="decompose a SNAP1 matrix into spectrum CSVs (also per field)",
                       formatter_class=fmt)
    p.add_argument("--in", dest="in_path", required=True, help="input SNAP1 path")
    p.add_argument("--out", required=True, help="output spectrum CSV path")
    p.set_defaults(handler=_cmd_pod)

    p = sub.add_parser("analyze", help="compare spectrum CSVs", formatter_class=fmt)
    p.add_argument("--in", dest="in_paths", nargs="+", required=True,
                   help="input spectrum CSV paths (case name = file stem)")
    p.add_argument("--threshold", type=finite_float, action="append", default=None,
                   help=f"energy threshold (repeatable; default {analysis.ENERGY_THRESHOLD})")
    p.add_argument("--out", required=True, help="output report CSV path, plus <stem>_verdicts.csv")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("repro", help="run the full desk-scale study", formatter_class=fmt)
    p.add_argument("--out-dir", required=True, help="directory for all artifacts")
    p.add_argument("--cavity-config", default=None,
                   help="base config for both 2D cases (default: package desk-scale defaults)")
    p.set_defaults(handler=_cmd_repro)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.handler(args)
    except SystemExit as exc:  # --help
        return exc.code
    except (PodsnapError, OSError) as exc:
        label, code = getattr(exc, "exit_status", PodsnapError.exit_status)
        print(f"error: ({label}) {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
