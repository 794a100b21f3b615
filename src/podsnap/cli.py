"""Command-line pipeline: generate snapshots, decompose, analyze.

Verbs
-----
* ``gen-heat1d``, ``gen-jump``, ``gen-sigmoid`` -- 1D snapshot matrices
* ``gen-cavity2d`` -- 2D freezing cavity (config file required)
* ``pod`` -- SNAP1 matrix -> spectrum CSV (optionally per component)
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
from .snapshots import SnapshotMatrix, read_snap, write_snap
from .solidify2d import (
    SimConfig,
    default_mushy_config,
    read_config,
    run_case,
    with_viscosity,
    write_config,
)
from .solidify2d.configfile import config_text, finite_float


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
def _cmd_gen_heat1d(args) -> None:
    ic = cases1d.InitialCondition1D(left=args.ic_left, right=args.ic_right, height=args.ic_height)
    cfg = cases1d.Heat1DConfig(
        alpha=args.alpha, dt=args.dt, grid=Grid1D(args.nodes), n_snaps=args.snapshots, ic=ic
    )
    _echo(args)
    write_snap(cases1d.solve_heat1d(cfg), args.out)


def _cmd_gen_jump(args) -> None:
    _echo(args)
    write_snap(cases1d.gen_advected_jump(Grid1D(args.nodes), args.snapshots), args.out)


def _cmd_gen_sigmoid(args) -> None:
    _echo(args)
    matrix = cases1d.gen_sigmoid(Grid1D(args.nodes), args.snapshots, k=args.steepness)
    write_snap(matrix, args.out)


def _cmd_gen_cavity2d(args) -> None:
    _check_distinct([args.config], [args.out])
    cfg = read_config(args.config)
    if args.viscosity is not None:
        cfg = with_viscosity(cfg, args.viscosity)
    _echo(args, cfg)
    write_snap(run_case(cfg), args.out)


# ----------------------------------------------------------------------
# decomposition and analysis verbs
# ----------------------------------------------------------------------
def _sibling(path, name) -> str:
    """``<stem>_<name><suffix or .csv>`` beside ``path``."""
    path = pathlib.Path(path)
    return str(path.with_name(f"{path.stem}_{name}{path.suffix or '.csv'}"))


def _cmd_pod(args) -> None:
    _echo(args)
    matrix = read_snap(args.in_path)
    if args.components == "combined":
        outputs = {args.out: matrix}
    elif args.components == "all":
        split = pod.component_split(matrix)
        outputs = {args.out: matrix, **{_sibling(args.out, n): m for n, m in split.items()}}
    elif args.components in matrix.layout.names:
        outputs = {args.out: pod.component_split(matrix)[args.components]}
    else:
        raise ArgumentError(f"component {args.components!r} not in layout {matrix.layout.names}")
    _check_distinct([args.in_path], outputs)
    for path, m in outputs.items():
        pod.write_spectrum_csv(pod.decompose(m, method=args.method).spectrum, path)


def _cmd_analyze(args) -> None:
    args.threshold = args.threshold or [0.9999]
    args.verdicts_out = args.verdicts_out or _sibling(args.out, "verdicts")
    _echo(args)
    _check_distinct(args.in_paths, [args.out, args.verdicts_out])
    named = [(pathlib.Path(p).stem, pod.read_spectrum_csv(p)) for p in args.in_paths]
    report = analysis.compare(named, args.threshold)
    analysis.write_report_csv(report, args.out)
    analysis.write_verdicts_csv(report, args.verdicts_out)


# ----------------------------------------------------------------------
# repro
# ----------------------------------------------------------------------
# The two cavity cases run no faster on two threads than one after the
# other, so they run in worker processes. ``fork`` starts a worker without
# re-importing numpy/scipy (``forkserver`` and ``spawn`` gain nothing);
# other platforms keep their default start method.
_CAVITY_CONTEXT = multiprocessing.get_context("fork" if sys.platform == "linux" else None)


def _generate_cavity(cfg: SimConfig) -> SnapshotMatrix:
    """One cavity case in a worker process. Workers receive this function
    by name and look ``run_case`` up when they call it."""
    return run_case(cfg)


def _cmd_repro(args) -> None:
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = (read_config(args.cavity_config) if args.cavity_config is not None
            else default_mushy_config())
    cavity = {
        f"cavity_{label}": with_viscosity(base, kind)
        for label, kind in (("mushy", "mushy"), ("pure", "sharp_jump"))
    }
    _echo(args, cavity["cavity_mushy"])
    for name, cfg in cavity.items():
        write_config(cfg, out_dir / f"{name}.cfg")

    grid = Grid1D(cases1d.N_NODES)
    tasks = {
        "heat": lambda: cases1d.solve_heat1d(cases1d.Heat1DConfig()),
        "jump": lambda: cases1d.gen_advected_jump(grid),
        "sigmoid_steep": lambda: cases1d.gen_sigmoid(grid, k=cases1d.STEEP_K),
        "sigmoid_stretched": lambda: cases1d.gen_sigmoid(grid, k=cases1d.STRETCHED_K),
    }
    # The process pool forks all its workers at the first submit; submitting
    # both cavity cases before the thread pool exists means no other thread
    # is running when the process forks.
    with ProcessPoolExecutor(max_workers=len(cavity), mp_context=_CAVITY_CONTEXT) as procs:
        in_workers = {name: procs.submit(_generate_cavity, cfg) for name, cfg in cavity.items()}
        with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
            futures = {name: pool.submit(fn) for name, fn in tasks.items()} | in_workers
            matrices = {name: fut.result() for name, fut in futures.items()}
    for name, matrix in matrices.items():
        write_snap(matrix, out_dir / f"{name}.snap")

    parts = dict(matrices)
    for name in cavity:
        for comp, sub in pod.component_split(matrices[name]).items():
            parts[f"{name}_{comp}"] = sub
    spectra = {}
    for name, matrix in parts.items():
        spectra[name] = pod.decompose(matrix).spectrum
        pod.write_spectrum_csv(spectra[name], out_dir / f"{name}.csv")

    reports = {
        "1d": tasks,
        "2d": cavity,
        "components": [f"cavity_pure_{n}" for n in matrices["cavity_pure"].layout.names],
    }
    for label, names in reports.items():
        report = analysis.compare([(n, spectra[n]) for n in names], (0.9999,))
        analysis.write_report_csv(report, out_dir / f"report_{label}.csv")
        analysis.write_verdicts_csv(report, out_dir / f"report_{label}_verdicts.csv")
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

    heat, ic = cases1d.Heat1DConfig, cases1d.InitialCondition1D
    p = sub.add_parser("gen-heat1d", help="1D heat-equation snapshots", parents=[gen1d],
                       formatter_class=fmt)
    p.add_argument("--alpha", type=finite_float, default=heat.alpha, help="thermal diffusivity")
    p.add_argument("--dt", type=finite_float, default=heat.dt, help="timestep")
    p.add_argument("--ic-left", type=finite_float, default=ic.left, help="rectangle IC left edge")
    p.add_argument("--ic-right", type=finite_float, default=ic.right,
                   help="rectangle IC right edge")
    p.add_argument("--ic-height", type=finite_float, default=ic.height, help="rectangle IC height")
    p.set_defaults(handler=_cmd_gen_heat1d)

    p = sub.add_parser("gen-jump", help="advected-jump snapshots", parents=[gen1d],
                       formatter_class=fmt)
    p.set_defaults(handler=_cmd_gen_jump)

    p = sub.add_parser("gen-sigmoid", help="advected-sigmoid snapshots", parents=[gen1d],
                       formatter_class=fmt)
    p.add_argument("--steepness", type=finite_float, default=cases1d.STEEP_K,
                   help="sigmoid front steepness k")
    p.set_defaults(handler=_cmd_gen_sigmoid)

    p = sub.add_parser("gen-cavity2d", help="2D freezing-cavity snapshots",
                       formatter_class=fmt)
    p.add_argument("--config", required=True, help="cavity config file (key = value sections)")
    p.add_argument("--viscosity", choices=("mushy", "sharp_jump"), default=None,
                   help="override the config's viscosity model")
    p.add_argument("--out", required=True, help="output SNAP1 path")
    p.set_defaults(handler=_cmd_gen_cavity2d)

    p = sub.add_parser("pod", help="decompose a SNAP1 matrix into a spectrum CSV",
                       formatter_class=fmt)
    p.add_argument("--in", dest="in_path", required=True, help="input SNAP1 path")
    p.add_argument("--out", required=True, help="output spectrum CSV path")
    p.add_argument("--method", choices=("auto", "direct", "method_of_snapshots"),
                   default="auto", help="decomposition method")
    p.add_argument("--components", default="combined",
                   help="'combined', 'all' (combined plus one CSV per field, "
                   "suffixed _<name>), or one field name")
    p.set_defaults(handler=_cmd_pod)

    p = sub.add_parser("analyze", help="compare spectrum CSVs", formatter_class=fmt)
    p.add_argument("--in", dest="in_paths", nargs="+", required=True,
                   help="input spectrum CSV paths (case name = file stem)")
    p.add_argument("--threshold", type=finite_float, action="append", default=None,
                   help="energy threshold (repeatable; default 0.9999)")
    p.add_argument("--out", required=True, help="output report CSV path")
    p.add_argument("--verdicts-out", default=None,
                   help="output verdicts CSV path (default: <out>_verdicts.csv)")
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
