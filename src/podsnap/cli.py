"""Command-line pipeline: generate snapshots, decompose, analyze.

Verbs
-----
* ``gen-heat1d``, ``gen-jump``, ``gen-sigmoid`` -- 1D snapshot matrices
* ``gen-cavity2d`` -- 2D freezing cavity (config file required)
* ``pod`` -- SNAP1 matrix -> spectrum CSV (optionally per component)
* ``analyze`` -- spectrum CSVs -> mode-count report + pairwise verdicts
* ``repro`` -- the full desk-scale study in one invocation

Every run echoes its fully resolved configuration to standard error.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
from concurrent.futures import ThreadPoolExecutor

from . import analysis, cases1d, pod
from .errors import (
    ArgumentError,
    DataError,
    DegenerateSpectrumError,
    DimensionError,
    FormatError,
    NumericalError,
    PodsnapError,
    StabilityError,
)
from .grids import Grid1D
from .snapshots import read_snap, write_snap
from .solidify2d import (
    SimConfig,
    default_mushy_config,
    default_pure_metal_config,
    read_config,
    run_case,
    write_config,
)
from .solidify2d.configfile import config_text

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERICAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: (usage) {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _echo_config(pairs) -> None:
    for key, value in pairs:
        print(f"config: {key} = {value}", file=sys.stderr)


def _check_distinct(inputs, outputs) -> None:
    resolved_in = {pathlib.Path(p).resolve() for p in inputs}
    for out in outputs:
        if pathlib.Path(out).resolve() in resolved_in:
            raise ArgumentError(f"output path {out} collides with an input path")


# ----------------------------------------------------------------------
# generation verbs
# ----------------------------------------------------------------------
def _cmd_gen_heat1d(args) -> None:
    grid = Grid1D(args.nodes, args.x_min, args.x_max)
    ic = cases1d.InitialCondition1D(
        kind="rectangle", left=args.ic_left, right=args.ic_right, height=args.ic_height
    )
    cfg = cases1d.Heat1DConfig(
        alpha=args.alpha, dt=args.dt, grid=grid, n_snaps=args.snapshots,
        ic=ic, scheme=args.scheme,
    )
    _echo_config(
        [
            ("nodes", args.nodes), ("x_min", args.x_min), ("x_max", args.x_max),
            ("snapshots", args.snapshots), ("alpha", args.alpha), ("dt", args.dt),
            ("scheme", args.scheme), ("ic_left", args.ic_left),
            ("ic_right", args.ic_right), ("ic_height", args.ic_height),
            ("out", args.out),
        ]
    )
    write_snap(cases1d.solve_heat1d(cfg), args.out)


def _cmd_gen_jump(args) -> None:
    _echo_config([("nodes", args.nodes), ("snapshots", args.snapshots), ("out", args.out)])
    write_snap(cases1d.gen_advected_jump(Grid1D(args.nodes), args.snapshots), args.out)


def _cmd_gen_sigmoid(args) -> None:
    _echo_config(
        [
            ("nodes", args.nodes), ("snapshots", args.snapshots),
            ("steepness", args.steepness), ("out", args.out),
        ]
    )
    write_snap(
        cases1d.gen_sigmoid(Grid1D(args.nodes), args.snapshots, k=args.steepness), args.out
    )


def _cavity_config(args) -> SimConfig:
    cfg = read_config(args.config)
    overrides = {}
    if args.viscosity is not None:
        overrides["viscosity"] = dataclasses.replace(cfg.viscosity, kind=args.viscosity)
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.n_steps is not None:
        overrides["n_steps"] = args.n_steps
    if args.snap_every is not None:
        overrides["snap_every"] = args.snap_every
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _cmd_gen_cavity2d(args) -> None:
    _check_distinct([args.config], [args.out])
    cfg = _cavity_config(args)
    print("config: (resolved cavity configuration)", file=sys.stderr)
    for line in config_text(cfg).splitlines():
        print(f"config: {line}", file=sys.stderr)
    print(f"config: out = {args.out}", file=sys.stderr)
    write_snap(run_case(cfg), args.out)


# ----------------------------------------------------------------------
# decomposition and analysis verbs
# ----------------------------------------------------------------------
def _component_paths(out_path) -> "callable":
    out = pathlib.Path(out_path)

    def for_name(name: str) -> pathlib.Path:
        return out.with_name(f"{out.stem}_{name}{out.suffix or '.csv'}")

    return for_name


def _cmd_pod(args) -> None:
    _check_distinct([args.in_path], [args.out])
    _echo_config(
        [
            ("in", args.in_path), ("out", args.out),
            ("method", args.method), ("components", args.components),
        ]
    )
    matrix = read_snap(args.in_path)
    if args.components == "combined":
        basis = pod.decompose(matrix, method=args.method)
        pod.write_spectrum_csv(basis.spectrum, args.out)
        return
    if args.components == "all":
        basis = pod.decompose(matrix, method=args.method)
        pod.write_spectrum_csv(basis.spectrum, args.out)
        name_path = _component_paths(args.out)
        for name, sub in pod.component_split(matrix).items():
            sub_basis = pod.decompose(sub, method=args.method)
            pod.write_spectrum_csv(sub_basis.spectrum, name_path(name))
        return
    if args.components not in matrix.layout.names:
        raise ArgumentError(
            f"component {args.components!r} not in layout {matrix.layout.names}"
        )
    sub = pod.component_split(matrix)[args.components]
    pod.write_spectrum_csv(pod.decompose(sub, method=args.method).spectrum, args.out)


def _cmd_analyze(args) -> None:
    verdicts_out = args.verdicts_out
    if verdicts_out is None:
        out = pathlib.Path(args.out)
        verdicts_out = str(out.with_name(f"{out.stem}_verdicts{out.suffix or '.csv'}"))
    _check_distinct(args.in_paths, [args.out, verdicts_out])
    thresholds = args.threshold or [0.9999]
    _echo_config(
        [
            ("in", " ".join(args.in_paths)), ("out", args.out),
            ("verdicts_out", verdicts_out),
            ("threshold", " ".join(str(t) for t in thresholds)),
            ("fit_lo", args.fit_lo), ("fit_hi", args.fit_hi),
        ]
    )
    named = [
        (pathlib.Path(p).stem, pod.read_spectrum_csv(p, source_label=pathlib.Path(p).stem))
        for p in args.in_paths
    ]
    report = analysis.compare(named, thresholds, fit_range=(args.fit_lo, args.fit_hi))
    analysis.write_report_csv(report, args.out)
    analysis.write_verdicts_csv(report, verdicts_out)


# ----------------------------------------------------------------------
# repro
# ----------------------------------------------------------------------
def _cmd_repro(args) -> None:
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.cavity_config is not None:
        base = read_config(args.cavity_config)
    else:
        base = default_mushy_config()
    mushy_cfg = dataclasses.replace(
        base, viscosity=dataclasses.replace(base.viscosity, kind="mushy")
    )
    pure_cfg = dataclasses.replace(
        base, viscosity=dataclasses.replace(base.viscosity, kind="sharp_jump")
    )
    _echo_config([("out_dir", str(out_dir)), ("cavity_config", args.cavity_config)])
    for line in config_text(mushy_cfg).splitlines():
        print(f"config: {line}", file=sys.stderr)
    write_config(mushy_cfg, out_dir / "cavity_mushy.cfg")
    write_config(pure_cfg, out_dir / "cavity_pure.cfg")

    grid = Grid1D(256)
    tasks = {
        "heat": lambda: cases1d.solve_heat1d(cases1d.Heat1DConfig()),
        "jump": lambda: cases1d.gen_advected_jump(grid, 128),
        "sigmoid_steep": lambda: cases1d.gen_sigmoid(grid, 128, k=cases1d.STEEP_K),
        "sigmoid_stretched": lambda: cases1d.gen_sigmoid(grid, 128, k=cases1d.STRETCHED_K),
        "cavity_mushy": lambda: run_case(mushy_cfg),
        "cavity_pure": lambda: run_case(pure_cfg),
    }
    with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
        futures = {name: pool.submit(fn) for name, fn in tasks.items()}
        matrices = {name: fut.result() for name, fut in futures.items()}
    for name, matrix in matrices.items():
        write_snap(matrix, out_dir / f"{name}.snap")

    spectra = {}
    for name, matrix in matrices.items():
        basis = pod.decompose(matrix)
        spectra[name] = basis.spectrum
        pod.write_spectrum_csv(basis.spectrum, out_dir / f"{name}.csv")
    for name in ("cavity_mushy", "cavity_pure"):
        for comp, sub in pod.component_split(matrices[name]).items():
            sub_spectrum = pod.decompose(sub).spectrum
            spectra[f"{name}_{comp}"] = sub_spectrum
            pod.write_spectrum_csv(sub_spectrum, out_dir / f"{name}_{comp}.csv")

    threshold = (0.9999,)
    report_1d = analysis.compare(
        [(n, spectra[n]) for n in ("heat", "jump", "sigmoid_steep", "sigmoid_stretched")],
        threshold,
    )
    analysis.write_report_csv(report_1d, out_dir / "report_1d.csv")
    analysis.write_verdicts_csv(report_1d, out_dir / "report_1d_verdicts.csv")
    report_2d = analysis.compare(
        [(n, spectra[n]) for n in ("cavity_mushy", "cavity_pure")], threshold
    )
    analysis.write_report_csv(report_2d, out_dir / "report_2d.csv")
    analysis.write_verdicts_csv(report_2d, out_dir / "report_2d_verdicts.csv")
    report_components = analysis.compare(
        [
            (n, spectra[n])
            for n in ("cavity_pure_u", "cavity_pure_v", "cavity_pure_p", "cavity_pure_T")
        ],
        threshold,
    )
    analysis.write_report_csv(report_components, out_dir / "report_components.csv")
    analysis.write_verdicts_csv(report_components, out_dir / "report_components_verdicts.csv")
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

    p = sub.add_parser("gen-heat1d", help="1D heat-equation snapshots", formatter_class=fmt)
    p.add_argument("--nodes", type=int, default=256, help="number of grid nodes")
    p.add_argument("--snapshots", type=int, default=128, help="number of snapshot columns")
    p.add_argument("--alpha", type=float, default=1.0, help="thermal diffusivity")
    p.add_argument("--dt", type=float, default=1e-3, help="timestep")
    p.add_argument("--scheme", choices=("implicit_euler", "explicit_euler"),
                   default="implicit_euler", help="time integration scheme")
    p.add_argument("--x-min", type=float, default=0.0, help="left domain edge")
    p.add_argument("--x-max", type=float, default=1.0, help="right domain edge")
    p.add_argument("--ic-left", type=float, default=0.25, help="rectangle IC left edge")
    p.add_argument("--ic-right", type=float, default=0.75, help="rectangle IC right edge")
    p.add_argument("--ic-height", type=float, default=1.0, help="rectangle IC height")
    p.add_argument("--out", required=True, help="output SNAP1 path")
    p.set_defaults(handler=_cmd_gen_heat1d)

    p = sub.add_parser("gen-jump", help="advected-jump snapshots", formatter_class=fmt)
    p.add_argument("--nodes", type=int, default=256, help="number of grid nodes")
    p.add_argument("--snapshots", type=int, default=128, help="number of snapshot columns")
    p.add_argument("--out", required=True, help="output SNAP1 path")
    p.set_defaults(handler=_cmd_gen_jump)

    p = sub.add_parser("gen-sigmoid", help="advected-sigmoid snapshots", formatter_class=fmt)
    p.add_argument("--nodes", type=int, default=256, help="number of grid nodes")
    p.add_argument("--snapshots", type=int, default=128, help="number of snapshot columns")
    p.add_argument("--steepness", type=float, default=cases1d.STEEP_K,
                   help="sigmoid front steepness k")
    p.add_argument("--out", required=True, help="output SNAP1 path")
    p.set_defaults(handler=_cmd_gen_sigmoid)

    p = sub.add_parser("gen-cavity2d", help="2D freezing-cavity snapshots",
                       formatter_class=fmt)
    p.add_argument("--config", required=True, help="cavity config file (key = value sections)")
    p.add_argument("--viscosity", choices=("mushy", "sharp_jump"), default=None,
                   help="override the config's viscosity model")
    p.add_argument("--dt", type=float, default=None, help="override the config's timestep")
    p.add_argument("--n-steps", type=int, default=None, help="override the config's step count")
    p.add_argument("--snap-every", type=int, default=None,
                   help="override the config's snapshot cadence")
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
    p.add_argument("--threshold", type=float, action="append", default=None,
                   help="energy threshold (repeatable; default 0.9999)")
    p.add_argument("--fit-lo", type=int, default=analysis.DEFAULT_FIT_RANGE[0],
                   help="first mode of the decay-fit range")
    p.add_argument("--fit-hi", type=int, default=analysis.DEFAULT_FIT_RANGE[1],
                   help="last mode of the decay-fit range")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        args.handler(args)
    except ArgumentError as exc:
        print(f"error: (usage) {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (DataError, DimensionError, FormatError, DegenerateSpectrumError) as exc:
        print(f"error: (data) {exc}", file=sys.stderr)
        return DATA_EXIT
    except (NumericalError, StabilityError) as exc:
        print(f"error: (numerical) {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except PodsnapError as exc:
        print(f"error: (data) {exc}", file=sys.stderr)
        return DATA_EXIT
    except OSError as exc:
        print(f"error: (data) {exc}", file=sys.stderr)
        return DATA_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
