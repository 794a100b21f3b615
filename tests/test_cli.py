"""CLI verbs, exit codes, determinism, and the repro pipeline."""

import argparse
import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import podsnap
from podsnap.cli import build_parser, main
from podsnap.snapshots import read_snap
from podsnap.solidify2d import read_config, run_case

TINY_CAVITY = (
    "[grid]\nnx = 10\nny = 10\n"
    "[time]\ndt = 0.02\nn_steps = 30\n"
    "[output]\nsnap_every = 3\n"
)


def run_cli(*argv):
    return main(list(argv))


def assert_every_option_echoed(verb, err):
    """Each option ``verb`` parses shows up as a ``config: <dest> = `` line."""
    verbs = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for dest in (a.dest for a in verbs[verb]._actions if a.dest != "help"):
        assert f"config: {dest} = " in err, (verb, dest)


class TestGenerationVerbs:
    def test_gen_jump_writes_paper_sized_matrix(self, tmp_path):
        out = tmp_path / "jump.snap"
        code = run_cli("gen-jump", "--nodes", "256", "--snapshots", "128", "--out", str(out))
        assert code == 0
        m = read_snap(out)
        assert m.data.shape == (256, 128)
        assert set(np.unique(m.data)) == {0.0, 1.0}

    def test_gen_heat1d_and_sigmoid(self, tmp_path):
        heat = tmp_path / "heat.snap"
        sig = tmp_path / "sig.snap"
        assert run_cli("gen-heat1d", "--out", str(heat)) == 0
        assert run_cli("gen-sigmoid", "--steepness", "15", "--out", str(sig)) == 0
        assert read_snap(heat).data.shape == (256, 128)
        assert read_snap(sig).data.shape == (256, 128)

    def test_gen_cavity2d_with_config_and_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "case.cfg"
        cfg_path.write_text(
            "[grid]\nnx = 12\nny = 12\n"
            "[time]\ndt = 0.02\nn_steps = 10\n"
            "[output]\nsnap_every = 5\n"
        )
        out = tmp_path / "cavity.snap"
        code = run_cli(
            "gen-cavity2d", "--config", str(cfg_path), "--viscosity", "sharp_jump",
            "--out", str(out),
        )
        assert code == 0
        assert "config: viscosity_model = sharp_jump" in capsys.readouterr().err
        m = read_snap(out)
        assert m.n_snaps == 2
        assert m.layout.names == ("u", "v", "p", "T")

    def test_config_echo_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "jump.snap"
        run_cli("gen-jump", "--out", str(out))
        err = capsys.readouterr().err
        assert "config: nodes = 256" in err
        assert "config: snapshots = 128" in err

    def test_every_option_is_echoed(self, tmp_path, capsys):
        # "every run echoes its resolved configuration": each option a verb
        # parses must show up as a config line (repro: see TestRepro)
        cfg_path = tmp_path / "case.cfg"
        cfg_path.write_text(TINY_CAVITY)
        snap, csv = tmp_path / "cavity.snap", tmp_path / "cavity.csv"
        runs = [
            ("gen-heat1d", "--out", str(tmp_path / "heat.snap")),
            ("gen-jump", "--out", str(tmp_path / "jump.snap")),
            ("gen-sigmoid", "--out", str(tmp_path / "sigmoid.snap")),
            ("gen-cavity2d", "--config", str(cfg_path), "--out", str(snap)),
            ("pod", "--in", str(snap), "--out", str(csv), "--components", "all"),
            ("analyze", "--in", str(csv), str(tmp_path / "cavity_u.csv"),
             "--out", str(tmp_path / "report.csv")),
        ]
        for argv in runs:
            assert run_cli(*argv) == 0, argv
            assert_every_option_echoed(argv[0], capsys.readouterr().err)

    def test_deleted_config_key_is_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "old.cfg"
        cfg_path.write_text("[material]\nmu_cap = 1e9\n")
        code = run_cli("gen-cavity2d", "--config", str(cfg_path),
                       "--out", str(tmp_path / "c.snap"))
        assert code == 2
        assert "mu_cap" in capsys.readouterr().err.splitlines()[-1]
        assert not (tmp_path / "c.snap").exists()

    def test_deterministic_output_bytes(self, tmp_path):
        a = tmp_path / "a.snap"
        b = tmp_path / "b.snap"
        run_cli("gen-sigmoid", "--out", str(a))
        run_cli("gen-sigmoid", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestPodVerb:
    def test_combined_spectrum(self, tmp_path):
        snap = tmp_path / "jump.snap"
        csv = tmp_path / "jump.csv"
        run_cli("gen-jump", "--out", str(snap))
        assert run_cli("pod", "--in", str(snap), "--out", str(csv)) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "index,sigma,sigma_norm,cumulative_energy"
        assert len(lines) == 1 + 128

    def test_components_all_writes_per_field_files(self, tmp_path):
        cfg_path = tmp_path / "case.cfg"
        cfg_path.write_text("[grid]\nnx = 8\nny = 8\n[time]\nn_steps = 6\n[output]\nsnap_every = 2\n")
        snap = tmp_path / "cavity.snap"
        run_cli("gen-cavity2d", "--config", str(cfg_path), "--out", str(snap))
        csv = tmp_path / "cavity.csv"
        assert run_cli("pod", "--in", str(snap), "--out", str(csv), "--components", "all") == 0
        for name in ("u", "v", "p", "T"):
            assert (tmp_path / f"cavity_{name}.csv").exists()

    def test_single_component_selection(self, tmp_path):
        cfg_path = tmp_path / "case.cfg"
        cfg_path.write_text("[grid]\nnx = 8\nny = 8\n[time]\nn_steps = 4\n[output]\nsnap_every = 2\n")
        snap = tmp_path / "cavity.snap"
        run_cli("gen-cavity2d", "--config", str(cfg_path), "--out", str(snap))
        csv = tmp_path / "p.csv"
        assert run_cli("pod", "--in", str(snap), "--out", str(csv), "--components", "p") == 0
        assert csv.exists()
        assert run_cli("pod", "--in", str(snap), "--out", str(tmp_path / "x.csv"),
                       "--components", "vorticity") == 1


class TestAnalyzeVerb:
    def test_end_to_end_heat_beats_jump(self, tmp_path):
        heat_snap = tmp_path / "heat.snap"
        jump_snap = tmp_path / "jump.snap"
        run_cli("gen-heat1d", "--out", str(heat_snap))
        run_cli("gen-jump", "--out", str(jump_snap))
        heat_csv = tmp_path / "heat.csv"
        jump_csv = tmp_path / "jump.csv"
        run_cli("pod", "--in", str(heat_snap), "--out", str(heat_csv))
        run_cli("pod", "--in", str(jump_snap), "--out", str(jump_csv))
        report = tmp_path / "report.csv"
        code = run_cli(
            "analyze", "--in", str(heat_csv), str(jump_csv),
            "--threshold", "0.9999", "--out", str(report),
        )
        assert code == 0
        rows = [line.split(",") for line in report.read_text().splitlines()[1:]]
        counts = {row[0]: int(row[2]) for row in rows}
        assert counts["heat"] < counts["jump"]
        verdicts = (tmp_path / "report_verdicts.csv").read_text().splitlines()[1:]
        assert verdicts == ["heat,jump,0.99990000000000001,a<b"]


class TestExitCodes:
    def test_usage_error_is_1(self, tmp_path):
        assert run_cli("gen-jump") == 1  # missing --out
        assert run_cli("gen-jump", "--nodes", "not-a-number", "--out", "x") == 1
        assert run_cli("no-such-verb") == 1

    def test_missing_input_is_2(self, tmp_path):
        assert run_cli("pod", "--in", str(tmp_path / "nope.snap"),
                       "--out", str(tmp_path / "s.csv")) == 2

    def test_bad_magic_is_2(self, tmp_path):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"JUNKJUNK" + b"\x00" * 32)
        assert run_cli("pod", "--in", str(bad), "--out", str(tmp_path / "s.csv")) == 2

    def test_numerical_error_is_3(self, tmp_path, capsys):
        # dt = 5 on an 8x8 cavity breaks the advective CFL bound on step 1
        cfg_path = tmp_path / "case.cfg"
        cfg_path.write_text("[grid]\nnx = 8\nny = 8\n[time]\ndt = 5\nn_steps = 4\n")
        out = tmp_path / "c.snap"
        code = run_cli("gen-cavity2d", "--config", str(cfg_path), "--out", str(out))
        assert code == 3
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: (numerical)") and "advective CFL number" in last
        assert not out.exists()

    def test_output_colliding_with_input_is_1(self, tmp_path):
        snap = tmp_path / "jump.snap"
        run_cli("gen-jump", "--out", str(snap))
        assert run_cli("pod", "--in", str(snap), "--out", str(snap)) == 1

    def test_component_output_colliding_with_input_is_1(self, tmp_path):
        # with --components all, out.snap's u sibling is out_u.snap
        cfg_path = tmp_path / "case.cfg"
        cfg_path.write_text("[grid]\nnx = 8\nny = 8\n[time]\nn_steps = 4\n[output]\nsnap_every = 2\n")
        snap = tmp_path / "study_u.snap"
        run_cli("gen-cavity2d", "--config", str(cfg_path), "--out", str(snap))
        before = snap.read_bytes()
        code = run_cli("pod", "--in", str(snap), "--out", str(tmp_path / "study.snap"),
                       "--components", "all")
        assert code == 1
        assert snap.read_bytes() == before
        assert not (tmp_path / "study.snap").exists()

    def test_colliding_outputs_are_1(self, tmp_path):
        snap = tmp_path / "jump.snap"
        csv = tmp_path / "jump.csv"
        run_cli("gen-jump", "--out", str(snap))
        run_cli("pod", "--in", str(snap), "--out", str(csv))
        before = csv.read_bytes()
        other = tmp_path / "jump2.csv"
        other.write_bytes(before)
        same = tmp_path / "same.csv"
        code = run_cli("analyze", "--in", str(csv), str(other),
                       "--out", str(same), "--verdicts-out", str(same))
        assert code == 1
        assert csv.read_bytes() == before and other.read_bytes() == before
        assert not same.exists()

    def test_structured_error_line(self, tmp_path, capsys):
        run_cli("pod", "--in", str(tmp_path / "nope.snap"), "--out", str(tmp_path / "s.csv"))
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: (data)")

    @pytest.mark.parametrize("flag", ["--dt", "--n-steps", "--snap-every"])
    def test_deleted_cavity_flag_is_1(self, tmp_path, flag):
        # [time] dt, [time] n_steps and [output] snap_every set these
        cfg_path = tmp_path / "case.cfg"
        cfg_path.write_text(TINY_CAVITY)
        code = run_cli("gen-cavity2d", "--config", str(cfg_path), flag, "1",
                       "--out", str(tmp_path / "c.snap"))
        assert code == 1
        assert not (tmp_path / "c.snap").exists()

    @pytest.mark.parametrize("argv", [
        ("gen-heat1d", "--alpha", "nan"),
        ("gen-heat1d", "--dt", "inf"),
        ("gen-heat1d", "--ic-height", "-inf"),
        ("gen-sigmoid", "--steepness", "nan"),
        ("analyze", "--in", "a.csv", "b.csv", "--threshold", "nan"),
    ])
    def test_non_finite_flag_is_1(self, tmp_path, capsys, argv):
        code = run_cli(*argv, "--out", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: (usage)")
        assert not (tmp_path / "out").exists()

    def test_non_finite_config_value_is_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text("[time]\ndt = nan\n")
        code = run_cli("gen-cavity2d", "--config", str(cfg_path),
                       "--out", str(tmp_path / "c.snap"))
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: (data) bad value for 'dt': 'nan'"
        )

    def test_overflowing_viscosity_is_1(self, tmp_path, capsys):
        # passed validation once, then exited 3 as a singular momentum factor
        cfg_path = tmp_path / "viscous.cfg"
        cfg_path.write_text(
            "[grid]\nnx = 8\nny = 8\n[time]\nn_steps = 4\n[output]\nsnap_every = 2\n"
            "[material]\nmu_liquid = 1e308\n"
        )
        code = run_cli("gen-cavity2d", "--config", str(cfg_path),
                       "--out", str(tmp_path / "c.snap"))
        assert code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: (usage)")
        assert "mu_liquid" in last and "jump_factor" in last
        assert not (tmp_path / "c.snap").exists()

    @pytest.mark.parametrize("verb, name, content", [
        ("analyze", "s.csv", b"index,sigma,sigma_norm,cumulative_energy\n1,abc,1,1\n"),
        ("analyze", "s.csv", b"index,sigma,sigma_norm,cumulative_energy\n1,\xff,1,1\n"),
        ("gen-cavity2d", "case.cfg", b"\xff\xfe[grid]"),
    ], ids=["non-numeric-sigma", "non-utf8-csv", "non-utf8-config"])
    def test_malformed_text_input_is_2(self, tmp_path, verb, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        flag = "--in" if verb == "analyze" else "--config"
        src = str(pathlib.Path(podsnap.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "podsnap.cli", verb, flag, str(path),
             "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[-1].startswith("error: (data)")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("sigma, message", [
        (("nan", "1"), "spectrum contains non-finite values"),
        (("1", "2"), "singular values must be non-increasing"),
        ((), "spectrum needs at least one value"),
    ], ids=["non-finite", "increasing", "no-rows"])
    def test_invalid_spectrum_names_its_file_and_is_2(self, tmp_path, capsys, sigma, message):
        header = "index,sigma,sigma_norm,cumulative_energy\n"
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_text(header + "".join(f"{i},{s},1,1\n" for i, s in enumerate(sigma, 1)))
        good.write_text(header + "1,2,1,1\n2,1,1,1\n")
        out = tmp_path / "report.csv"
        assert run_cli("analyze", "--in", str(bad), str(good), "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: (data) {bad}: {message}"
        assert not out.exists()

    def test_help_exits_zero_and_lists_defaults(self, capsys):
        assert run_cli("gen-sigmoid", "--help") == 0
        out = capsys.readouterr().out
        assert "--steepness" in out
        assert "default: 100.0" in out

    def test_module_entry_point_runs_once_without_warning(self):
        src = str(pathlib.Path(podsnap.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "podsnap.cli", "--help"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr


class TestRepro:
    def test_full_pipeline_desk_scale_shrunk(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CAVITY)
        out_dir = tmp_path / "study"
        code = run_cli("repro", "--out-dir", str(out_dir), "--cavity-config", str(cfg_path))
        assert code == 0
        err = capsys.readouterr().err
        assert_every_option_echoed("repro", err)
        assert "config: nx = 10" in err
        for stem in ("heat", "jump", "sigmoid_steep", "sigmoid_stretched",
                     "cavity_mushy", "cavity_pure"):
            assert (out_dir / f"{stem}.snap").exists()
            assert (out_dir / f"{stem}.csv").exists()
        for comp in ("u", "v", "p", "T"):
            assert (out_dir / f"cavity_pure_{comp}.csv").exists()
            assert (out_dir / f"cavity_mushy_{comp}.csv").exists()
        for report in ("report_1d", "report_2d", "report_components"):
            assert (out_dir / f"{report}.csv").exists()
            assert (out_dir / f"{report}_verdicts.csv").exists()
        assert (out_dir / "cavity_mushy.cfg").exists()
        # the 1D report must rank heat fastest-decaying of the four
        rows = [r.split(",") for r in (out_dir / "report_1d.csv").read_text().splitlines()[1:]]
        counts = {r[0]: int(r[2]) for r in rows}
        assert counts["heat"] <= min(counts.values())

    def test_worker_cavity_output_equals_in_process_run(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_CAVITY)
        out_dir = tmp_path / "study"
        assert run_cli("repro", "--out-dir", str(out_dir), "--cavity-config", str(cfg_path)) == 0
        base = read_config(cfg_path)
        for label, kind in (("mushy", "mushy"), ("pure", "sharp_jump")):
            cfg = dataclasses.replace(
                base, viscosity=dataclasses.replace(base.viscosity, kind=kind))
            assert read_snap(out_dir / f"cavity_{label}.snap") == run_case(cfg)

    def test_worker_error_keeps_exit_code_and_message(self, tmp_path, capsys):
        cfg_path = tmp_path / "unstable.cfg"
        cfg_path.write_text("[grid]\nnx = 16\nny = 16\n[time]\ndt = 5.0\n")
        code = run_cli("repro", "--out-dir", str(tmp_path / "study"),
                       "--cavity-config", str(cfg_path))
        assert code == 3
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: (numerical) aborted at step 2 (t = 10): advective CFL number 9.272 "
            "exceeds 1; reduce dt below 5.393e-01"
        )
