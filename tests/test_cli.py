import contextlib
import io
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gqla
from gqla import cli
from gqla import convert_gqa as CG
from gqla import io as gqck
from gqla import model as M
from gqla.cli import emit_table, main, operating_points_table
from gqla.convert_gqa import init_random_gqa
from gqla.errors import NumericError
from gqla.model import GqlaConfig, random_tokens

from conftest import parse_csv


@pytest.fixture
def gqla_ckpt(tmp_path, desk_config, desk_weights):
    path = tmp_path / "model.gqck"
    gqck.write_checkpoint(path, "gqla", desk_config, desk_weights)
    return path


@pytest.fixture
def gqa_ckpt(tmp_path, desk_gqa):
    path = tmp_path / "src.gqck"
    gqck.write_checkpoint(path, "gqa", None, desk_gqa)
    return path


@pytest.fixture
def mla_ckpt(tmp_path, mla_config, mla_weights):
    path = tmp_path / "mla.gqck"
    gqck.write_checkpoint(path, "mla", mla_config, mla_weights)
    return path


def corrupt_tensor(path, name, value=float("nan")):
    """Overwrite the first values of one tensor's payload with value (NaN)."""
    blob = bytearray(path.read_bytes())
    _, header_len = struct.unpack("<IQ", blob[4:16])
    header = json.loads(bytes(blob[16:16 + header_len]))
    entry = next(t for t in header["tensors"] if t["name"] == name)
    start = 16 + header_len + entry["offset"]
    blob[start:start + 32] = struct.pack("<4d", *([value] * 4))
    path.write_bytes(bytes(blob))


class TestVerify:
    def test_valid_checkpoint_passes(self, gqla_ckpt, capsys):
        rc = main(["verify", "--checkpoint", str(gqla_ckpt), "--seq-len", "20",
                   "--sq", "2", "--tolerance", "1e-9"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 5 and "FAIL" not in out
        assert "latent 40 elements/token" in out and "expanded 72" in out

    def test_latent_wider_than_expanded_cache_passes(self, tmp_path, capsys):
        # kv_rank 24 > g*(d+dv) = 16: the K/V up-projections are not injective,
        # so the recovered latent may differ from the cached one yet be valid.
        config = GqlaConfig(model_dim=32, num_heads=4, num_groups=1, head_dim=8,
                            value_head_dim=8, rope_head_dim=4, kv_rank=24, q_rank=16)
        path = tmp_path / "wide.gqck"
        gqck.write_checkpoint(path, "gqla", config, M.init_random(config, 3))
        rc = main(["verify", "--checkpoint", str(path), "--seq-len", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_corrupted_tensor_fails(self, gqla_ckpt, capsys):
        corrupt_tensor(gqla_ckpt, "k_up")
        rc = main(["verify", "--checkpoint", str(gqla_ckpt), "--seq-len", "12"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["kv_down", "q_up", "out_proj", "k_rope"])
    def test_infinite_payload_fails_without_warnings(self, gqla_ckpt, capsys, name):
        # the FAIL lines carry the verdict: no numpy warning escapes
        corrupt_tensor(gqla_ckpt, name, float("inf"))
        rc = main(["verify", "--checkpoint", str(gqla_ckpt), "--seq-len", "12"])
        captured = capsys.readouterr()
        assert rc == 1 and "FAIL" in captured.out
        assert captured.err == ""

    def test_failed_compression_solve_fails_the_cache_checks(self, gqla_ckpt, monkeypatch,
                                                             capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        rc = main(["verify", "--checkpoint", str(gqla_ckpt), "--seq-len", "12"])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.count("PASS") == 3 and out.count("FAIL") == 2
        assert "FAIL  compressed cache vs latent" in out

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_invalid_tolerance_is_a_usage_error(self, gqla_ckpt, capsys, tolerance):
        rc = main(["verify", "--checkpoint", str(gqla_ckpt), "--tolerance", tolerance])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: --tolerance") and "Traceback" not in captured.err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["verify", "--checkpoint", str(tmp_path / "nope.gqck")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_kind(self, gqa_ckpt, capsys):
        rc = main(["verify", "--checkpoint", str(gqa_ckpt)])
        assert rc == 2
        assert "GQLA" in capsys.readouterr().err


class TestConvert:
    def test_gqa_route_reports_cache_ratio(self, gqa_ckpt, tmp_path, capsys):
        out_path = tmp_path / "out.gqck"
        rc = main(["convert", "--from", "gqa", "--in", str(gqa_ckpt), "--out", str(out_path),
                   "--rkv", "14", "--dhr", "4", "--calib-tokens", "256"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "28.125%" in out
        assert "PASS  dual-path check" in out
        kind, config, _ = gqck.read_checkpoint(out_path)
        assert kind == "GQLA" and config.kv_rank == 14

    def test_gqa_route_reports_latent_rank(self, gqa_ckpt, tmp_path, capsys):
        rc = main(["convert", "--from", "gqa", "--in", str(gqa_ckpt), "--out",
                   str(tmp_path / "out.gqck"), "--rkv", "14", "--dhr", "4"])
        assert rc == 0
        assert "latent rank:            14/14\n" in capsys.readouterr().out

    def test_mla_route_exact_at_group_per_head(self, mla_ckpt, tmp_path, capsys):
        out_path = tmp_path / "out.gqck"
        rc = main(["convert", "--from", "mla", "--in", str(mla_ckpt), "--out", str(out_path),
                   "--g", "8", "--calib-tokens", "512"])
        out = capsys.readouterr().out
        assert rc == 0
        dev = float(out.split("output deviation:")[1].split("(")[0])
        assert dev <= 1e-10

    def test_outputs_are_byte_identical_across_runs(self, gqa_ckpt, tmp_path, capsys):
        paths = [tmp_path / "a.gqck", tmp_path / "b.gqck"]
        for p in paths:
            rc = main(["convert", "--from", "gqa", "--in", str(gqa_ckpt), "--out", str(p),
                       "--rkv", "14", "--dhr", "4", "--calib-tokens", "128", "--seed", "9"])
            assert rc == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_mla_outputs_are_byte_identical_across_runs(self, mla_ckpt, tmp_path, capsys):
        paths = [tmp_path / "a.gqck", tmp_path / "b.gqck"]
        for p in paths:
            rc = main(["convert", "--from", "mla", "--in", str(mla_ckpt), "--out", str(p),
                       "--g", "2", "--calib-tokens", "128", "--seed", "9"])
            assert rc == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("route", [("gqa", "--rkv", "14", "--dhr", "4"),
                                       ("gqa", "--rkv", "60", "--dhr", "4"),
                                       ("mla", "--g", "2"), ("mla", "--g", "8")],
                             ids=["gqa-rkv14", "gqa-rkv60", "mla-g2", "mla-g8"])
    def test_converted_checkpoint_passes_verify_and_sparse_check(
            self, gqa_ckpt, mla_ckpt, tmp_path, capsys, route):
        source = gqa_ckpt if route[0] == "gqa" else mla_ckpt
        out_path = str(tmp_path / "out.gqck")
        assert main(["convert", "--from", route[0], "--in", str(source), "--out", out_path,
                     *route[1:]]) == 0
        assert main(["verify", "--checkpoint", out_path, "--sq", "2"]) == 0
        assert main(["sparse-check", "--checkpoint", out_path]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_kind_mismatch(self, mla_ckpt, tmp_path, capsys):
        rc = main(["convert", "--from", "gqa", "--in", str(mla_ckpt),
                   "--out", str(tmp_path / "x.gqck"), "--rkv", "8", "--dhr", "2"])
        assert rc == 2

    def test_missing_rank_flags(self, gqa_ckpt, tmp_path, capsys):
        rc = main(["convert", "--from", "gqa", "--in", str(gqa_ckpt),
                   "--out", str(tmp_path / "x.gqck")])
        assert rc == 2
        assert "--rkv" in capsys.readouterr().err

    def test_gqa_route_writes_the_target_config(self, gqa_ckpt, desk_gqa, tmp_path, capsys):
        out_path = tmp_path / "out.gqck"
        assert main(["convert", "--from", "gqa", "--in", str(gqa_ckpt), "--out", str(out_path),
                     "--rkv", "14", "--dhr", "4", "--calib-tokens", "64"]) == 0
        _, config, _ = gqck.read_checkpoint(out_path)
        assert config == CG.target_config(desk_gqa, 14, 4)

    def test_failed_freqfold_eigendecomposition_is_a_usage_error(self, gqa_ckpt, desk_gqa,
                                                                  tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericError):
            CG.freqfold_compress(desk_gqa, random_tokens(64, 64, 1), 14, 4)
        rc = main(["convert", "--from", "gqa", "--in", str(gqa_ckpt),
                   "--out", str(tmp_path / "x.gqck"), "--rkv", "14", "--dhr", "4"])
        err = capsys.readouterr().err
        assert rc == 2 and "did not converge" in err and "Traceback" not in err

    def test_infeasible_dims_are_usage_errors(self, gqa_ckpt, tmp_path, capsys):
        rc = main(["convert", "--from", "gqa", "--in", str(gqa_ckpt),
                   "--out", str(tmp_path / "x.gqck"), "--rkv", "200", "--dhr", "4"])
        assert rc == 2


class TestRoofline:
    def test_default_table(self, capsys):
        rc = main(["roofline"])
        out = capsys.readouterr().out
        assert rc == 0
        data_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(data_lines) == 9  # header + 8 rows
        assert "ridge 295.2" in out and "ridge 37.0" in out

    def test_custom_hardware_ridge_in_header(self, capsys):
        rc = main(["roofline", "--hw", "custom:989e12,989e12"])
        assert rc == 0
        assert "ridge 1.0" in capsys.readouterr().out

    def test_custom_hardware_mixes_with_presets(self, capsys):
        rc = main(["roofline", "--hw", "h20,custom:148e12,4e12", "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "custom" in out and "H20" in out

    def test_malformed_custom_hardware(self, capsys):
        assert main(["roofline", "--hw", "custom:abc,def"]) == 2
        assert main(["roofline", "--hw", "custom:1e12"]) == 2
        # custom:FLOPS,BW is the only form
        assert main(["roofline", "--hw", "custom:1e12/2e12"]) == 2
        assert main(["roofline", "--hw", "custom:1e12;2e12"]) == 2

    def test_csv_matches_text_values(self, capsys):
        assert main(["roofline", "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        assert main(["roofline", "--format", "text"]) == 0
        text_out = capsys.readouterr().out
        _, rows = parse_csv(csv_out)
        text_rows = [l.split() for l in text_out.splitlines()
                     if l and not l.startswith("#")][1:]
        assert rows == text_rows

    def test_explicit_rows(self, capsys):
        rc = main(["roofline", "--hw", "h20", "--rows", "gqa:8:2,mqa:1:1", "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(out.splitlines()) == 3

    def test_bad_hardware_is_usage_error(self, capsys):
        assert main(["roofline", "--hw", "b200"]) == 2

    def test_config_from_checkpoint(self, gqla_ckpt, capsys):
        rc = main(["roofline", "--config", str(gqla_ckpt), "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "72" in out  # desk expanded cache: 72 elements * 2 bytes = 144 B/tok


class TestResultTable:
    def test_empty_rows_render_header_only(self):
        assert emit_table(["a", "b"], [], "text") == "a  b\n"
        assert emit_table(["a", "b"], [], "csv") == "a,b\n"

    def test_csv_round_trip(self):
        columns, rows = ["name", "value"], [["plain", "1.5"], ["with,comma", "2"]]
        text = emit_table(columns, rows, "csv")
        assert parse_csv(text) == (columns, rows)
        assert '"with,comma"' in text

    def test_text_is_fixed_width_aligned(self):
        lines = emit_table(["col", "x"], [["aa", "1"], ["b", "22"]], "text").splitlines()
        assert lines[0] == "col   x"
        assert lines[1] == " aa   1"
        assert lines[2] == "  b  22"

    def test_planner_table_is_eight_by_ten(self):
        from gqla import roofline as R
        points = R.operating_table([R.H100, R.H20], M.canonical_config())
        columns, rows = operating_points_table(points)
        assert len(columns) == 10
        assert len(rows) == 8

    def test_rectangularity_enforced(self, capsys):
        from gqla import roofline as R
        points = R.operating_table([R.H100, R.H20], M.canonical_config())
        columns, rows = operating_points_table(points)
        assert all(len(row) == len(columns) for row in rows)
        assert main(["roofline", "--format", "csv"]) == 0
        columns, rows = parse_csv(capsys.readouterr().out)
        assert rows and all(len(row) == len(columns) for row in rows)


class TestSparseCheck:
    def test_passes_and_reports_tile(self, gqla_ckpt, capsys):
        rc = main(["sparse-check", "--checkpoint", str(gqla_ckpt), "--k", "6",
                   "--seq-len", "24"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 3
        assert "infeasible, 4 heads/group" in out

    def test_k_saturates_cleanly(self, gqla_ckpt, capsys):
        rc = main(["sparse-check", "--checkpoint", str(gqla_ckpt), "--k", "99",
                   "--seq-len", "16"])
        assert rc == 0

    def test_feasible_tile_configuration(self, tmp_path, capsys):
        cfg = GqlaConfig(model_dim=32, num_heads=16, num_groups=1, head_dim=4,
                         value_head_dim=4, rope_head_dim=2, kv_rank=8, q_rank=16)
        path = tmp_path / "wide.gqck"
        gqck.write_checkpoint(path, "gqla", cfg, M.init_random(cfg, 2))
        rc = main(["sparse-check", "--checkpoint", str(path), "--k", "4", "--seq-len", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "feasible, 16 heads/group" in out

    def test_wrong_kind(self, gqa_ckpt, capsys):
        assert main(["sparse-check", "--checkpoint", str(gqa_ckpt)]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--seq-len", "0"],
    ["verify", "--seq-len", "1", "--sq", "2"],
    ["sparse-check", "--k", "0"],
    ["roofline", "--seq-len", "0"],
    ["roofline", "--hw", "h20", "--rows", "gqa:-8:1"],
    ["roofline", "--hw", "h20", "--rows", "gqa:0:1"],
    ["roofline", "--hw", "custom:nan,1e12"],
    ["roofline", "--hw", "custom:1e15,inf"],
    ["roofline", "--rows", "gqa:3:1"],
    ["roofline", "--rows", "gqa:256:1"],
    ["roofline", "--rows", "gqa:x:1"],
    ["roofline", "--rows", "gqa:8:y"],
    ["roofline", "--seq-len", str(10 ** 400)],
    ["roofline", "--rows", f"mqa:1:{10 ** 400}"],
])
def test_out_of_range_parameters_are_usage_errors(argv, gqla_ckpt, capsys):
    if argv[0] != "roofline":
        argv = argv + ["--checkpoint", str(gqla_ckpt)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "sparse-check", "convert"])
def test_oversized_inputs_are_usage_errors(command, gqla_ckpt, gqa_ckpt, tmp_path, capsys):
    # 10**13 tokens exceed the address space, so numpy refuses them at once
    if command == "convert":
        argv = ["convert", "--from", "gqa", "--in", str(gqa_ckpt), "--out",
                str(tmp_path / "x.gqck"), "--rkv", "14", "--dhr", "4", "--calib-tokens"]
    else:
        argv = [command, "--checkpoint", str(gqla_ckpt), "--seq-len"]
    assert main(argv + [str(10 ** 13)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # 10**400 is past the largest array numpy can make at all
    assert main(argv + [str(10 ** 400)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# Runs the CLI and prints the process's own peak RSS (MiB) as the last stdout line.
_REPORT_PEAK_RSS = ("import resource, sys\n"
                    "from gqla.cli import main\n"
                    "code = main(sys.argv[1:])\n"
                    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)\n"
                    "sys.exit(code)")


@pytest.mark.skipif(os.environ.get("GQLA_PAPER_WIDTH") != "1",
                    reason="one LLaMA-3-8B layer through the CLI (~1.4 GB, ~10 s): "
                           "set GQLA_PAPER_WIDTH=1")
def test_paper_width_cli_session_stays_within_its_peak_rss(tmp_path):
    source, converted = tmp_path / "src.gqck", tmp_path / "out.gqck"
    gqck.write_checkpoint(source, "gqa", None, init_random_gqa(32, 8, 128, 4096, seed=1))
    src_dir = os.path.dirname(os.path.dirname(gqla.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    # bounds in MiB: convert (1367 measured) with about 20% headroom; verify
    # (436) and sparse-check (400) at 480, so that a copy of the 363 MB of
    # weights on the read -> verify path would fail it
    session = [(["convert", "--from", "gqa", "--in", str(source), "--out", str(converted),
                 "--rkv", "512", "--dhr", "64", "--calib-tokens", "8192"], 1650),
               (["verify", "--checkpoint", str(converted)], 480),
               (["sparse-check", "--checkpoint", str(converted)], 480)]
    for argv, bound in session:
        run = subprocess.run([sys.executable, "-c", _REPORT_PEAK_RSS, *argv], env=env,
                             capture_output=True, text=True, check=False)
        assert run.returncode == 0 and run.stderr == "", (argv[0], run.stderr)
        peak = int(run.stdout.split()[-1])
        assert peak <= bound, f"{argv[0]} peaked at {peak} MiB (bound {bound})"
        if argv[0] == "convert":  # the weights without a dense identity q_down
            assert converted.stat().st_size <= 363_000_000


class TestSeedHandling:
    def test_env_seed_changes_the_run(self, gqla_ckpt, capsys, monkeypatch):
        monkeypatch.setenv("GQLA_SEED", "1")
        assert main(["sparse-check", "--checkpoint", str(gqla_ckpt), "--k", "3"]) == 0
        first = capsys.readouterr().out
        monkeypatch.setenv("GQLA_SEED", "2")
        assert main(["sparse-check", "--checkpoint", str(gqla_ckpt), "--k", "3"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_explicit_seed_beats_env(self, gqla_ckpt, capsys, monkeypatch):
        outputs = []
        for env in ("1", "2"):
            monkeypatch.setenv("GQLA_SEED", env)
            assert main(["sparse-check", "--checkpoint", str(gqla_ckpt), "--k", "3",
                         "--seed", "7"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_non_integer_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("GQLA_SEED", "abc")
        assert main(["roofline"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "GQLA_SEED" in err

    @pytest.mark.parametrize("command", ["verify", "sparse-check", "convert"])
    def test_negative_seed_is_usage_error(self, command, gqla_ckpt, gqa_ckpt, tmp_path,
                                          capsys):
        if command == "convert":
            argv = ["convert", "--from", "gqa", "--in", str(gqa_ckpt),
                    "--out", str(tmp_path / "x.gqck"), "--rkv", "14", "--dhr", "4"]
        else:
            argv = [command, "--checkpoint", str(gqla_ckpt)]
        assert main(argv + ["--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err


class TestParserReuse:
    """One parser serves every main call of a process; GQLA_SEED is read per call."""

    @staticmethod
    def argv(command, checkpoint):
        """A valid argv: roofline as CSV, or sparse-check at k=3 on checkpoint."""
        return (["roofline", "--format", "csv"] if command == "roofline"
                else ["sparse-check", "--checkpoint", str(checkpoint), "--k", "3"])

    @staticmethod
    def run(argv):
        """(exit code, stdout, stderr) of main(argv), argparse's SystemExit included."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def fresh(self, argv):
        """run(argv) on a newly built parser, as a process's first call."""
        cli._parser.cache_clear()
        return self.run(argv)

    def test_parser_is_built_once_per_process(self, gqla_ckpt, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        for argv in (self.argv("roofline", None), ["roofline", "--format", "json"],
                     self.argv("sparse-check", gqla_ckpt),
                     ["verify", "--checkpoint", str(gqla_ckpt), "--seq-len", "4"]):
            self.run(argv)
        assert len(builds) == 1

    def test_a_rebound_command_runs_on_the_cached_parser(self, monkeypatch):
        self.run(self.argv("roofline", None))  # builds the parser
        monkeypatch.setattr(cli, "cmd_roofline", lambda args: 7)
        assert self.run(self.argv("roofline", None)) == (7, "", "")

    @pytest.mark.parametrize("command, rejected", [("roofline", ["--format", "json"]),
                                                   ("sparse-check", ["--k", "x"])])
    def test_a_rejected_argv_leaves_the_next_call_as_it_runs_alone(self, command, rejected,
                                                                   gqla_ckpt):
        argv = self.argv(command, gqla_ckpt)
        alone = self.fresh(argv)
        code, out, err = self.run(argv + rejected)
        assert code == 2 and out == "" and err.startswith(f"usage: gqla {command} ")
        assert self.run(argv) == alone and alone[0] == 0

    @pytest.mark.parametrize("env", [None, "3"])
    def test_an_explicit_seed_holds_for_its_call_only(self, env, gqla_ckpt, monkeypatch):
        if env is None:
            monkeypatch.delenv("GQLA_SEED", raising=False)
        else:
            monkeypatch.setenv("GQLA_SEED", env)
        argv = self.argv("sparse-check", gqla_ckpt)
        alone = self.fresh(argv)
        seeded = self.run(argv + ["--seed", "7"])
        assert self.run(argv) == alone != seeded
        assert self.run(argv + ["--seed", env or "0"]) == alone

    def test_a_changed_env_seed_takes_effect_on_the_next_call(self, gqla_ckpt, monkeypatch):
        argv = self.argv("sparse-check", gqla_ckpt)
        for env in ("1", "2"):
            monkeypatch.setenv("GQLA_SEED", env)
            assert self.run(argv) == self.run(argv + ["--seed", env])
        assert self.run(argv) != self.run(argv + ["--seed", "1"])

    @pytest.mark.parametrize("command", ["roofline", "sparse-check"])
    def test_a_malformed_env_seed_after_a_successful_call_is_usage_error(
            self, command, gqla_ckpt, monkeypatch):
        argv = self.argv(command, gqla_ckpt)
        monkeypatch.delenv("GQLA_SEED", raising=False)
        assert self.run(argv)[0] == 0
        monkeypatch.setenv("GQLA_SEED", "abc")
        calls = [argv] if command == "roofline" else [argv, argv + ["--seed", "7"]]
        for call in calls:
            assert self.run(call) == (2, "", "error: GQLA_SEED must be an integer, got 'abc'\n")


@pytest.mark.parametrize("out", ["missing/x.gqck", "."])
def test_unwritable_checkpoint_is_usage_error(out, gqa_ckpt, tmp_path, capsys):
    rc = main(["convert", "--from", "gqa", "--in", str(gqa_ckpt), "--out", str(tmp_path / out),
               "--rkv", "14", "--dhr", "4", "--calib-tokens", "64"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot write checkpoint")


# The argv fuzz gives each flag a pool of valid values (None: the flag is left
# out) and a pool of faults, and puts faults into at most two flags of an argv.
# The faults are edge values, text that is no number, and counts (10**13,
# 10**400) that numpy refuses at once: nothing between 10**4 and 10**12, which
# would allocate.
_NUMBERS = ["0", "-1", "x", "1.5", "nan", "inf", "", str(10 ** 13), str(10 ** 400)]
_FILES = ["@gqa", "@mla", "@missing", "@dir"]


def _pools(good, bad=_NUMBERS, required=False):
    return (good if required else [None, *good]), (bad + [None] if required else bad)


_FLAGS = {
    "verify": {"--checkpoint": _pools(["@gqla"], _FILES, required=True),
               "--seq-len": _pools(["1", "2", "12"]), "--sq": _pools(["1", "2"], ["4", *_NUMBERS]),
               "--tolerance": _pools(["1e-9", "0.5", "0"], ["-1", "nan", "inf", "x", "1e400"]),
               "--seed": _pools(["0", "7"])},
    "convert": {"--from": _pools(["gqa", "mla"], ["gqla", "x"], required=True),
                "--in": _pools(["@gqa", "@mla"], ["@gqla", "@missing", "@dir"], required=True),
                "--out": _pools(["@out"], ["@nodir", "@dir"], required=True),
                # each route's own flags, left out only as a fault
                "--g": _pools(["2", "8"], ["3", *_NUMBERS], required=True),
                "--rkv": _pools(["14", "8"], required=True),
                "--dhr": _pools(["4", "2"], ["3", *_NUMBERS], required=True),
                "--calib-tokens": _pools(["3", "64"]), "--seed": _pools(["0", "9"])},
    "roofline": {"--hw": _pools(["h100", "h20,h100", "custom:1e12,2e12"],
                                ["custom:nan,1", "custom:1", "custom:x,1", "b200", ""]),
                 "--config": _pools(["canonical", "@gqla", "@mla"], ["@gqa", "@missing"]),
                 "--rows": _pools(["default", "gqa:8:2", "mqa:1:1,gqa:4:1", "latent:1:2"],
                                  ["gqa:8", "mha:1:1", ""] + [f"gqa:{n}:1" for n in _NUMBERS]
                                  + [f"mqa:1:{n}" for n in _NUMBERS]),
                 "--seq-len": _pools(["1", "8192"]),
                 "--format": _pools(["text", "csv"], ["json", ""])},
    "sparse-check": {"--checkpoint": _pools(["@gqla"], _FILES, required=True),
                     "--k": _pools(["1", "3", "99"]), "--seq-len": _pools(["2", "16"]),
                     "--seed": _pools(["0", "7"])},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    faults = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for flag, (good, bad) in flags.items():
        value = draw(st.sampled_from(bad if flag in faults else good))
        if value is not None:
            argv += [flag, value]
    return argv


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_argv_fuzz_exits_0_1_or_2_without_traceback(argv, gqla_ckpt, gqa_ckpt, mla_ckpt,
                                                     tmp_path):
    # the fixtures serve every example: their files are only read, and convert
    # writes its own
    places = {"@gqla": gqla_ckpt, "@gqa": gqa_ckpt, "@mla": mla_ckpt,
              "@out": tmp_path / "fuzz.gqck", "@missing": tmp_path / "missing",
              "@nodir": tmp_path / "missing" / "x.gqck", "@dir": tmp_path}
    argv = [str(places.get(arg, arg)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert "error: " in err.getvalue() and out.getvalue() == "", argv
