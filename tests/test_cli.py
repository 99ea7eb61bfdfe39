import contextlib
import functools
import hashlib
import io
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esnas import archspace, bench, cli, evolve, metrics, netgraph
from esnas.archspace import random_genome


@pytest.fixture
def space_file(tmp_path, tiny_config):
    p = tmp_path / "space.json"
    p.write_text(json.dumps(tiny_config.to_dict()))
    return p


@pytest.fixture
def genome_file(tmp_path, tiny_config):
    p = tmp_path / "genome.json"
    p.write_text(random_genome(tiny_config, 0).to_json())
    return p


@pytest.fixture
def search_config_file(tmp_path, tiny_config):
    cfg = {
        "space": tiny_config.to_dict(),
        "schedule": {
            "multistart_populations": 2,
            "multistart_budget": {"kind": "evaluations", "amount": 8},
            "phase_budget": {"kind": "evaluations", "amount": 12},
            "total_budget": {"kind": "evaluations", "amount": 80},
            "multistart_population_size": 4,
            "multistart_tournament_size": 2,
            "population_size": 6,
            "tournament_size": 2,
        },
    }
    p = tmp_path / "search.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.fixture
def nothing_scored(monkeypatch):
    """Fail the test when a candidate is counted or scored."""
    def never(*args, **kwargs):
        raise AssertionError("a candidate was counted or scored")

    monkeypatch.setattr(archspace, "count_params", never)
    monkeypatch.setattr(metrics, "score_genome", never)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScore:
    def test_score_prints_report(self, space_file, genome_file, capsys):
        code, out, err = run(["score", "--arch", str(genome_file),
                              "--config", str(space_file)], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert set(report) >= {"entropic", "logsynflow", "params", "macs"}
        assert report["entropic"] >= 0

    def test_score_writes_out_file_and_reruns_identically(
            self, tmp_path, space_file, genome_file, capsys):
        out_path = tmp_path / "report.json"
        argv = ["score", "--arch", str(genome_file),
                "--config", str(space_file), "--out", str(out_path)]
        code, out1, _ = run(argv, capsys)
        assert code == 0
        first = out_path.read_bytes()
        code, out2, _ = run(argv, capsys)
        assert code == 0
        assert out1 == out2
        assert out_path.read_bytes() == first

    def test_out_parent_is_created(self, tmp_path, space_file, genome_file,
                                   capsys):
        out_path = tmp_path / "new" / "dir" / "r.json"
        code, out, err = run(["score", "--arch", str(genome_file),
                              "--config", str(space_file),
                              "--out", str(out_path)], capsys)
        assert code == 0, err
        assert out_path.read_text() == out

    def test_invalid_genome_exits_2_with_violations(
            self, tmp_path, space_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema_version": 1, "config_ref": "",
            "stages": [[
                {"type": "ffn", "ffn_type": "ibn", "out_channels": 16,
                 "kernel_size": 3, "expansion_ratio": 2},
                {"type": "ffn", "ffn_type": "ibn", "out_channels": 8,
                 "kernel_size": 3, "expansion_ratio": 2},
            ]]}))
        code, _, err = run(["score", "--arch", str(bad),
                            "--config", str(space_file)], capsys)
        assert code == 2
        payload = json.loads(err)
        assert "validation" in payload["error"]["message"]
        assert any("decreasing channels" in d
                   for d in payload["error"]["details"])

    @pytest.mark.parametrize("command", ["score", "stats"])
    @pytest.mark.parametrize("content", [
        {"stages": [["x"]]}, {"stages": 5}, [1, 2], [],
        {"stages": [], "stagess": []}])
    def test_malformed_genome_exits_2(self, tmp_path, space_file, command,
                                      content, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        code, _, err = run([command, "--arch", str(bad),
                            "--config", str(space_file)], capsys)
        assert code == 2
        assert "invalid genome file" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("command", ["score", "stats"])
    @pytest.mark.parametrize("field, value", [
        ("out_channels", "x"), ("kernel_size", "3"), ("expansion_ratio", 2.0)])
    def test_wrong_field_type_exits_2_naming_it(
            self, tmp_path, space_file, command, field, value, capsys):
        second = {"type": "ffn", "ffn_type": "ibn", "out_channels": 16,
                  "kernel_size": 3, "expansion_ratio": 2}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema_version": 1, "config_ref": "",
            "stages": [[
                {"type": "ffn", "ffn_type": "ibn", "out_channels": 8,
                 "kernel_size": 3, "expansion_ratio": 2},
                {**second, field: value},
            ]]}))
        code, _, err = run([command, "--arch", str(bad),
                            "--config", str(space_file)], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["message"] == "genome fails validation"
        assert payload["error"]["details"] == [
            f"stage 1 block 2: not an integer: {field} {value!r}"]

    def test_leaves_no_helper_process_behind(self, space_file, genome_file):
        """An ``esnas score`` run that scores in a helper process leaves no
        such process once the command has exited."""
        script = ("import os, sys\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "from esnas import cli, metrics\n"
                  "metrics.HELPER_MIN_MACS = 0\n"
                  "code = cli.main()\n"
                  "print(metrics._helper.process.pid, file=sys.stderr)\n"
                  "sys.exit(code)\n")
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script, "score", "--arch", str(genome_file),
             "--config", str(space_file)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["logsynflow"] > 0
        helper_pid = int(done.stderr.split()[-1])
        with pytest.raises(ProcessLookupError):
            os.kill(helper_pid, 0)

    def test_missing_file_exits_2(self, space_file, capsys):
        code, _, err = run(["score", "--arch", "/nonexistent.json",
                            "--config", str(space_file)], capsys)
        assert code == 2
        assert "not found" in json.loads(err)["error"]["message"]

    def test_out_naming_a_directory_exits_2_before_scoring(
            self, tmp_path, space_file, genome_file, nothing_scored, capsys):
        adir = tmp_path / "adir"
        adir.mkdir()
        code, out, err = run(["score", "--arch", str(genome_file),
                              "--config", str(space_file),
                              "--out", str(adir)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == (
            f"output file {adir} is a directory")
        assert adir.is_dir() and list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("unreadable", ["directory", "latin-1"])
@pytest.mark.parametrize("command, option", [
    ("score", "--arch"), ("score", "--config"), ("stats", "--arch"),
    ("search", "--config")])
def test_unreadable_input_file_exits_2_naming_it(
        tmp_path, space_file, genome_file, command, option, unreadable,
        capsys):
    bad = tmp_path / "bad.json"
    if unreadable == "directory":
        bad.mkdir()
    else:
        bad.write_bytes('{"stages": "\xe9"}'.encode("latin-1"))
    if command == "search":
        argv = ["search", "--budget-mode", "evals", "--config", str(bad),
                "--out", str(tmp_path / "run")]
    else:
        files = {"--arch": str(genome_file), "--config": str(space_file),
                 option: str(bad)}
        argv = [command] + [a for kv in files.items() for a in kv]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert str(bad) in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("fail", ["write", "replace"])
def test_atomic_write_leaves_no_temporary_file(tmp_path, fail):
    """A write that fails part way (a lone surrogate cannot be encoded) or a
    replace onto a directory removes the temporary file."""
    path = tmp_path / "out"
    if fail == "replace":
        path.mkdir()
    with pytest.raises((OSError, UnicodeEncodeError)):
        cli.atomic_write(path, "\udc80" if fail == "write" else "text\n")
    assert list(tmp_path.glob("*.tmp")) == []


def _output_argv(command, out, tmp_path, space_file, genome_file,
                 search_config_file, tiny_config):
    """argv for a run of ``command`` that scores candidates into ``out``."""
    if command == "score":
        return ["score", "--arch", str(genome_file), "--config",
                str(space_file), "--out", str(out)]
    if command == "search":
        return ["search", "--config", str(search_config_file),
                "--budget-mode", "evals", "--out", str(out)]
    csv_path = tmp_path / "bench.csv"
    csv_path.write_text("arch_json,accuracy\n" + "".join(
        '"{}",{}\n'.format(random_genome(tiny_config, s).to_json()
                           .replace('"', '""'), 60 + s) for s in range(3)))
    return ["correlate", "--bench", str(csv_path), "--metric", "entropic",
            "--config", str(space_file), "--out", str(out)]


# (command, bad output): --out, the directory to make first, and the path
# that the error names; score has one output and search fixed distinct
# names, so only correlate can name one file twice
BAD_OUTPUTS = {
    ("score", "file in path"): ("afile/r.json", None, "afile"),
    ("score", "name is a directory"): ("d/r.json", "d/r.json", "d/r.json"),
    ("search", "file in path"): ("afile/run", None, "afile/run"),
    ("search", "name is a directory"): (
        "d", "d/history.ndjson", "d/history.ndjson"),
    ("correlate", "file in path"): ("afile/r.json", None, "afile"),
    ("correlate", "name is a directory"): (
        "d/r.json", "d/scatter.csv", "d/scatter.csv"),
    ("correlate", "same file"): (
        "d/manifest.json", None, "d/manifest.json"),
}


@pytest.mark.parametrize("command, bad", BAD_OUTPUTS)
def test_bad_output_exits_2_naming_it_before_scoring(
        tmp_path, space_file, genome_file, search_config_file, tiny_config,
        command, bad, nothing_scored, monkeypatch, capsys):
    # search counts its space's least genome to validate max_params, which
    # counts no candidate
    monkeypatch.setattr(archspace, "least_params", lambda space: 0)
    out, taken, named = BAD_OUTPUTS[command, bad]
    argv = _output_argv(command, tmp_path / out, tmp_path, space_file,
                        genome_file, search_config_file, tiny_config)
    (tmp_path / "afile").write_text("kept\n")
    if taken:
        (tmp_path / taken).mkdir(parents=True)
    before = {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")}
    code, stdout, err = run(argv, capsys)
    assert code == 2 and stdout == ""
    assert str(tmp_path / named) in json.loads(err)["error"]["message"]
    assert {p: p.is_dir() or p.read_bytes()
            for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("command", ["score", "search", "correlate"])
def test_rerun_overwrites_an_existing_output_directory(
        tmp_path, space_file, genome_file, search_config_file, tiny_config,
        command, capsys):
    out = tmp_path / "out" / ("r.json" if command != "search" else "")
    argv = _output_argv(command, out, tmp_path, space_file, genome_file,
                        search_config_file, tiny_config)
    code, _, err = run(argv, capsys)
    assert code == 0, err
    first = {p: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    for p in first:
        p.write_text("stale\n")
    code, _, err = run(argv, capsys)
    assert code == 0, err
    again = {p: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert again.keys() == first.keys()
    for p in first:
        if p.name == "manifest.json":
            assert json.loads(again[p])["outputs"] == json.loads(
                first[p])["outputs"]
        else:
            assert again[p] == first[p]


def test_unknown_log_level_exits_2_naming_it(genome_file, space_file,
                                             monkeypatch, capsys):
    argv = ["stats", "--arch", str(genome_file), "--config", str(space_file)]
    monkeypatch.setenv("ESNAS_LOG", "verbose")
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert "ESNAS_LOG" in error["message"] and "'verbose'" in error["message"]
    assert error["details"] == [
        "accepted levels: DEBUG, INFO, WARNING, ERROR, CRITICAL"]
    # outside pytest the root logger has no handler yet, the case in which
    # logging.basicConfig itself would raise on the name
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, ESNAS_LOG="verbose", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "esnas.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert json.loads(done.stderr)["error"] == error


class TestStats:
    def test_params_and_macs(self, space_file, genome_file, tiny_config, capsys):
        code, out, _ = run(["stats", "--arch", str(genome_file),
                            "--config", str(space_file)], capsys)
        assert code == 0
        stats = json.loads(out)
        g = archspace.ArchGenome.from_json(genome_file.read_text())
        assert stats["params"] == archspace.count_params(g, tiny_config)
        assert stats["macs"] == netgraph.count_graph_macs(
            netgraph.build_structure(g, tiny_config))

    def test_genome_outside_space_exits_2(self, tmp_path, space_file, capsys):
        bad = tmp_path / "bad.json"
        genome = random_genome(archspace.SearchSpaceConfig(), 0)
        bad.write_text(genome.to_json())  # a genome of another space
        code, _, err = run(["stats", "--arch", str(bad),
                            "--config", str(space_file)], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["message"] == "genome fails validation"
        assert payload["error"]["details"]

    def test_non_object_config_exits_2(self, tmp_path, genome_file, capsys):
        # dict([]) is {}, so a list once read as the default space
        p = tmp_path / "space.json"
        p.write_text("[]")
        code, out, err = run(["stats", "--arch", str(genome_file),
                              "--config", str(p)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["details"] == [
            "space must be a JSON object, got []"]


class TestSearch:
    def test_search_writes_all_outputs(self, tmp_path, search_config_file,
                                       tiny_config, capsys):
        out_dir = tmp_path / "run1"
        code, out, err = run(["search", "--config", str(search_config_file),
                              "--budget-mode", "evals",
                              "--seed", "3", "--out", str(out_dir)], capsys)
        assert code == 0, err
        for name in ("best_genome.json", "best_report.json",
                     "history.ndjson", "manifest.json"):
            assert (out_dir / name).exists()
        genome = archspace.ArchGenome.from_json(
            (out_dir / "best_genome.json").read_text())
        assert archspace.validate(genome, tiny_config) == []
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "search"
        assert manifest["master_seed"] == 3
        assert manifest["ended_at"] is not None
        assert len(manifest["outputs"]) == 3
        summary = json.loads(out)
        assert Path(summary["best_genome"]) == out_dir / "best_genome.json"
        history = [json.loads(line) for line in
                   (out_dir / "history.ndjson").read_text().splitlines()]
        assert history[-1]["event"] == "search_done"

    def test_out_naming_a_file_exits_2_naming_it(self, tmp_path,
                                                 search_config_file, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        code, out, err = run(["search", "--config", str(search_config_file),
                              "--budget-mode", "evals",
                              "--out", str(taken)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["message"] == f"cannot create output directory {taken}"
        assert taken.read_text() == "kept\n"

    def test_rerun_is_byte_identical(self, tmp_path, search_config_file, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, err = run(["search", "--config", str(search_config_file),
                                "--budget-mode", "evals",
                                "--seed", "5", "--out", str(d)], capsys)
            assert code == 0, err
        for name in ("best_genome.json", "best_report.json", "history.ndjson"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_evals_mode_rejects_wallclock_budgets(self, tmp_path, tiny_config,
                                                  capsys):
        cfg = {"space": tiny_config.to_dict(),
               "schedule": {"phase_budget":
                            {"kind": "wallclock_seconds", "amount": 1}}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, _, err = run(["search", "--config", str(p),
                            "--budget-mode", "evals",
                            "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert "evaluation budgets" in json.loads(err)["error"]["message"]

    def test_evals_mode_without_preset_takes_the_evaluation_budgets(
            self, tmp_path, tiny_config, capsys):
        p = tmp_path / "space.json"
        p.write_text(json.dumps({"space": tiny_config.to_dict()}))
        dirs = [tmp_path / "plain", tmp_path / "preset"]
        for d, preset in zip(dirs, ([], ["--preset", "S0"])):
            code, _, err = run(["search", *preset, "--budget-mode", "evals",
                                "--config", str(p), "--out", str(d)], capsys)
            assert code == 0, err
        for name in ("best_genome.json", "best_report.json", "history.ndjson"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_config_typos_exit_2_naming_each_key(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "space": {"input_resolutoin": 32},
            "schedule": {"phase_budgets": {"kind": "evaluations", "amount": 3}},
            "entropic": {"repeat": 2},
            "schedul": {}}))
        code, out, err = run(["search", "--preset", "S0", "--budget-mode",
                              "evals", "--config", str(p),
                              "--out", str(tmp_path / "x")], capsys)
        assert code == 2 and out == ""
        details = " ".join(json.loads(err)["error"]["details"])
        for key in ("input_resolutoin", "phase_budgets", "repeat", "schedul"):
            assert f"'{key}'" in details
        assert not (tmp_path / "x").exists()

    def test_evaluation_budget_too_small_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"schedule": {"total_budget": {
            "kind": "evaluations", "amount": 3}}}))
        code, _, err = run(["search", "--preset", "S0", "--budget-mode",
                            "evals", "--config", str(p),
                            "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        details = " ".join(json.loads(err)["error"]["details"])
        assert "total_budget" in details and "multistart_budget" in details

    def test_preset_sets_param_cap(self, tmp_path, tiny_config, capsys):
        # Preset fixes budgets and max_params; the config file narrows the
        # space so the run stays fast.  The preset cap must survive the merge.
        space = tiny_config.to_dict()
        del space["max_params"]
        cfg = {"space": space,
               "schedule": {
                   "multistart_populations": 1,
                   "multistart_budget": {"kind": "evaluations", "amount": 6},
                   "phase_budget": {"kind": "evaluations", "amount": 8},
                   "total_budget": {"kind": "evaluations", "amount": 30},
                   "multistart_population_size": 4,
                   "multistart_tournament_size": 2,
                   "population_size": 6,
                   "tournament_size": 2,
               }}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out_dir = tmp_path / "preset_run"
        code, _, err = run(["search", "--preset", "S0", "--config", str(p),
                            "--budget-mode", "evals",
                            "--out", str(out_dir)], capsys)
        assert code == 0, err
        report = json.loads((out_dir / "best_report.json").read_text())
        assert report["params"] <= cli.PRESETS["S0"]["max_params"]

    def test_manifest_reruns_the_search(self, tmp_path, tiny_config, capsys):
        """A search rerun from its manifest's budget mode, config and seed
        alone writes the same outputs, and config_hash hashes that config."""
        space = tiny_config.to_dict()
        del space["max_params"]  # the preset's
        budget = {"kind": "evaluations", "amount": 4}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"space": space, "schedule": {
            "multistart_populations": 1, "multistart_budget": budget,
            "phase_budget": budget, "total_budget": {"amount": 12},
            "multistart_population_size": 3, "multistart_tournament_size": 2,
            "population_size": 4, "tournament_size": 2}}))
        code, _, err = run(["search", "--preset", "S0", "--config", str(p),
                            "--budget-mode", "evals", "--seed", "5",
                            "--out", str(tmp_path / "first")], capsys)
        assert code == 0, err
        manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
        assert (manifest["budget_mode"], manifest["preset"]) == ("evals", "S0")
        assert manifest["config"]["space"]["max_params"] == 3_500_000
        assert hashlib.sha256(cli.canonical_json(
            manifest["config"]).encode()).hexdigest() == manifest["config_hash"]
        p.write_text(json.dumps(manifest["config"]))
        code, _, err = run(["search", "--budget-mode", manifest["budget_mode"],
                            "--config", str(p),
                            "--seed", str(manifest["master_seed"]),
                            "--out", str(tmp_path / "rerun")], capsys)
        assert code == 0, err
        for name in ("best_genome.json", "best_report.json", "history.ndjson"):
            assert ((tmp_path / "rerun" / name).read_bytes()
                    == (tmp_path / "first" / name).read_bytes()), name

    @pytest.mark.parametrize("preset, max_params, phase, total", [
        ("S0", 3_500_000, 300, 2700), ("S1", 6_000_000, 300, 2700),
        ("S2", 12_500_000, 360, 3300)])
    def test_wallclock_preset_config(self, preset, max_params, phase, total):
        args = cli.build_parser().parse_args(["search", "--preset", preset])
        assert cli._search_config(args) == {
            "space": {"max_params": max_params},
            "schedule": {f"{name}_budget": {"kind": "wallclock_seconds",
                                            "amount": amount}
                         for name, amount in (("multistart", 180),
                                              ("phase", phase),
                                              ("total", total))},
            "entropic": {}}

    @pytest.mark.parametrize("preset", [None, "S0", "S1", "S2"])
    def test_evals_config(self, preset):
        argv = ["search", "--budget-mode", "evals"]
        args = cli.build_parser().parse_args(
            argv + (["--preset", preset] if preset else []))
        assert cli._search_config(args) == {
            "space": ({"max_params": cli.PRESETS[preset]["max_params"]}
                      if preset else {}),
            "schedule": {f"{name}_budget": {"kind": "evaluations",
                                            "amount": amount}
                         for name, amount in (("multistart", 30),
                                              ("phase", 60), ("total", 400))},
            "entropic": {}}

    def test_wallclock_config_without_preset_sets_no_budgets(self):
        args = cli.build_parser().parse_args(["search"])
        assert cli._search_config(args) == {
            "space": {}, "schedule": {}, "entropic": {}}

    @pytest.mark.parametrize("mode, kind", [
        ("evals", "evaluations"), ("wallclock", "wallclock_seconds")])
    def test_config_amount_keeps_the_modes_kind(self, tmp_path, mode, kind):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"schedule": {"phase_budget": {"amount": 7}}}))
        args = cli.build_parser().parse_args(
            ["search", "--preset", "S1", "--budget-mode", mode,
             "--config", str(p)])
        assert cli._search_config(args)["schedule"]["phase_budget"] == {
            "kind": kind, "amount": 7}

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"space": {"kernel_domain": [4]}}))
        code, _, err = run(["search", "--config", str(p),
                            "--out", str(tmp_path / "y")], capsys)
        assert code == 2

    def test_float_domain_exits_2_before_scoring(self, tmp_path, search_config_file,
                                                 capsys):
        # mutation copies domain values into genes, so 5.0 would fail
        # genome validation partway through the search
        cfg = json.loads(search_config_file.read_text())
        cfg["space"]["kernel_domain"] = [3.0, 5.0]
        search_config_file.write_text(json.dumps(cfg))
        out_dir = tmp_path / "run"
        code, out, err = run(["search", "--config", str(search_config_file),
                              "--out", str(out_dir)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["details"] == [
            "space: kernel_domain must hold integers: [3.0, 5.0]"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("space, problem", [
        ({"kernel_domain": ["3", "5"]},
         "kernel_domain must hold integers: ['3', '5']"),
        ({"num_stages": 2, "blocks_per_stage": [1, 1],
          "channel_domain": [["8", "16"], [16, 24]]},
         "channel_domain[0] must hold integers: ['8', '16']"),
    ], ids=["kernel_domain", "channel_domain"])
    def test_string_domain_exits_2_naming_it(self, tmp_path, search_config_file,
                                             space, problem, capsys):
        # the kernel and channel-range checks must not compare the strings
        cfg = json.loads(search_config_file.read_text())
        cfg["space"].update(space)
        search_config_file.write_text(json.dumps(cfg))
        out_dir = tmp_path / "run"
        code, out, err = run(["search", "--config", str(search_config_file),
                              "--out", str(out_dir)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["details"] == [f"space: {problem}"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, value, problem", [
        ("space", {"stem_channels": 16, "channel_domain": [[4, 8]]},
         "stem_channels 16 exceeds channel_domain[0]'s least value 4"),
        ("space", [], "space must be a JSON object, got []"),
        ("schedule", [], "schedule must be a JSON object, got []"),
        ("schedule", {"total_budget": []},
         "total_budget must be a JSON object, got []"),
        ("entropic", "x", "entropic must be a JSON object, got 'x'"),
        ("entropic", {"repeats": 2.5},
         "repeats must be an int of at least 1, got 2.5"),
        ("entropic", {"repeats": True},
         "repeats must be an int of at least 1, got True"),
        ("entropic", {"input_low": -1e308, "input_high": 1e308},
         "input_low must be below input_high by a finite span, "
         "got -1e+308 and 1e+308"),
        ("space", {"max_params": "x"},
         "max_params must be an int of at least 1, got 'x'"),
        ("space", {"input_resolution": 16.5},
         "input_resolution must be an int of at least 4, got 16.5"),
        ("space", {"num_stages": 1.0},
         "num_stages must be an int of at least 1, got 1.0"),
        ("space", {"attention_stages": 3},
         "attention_stages must be a list, got 3"),
        ("entropic", {"epsilon": "x"},
         "epsilon must be a finite number > 0, got 'x'"),
    ], ids=["stem_channels", "space-list", "schedule-list", "budget-list",
            "entropic-string", "repeats-float", "repeats-bool", "input-span",
            "max_params-string", "input_resolution-float", "num_stages-float",
            "attention_stages-int", "epsilon-string"])
    def test_bad_section_exits_2_naming_it_before_scoring(
            self, tmp_path, search_config_file, section, value, problem,
            nothing_scored, capsys):
        # each of these once passed validation: the stem outgrew the first
        # block's residual, a list read as the defaults, and repeats failed
        # at the first scoring or ran once
        cfg = json.loads(search_config_file.read_text())
        cfg[section] = ({**cfg.get(section, {}), **value}
                        if isinstance(value, dict) else value)
        search_config_file.write_text(json.dumps(cfg))
        out_dir = tmp_path / "run"
        code, out, err = run(["search", "--config", str(search_config_file),
                              "--budget-mode", "evals",
                              "--out", str(out_dir)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["details"] == [f"{section}: {problem}"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, value", [
        ("seeds_per_phase", 0), ("seeds_per_phase", 2.5),
        ("tournament_size", 0), ("population_size", 0),
        ("population_size", True), ("multistart_population_size", 0),
        ("multistart_tournament_size", 0), ("mutations_per_step", -1),
        ("mutations_per_step", 0), ("infeasible_retries", -1),
        ("crossover_in_multistart", 1), ("crossover_in_multistart", "no"),
        ("total_budget.amount", math.inf), ("total_budget.amount", math.nan),
        ("phase_budget.amount", True), ("multistart_budget.amount", "x"),
        ("total_budget.kind", "minutes"), ("total_budget", []),
        ("crossover_prob", "x"), ("crossover_prob", math.nan),
        ("scoring_seed", "x"),
    ])
    def test_bad_schedule_value_exits_2_naming_it_before_scoring(
            self, tmp_path, search_config_file, key, value, nothing_scored,
            capsys):
        # an infinite amount once exited 1, a NaN one never ran out, true
        # read as 1 and a string amount or crossover_prob named no key
        cfg = json.loads(search_config_file.read_text())
        *budget, leaf = key.split(".")  # a budget's field reads budget.field
        parent = cfg["schedule"][budget[0]] if budget else cfg["schedule"]
        parent[leaf] = value
        search_config_file.write_text(json.dumps(cfg))
        out_dir = tmp_path / "run"
        code, out, err = run(["search", "--config", str(search_config_file),
                              "--budget-mode", "evals",
                              "--out", str(out_dir)], capsys)
        assert code == 2 and out == ""
        [detail] = json.loads(err)["error"]["details"]
        assert detail.startswith(f"schedule: {key} must be ")
        assert detail.endswith(f"got {value!r}")
        assert not out_dir.exists()

    def test_budget_without_a_field_exits_2_naming_it(self, tmp_path,
                                                      nothing_scored, capsys):
        # wall-clock mode without a preset merges no default budget, so a
        # missing amount once failed in Budget's constructor, naming no key
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(
            {"schedule": {"total_budget": {"kind": "evaluations"}}}))
        out_dir = tmp_path / "run"
        code, out, err = run(["search", "--config", str(p),
                              "--out", str(out_dir)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["details"] == [
            "schedule: total_budget is missing key(s) 'amount'"]
        assert not out_dir.exists()

    def test_max_params_below_every_genome_exits_2(
            self, tmp_path, search_config_file, monkeypatch, capsys):
        # no genome fits: this once exited 1 after 200 draws of a genome
        def never(*args, **kwargs):
            raise AssertionError("a candidate was scored")

        monkeypatch.setattr(metrics, "score_genome", never)
        cfg = json.loads(search_config_file.read_text())
        cfg["space"]["max_params"] = 1159  # tiny_config's least count is 1,160
        search_config_file.write_text(json.dumps(cfg))
        out_dir = tmp_path / "run"
        code, out, err = run(["search", "--config", str(search_config_file),
                              "--budget-mode", "evals",
                              "--out", str(out_dir)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["details"] == [
            "space: max_params 1159 is below 1160, the least parameter count "
            "of any genome in the space"]
        assert not out_dir.exists()

    def test_tight_cap_takes_the_least_genome_and_exits_0(
            self, tmp_path, monkeypatch, capsys):
        # above the least count but too close to it for any of the first 200
        # draws: an initial draw then takes the least genome (this exited 2).
        # Scoring is stood in for by the count alone, which records the
        # parameter count of each genome scored
        scored = []

        def count_only(genome, space, *args, **kwargs):
            scored.append(archspace.count_params(genome, space))
            return metrics.ScoreReport(entropic=1.0, entropic_per_repeat=[1.0],
                                       logsynflow=1.0, params=scored[-1],
                                       macs=0, seeds=[0])

        monkeypatch.setattr(metrics, "score_genome", count_only)
        space = archspace.SearchSpaceConfig(input_resolution=16).validate()
        least = archspace.least_params(space)
        assert least == 380_128
        budget = {"kind": "evaluations", "amount": 2}
        p = tmp_path / "search.json"
        p.write_text(json.dumps({
            "space": {"input_resolution": 16, "max_params": least + 1000},
            "schedule": {
                "multistart_populations": 1, "multistart_population_size": 2,
                "multistart_tournament_size": 1, "population_size": 2,
                "tournament_size": 1, "seeds_per_phase": 1,
                "multistart_budget": budget, "phase_budget": budget,
                "total_budget": {"kind": "evaluations", "amount": 6}}}))
        out_dir = tmp_path / "run"
        code, _, err = run(["search", "--config", str(p),
                            "--budget-mode", "evals",
                            "--out", str(out_dir)], capsys)
        assert code == 0, err
        assert sorted(f.name for f in out_dir.iterdir()) == [
            "best_genome.json", "best_report.json", "history.ndjson",
            "manifest.json"]
        assert least in scored and max(scored) <= least + 1000

    def test_multistart_population_without_member_exits_2(self, tmp_path,
                                                          capsys):
        # a wall-clock multistart_budget spent before the first draw: this
        # exited 1 as an internal error
        p = tmp_path / "search.json"
        p.write_text(json.dumps({"space": {"input_resolution": 16}, "schedule": {
            "multistart_budget": {"kind": "wallclock_seconds", "amount": 1e-9},
            "total_budget": {"kind": "wallclock_seconds", "amount": 5}}}))
        out_dir = tmp_path / "run"
        code, out, err = run(["search", "--config", str(p),
                              "--out", str(out_dir)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["message"] == "invalid search configuration"
        assert "multistart_budget" in error["details"][0]
        assert not (out_dir / "best_genome.json").exists()

    # The search of test_trajectory_is_pinned: per history event its values
    # other than scores, in order; then every score of the history and of
    # best_report.json, in order.
    PINNED_EVENTS = [
        ("step", 4, "topology", "crossover", 5720, 38400),
        ("step", 5, "topology", "crossover", 5720, 38400),
        ("multistart_done", 5, 0, 5720),
        ("step", 9, "topology", "crossover", 4960, 39008),
        ("step", 10, "topology", "crossover", 4960, 39008),
        ("multistart_done", 10, 1, 4960),
        ("step", 15, "topology", "crossover", 5216, 40512),
        ("step", 16, "topology", "mutation", 4832, 34144),
        ("step", 17, "topology", "crossover", 4840, 35264),
        ("step", 18, "topology", "mutation", 5192, 37248),
        ("phase_done", 18, "topology", 4840),
        ("step", 23, "size", "crossover", 5720, 38400),
        ("step", 24, "size", "mutation", 5624, 37920),
        ("step", 25, "size", "mutation", 5720, 38400),
        ("step_skipped", 26, "size", "infeasible"),
        ("phase_done", 26, "size", 5720),
        ("phase_done", 30, "topology", 5720),
        ("search_done", 30, "entropic", 4960),
    ]
    PINNED_SCORES = [
        1.4632611304285021, 24.20548008464655, 1.4632611304285021,
        24.20548008464655, 1.4632611304285021, 1.5502972636679262,
        21.905148084407305, 1.5502972636679262, 21.905148084407305,
        1.5502972636679262, 1.4476714425529063, 23.02559907971254,
        1.258092317937103, 16.75793242673575, 1.5407951602301795,
        22.82028680251029, 1.2069978135509236, 23.270573387720766,
        1.5407951602301795, 22.82028680251029, 1.4632611304285021,
        24.20548008464655, 1.5066917032641232, 19.025648941717563,
        1.4632611304285021, 24.20548008464655, 1.4632611304285021,
        24.20548008464655, 1.4632611304285021, 24.20548008464655,
        1.5502972636679262, 21.905148084407305, 1.5502972636679262,
        1.5434398158334879, 1.611567252595993, 1.4958847225742975,
        21.905148084407305,
    ]
    PINNED_GENOME = (
        '{"schema_version":1,"config_ref":"8cc8d3c1af68","stages":[['
        '{"type":"ffn","ffn_type":"ibn","out_channels":8,"kernel_size":5,"expansion_ratio":3}],['
        '{"type":"ffn","ffn_type":"ibn","out_channels":16,"kernel_size":3,"expansion_ratio":3},'
        '{"type":"ffn","ffn_type":"ibn","out_channels":24,"kernel_size":3,"expansion_ratio":2}'
        ']]}\n')

    def test_trajectory_is_pinned(self, tmp_path, attn_config, monkeypatch,
                                  capsys):
        """A change to the search's draw order changes this run: initial,
        refill and evolution steps, crossover, skipped steps and refill
        fallbacks to the parent's genome all occur in it."""
        fallbacks, refilling = [], []
        refill, feasible = (evolve.SearchEngine.refill_population,
                            evolve.SearchEngine.feasible)

        def recording_refill(self, *args):
            refilling.append(True)
            try:
                return refill(self, *args)
            finally:
                refilling.pop()

        def recording_feasible(self, genome):
            ok = feasible(self, genome)
            if refilling and not ok:
                fallbacks.append(genome)
            return ok

        monkeypatch.setattr(evolve.SearchEngine, "refill_population",
                            recording_refill)
        monkeypatch.setattr(evolve.SearchEngine, "feasible", recording_feasible)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "space": {**attn_config.to_dict(), "max_params": 6000},
            "schedule": {
                "multistart_populations": 2, "multistart_population_size": 3,
                "multistart_tournament_size": 2, "population_size": 6,
                "tournament_size": 2, "seeds_per_phase": 2,
                "infeasible_retries": 0,
                "multistart_budget": {"kind": "evaluations", "amount": 5},
                "phase_budget": {"kind": "evaluations", "amount": 8},
                "total_budget": {"kind": "evaluations", "amount": 30}}}))
        out_dir = tmp_path / "run"
        code, _, err = run(["search", "--budget-mode", "evals", "--seed", "0",
                            "--config", str(p), "--out", str(out_dir)], capsys)
        assert code == 0, err

        def leaves(obj):
            if isinstance(obj, (dict, list)):
                return [x for v in (obj.values() if isinstance(obj, dict) else obj)
                        for x in leaves(v)]
            return [obj]

        history = [json.loads(line) for line in
                   (out_dir / "history.ndjson").read_text().splitlines()]
        report = json.loads((out_dir / "best_report.json").read_text())
        assert [tuple(v for v in leaves(ev) if type(v) is not float)
                for ev in history] == self.PINNED_EVENTS
        scores = [v for v in leaves([history, report]) if type(v) is float]
        assert scores == pytest.approx(self.PINNED_SCORES, rel=1e-12, abs=0)
        assert (report["params"], report["macs"], report["seeds"]) == (
            4960, 39008, [1973613244, 3782502437, 4146694914, 2361480034])
        assert (out_dir / "best_genome.json").read_text() == self.PINNED_GENOME
        assert len(fallbacks) == 3  # refill mutants replaced by their parent


@st.composite
def valid_search_configs(draw):
    """A valid 16 px search config that gives every key, on an evaluation
    schedule of 3 steps (so a search scores), and a genome of its space."""
    n = draw(st.integers(1, 2))
    space = {
        "num_stages": n,
        "blocks_per_stage": draw(st.lists(st.integers(1, 2), min_size=n,
                                          max_size=n)),
        "attention_stages": draw(st.sampled_from([[], [n], [1, n]])),
        "stem_channels": 8,
        "channel_domain": draw(st.sampled_from(
            [[[8], [8, 16]], [[8, 16], [16, 24]]]))[:n],
        "kernel_domain": draw(st.sampled_from([[3], [3, 5]])),
        "expansion_domain": draw(st.sampled_from([[2], [1, 2]])),
        "heads_domain": draw(st.sampled_from([[2], [1, 2]])),
        "head_dim_domain": draw(st.sampled_from([[4], [4, 8]])),
        "ffn_types": draw(st.sampled_from(
            [["ibn"], ["convnext"], ["ibn", "convnext"]])),
        "attention_probability": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "input_resolution": 16,
        "input_channels": draw(st.sampled_from([1, 3])),
        "max_params": 10_000_000,
    }
    schedule = {
        "multistart_populations": 1,
        "multistart_budget": {"kind": "evaluations", "amount": 2},
        "phase_budget": {"kind": "evaluations", "amount": 1},
        "total_budget": {"kind": "evaluations", "amount": 3},
        "multistart_population_size": 2, "multistart_tournament_size": 1,
        "population_size": 2, "tournament_size": 1, "mutations_per_step": 1,
        "crossover_prob": draw(st.sampled_from([0.0, 0.5])),
        "crossover_in_multistart": draw(st.booleans()),
        "seeds_per_phase": 1, "infeasible_retries": 0,
        "scoring_seed": draw(st.integers(0, 9)),
    }
    entropic = {"epsilon": 1e-8, "repeats": 1, "input_low": -0.5,
                "input_high": 0.5, "norm_axis": draw(st.sampled_from(
                    ["across_channels", "per_channel"]))}
    genome = random_genome(archspace.SearchSpaceConfig.from_dict(space), 0)
    return {"space": space, "schedule": schedule, "entropic": entropic}, genome


def json_leaves(value, path=()):
    """The path of every value in ``value`` that is no list or object."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [leaf for k, v in items for leaf in json_leaves(v, path + (k,))]
    return [path]


def json_type(value):
    return next(i for i, t in enumerate((type(None), bool, (int, float), str,
                                         list, dict)) if isinstance(value, t))


def quiet_main(argv):
    """Run the CLI; return its exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return cli.main(argv), err.getvalue()


class TestBadLeaf:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(data=st.data())
    def test_bad_leaf_exits_0_or_2_naming_its_key(self, data):
        """One leaf of a valid config takes a value of another JSON type, a
        non-finite number or an out-of-range number: search, score and stats
        then exit 0 or 2, never 1, and a config error names the leaf's key
        (a budget's field as total_budget.amount)."""
        cfg, genome = data.draw(valid_search_configs())
        path = data.draw(st.sampled_from(json_leaves(cfg)))
        key = ".".join(k for k in path[1:] if isinstance(k, str))
        with tempfile.TemporaryDirectory() as d, \
                pytest.MonkeyPatch.context() as mp:
            d = Path(d)
            scored = []
            score = metrics.score_genome
            mp.setattr(metrics, "score_genome",
                       lambda *a, **kw: scored.append(1) or score(*a, **kw))
            search = ["search", "--budget-mode", "evals", "--config",
                      str(d / "search.json"), "--out", str(d / "run")]
            # the valid config's search scores, so a bad value that
            # validation let through would fail at scoring
            (d / "search.json").write_text(json.dumps(cfg))
            assert quiet_main(search) == (0, "") and scored
            *parents, leaf = path
            holder = functools.reduce(operator.getitem, parents, cfg)
            holder[leaf] = data.draw(st.sampled_from(
                [v for v in (None, False, 1, "x", [], {})
                 if json_type(v) != json_type(holder[leaf])]
                + [math.inf, -math.inf, math.nan, -1, 0, 1.5, 3]))
            (d / "search.json").write_text(json.dumps(cfg))
            (d / "space.json").write_text(json.dumps(cfg["space"]))
            (d / "genome.json").write_text(genome.to_json())
            code, err = quiet_main(search)
            assert code in (0, 2), err
            if code == 2:
                assert any(detail.startswith(f"{path[0]}: ") and key in detail
                           for detail in json.loads(err)["error"]["details"]), err
            for command in ("score", "stats"):
                code, err = quiet_main([command, "--arch", str(d / "genome.json"),
                                        "--config", str(d / "space.json")])
                assert code in (0, 2), err
                if code == 2:
                    # a valid space that the genome is not in is no config error
                    error = json.loads(err)["error"]
                    assert (key in " ".join(error["details"])
                            or error["message"] == "genome fails validation"), err


class TestCorrelate:
    def test_precomputed_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("id,score_entropic,accuracy\n"
                            "a,1.0,60.0\nb,2.0,70.0\nc,3.0,65.0\n")
        out_path = tmp_path / "report.json"
        code, out, err = run(["correlate", "--bench", str(csv_path),
                              "--metric", "entropic",
                              "--out", str(out_path)], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["n"] == 3
        assert abs(report["kendall_tau"]
                   - bench.kendall_tau([1, 2, 3], [60, 70, 65])) < 1e-12
        assert out_path.exists()
        scatter = (tmp_path / "scatter.csv").read_text().splitlines()
        assert scatter[0] == "score,accuracy"
        assert len(scatter) == 4
        assert (tmp_path / "manifest.json").exists()

    def test_non_finite_score_row_is_skipped(self, tmp_path, capsys):
        """A NaN precomputed score skips its row, and the report is strict
        JSON."""
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("id,score_entropic,accuracy\n"
                            "a,1.0,60.0\nb,nan,70.0\nc,3.0,65.0\n")
        out_path = tmp_path / "report.json"
        code, out, err = run(["correlate", "--bench", str(csv_path),
                              "--metric", "entropic",
                              "--out", str(out_path)], capsys)
        assert code == 0, err

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        report = json.loads(out_path.read_text(), parse_constant=refuse)
        assert json.loads(out, parse_constant=refuse) == report
        assert report["n"] == 2 and report["kendall_tau"] == 1.0
        assert report["skipped"] == [{
            "row": 2, "reason": "precomputed score_entropic is nan"}]

    @pytest.mark.parametrize("header, rows", [
        ("id,score_entropic,accuracy", ["a,1.0,60", "b,,70", "c,3.0,80"]),
        ("arch_json,score_entropic,accuracy", [",1.0,60", ",,70", ",3.0,80"])])
    @pytest.mark.parametrize("with_config", [False, True])
    def test_row_with_neither_score_nor_genome_is_skipped(
            self, tmp_path, space_file, capsys, header, rows, with_config):
        """Such a row is skipped with its reason, and without --config, as
        no row has a genome to score."""
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("\n".join([header] + rows) + "\n")
        config = ["--config", str(space_file)] if with_config else []
        code, out, err = run(["correlate", "--bench", str(csv_path),
                              "--metric", "entropic", *config,
                              "--out", str(tmp_path / "r.json")], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["n"] == 2 and report["skipped"] == [{
            "row": 2,
            "reason": "no score_entropic value and no arch_json genome"}]
        # no row has a log-SynFlow score: each is skipped, none scored
        code, _, err = run(["correlate", "--bench", str(csv_path),
                            "--metric", "logsynflow", *config,
                            "--out", str(tmp_path / "l.json")], capsys)
        assert code == 2
        assert json.loads(err)["error"]["details"] == [
            "fewer than 2 usable rows (3 skipped)"]

    def test_genome_rows_require_config(self, tmp_path, tiny_config, capsys):
        g = random_genome(tiny_config, 0)
        csv_path = tmp_path / "bench.csv"
        quoted = g.to_json().replace('"', '""')
        csv_path.write_text("arch_json,accuracy\n"
                            + f'"{quoted}",64.0\n' + f'"{quoted}",65.0\n')
        code, _, err = run(["correlate", "--bench", str(csv_path),
                            "--metric", "entropic",
                            "--out", str(tmp_path / "r.json")], capsys)
        assert code == 2
        assert "--config" in json.loads(err)["error"]["message"]

    def test_scores_genome_rows_with_config(self, tmp_path, tiny_config,
                                            space_file, capsys):
        rows = ["arch_json,accuracy"]
        for s in range(4):
            quoted = random_genome(tiny_config, s).to_json().replace('"', '""')
            rows.append(f'"{quoted}",{60.0 + s}')
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        out_path = tmp_path / "r.json"
        code, out, err = run(["correlate", "--bench", str(csv_path),
                              "--metric", "entropic",
                              "--config", str(space_file),
                              "--out", str(out_path)], capsys)
        assert code == 0, err
        assert json.loads(out)["n"] == 4

    def test_genome_row_with_an_undefined_key_is_skipped(
            self, tmp_path, tiny_config, space_file, capsys):
        rows = ["arch_json,accuracy"]
        for s in range(3):
            d = random_genome(tiny_config, s).to_dict()
            if s == 1:
                d["stages"][0][0]["kernal_size"] = 7
            rows.append('"' + json.dumps(d).replace('"', '""') + f'",{60 + s}')
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code, out, err = run(["correlate", "--bench", str(csv_path),
                              "--metric", "entropic",
                              "--config", str(space_file),
                              "--out", str(tmp_path / "r.json")], capsys)
        assert code == 0, err
        [skip] = json.loads(out)["skipped"]
        assert skip["row"] == 2
        assert "unknown ffn gene key(s) 'kernal_size'" in skip["reason"]

    def test_parallel_matches_serial(self, tmp_path, tiny_config, space_file,
                                     capsys, caplog):
        genomes = [random_genome(tiny_config, s) for s in range(4)]
        # row 3 parses, but kernel 7 is outside the space's domain
        genomes.insert(2, archspace.ArchGenome(
            stages=[[archspace.FfnGene("ibn", 8, 7, 2),
                     archspace.FfnGene("ibn", 8, 3, 2)]]))
        rows = ["arch_json,accuracy"]
        for s, g in enumerate(genomes):
            quoted = g.to_json().replace('"', '""')
            rows.append(f'"{quoted}",{60.0 + s}')
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        outs = []
        for workers, name in (("1", "serial"), ("2", "parallel")):
            caplog.clear()
            out_path = tmp_path / name / "r.json"
            out_path.parent.mkdir()
            code, out, err = run(["correlate", "--bench", str(csv_path),
                                  "--metric", "entropic",
                                  "--config", str(space_file),
                                  "--workers", workers,
                                  "--out", str(out_path)], capsys)
            assert code == 0, err
            assert json.loads(out)["skipped_rows"] == 1
            assert json.loads(out)["n"] == 4
            [warning] = [r.getMessage() for r in caplog.records
                         if r.levelname == "WARNING"]
            assert "row 3" in warning
            assert "kernel 7 not in domain" in warning
            outs.append(out)
        assert outs[0] == outs[1]

    def test_outputs_equal_full_report_scoring(self, tmp_path, tiny_config,
                                               space_file, capsys):
        """report.json and scatter.csv are byte for byte those of a table
        holding each row's full-report value, for either metric, serial
        and pooled."""
        genomes = [random_genome(tiny_config, s) for s in range(5)]
        accs = [f"{55.0 + 3 * s % 7}" for s in range(5)]
        scored = tmp_path / "scored.csv"
        scored.write_text("arch_json,accuracy\n" + "".join(
            '"{}",{}\n'.format(g.to_json().replace('"', '""'), a)
            for g, a in zip(genomes, accs)))
        reports = [metrics.score_genome(g, tiny_config, base_seed=4)
                   for g in genomes]
        for metric in ("entropic", "logsynflow"):
            given = tmp_path / f"given-{metric}.csv"
            given.write_text(f"id,score_{metric},accuracy\n" + "".join(
                f"g{i},{getattr(r, metric)!r},{a}\n"
                for i, (r, a) in enumerate(zip(reports, accs))))
            outputs = []
            for csv_path, workers in ((given, "1"), (scored, "1"),
                                      (scored, "2")):
                out_dir = tmp_path / f"{metric}-{csv_path.stem}-{workers}"
                code, _, err = run(
                    ["correlate", "--bench", str(csv_path), "--metric",
                     metric, "--config", str(space_file), "--seed", "4",
                     "--workers", workers,
                     "--out", str(out_dir / "report.json")], capsys)
                assert code == 0, err
                outputs.append([(out_dir / name).read_bytes() for name in
                                ("report.json", "scatter.csv")])
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_manifest_starts_before_scoring(self, tmp_path, tiny_config,
                                            space_file, monkeypatch, capsys):
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("arch_json,accuracy\n" + "".join(
            '"{}",{}\n'.format(
                random_genome(tiny_config, s).to_json().replace('"', '""'),
                50.0 + s) for s in range(3)))
        calls = []
        correlate = bench.correlate_benchmark

        def recording(*args, **kwargs):
            calls.append(datetime.now(timezone.utc))
            return correlate(*args, **kwargs)

        monkeypatch.setattr(bench, "correlate_benchmark", recording)
        out_path = tmp_path / "report.json"
        code, _, err = run(["correlate", "--bench", str(csv_path),
                            "--metric", "entropic", "--config",
                            str(space_file), "--out", str(out_path)], capsys)
        assert code == 0, err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        [called] = calls
        started = datetime.fromisoformat(manifest["started_at"])
        ended = datetime.fromisoformat(manifest["ended_at"])
        assert started <= called < ended

    def test_skipped_rows_keep_csv_row_numbers(self, tmp_path, space_file,
                                               capsys, caplog):
        # data rows 3 and 8 fail to parse; --sample 6 keeps them at
        # positions 2 and 6 of the sampled table
        assert bench.sample_entries(list(range(12)), 6, 0) == [0, 2, 3, 4, 5, 7]
        rows = ["arch_json,score_entropic,accuracy"]
        for i in range(12):
            rows.append("not json,,50.0" if i in (2, 7)
                        else f",{float(i)},{50.0 + i}")
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        reports = []
        for workers in ("1", "2"):
            caplog.clear()
            out_path = tmp_path / f"w{workers}" / "r.json"
            code, out, err = run(["correlate", "--bench", str(csv_path),
                                  "--metric", "entropic", "--sample", "6",
                                  "--config", str(space_file),
                                  "--workers", workers,
                                  "--out", str(out_path)], capsys)
            assert code == 0, err
            warnings = [r.getMessage() for r in caplog.records
                        if r.levelname == "WARNING"]
            assert [w.split(":")[0] for w in warnings] == [
                "skipped benchmark row 3", "skipped benchmark row 8"]
            report = json.loads(out_path.read_text())
            assert report["n"] == 4 and report["skipped_rows"] == 2
            reason = "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"
            assert report["skipped"] == [{"row": 3, "reason": reason},
                                         {"row": 8, "reason": reason}]
            assert json.loads(out) == report
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exits_2(self, tmp_path, workers, capsys):
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("id,score_entropic,accuracy\n"
                            "a,1.0,60.0\nb,2.0,70.0\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["correlate", "--bench", str(csv_path),
                      "--metric", "entropic", "--workers", workers,
                      "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "--workers: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_sample_below_one_exits_2(self, tmp_path, sample, capsys):
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("id,score_entropic,accuracy\n"
                            "a,1.0,60.0\nb,2.0,70.0\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["correlate", "--bench", str(csv_path),
                      "--metric", "entropic", "--sample", sample,
                      "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "--sample: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_out_parent_is_created(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("id,score_entropic,accuracy\n"
                            "a,1.0,60.0\nb,2.0,70.0\n")
        out_path = tmp_path / "new" / "dir" / "report.json"
        code, _, err = run(["correlate", "--bench", str(csv_path),
                            "--metric", "entropic",
                            "--out", str(out_path)], capsys)
        assert code == 0, err
        assert json.loads(out_path.read_text())["n"] == 2
        assert (out_path.parent / "scatter.csv").exists()

    @pytest.mark.parametrize("out, taken", [
        ("adir", "adir"), ("o/scatter.csv", None), ("o/manifest.json", None),
        ("r.json", "scatter.csv"), ("r.json", "manifest.json")])
    def test_bad_out_exits_2_before_scoring(self, tmp_path, out, taken,
                                            monkeypatch, capsys):
        """An --out that names a directory or one of the files written
        beside the report, or whose side file would land on a directory."""
        def never(*args, **kwargs):
            raise AssertionError("a row was scored")

        monkeypatch.setattr(bench, "correlate_benchmark", never)
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("id,score_entropic,accuracy\n"
                            "a,1.0,60.0\nb,2.0,70.0\n")
        if taken:
            (tmp_path / taken).mkdir()
        before = sorted(tmp_path.rglob("*"))
        code, stdout, err = run(["correlate", "--bench", str(csv_path),
                                 "--metric", "entropic",
                                 "--out", str(tmp_path / out)], capsys)
        assert code == 2 and stdout == ""
        assert str(tmp_path / (taken or out)) in json.loads(err)["error"][
            "message"]
        assert sorted(tmp_path.rglob("*")) == before

    def test_sample_flag(self, tmp_path, capsys):
        lines = ["id,score_entropic,accuracy"]
        for i in range(20):
            lines.append(f"g{i},{float(i)},{50.0 + i}")
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(["correlate", "--bench", str(csv_path),
                              "--metric", "entropic", "--sample", "8",
                              "--out", str(tmp_path / "r.json")], capsys)
        assert code == 0, err
        assert json.loads(out)["n"] == 8


# each argv ends in an option that its subcommand does not take; every
# path is missing, so a subcommand that took the option would exit at once
@pytest.mark.parametrize("argv", [
    ["score", "--arch", "g.json", "--config", "s.json", "--workers", "2"],
    ["stats", "--arch", "g.json", "--config", "s.json", "--workers", "2"],
    ["search", "--config", "missing.json", "--workers", "2"],
    ["stats", "--arch", "g.json", "--config", "s.json", "--seed", "1"],
    ["stats", "--arch", "g.json", "--config", "s.json", "--out", "o.json"],
])
def test_workers_only_on_correlate(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert (f"unrecognized arguments: {' '.join(argv[-2:])}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
@pytest.mark.parametrize("argv", [
    ["score", "--arch", "g.json", "--config", "s.json"],
    ["search", "--budget-mode", "evals"],
    ["correlate", "--bench", "b.csv", "--metric", "entropic", "--sample", "2"],
], ids=["score", "search", "correlate"])
def test_seed_must_be_a_non_negative_int(tmp_path, argv, seed, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seed: " in capsys.readouterr().err
    assert not out.exists()


def test_import_loads_neither_scipy_stats_nor_scipy_special(
        space_file, genome_file, search_config_file, tmp_path):
    """Importing the command line leaves scipy.stats and scipy.special, about
    1.3 s of start-up together, unloaded; and score, stats and an evals-mode
    search run where scipy cannot be imported at all."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, esnas.cli; print(sorted(m for m in"
         " sys.modules if m.startswith(('scipy.stats', 'scipy.special'))))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    genome = ["--arch", str(genome_file), "--config", str(space_file)]
    for argv in (["score"] + genome, ["stats"] + genome,
                 ["search", "--config", str(search_config_file),
                  "--budget-mode", "evals", "--out", str(tmp_path / "run")]):
        done = subprocess.run(
            [sys.executable, "-c", "import sys; sys.modules['scipy'] = None; "
             "from esnas import cli; sys.exit(cli.main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (argv[0], done.stderr)
