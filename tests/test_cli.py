import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import policyforest

from policyforest.cli import main
from policyforest.dataset import IG_NAMES, PA_TO_PD, dump_cases
from conftest import make_cases


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(dump_cases(make_cases(120, seed=3)))
    return str(path)


class TestSchema:
    def test_exit_and_content(self, capsys):
        assert main(["schema"]) == 0
        out = capsys.readouterr().out
        for name in IG_NAMES:
            assert name in out
        for pa, pd in PA_TO_PD.items():
            assert f"{pa} -> {pd}" in out


class TestValidate:
    def test_ok(self, data_file, capsys):
        assert main(["validate", "--data", data_file]) == 0
        assert "120 valid cases" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--data", str(tmp_path / "nope.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("case_id,year\nx,banana\n")
        assert main(["validate", "--data", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_utf8_bom(self, tmp_path, capsys):
        text = dump_cases(make_cases(10, seed=1))
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        map_file = tmp_path / "map.txt"
        map_file.write_bytes(b"\xef\xbb\xbfYEAR=year\n")
        assert main(["validate", "--data", str(bom)]) == 0
        assert main(["validate", "--data", str(bom),
                     "--map", str(map_file)]) == 0
        assert "10 valid cases" in capsys.readouterr().out

    def test_bad_flag_exits_2(self, data_file):
        with pytest.raises(SystemExit) as e:
            main(["validate", "--data", data_file, "--frobnicate"])
        assert e.value.code == 2

    @pytest.mark.parametrize("cmd", [
        ["validate", "--trees", "3"], ["validate", "--seed", "1"],
        ["validate", "--jobs", "2"], ["summarize", "--trees", "3"],
        ["summarize", "--no-bootstrap"]])
    def test_flags_the_command_ignores_exit_2(self, cmd, data_file):
        with pytest.raises(SystemExit) as e:
            main(cmd + ["--data", data_file])
        assert e.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2


class TestSummarize:
    def test_prints_total_row(self, data_file, capsys):
        assert main(["summarize", "--data", data_file]) == 0
        assert "Total" in capsys.readouterr().out

    def test_writes_csv(self, data_file, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main(["summarize", "--data", data_file,
                     "--out", str(out)]) == 0
        text = (out / "summary_counts.csv").read_text()
        assert text.startswith("# policyforest")
        assert "domain,pos,neg" in text


class TestEval:
    def test_small_eval_and_byte_identical_outputs(self, data_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        base = ["eval", "--data", data_file, "--set", "A",
                "--runs", "2", "--trees", "10", "--seed", "5"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        name = "eval_A_random_draw_forest.json"
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        # provenance argv differs only in the --out path; compare payloads
        strip = lambda raw: b"\n".join(
            l for l in raw.split(b"\n") if not l.startswith(b"#"))
        assert strip(a) == strip(b)
        doc = json.loads(strip(a))
        assert doc["feature_set_id"] == "A"
        assert len(doc["runs"]) == 2

    def test_logistic_retrodiction(self, data_file, capsys):
        assert main(["eval", "--data", data_file, "--set", "A",
                     "--model", "logistic", "--regime", "retrodiction"]) == 0
        assert "retrodiction" in capsys.readouterr().out

    def test_config_file_overrides(self, data_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"set": "A", "runs": 1, "trees": 8,
                                   "data": data_file}))
        assert main(["eval", "--config", str(cfg)]) == 0
        assert "1 runs" in capsys.readouterr().out

    def test_config_unknown_key(self, data_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wibble": 3}))
        assert main(["eval", "--data", data_file,
                     "--config", str(cfg)]) == 1
        assert "wibble" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [
        {"set": "Z"}, {"no_bootstrap": "no"}, {"no_bootstrap": 1},
        {"trees": "5"}, {"trees": 5.0}, {"trees": True}, {"trees": None},
        {"regime": "later"}, {"train_fraction": "0.5"}])
    def test_config_values_checked_like_flags(self, cfg, data_file,
                                              tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["eval", "--data", data_file, "--set", "A",
                     "--runs", "1", "--trees", "4", "--out",
                     str(tmp_path / "o"), "--config", str(path)]) == 1
        [key] = cfg
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_takes_flag_typed_values(self, data_file, tmp_path,
                                            capsys):
        path = tmp_path / "cfg.json"
        cfg = {"no-bootstrap": True, "runs": None, "regime": "retrodiction",
               "max_depth": None, "trees": 4}
        path.write_text(json.dumps(cfg))
        assert main(["eval", "--data", data_file, "--set", "A",
                     "--config", str(path)]) == 0
        assert "retrodiction]" in capsys.readouterr().out
        # No integer is a valid train share, and retrodiction takes none:
        # the float flag takes the JSON integer, and the regime refuses it.
        path.write_text(json.dumps({**cfg, "train_fraction": 1}))
        assert main(["eval", "--data", data_file, "--set", "A",
                     "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "--train-fraction applies to random_draw" in err
        assert "config key" not in err

    def test_eval_without_data(self, capsys):
        assert main(["eval", "--set", "A"]) == 1
        assert "--data" in capsys.readouterr().err


class TestDerivedCommands:
    def test_set_c(self, data_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["set-c", "--data", data_file, "--k", "3",
                     "--runs", "2", "--trees", "10",
                     "--out", str(out)]) == 0
        doc = json.loads("\n".join(
            l for l in (out / "set_c.json").read_text().splitlines()
            if not l.startswith("#")))
        assert len(doc["ig_subset"]) == 3

    def test_rank_single_domain(self, data_file, capsys):
        code = main(["rank", "--data", data_file, "--domain", "Economic",
                     "--runs", "2", "--trees", "10"])
        assert code == 0
        assert "Economic" in capsys.readouterr().out

    def test_rank_checks_every_domain_before_writing(self, tmp_path,
                                                     capsys):
        # Guns comes after three domains that rank, and has one class.
        cases = [dataclasses.replace(c, outcome=1)
                 if c.policy_domain == "Guns" else c
                 for c in make_cases(200, seed=7)]
        data = tmp_path / "cases.csv"
        data.write_text(dump_cases(cases))
        out = tmp_path / "o"
        assert main(["rank", "--data", str(data), "--runs", "2",
                     "--trees", "4", "--out", str(out)]) == 1
        assert "'Guns' is degenerate" in capsys.readouterr().err
        assert not list(out.glob("ranking_*.csv"))

    def test_rank_names_the_run_whose_training_split_has_one_class(
            self, data_file, tmp_path, capsys):
        # Guns has 4 usable cases here, 3 positive: it passes the domain
        # check, but run 2's 2-case training split is all positive.
        out = tmp_path / "o"
        assert main(["rank", "--data", data_file, "--runs", "3",
                     "--trees", "4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "domain 'Guns', run 2 of 3" in err
        assert not list(out.glob("ranking_*.csv"))

    def test_gains(self, data_file, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["gains", "--data", data_file, "--runs", "2",
                     "--trees", "10", "--min-test-cases", "1",
                     "--out", str(out)]) == 0
        assert (out / "ig_gains.csv").exists()
        assert (out / "ig_gains.json").exists()

    def test_case_study_insufficient_pivot(self, data_file, capsys):
        # the default pivot IG is neutral everywhere in this fixture
        assert main(["case-study", "--data", data_file,
                     "--pivot", "Universities"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRunCounts:
    @pytest.mark.parametrize("cmd, name", [
        (["eval", "--runs", "0"], "n_runs"),
        (["eval", "--runs", "-3"], "n_runs"),
        (["eval", "--set", "C", "--selection-splits", "0"], "n_splits"),
        (["rank", "--runs", "0"], "n_splits"),
        (["rank", "--runs", "-2"], "n_splits"),
        (["set-c", "--runs", "0"], "n_splits"),
        (["gains", "--runs", "0"], "n_runs"),
        (["gains", "--runs", "-2"], "n_runs"),
        (["compare-selectors", "--runs", "0"], "n_splits")])
    def test_below_one_rejected(self, cmd, name, data_file, tmp_path,
                                capsys):
        out = tmp_path / "o"
        assert main(cmd + ["--data", data_file, "--trees", "4",
                           "--out", str(out)]) == 1
        value = cmd[-1]
        assert f"{name} must be >= 1, got {value}" in \
            capsys.readouterr().err
        assert not out.exists()


class TestInputChecks:
    @pytest.mark.parametrize("cmd, message", [
        (["compare-selectors", "--k", "0"], "k must be in [1, 43], got 0"),
        (["compare-selectors", "--k", "44"], "k must be in [1, 43], got 44"),
        (["rank", "--top", "0"], "--top must be >= 1, got 0"),
        (["rank", "--top", "-1"], "--top must be >= 1, got -1"),
        (["gains", "--min-test-cases", "0"],
         "min_test_cases must be >= 1, got 0"),
        (["eval", "--regime", "retrodiction", "--train-fraction", "0.3"],
         "--train-fraction applies to random_draw splits only"),
        (["eval", "--regime", "retrodiction", "--model", "logistic"],
         "--runs must be 1 for a logistic model under retrodiction")],
        ids=["k0", "k44", "top0", "top-1", "min-test-cases0",
             "retrodiction-train-fraction", "retrodiction-logistic-runs"])
    def test_rejected_with_exit_1(self, cmd, message, data_file, tmp_path,
                                  capsys):
        out = tmp_path / "o"
        assert main(cmd + ["--data", data_file, "--runs", "2", "--trees",
                           "4", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestNameMap:
    def test_validate_with_map(self, tmp_path):
        cases = make_cases(10, seed=1)
        text = dump_cases(cases)
        header, rest = text.split("\n", 1)
        cols = header.split(",")
        cols[cols.index("year")] = "YEAR"
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(",".join(cols) + "\n" + rest)
        map_file = tmp_path / "map.txt"
        map_file.write_text("YEAR=year\n")
        assert main(["validate", "--data", str(renamed),
                     "--map", str(map_file)]) == 0


def _bodies(out_dir):
    """Each report file's bytes below the provenance header, by name."""
    return {p.name: b"\n".join(l for l in p.read_bytes().split(b"\n")
                                if not l.startswith(b"#"))
            for p in sorted(Path(out_dir).iterdir())}


class TestJobs:
    # AARP is the fixture's driver IG, so every case takes a stance on it.
    COMMANDS = {
        "eval_c_forest": ["eval", "--set", "C", "--selection-splits", "2",
                          "--runs", "3"],
        "eval_forest_retro": ["eval", "--regime", "retrodiction"],
        "eval_logistic": ["eval", "--model", "logistic", "--runs", "3"],
        "eval_logistic_retro": ["eval", "--model", "logistic",
                                "--regime", "retrodiction"],
        "rank": ["rank", "--domain", "Economic", "--runs", "3"],
        "set_c": ["set-c", "--k", "3", "--runs", "3"],
        "gains": ["gains", "--runs", "3", "--min-test-cases", "1"],
        "compare_selectors": ["compare-selectors", "--k", "3",
                              "--runs", "2"],
        "case_study": ["case-study", "--pivot", "AARP"],
    }

    @staticmethod
    def _serial_and_parallel(cmd, data, tmp_path):
        bodies = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(cmd + ["--data", data, "--trees", "6", "--seed", "4",
                               "--jobs", jobs, "--out", str(out)]) == 0
            bodies.append(_bodies(out))
        return bodies

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_reports_identical_serial_and_parallel(self, name, data_file,
                                                   tmp_path):
        bodies = self._serial_and_parallel(self.COMMANDS[name], data_file,
                                           tmp_path)
        assert bodies[0] and bodies[0] == bodies[1]

    def test_rank_all_domains_identical_serial_and_parallel(self, tmp_path):
        # Every domain of these cases ranks; at --jobs 2 the first chunk
        # holds the runs of three domains.
        data = tmp_path / "cases.csv"
        data.write_text(dump_cases(make_cases(200, seed=7)))
        bodies = self._serial_and_parallel(["rank", "--runs", "3"],
                                           str(data), tmp_path)
        assert len(bodies[0]) == 6 and bodies[0] == bodies[1]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_below_one_rejected(self, jobs, data_file, tmp_path, capsys):
        assert main(["rank", "--data", data_file, "--jobs", jobs]) == 1
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": int(jobs)}))
        assert main(["eval", "--data", data_file, "--set", "A",
                     "--config", str(cfg)]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_import_loads_no_pool(self):
        code = ("import sys, policyforest.cli; "
                "print(sorted(m for m in ('multiprocessing', "
                "'concurrent.futures.process') if m in sys.modules))")
        src = str(Path(policyforest.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"


class TestImports:
    @staticmethod
    def _loaded_after(argv, cwd):
        """The lazily loaded modules in sys.modules after main(argv) runs
        in a fresh interpreter, printed on its last line."""
        code = ("import sys; from policyforest.cli import main; "
                f"assert main({argv!r}) == 0; "
                "print(*(m for m in ('policyforest.forest', "
                "'policyforest.experiments', 'policyforest.logistic', "
                "'policyforest.metrics', 'numpy.ma') if m in sys.modules))")
        src = str(Path(policyforest.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120,
                             cwd=cwd, env={**os.environ, "PYTHONPATH": src})
        return out.stdout.splitlines()[-1].split()

    def test_validate_loads_only_dataset(self, data_file, tmp_path):
        assert self._loaded_after(["validate", "--data", data_file],
                                  tmp_path) == []

    def test_forest_eval_loads_no_numpy_ma(self, data_file, tmp_path):
        loaded = self._loaded_after(["eval", "--data", data_file, "--trees",
                                     "2", "--runs", "2"], tmp_path)
        assert "policyforest.forest" in loaded and "numpy.ma" not in loaded

    def test_package_names_resolve_on_use(self):
        from policyforest import fit_forest, load_cases, run_feature_set_eval
        from policyforest.experiments import run_feature_set_eval as rfse
        from policyforest.forest import fit_forest as ff
        assert (fit_forest, run_feature_set_eval) == (ff, rfse)
        assert load_cases is policyforest.dataset.load_cases
        assert "fit_forest" in dir(policyforest)
        with pytest.raises(AttributeError):
            policyforest.no_such_name
