"""End-to-end CLI behaviour, including suite determinism."""

import json

import pytest

from mbgram import cli, gram
from mbgram.cli import main, run_suite
from mbgram.gram import ConjectureId
from mbgram.reporting import Report


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_enumerate_text(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--stratum", "one")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "(1 2)(3)(4)"
        assert lines[-1] == "# 4 diagrams"

    def test_enumerate_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "1", "--stratum", "zero",
                               "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert rows[0] == {"chords": [[1, 2]], "fixed": [], "n": 1}

    def test_pair_text(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--m1", "(2 5)(3 4)(1)(6)",
                               "--m2", "(6 1)(2)(3)(4)(5)")
        assert code == 0
        assert "<m1, m2> = x*y" in out

    def test_pair_json_trace(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--m1", "(1 2)", "--m2", "(2 1)",
                               "--format", "json")
        assert code == 0
        trace = json.loads(out)
        assert trace["value"] == "z"
        assert trace["components"][0]["psi"] in (2, -2)

    def test_pair_rejects_invalid(self, capsys):
        code, _, err = run_cli(capsys, "pair", "--m1", "(1 4)(2)(3)",
                               "--m2", "(1 2)(3)(4)")
        assert code == 2
        assert "not a valid diagram" in err

    def test_pair_reports_unclosed_group(self, capsys):
        code, out, err = run_cli(capsys, "pair", "--m1", "(1 2", "--m2", "(1)(2)")
        assert code == 2
        assert out == ""
        assert err == "mbgram: error: missing ')' at the end of the text (at position 4)\n"

    def test_cheb_show(self, capsys):
        code, out, _ = run_cli(capsys, "cheb", "--kind", "T", "--n", "17")
        assert code == 0
        assert out.startswith("T_17 = d^17")

    def test_cheb_verify(self, capsys):
        code, out, _ = run_cli(capsys, "cheb", "verify", "--id", "Cor2_6",
                               "--max-index", "5", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "PASS"
        assert "duration_s" in report

    @pytest.mark.parametrize("argv", [
        ("cheb", "--format", "json", "verify", "--id", "Cor2_6", "--max-index", "3"),
        ("cheb", "verify", "--id", "Cor2_6", "--max-index", "3", "--format", "json"),
        ("cheb", "--format", "table", "verify", "--id", "Cor2_6", "--max-index", "3",
         "--format", "json"),
    ])
    def test_cheb_verify_format_in_either_position(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.count("\n") == 1
        assert json.loads(out)["params"]["checked"] == 2

    def test_cheb_verify_defaults_to_table(self, capsys):
        code, out, _ = run_cli(capsys, "cheb", "verify", "--id", "Cor2_6", "--max-index", "3")
        assert code == 0
        assert out.startswith("CLAIM")

    def test_gram_and_det(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gram", "--n", "2", "--variant", "tilde",
                               "--cache-dir", str(tmp_path))
        assert code == 0
        assert "4x4" in out
        code, out, _ = run_cli(capsys, "det", "--n", "2", "--variant", "tilde",
                               "--cache-dir", str(tmp_path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["backend"] == "bareiss"
        assert payload["det"]["terms"] == [[1, 4, 0, 0, 0, 0], [-4, 2, 0, 0, 0, 0]]

    def test_verify_conjecture(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "--conjecture", "C3_5", "--n", "2",
                               "--cache-dir", str(tmp_path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "PASS"
        assert "duration_s" in report

    def test_verify_rejects_zero_points(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--conjecture", "C3_4", "--n", "2", "--points", "0",
                  "--cache-dir", str(tmp_path), "--format", "json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--points: must be at least 1" in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ("det", "--n", "2", "--variant", "tilde"),
        ("verify", "--conjecture", "C3_5", "--n", "2"),
        ("suite", "--profile", "quick"),
    ])
    def test_jobs_below_one_are_rejected(self, capsys, tmp_path, command, jobs):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", jobs, "--cache-dir", str(tmp_path), "--format", "json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = [line for line in captured.err.splitlines() if "error:" in line]
        assert error == [f"mbgram {command[0]}: error: argument --jobs: "
                         f"must be at least 1, got {jobs}"]
        assert not any(tmp_path.iterdir())

    def test_theorem_rejects_the_randomized_method(self, capsys, tmp_path):
        for flags in (("--points", "3"), ("--seed", "5"), ("--points", "3", "--seed", "5")):
            code, out, err = run_cli(capsys, "verify", "--theorem", "3.6", "--n", "2", *flags,
                                     "--cache-dir", str(tmp_path), "--format", "json")
            assert code == 2
            assert out == ""
            assert err == ("mbgram: error: verify: --seed needs --points, "
                           "which applies to --conjecture only\n")
        assert not any(tmp_path.iterdir())

    def test_seed_needs_points(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", "--conjecture", "C3_5", "--n", "2",
                                 "--seed", "5", "--cache-dir", str(tmp_path), "--format", "json")
        assert code == 2
        assert out == ""
        assert err == ("mbgram: error: verify: --seed needs --points, "
                       "which applies to --conjecture only\n")
        assert not any(tmp_path.iterdir())

    def test_randomized_flags_need_a_gram_matrix(self, capsys, tmp_path):
        # C5_1 has no Gram variant, so --points and --seed would be ignored
        code, out, err = run_cli(capsys, "verify", "--conjecture", "C5_1", "--n", "3",
                                 "--points", "5", "--seed", "1",
                                 "--cache-dir", str(tmp_path), "--format", "json")
        assert code == 2
        assert out == ""
        assert err == "mbgram: error: C5_1 has no 'randomized' check\n"
        assert not any(tmp_path.iterdir())
        code, out, _ = run_cli(capsys, "verify", "--conjecture", "C5_1", "--n", "3",
                               "--cache-dir", str(tmp_path), "--format", "json")
        assert code == 0 and json.loads(out)["status"] == "SKIPPED"

    def test_points_select_the_randomized_check(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "--conjecture", "C3_4", "--n", "2",
                               "--points", "4", "--seed", "7",
                               "--cache-dir", str(tmp_path / "cli"), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report.pop("duration_s") >= 0
        library = gram.verify_conjecture(ConjectureId.C3_4, 2, method="randomized", points=4,
                                         seed=7, cache_dir=tmp_path / "library")
        assert report == json.loads(library.canonical_json())
        assert report["params"]["method"] == "randomized"

    def test_randomized_verify_independent_of_jobs(self, capsys, tmp_path):
        # two points at --jobs 2 go through the process pool
        outputs = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(capsys, "verify", "--conjecture", "C3_4", "--n", "3",
                                   "--points", "2",
                                   "--jobs", jobs, "--cache-dir", str(tmp_path / jobs),
                                   "--format", "json")
            assert code == 0
            report = json.loads(out)
            assert report.pop("duration_s") >= 0
            outputs.append(json.dumps(report, sort_keys=True))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["params"]["points"] == 2

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--n", "2", "--stratum", "one", "--jobs", "7"),
        ("enumerate", "--n", "2", "--stratum", "one", "--seed", "3"),
        ("pair", "--m1", "(1 2)", "--m2", "(2 1)", "--cache-dir", "unused"),
        ("cheb", "verify", "--id", "Cor2_6", "--jobs", "2"),
        ("gram", "--n", "1", "--variant", "tilde", "--jobs", "2"),
        ("det", "--n", "1", "--variant", "tilde", "--seed", "3"),
    ])
    def test_flags_a_command_never_reads_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--n", "7", "--stratum", "one"),
        ("cheb", "--kind", "T", "--n", "5000"),
        ("cheb", "--kind", "T"),
        ("verify", "--theorem", "3.6", "--n", "1"),
        ("verify", "--conjecture", "C3_5"),
        ("pair", "--m1", "(1 2", "--m2", "(1)(2)"),
        ("cheb", "--kind", "T", "verify", "--id", "Cor2_6"),
        ("cheb", "--n", "5", "verify", "--id", "Cor2_6"),
    ])
    def test_input_errors_exit_2_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("mbgram: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("det", "--n", "4", "--variant", "full"),
        ("verify", "--conjecture", "C3_4", "--n", "4"),
    ])
    def test_determinant_past_the_engine_box_exits_2(self, capsys, tmp_path, argv):
        # full n=4's box of degree bounds has about 2.4 * 10^10 cells
        code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path), "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("mbgram: error: ") and err.count("\n") == 1
        assert "2^32 or more" in err

    def test_verify_theorem(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "--theorem", "3.6", "--n", "2",
                               "--cache-dir", str(tmp_path), "--format", "json")
        assert code == 0
        assert json.loads(out)["status"] == "PASS"

    def test_verify_identity(self, capsys):
        code, out, _ = run_cli(capsys, "cheb", "verify", "--id", "Lemma2_5",
                               "--max-index", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["status"] == "PASS"


def _two_claims():
    return [lambda: Report(claim="a", tag="t", status="PASS"),
            lambda: Report(claim="b", tag="t", status="FAIL", witness={"w": 1})]


class TestSuite:
    def test_json_writes_one_line_per_report(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "suite_claims", lambda *args: _two_claims())
        code, out, err = run_cli(capsys, "suite", "--format", "json",
                                 "--cache-dir", str(tmp_path))
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert [json.loads(line)["claim"] for line in lines] == ["a", "b"]
        assert (tmp_path / "reports.jsonl").read_text().splitlines() == lines

    def test_failed_claim_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "suite_claims", lambda *args: _two_claims())
        code, out, err = run_cli(capsys, "suite", "--cache-dir", str(tmp_path))
        assert code == 1
        assert "failed=1" in out
        assert err.count("\n") == 2 and "## b [t] FAIL" in err

    def test_quick_suite_passes(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "suite", "--profile", "quick",
                               "--cache-dir", str(tmp_path))
        assert code == 0
        assert "failed=0" in out
        lines = (tmp_path / "reports.jsonl").read_text().splitlines()
        assert lines and all("duration_s" in json.loads(line) for line in lines)

    def test_reports_are_deterministic(self, tmp_path):
        code1, reports1 = run_suite("quick", cache_dir=tmp_path / "a", seed=123)
        code2, reports2 = run_suite("quick", cache_dir=tmp_path / "b", seed=123)
        assert code1 == code2 == 0
        lines1 = [r.canonical_json() for r in reports1]
        lines2 = [r.canonical_json() for r in reports2]
        assert lines1 == lines2

    def test_outcomes_independent_of_jobs(self, tmp_path):
        _, reports1 = run_suite("quick", jobs=1, cache_dir=tmp_path / "j1", seed=5)
        _, reports2 = run_suite("quick", jobs=2, cache_dir=tmp_path / "j2", seed=5)
        assert [r.canonical_json() for r in reports1] == \
               [r.canonical_json() for r in reports2]

    def test_warm_cache_matches_cold(self, tmp_path):
        _, cold = run_suite("quick", cache_dir=tmp_path, seed=3)
        _, warm = run_suite("quick", cache_dir=tmp_path, seed=3)
        assert [r.canonical_json() for r in cold] == \
               [r.canonical_json() for r in warm]
