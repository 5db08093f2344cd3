"""Command-line surface: output formats, exit codes, golden JSON lines."""
from __future__ import annotations

import json

import pytest

from partialgossip import schedule_to_json
from partialgossip.cli import EXIT_OK, EXIT_VALIDATION, EXIT_VIOLATION, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPvalue:
    def test_band_json_golden(self, capsys):
        code, out, _ = run(capsys, "pvalue", "15", "9", "--format", "json")
        assert code == EXIT_OK
        assert out == '{"p":19,"regime":2,"i":4}\n'

    def test_first_regime_json_has_no_index(self, capsys):
        code, out, _ = run(capsys, "pvalue", "2", "2", "--format", "json")
        assert code == EXIT_OK
        assert out == '{"p":1,"regime":1}\n'

    def test_n_below_k_exits_one(self, capsys):
        code, _, err = run(capsys, "pvalue", "3", "9")
        assert code == EXIT_VALIDATION
        assert "n >= k" in err

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "pvalue", "15", "9")
        assert code == EXIT_OK
        assert "P(15,9) = 19" in out


class TestTable:
    def test_k4_column(self, capsys):
        code, out, _ = run(capsys, "table", "4", "4", "10", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [row["p"] for row in doc["rows"]] == [4, 5, 6, 7, 7, 8, 9]
        assert doc["boundary"] == 7

    def test_k2_column_is_halves(self, capsys):
        code, out, _ = run(capsys, "table", "2", "2", "5", "--format", "json")
        doc = json.loads(out)
        assert [row["p"] for row in doc["rows"]] == [1, 2, 2, 3]

    def test_k9_band_walk(self, capsys):
        # n=19 sits exactly on t_3(9), so the band index drops to 3 there
        code, out, _ = run(capsys, "table", "9", "12", "19", "--format", "json")
        rows = json.loads(out)["rows"]
        assert rows[0]["p"] == 16
        assert rows[-1] == {"n": 19, "p": 22, "regime": 2, "i": 3}

    def test_text_marks_boundary(self, capsys):
        code, out, _ = run(capsys, "table", "4", "4", "10")
        boundary_lines = [ln for ln in out.splitlines() if "<- boundary" in ln]
        assert len(boundary_lines) == 1
        assert boundary_lines[0].split()[0] == "7"

    def test_empty_range_rejected(self, capsys):
        code, _, err = run(capsys, "table", "4", "10", "4")
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("k", ["0", "1", "-3"])
    def test_k_below_two_rejected(self, capsys, k):
        code, out, err = run(capsys, "table", k, "1", "5")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error:")


class TestSynthAndVerify:
    def test_round_trip_passes(self, capsys, tmp_path):
        out_file = tmp_path / "schedule.json"
        code, _, _ = run(capsys, "synth", "tree", "9", "5", "1", "--out", str(out_file))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "verify", str(out_file), "5")
        assert code == EXIT_OK
        assert "PASS" in out

    @pytest.mark.parametrize("method,n,k,i,calls", [
        ("doubling", 15, 9, 4, 19),
        ("tree", 18, 9, 4, 22),
        ("multiblock", 18, 9, 4, 22),
    ])
    def test_methods_emit_expected_counts(self, capsys, method, n, k, i, calls):
        code, out, _ = run(capsys, "synth", method, str(n), str(k), str(i),
                           "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["calls"]) == calls

    def test_verify_below_target_exits_two(self, capsys, tmp_path, hub_tree_8):
        f = tmp_path / "hub.json"
        f.write_text(schedule_to_json(hub_tree_8))
        code, out, _ = run(capsys, "verify", str(f), "5")
        assert code == EXIT_VIOLATION
        assert "min awareness 4" in out

    def test_verify_with_preliminary_counts_them(self, capsys, tmp_path, hub_tree_8_plus_one):
        f = tmp_path / "aug.json"
        f.write_text(schedule_to_json(hub_tree_8_plus_one))
        code, out, _ = run(capsys, "verify", str(f), "5", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["preliminary"] == 1
        assert doc["exact_k_informing"] is True

    def test_verify_malformed_file_exits_one(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{broken")
        code, _, err = run(capsys, "verify", str(f), "4")
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("k", ["0", "9"])
    def test_verify_k_outside_one_to_n_exits_one(self, capsys, tmp_path, hub_tree_8, k):
        f = tmp_path / "hub.json"
        f.write_text(schedule_to_json(hub_tree_8))
        code, out, err = run(capsys, "verify", str(f), k)
        assert code == EXIT_VALIDATION
        assert "PASS" not in out
        assert err.startswith("error:")

    def test_verify_missing_file_exits_one(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"), "4")
        assert code == EXIT_VALIDATION

    def test_synth_infeasible_exits_one(self, capsys):
        code, _, err = run(capsys, "synth", "doubling", "4", "5", "1")
        assert code == EXIT_VALIDATION

    def test_dot_output(self, capsys, tmp_path):
        dot_file = tmp_path / "schedule.dot"
        code, out, _ = run(capsys, "synth", "doubling", "4", "4", "0",
                           "--format", "dot", "--dot", str(dot_file))
        assert code == EXIT_OK
        assert out.startswith("graph calls {")
        assert '0 -- 1 [label="1"];' in out
        assert dot_file.read_text() == out

    def test_stdout_json_is_stable(self, capsys):
        _, first, _ = run(capsys, "synth", "tree", "9", "5", "1", "--format", "json")
        _, second, _ = run(capsys, "synth", "tree", "9", "5", "1", "--format", "json")
        assert first == second
        assert first.startswith('{"n":9,"preliminary":[],"calls":')


class TestOracleCommand:
    def test_exact_answer(self, capsys):
        code, out, _ = run(capsys, "oracle", "4", "3", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["min_calls"] == 3
        assert doc["status"] == "found"
        assert len(doc["witness"]) == 3

    def test_timeout_exits_two(self, capsys):
        code, out, _ = run(capsys, "oracle", "8", "8", "--budget-secs", "0.05",
                           "--format", "json")
        assert code == EXIT_VIOLATION
        doc = json.loads(out)
        assert doc["status"] == "timeout"
        assert doc["min_calls"] is None

    def test_invalid_pair_exits_one(self, capsys):
        code, _, _ = run(capsys, "oracle", "3", "9")
        assert code == EXIT_VALIDATION

    def test_json_golden(self, capsys):
        code, out, _ = run(capsys, "oracle", "5", "4", "--format", "json")
        assert code == EXIT_OK
        assert out == ('{"n":5,"k":4,"status":"found","min_calls":5,"refuted_depth":4,'
                       '"nodes":32,"witness":[[0,1],[0,2],[0,3],[0,1],[2,4]]}\n')


class TestCheckLemmaCommand:
    def test_clean_suite_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check-lemma", "L1a", "--max-n", "4",
                           "--samples", "10", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["lemma"] == "L1a"
        assert doc["violations"] == []
        assert doc["checked"] > 0

    def test_falsified_bound_exits_two(self, capsys):
        code, out, _ = run(capsys, "check-lemma", "L1a", "--max-n", "4",
                           "--samples", "10", "--bound-slack", "1", "--format", "json")
        assert code == EXIT_VIOLATION
        doc = json.loads(out)
        assert len(doc["violations"]) >= 1

    @pytest.mark.parametrize("flag,value", [("--max-n", "4"), ("--prelim-max", "0")])
    def test_l2_without_sampled_range_runs_exhaustive_box(self, capsys, flag, value):
        # the sampled phase needs n >= 5 and at least one preliminary call
        code, out, err = run(capsys, "check-lemma", "L2", flag, value, "--format", "json")
        assert code == EXIT_OK
        assert err == ""
        doc = json.loads(out)
        assert doc["violations"] == []
        assert doc["checked"] > 0

    @pytest.mark.parametrize("lemma,flag,value", [
        ("L3", "--samples", "-1"),
        ("L5b", "--prelim-max", "-2"),
        ("L1a", "--max-n", "-3"),
    ])
    def test_out_of_range_parameter_exits_one(self, capsys, lemma, flag, value):
        code, out, err = run(capsys, "check-lemma", lemma, flag, value)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
