"""Command-line surface: output formats, exit codes, golden JSON lines."""
from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import partialgossip
from partialgossip import cli, core, lemmas, schedule_to_json
from partialgossip.cli import (
    EXIT_OK, EXIT_VALIDATION, EXIT_VIOLATION, MAX_PERSONS, MAX_ROWS, main,
)
from partialgossip.lemmas import MAX_PRELIM
from partialgossip.oracle import TIMEOUT, SearchResult


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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_unprintable_p_exits_one(self, capsys, fmt):
        """n = 10^4300 - 1 prints, but P = n + 14 has 4,301 digits."""
        code, out, err = run(capsys, "pvalue", "9" * 4300, "14300", "--format", fmt)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.splitlines() == ["error: P(n,14300) has more than 4300 digits"]


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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("k", [14_286, 20_000, 10**6])
    def test_unprintable_boundary_rejected(self, capsys, k, fmt):
        """2^(k-1) - 1 has more digits than Python converts to text."""
        code, out, err = run(capsys, "table", str(k), str(k), str(k + 1), "--format", fmt)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_largest_printable_boundary(self, capsys):
        code, out, _ = run(capsys, "table", "14285", "14285", "14285", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["boundary"] == (1 << 14284) - 1


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

    def test_wide_schedule_file_is_json_dumps_layout(self, capsys, tmp_path):
        """The indented file is json.dumps(indent=2) byte for byte, and verifies."""
        out_file = tmp_path / "wide.json"
        code, _, _ = run(capsys, "synth", "doubling", "4096", "14", "0", "--out", str(out_file))
        assert code == EXIT_OK
        text = out_file.read_text()
        doc = json.loads(text)
        assert len(doc["calls"]) == 4096 and doc["preliminary"] == []
        assert text == json.dumps(doc, indent=2) + "\n"
        code, out, _ = run(capsys, "verify", str(out_file), "14", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["k_informing"] is True

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

    def test_verify_non_utf8_file_exits_one(self, capsys, tmp_path):
        f = tmp_path / "latin.json"
        f.write_bytes(b'\xff\xfe{"n":2}')
        code, out, err = run(capsys, "verify", str(f), "2")
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith(f"error: cannot read {f}:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--out", "--dot"])
    def test_write_under_missing_directory_exits_one(self, capsys, tmp_path, flag):
        target = tmp_path / "no" / "such" / "x"
        code, out, err = run(capsys, "synth", "doubling", "10", "5", "0", flag, str(target))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith(f"error: cannot write {target}:") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["--out", "--dot"])
    def test_failed_write_leaves_no_file(self, capsys, tmp_path, bad):
        """Either both files are written or neither is, and a file already
        at the good path keeps its old content."""
        good = tmp_path / "ok"
        good.write_text("old")
        missing = tmp_path / "no" / "such" / "x"
        out, dot = (missing, good) if bad == "--out" else (good, missing)
        code, stdout, err = run(capsys, "synth", "doubling", "10", "5", "0",
                                "--out", str(out), "--dot", str(dot))
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert err.splitlines() == [f"error: cannot write {missing}: No such file or directory"]
        assert good.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok"]

    def test_directory_target_leaves_no_file(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, _, err = run(capsys, "synth", "doubling", "10", "5", "0",
                           "--out", str(out), "--dot", str(tmp_path))
        assert code == EXIT_VALIDATION
        assert err.splitlines() == [f"error: cannot write {tmp_path}: Is a directory"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dot", ["P", "./P"])
    def test_out_and_dot_on_one_file_exit_one(self, capsys, tmp_path, monkeypatch, dot):
        """The DOT text would replace the schedule JSON: nothing is written."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "synth", "doubling", "20", "6", "0",
                             "--out", "P", "--dot", dot)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.splitlines() == ["error: --out and --dot name one file: P"]
        assert list(tmp_path.iterdir()) == []

    def test_synth_infeasible_exits_one(self, capsys):
        code, _, err = run(capsys, "synth", "doubling", "4", "5", "1")
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("method", ["doubling", "tree"])
    def test_blocks_outside_multiblock_exits_one(self, capsys, tmp_path, method):
        out = tmp_path / "s.json"
        code, stdout, err = run(capsys, "synth", method, "9", "5", "1", "--blocks", "1",
                                "--out", str(out))
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert err.splitlines() == [f"error: --blocks applies to multiblock only, not {method}"]
        assert not out.exists()

    def test_dot_output(self, capsys, tmp_path):
        dot_file = tmp_path / "schedule.dot"
        with mock.patch.object(cli, "to_dot", wraps=cli.to_dot) as render:
            code, out, _ = run(capsys, "synth", "doubling", "4", "4", "0",
                               "--format", "dot", "--dot", str(dot_file))
        assert code == EXIT_OK
        assert out.startswith("graph calls {")
        assert '0 -- 1 [label="1"];' in out
        assert render.call_count == 1  # one rendering serves the file and standard output
        assert dot_file.read_bytes() == out.encode()

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
                       '"nodes":11,"witness":[[0,1],[2,3],[0,2],[1,3],[0,4]]}\n')

    def test_stats_flag(self, capsys):
        code, out, _ = run(capsys, "oracle", "5", "4", "--stats", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert list(doc) == ["n", "k", "status", "min_calls", "refuted_depth", "nodes",
                             "witness", "stats"]
        assert set(doc["stats"]) == {"memo_hits", "memo_stores", "memo_refused", "lb_prunes",
                                     "unkeyed", "orbit_cuts", "sleep_cuts", "keys",
                                     "canon_inexact", "find_nodes", "passes"}
        assert doc["stats"]["passes"] == [{"depth": 4, "nodes": 11, "memo_hits": 0,
                                           "memo_stores": 1, "memo_refused": 0, "lb_prunes": 9,
                                           "unkeyed": 1, "orbit_cuts": 9, "sleep_cuts": 0,
                                           "keys": 0, "canon_inexact": 0}]
        code, out, _ = run(capsys, "oracle", "5", "4", "--stats")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 4 and lines[2].startswith("  stats: memo_hits=")
        assert "passes" not in lines[2]
        assert lines[3] == ("  pass: depth=4 nodes=11 memo_hits=0 memo_stores=1 memo_refused=0 "
                            "lb_prunes=9 unkeyed=1 orbit_cuts=9 sleep_cuts=0 keys=0 "
                            "canon_inexact=0")


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

    @pytest.mark.parametrize("max_n", ["9", "30"])
    @pytest.mark.parametrize("lemma", ["L1c", "L5b"])
    def test_unicyclic_suites_accept_every_max_n(self, capsys, lemma, max_n):
        code, out, err = run(capsys, "check-lemma", lemma, "--max-n", max_n,
                             "--samples", "10", "--format", "json")
        assert code == EXIT_OK
        assert err == ""
        assert json.loads(out)["checked"] > 0

    @pytest.mark.parametrize("lemma", ["L1c", "L5b"])
    def test_unicyclic_suites_reject_max_n_below_four(self, capsys, lemma):
        code, out, err = run(capsys, "check-lemma", lemma, "--max-n", "3")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "max_sampled_n >= 4" in err

    def test_stats_flag(self, capsys):
        argv = ("check-lemma", "L1c", "--max-n", "5", "--samples", "10")
        code, out, _ = run(capsys, *argv, "--stats", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert list(doc) == ["lemma", "checked", "violations", "stats"]
        stats = doc["stats"]
        assert list(stats) == ["generated", "rejected", "undecided", "checked", "elapsed_s"]
        assert stats["checked"] == doc["checked"] > 0
        assert stats["undecided"] == 0
        assert stats["generated"] == stats["rejected"] + stats["checked"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert out == f'{{"lemma":"L1c","checked":{doc["checked"]},"violations":[]}}\n'
        code, out, _ = run(capsys, *argv, "--stats")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2 and lines[1].startswith("  stats: generated=")

    def test_stats_count_undecided_facts(self, capsys, monkeypatch):
        """Facts a budget-cut search leaves open are undecided, not rejected."""
        def timed_out(n, k, cfg=None, goal=None):
            return SearchResult(TIMEOUT, None, None, 0, 0, 0.0)

        monkeypatch.setattr(lemmas, "min_calls_bruteforce", timed_out)
        code, out, _ = run(capsys, "check-lemma", "L6s1", "--stats", "--format", "json")
        assert code == EXIT_VIOLATION  # a spent search budget
        stats = json.loads(out)["stats"]
        assert (stats["checked"], stats["rejected"]) == (0, 0)
        assert stats["undecided"] == stats["generated"] == 154
        code, out, _ = run(capsys, "check-lemma", "L6s1", "--stats")
        assert code == EXIT_VIOLATION
        assert out.splitlines()[0] == "L6s1: 0 instances, 0 violations, 154 undecided"
        assert " undecided=154 " in out.splitlines()[1]

    def test_decided_facts_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check-lemma", "L6s1")
        assert code == EXIT_OK
        assert out == "L6s1: 154 instances, 0 violations\n"

    @pytest.mark.parametrize("lemma,flag,value", [
        ("L3", "--samples", "-1"),
        ("L5b", "--prelim-max", "-2"),
        ("L1a", "--max-n", "-3"),
        ("L3", "--prelim-max", "0"),
        ("L1a", "--bound-slack", "-1000"),
    ])
    def test_out_of_range_parameter_exits_one(self, capsys, lemma, flag, value):
        code, out, err = run(capsys, "check-lemma", lemma, flag, value)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


def _must_not_run(*args, **kwargs):
    raise AssertionError("an over-cap input reached the code that builds it")


class TestSizeCaps:
    """Over-cap sizes exit 1 with one error line, before anything is built."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        monkeypatch.setattr(core, "run_calls", _must_not_run)
        monkeypatch.setattr(lemmas, "run_calls", _must_not_run)

    def assert_rejected(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["doubling", "tree", "multiblock"])
    @pytest.mark.parametrize("n", [MAX_PERSONS + 1, 10**9])
    def test_synth_persons(self, capsys, monkeypatch, method, n):
        monkeypatch.setitem(cli._METHODS, method, _must_not_run)
        self.assert_rejected(capsys, "synth", method, str(n), "5", "1")

    @pytest.mark.parametrize("method", ["doubling", "tree", "multiblock"])
    @pytest.mark.parametrize("k", [50_000, 10**9, 10**12])
    def test_synth_huge_k(self, capsys, method, k):
        """The threshold 2^(k-i-2) is compared by bit length, never built or printed."""
        self.assert_rejected(capsys, "synth", method, "60000", str(k), "3")

    @pytest.mark.parametrize("n", [MAX_PERSONS + 1, 2**20])
    def test_verify_persons(self, capsys, tmp_path, n):
        f = tmp_path / "big.json"
        f.write_text(f'{{"n":{n},"calls":[]}}')
        self.assert_rejected(capsys, "verify", str(f), "1")

    @pytest.mark.parametrize("n_min,n_max", [(5, 5 + MAX_ROWS), (1, 10**9)])
    def test_table_rows(self, capsys, monkeypatch, n_min, n_max):
        monkeypatch.setattr(cli, "classify_regime", _must_not_run)
        self.assert_rejected(capsys, "table", "5", str(n_min), str(n_max))

    def test_table_at_row_cap(self, capsys):
        code, out, _ = run(capsys, "table", "5", "5", str(4 + MAX_ROWS), "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["rows"]) == MAX_ROWS

    @pytest.mark.parametrize("value", [MAX_PRELIM + 1, 10**9])
    def test_prelim_max(self, capsys, value):
        self.assert_rejected(capsys, "check-lemma", "L4a", "--prelim-max", str(value))


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["pvalue", "abc", "3"],
        ["table", "3", "5"],
        ["pvalue", "5", "3", "--format", "yaml"],
        ["check-lemma", "L99"],
        [],
    ])
    def test_usage_error_exits_one(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["oracle", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_OK

    def test_nan_budget_rejected(self, capsys):
        code, _, err = run(capsys, "oracle", "8", "8", "--budget-secs", "nan")
        assert code == EXIT_VALIDATION
        assert err.startswith("error:")


@pytest.fixture(scope="module")
def schedule_files(tmp_path_factory):
    """Schedule paths and output path stems.

    The schedules: a valid one with a preliminary call, a malformed one, one
    that is not UTF-8, a missing one.  The stems: one in a directory that
    exists and one in a directory that does not.
    """
    root = tmp_path_factory.mktemp("argv")
    good, bad, latin = root / "good.json", root / "bad.json", root / "latin.json"
    good.write_text('{"n":4,"preliminary":[[2,3]],"calls":[[0,1],[1,2],[0,3]]}')
    bad.write_text('{"n":4,"calls":[[0,9]]}')
    latin.write_bytes(b'\xff\xfe{"n":2}')
    files = [str(good), str(bad), str(latin), str(root / "missing.json")]
    return files, [str(root / "out"), str(root / "no-dir" / "out")]


_INT = st.integers(-2, 9).map(str)
# sizes above the CLI caps; table's is above MAX_ROWS + 9, so even n_min = 9
# leaves too many rows
_PERSONS = _INT | st.sampled_from([str(MAX_PERSONS + 1), str(10**9)])
_ROWS = _INT | st.sampled_from([str(MAX_ROWS + 10), str(10**9)])
_PRELIM = _INT | st.sampled_from([str(MAX_PRELIM + 1), str(10**9)])
_METHOD = st.sampled_from(["doubling", "tree", "multiblock", "abc"])


def _argv(files, outs):
    """Each command with its positionals (mostly small integers) and options."""
    fmt = ("--format", st.sampled_from(["json", "text", "dot", "yaml"]))
    commands = {
        "pvalue": ([_INT, _INT], [fmt]),
        "table": ([_INT, _INT, _ROWS], [fmt]),
        "synth": ([_METHOD, _PERSONS, _INT, _INT], [
            fmt, ("--blocks", _INT), ("--out", st.sampled_from([o + ".json" for o in outs])),
            ("--dot", st.sampled_from([o + ".dot" for o in outs])),
        ]),
        "verify": ([st.sampled_from(files), _INT], [fmt]),
        "oracle": ([_INT, _INT], [fmt, ("--stats", None)]),
        "check-lemma": ([st.sampled_from([*lemmas.LEMMA_IDS, "L99"])], [
            fmt, ("--max-n", st.integers(-2, 40).map(str)), ("--samples", _INT),
            ("--prelim-max", _PRELIM), ("--seed", _INT), ("--bound-slack", _INT),
            ("--stats", None),
        ]),
    }
    junk = st.sampled_from(["abc", "1.5", "--", "-x", "--blocks", "nope"]) | _INT

    @st.composite
    def draw(draw):
        command = draw(st.sampled_from(sorted(commands)))
        positionals, options = commands[command]
        argv = [command, *(draw(x) for x in positionals)]
        for flag, value in draw(st.lists(st.sampled_from(options), max_size=3)):
            argv += [flag] if value is None else [flag, draw(value)]
        if draw(st.integers(0, 4)) == 0:  # now and then a stray token
            argv.insert(draw(st.integers(0, len(argv))), draw(junk))
        if command == "oracle":
            argv += ["--budget-secs", draw(st.sampled_from(["0.05", "0.01", "-1", "0"]))]
        return argv

    return draw()


def _stub_suite(params):
    # the suites' own runs are tested in test_lemmas; here only parsing,
    # parameter validation and reporting matter: one clean instance
    return [((2, 2, 0), None)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_argv_exit_code_contract(schedule_files, data):
    """Any argv exits 0, 1 or 2 without a traceback."""
    argv = data.draw(_argv(*schedule_files))
    out, err = io.StringIO(), io.StringIO()
    stubs = dict.fromkeys(lemmas.LEMMA_IDS, _stub_suite)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(lemmas._CHECKERS, stubs):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_VIOLATION), (argv, code)
    assert "Traceback" not in err.getvalue()


def test_import_loads_no_undeclared_dependency():
    """The package and its CLI import without numpy or networkx: it declares no dependency."""
    src = str(pathlib.Path(partialgossip.__file__).resolve().parent.parent)
    code = ("import sys, partialgossip, partialgossip.cli; "
            "print(sorted({'numpy', 'networkx'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    """The record classes are written out, so importing the package and its CLI
    stays clear of dataclasses and of inspect, ast, dis and tokenize behind it.
    Every module the import adds is the package's own or the standard library's:
    the package declares no dependency."""
    src = str(pathlib.Path(partialgossip.__file__).resolve().parent.parent)
    code = ("import sys; before = set(sys.modules); import partialgossip, partialgossip.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
            "print(sorted(name for name in set(sys.modules) - before "
            "if name.partition('.')[0] not in {'partialgossip', *sys.stdlib_module_names}))")
    # -S: no site hooks, which may import modules before the package
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n[]\n"
