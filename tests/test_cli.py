import argparse
import io
import itertools
import json
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from nearvec import (build_nearfield, build_seed, count_subgroups, lc_index, matrix_format, matrix_parse,
                     unpack_vector)
from nearvec.cli import _build_parser, _decimal, _integer, main

V3 = "DN 3 2\n2 3\n1 0 1\n1 1 0\n"
CMAP = "DN 3 2\n2 2\n1 1\n2 1\n"


@contextmanager
def _no_str_digit_limit():
    """Lift Python's int-to-str digit limit (from 3.10.7 on) inside the block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTable:
    def test_mul_table_deterministic(self, capsys):
        code, out1, _ = run(capsys, "table", "3", "2", "--op", "mul")
        assert code == 0
        _, out2, _ = run(capsys, "table", "3", "2", "--op", "mul")
        assert out1 == out2
        assert out1.splitlines()[1].split() == ["0"] * 10

    def test_add_table(self, capsys):
        code, out, _ = run(capsys, "table", "3", "2", "--op", "add", "--style", "code")
        assert code == 0
        # row of 0 in the addition table is the header again
        lines = out.splitlines()
        assert lines[1].split()[1:] == [str(i) for i in range(9)]

    def test_table_refused_by_the_budget(self, capsys, monkeypatch):
        # 4096^2 cells: one error line naming the knob, before any row is built
        monkeypatch.delenv("NEARVEC_BUDGET", raising=False)
        for op in ("mul", "add"):
            code, out, err = run(capsys, "table", "16", "3", "--op", op)
            assert code == 1 and out == ""
            assert err == ("error: operation table cells, |R|^2 = 4096^2 exceeds the element budget 1000000"
                           " (NEARVEC_BUDGET)\n")

    def test_invalid_pair(self, capsys):
        code, out, err = run(capsys, "table", "3", "4")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "4 divides n" in err

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "table", "3", "2", "--json")
        assert code == 0
        assert out.startswith('{"nearfield": {"q": 3, "n": 2}, "input": ')
        doc = json.loads(out)
        assert list(doc) == ["nearfield", "input", "result"]
        assert doc["result"]["table"][1][1] == "1"


class TestWitness:
    def test_dn32(self, capsys):
        code, out, _ = run(capsys, "witness", "3", "2")
        assert code == 0
        assert out == "1 x x\n"

    def test_field(self, capsys):
        code, out, _ = run(capsys, "witness", "5", "1")
        assert code == 0
        assert out == "none\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "witness", "3", "2", "--json")
        doc = json.loads(out)
        assert doc["result"]["witness"] == {"alpha": "1", "beta": "x", "lambda": "x"}


class TestEge:
    def test_dimension(self, capsys, tmp_path):
        f = tmp_path / "v3.mat"
        f.write_text(V3)
        code, out, _ = run(capsys, "ege", str(f))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dimension 3"
        assert lines[1] == "canonical true"

    def test_trace_and_replay(self, capsys, tmp_path):
        f = tmp_path / "v3.mat"
        f.write_text(V3)
        code, out, _ = run(capsys, "ege", str(f), "--trace")
        assert code == 0
        trace = out.split("trace:\n", 1)[1]
        t = tmp_path / "v3.trace"
        t.write_text(trace)
        code, rout, _ = run(capsys, "replay", str(f), str(t))
        assert code == 0
        assert rout.splitlines() == ["1 0 0", "0 1 0", "0 0 1"]

    def test_json_with_trace(self, capsys, tmp_path):
        f = tmp_path / "v3.mat"
        f.write_text(V3)
        _, out, _ = run(capsys, "ege", str(f), "--json", "--trace")
        doc = json.loads(out)
        assert list(doc) == ["nearfield", "input", "result", "trace"]
        assert doc["result"]["dimension"] == 3
        assert doc["trace"] == ["ELIM 1 2 1", "TRICK 3 1 x x"]

    @pytest.mark.parametrize("trace,message", [
        ("SWAP a 1\n", "malformed trace line 'SWAP a 1'"),
        ("SWAP 0 1\n", "'SWAP 0 1': row must be an integer >= 1, got '0'"),
        ("SWAP 1 5\n", "trace step 1: row 5 out of range"),
        ("ELIM 1 9 1\n", "trace step 1: row 9 out of range"),
        ("TRICK 0 1 x x\n", "'TRICK 0 1 x x': column must be an integer >= 1, got '0'"),
        ("TRICK 3 0 0 0\n", "two nonzero entries before the trick column"),
        ("ELIM 1 2 1\nTRICK 2 1 x x\n", "trace step 2: the trick column is not a conflict column"),
        ("TRICK 1 1 1 1\n", "witness does not violate right distributivity"),
    ])
    def test_replay_rejects_bad_trace(self, capsys, tmp_path, trace, message):
        f = tmp_path / "v3.mat"
        f.write_text(V3)
        t = tmp_path / "bad.trace"
        t.write_text(trace)
        code, out, err = run(capsys, "replay", str(f), str(t))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("text,message", [
        ("DN 3 2\n1 2\n1 ²\n", "error: malformed element term '²'\n"),
        ("DN 3 2\n1 2\n1 ١+x\n", "error: malformed element term '١'\n"),
        ("DN 3 2\n1_0 2\n1 2\n", "error: bad dimension line '1_0 2': dimension must be an integer >= 0, got '1_0'\n"),
        ("DN ３ 2\n1 2\n1 2\n", "error: bad header 'DN ３ 2': q must be an integer >= 0, got '３'\n"),
    ])
    def test_non_ascii_digits_are_refused(self, capsys, tmp_path, text, message):
        f = tmp_path / "bad.mat"
        f.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "ege", str(f))
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("text,message", [
        ("DN 3 2\n1 2\n1 " + "1" * 5000 + "\n", "error: element code has 5000 digits, more than 4300\n"),
        ("DN 3 2\n1 2\n1 x^" + "1" * 5000 + "\n", "error: power has 5000 digits, more than 4300\n"),
    ], ids=["token", "power"])
    def test_a_number_past_4300_digits_is_named(self, capsys, tmp_path, text, message):
        # int() refused these with its own text, which names no token or field
        f = tmp_path / "big.mat"
        f.write_text(text)
        code, out, err = run(capsys, "ege", str(f))
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("line,message", [
        ("ELIM 1 " + "1" * 5000 + " 1", "row has 5000 digits, more than 4300"),
        ("SWAP 1_0 1", "row must be an integer >= 1, got '1_0'"),
        ("ELIM 1 ٢ 1", "row must be an integer >= 1, got '٢'"),
        ("ELIM 1 +2 1", "row must be an integer >= 1, got '+2'"),
        ("TRICK ３ 1 x x", "column must be an integer >= 1, got '３'"),
    ], ids=["5000-digits", "underscore", "arabic-indic", "plus", "fullwidth-column"])
    def test_trace_indices_take_ascii_digits_only(self, capsys, tmp_path, line, message):
        # int() read all but the first: row 10, 2, 2 and column 3
        f, t = tmp_path / "v3.mat", tmp_path / "bad.trace"
        f.write_text(V3)
        t.write_text(line + "\n", encoding="utf-8")
        code, out, err = run(capsys, "replay", str(f), str(t))
        assert (code, out, err) == (1, "", f"error: malformed trace line {line!r}: {message}\n")

    @pytest.mark.parametrize("matrix,trace,message", [
        ("DN 3\xa02\n1 2\n1 2\n", None, "matrix file line 1: whitespace '\\xa0' (U+00A0)"),
        ("DN 3 2\n1 2\n1\u20032\n", None, "matrix file line 3: whitespace '\\u2003' (U+2003)"),
        ("DN 3 2\n1 2\n1 \xa01+x\n", None, "matrix file line 3: whitespace '\\xa0' (U+00A0)"),
        ("DN 3 2\n1 2\x1c1 2\n", None, "matrix file line 2: whitespace '\\x1c' (U+001C)"),
        ("DN 3 2\n1 2\u20281 2\n", None, "matrix file line 2: whitespace '\\u2028' (U+2028)"),
        ("DN 3 2\n1\v2\n1 2\n", None, "matrix file line 2: whitespace '\\x0b' (U+000B)"),
        (V3, "SWAP 1\u20032\n", "trace line 1: whitespace '\\u2003' (U+2003)"),
        (V3, "SWAP 1 2\n\x85SWAP 1 2\n", "trace line 2: whitespace '\\x85' (U+0085)"),
        (V3, "SWAP 1 2\x1cSWAP 1 2\n", "trace line 1: whitespace '\\x1c' (U+001C)"),
    ], ids=["header-nbsp", "row-em-space", "token-nbsp", "file-separator", "line-separator",
            "vertical-tab", "trace-em-space", "trace-next-line", "trace-file-separator"])
    def test_only_ascii_blanks_separate_fields(self, capsys, tmp_path, matrix, trace, message):
        # str.split() and str.splitlines() took each of these for a break:
        # DN 3\xa02 read as DN(3,2), and SWAP 1\u20032 as SWAP 1 2
        f, t = tmp_path / "in.mat", tmp_path / "in.trace"
        f.write_text(matrix, encoding="utf-8")
        argv = ["ege", str(f)]
        if trace is not None:
            t.write_text(trace, encoding="utf-8")
            argv = ["replay", str(f), str(t)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message} is not a field separator\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "ege", "/nonexistent/file.mat")
        assert code == 1
        assert err.startswith("error: ")


class TestClosureCommands:
    def test_gen(self, capsys, tmp_path):
        f = tmp_path / "v3.mat"
        f.write_text(V3)
        code, out, _ = run(capsys, "gen", str(f))
        assert code == 0
        assert out == "size 729\nspans_space true\n"

    def test_gen_of_a_spanning_seed_does_not_list_the_space(self, capsys, tmp_path):
        # R^6 over DN(3,2) has 531441 vectors: listing them as ints alone
        # allocates over 18 MB, while the strata stop by |R^m| / p^2 codes
        f = tmp_path / "seed6.mat"
        f.write_text(matrix_format(build_seed(6, build_nearfield(3, 2)).matrix))
        run(capsys, "gen", str(f))  # warm
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "gen", str(f))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out == "size 531441\nspans_space true\n"
        assert peak < 8 * 2 ** 20

    def test_lc_index(self, capsys, tmp_path):
        f = tmp_path / "v3.mat"
        f.write_text(V3)
        code, out, _ = run(capsys, "lc-index", str(f))
        assert code == 0
        assert out == "index 2\n"

    def test_lc_index_undefined(self, capsys, tmp_path):
        f = tmp_path / "one.mat"
        f.write_text("DN 3 2\n1 2\n1 x\n")
        code, _, err = run(capsys, "lc-index", str(f))
        assert code == 1
        assert "index undefined" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_budget_variable(self, capsys, tmp_path, monkeypatch, value):
        f = tmp_path / "v3.mat"
        f.write_text(V3)
        monkeypatch.setenv("NEARVEC_BUDGET", value)
        code, out, err = run(capsys, "gen", str(f))
        assert code == 1
        assert out == ""
        assert err == f"error: NEARVEC_BUDGET must be an integer >= 1, got {value!r}\n"

    @pytest.mark.parametrize("value", ["1_000", " ٣", "+5", "٣", "1000\xa0", "1e3", "1000 "])
    def test_budget_takes_ascii_digits_only(self, capsys, tmp_path, monkeypatch, value):
        # int() read the first five as 1000, 3, 5, 3 and 1000
        f = tmp_path / "v3.mat"
        f.write_text(V3)
        monkeypatch.setenv("NEARVEC_BUDGET", value)
        code, out, err = run(capsys, "gen", str(f))
        assert (code, out) == (1, "")
        assert err == f"error: NEARVEC_BUDGET must be an integer >= 1, got {value!r}\n"

    def test_budget_past_4300_digits(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "v3.mat"
        f.write_text(V3)
        monkeypatch.setenv("NEARVEC_BUDGET", "1" * 5000)
        code, out, err = run(capsys, "gen", str(f))
        assert (code, out, err) == (1, "", "error: NEARVEC_BUDGET has 5000 digits, more than 4300\n")


class TestMapCommands:
    def test_classify_counterexample(self, capsys, tmp_path):
        f = tmp_path / "cmap.mat"
        f.write_text(CMAP)
        code, out, _ = run(capsys, "classify-map", str(f))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "class hom_only"
        assert any(ln.startswith("violating_pair") for ln in lines)

    def test_classify_identity(self, capsys, tmp_path):
        f = tmp_path / "id.mat"
        f.write_text("DN 3 2\n2 2\n1 0\n0 1\n")
        code, out, _ = run(capsys, "classify-map", str(f))
        assert code == 0
        assert out.splitlines()[0] == "class invertible_normal"

    def test_classify_requires_square(self, capsys, tmp_path):
        f = tmp_path / "rect.mat"
        f.write_text(V3)
        code, _, err = run(capsys, "classify-map", str(f))
        assert code == 1
        assert "square" in err

    def test_count_maps(self, capsys):
        for kind, expected in [("all", "6561"), ("linear", "289"), ("normal", "161")]:
            code, out, _ = run(capsys, "count-maps", "3", "2", "2", kind)
            assert code == 0
            assert out == expected + "\n"

    def test_count_maps_enum(self, capsys):
        code, out, _ = run(capsys, "count-maps", "3", "2", "2", "normal", "--method", "enum")
        assert code == 0
        assert out == "161\n"

    @pytest.mark.parametrize("argv,message", [
        (["count-maps", "3", "2", "-1", "all"], "dimension must be an integer >= 0, got -1"),
        (["count-maps", "3", "2", "-1", "linear"], "dimension must be an integer >= 0, got -1"),
        (["count-maps", "3", "2", "-2", "normal"], "dimension must be an integer >= 0, got -2"),
        (["count-maps", "3", "2", "-1", "all", "--method", "enum"], "dimension must be an integer >= 0, got -1"),
        (["search-index", "3", "2", "-1", "1", "1"], "m must be an integer >= 1, got -1"),
        (["search-index", "3", "2", "2", "0", "1"], "k must be an integer >= 1, got 0"),
        # C(6560, 3), about 4.7e10 subsets, is refused before the scan starts
        (["search-index", "3", "2", "4", "3", "2"], "min(--limit, C(|R|^m - 1, k), budget + 1) = 1000001"),
        (["search-index", "3", "2", "6", "300000", "1"], "budget + 1) = 1000001 exceeds"),
        # 9^(10^8) is not computed: m is past the budget's bit length
        (["search-index", "3", "2", "100000000", "1", "1"],
         "vectors of R^m, |R|^m = 9^100000000 exceeds the element budget 1000000 (NEARVEC_BUDGET)"),
        (["search-index", "3", "2", "7", "1", "1"],
         "vectors of R^m, |R|^m = 9^7 exceeds the element budget 1000000 (NEARVEC_BUDGET)"),
        (["search-index", "3", "2", "2", "2", "1", "--limit", "-1"], "--limit must be an integer >= 0, got -1"),
    ])
    def test_out_of_range_arguments_refused(self, capsys, argv, message):
        # these once printed 9, -0.142..., 0, or ended in a TypeError traceback
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv", [["witness", "3", "2305843009213693951"],
                                      ["witness", "2305843009213693951", "2"]])
    def test_huge_field_refused_before_factoring(self, argv):
        # trial division of the Mersenne prime 2^61 - 1 would run for minutes
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "nearvec.cli", *argv],
                             capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - t0 < 5
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("error: order ") and out.stderr.count("\n") == 1
        assert "exceeds the hard limit 1048576" in out.stderr


class TestSubgroupAndSeedCommands:
    def test_count_subgroups(self, capsys):
        code, out, _ = run(capsys, "count-subgroups", "3", "2", "3", "2")
        assert code == 0
        assert out == "9\n"

    def test_count_subgroups_deep(self, capsys):
        # deeper than the recursion limit of the memoized p_k(t) it replaced
        code, out, err = run(capsys, "count-subgroups", "3", "2", "1000", "500")
        assert code == 0 and err == ""
        assert int(out) % 8 == 1  # only the t = k term has no factor |R| - 1

    def test_count_subgroups_over_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("NEARVEC_BUDGET", "100")
        code, out, err = run(capsys, "count-subgroups", "3", "2", "20", "5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "126 exceeds the element budget 100" in err and "NEARVEC_BUDGET" in err

    @pytest.mark.parametrize("argv,count", [
        (["count-subgroups", "3", "2", "6000", "2"], count_subgroups(6000, 2, 9)),
        (["count-maps", "3", "2", "200", "all"], 9 ** 40000),
    ], ids=["count-subgroups", "count-maps"])
    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_counts_past_the_str_digit_limit(self, capsys, argv, count, flag):
        # 5421 and 38170 digits, past Python's default 4300-digit int-to-str limit
        code, out, err = run(capsys, *argv, *flag)
        assert code == 0 and err == ""
        with _no_str_digit_limit():
            assert (json.loads(out)["result"]["count"] if flag else int(out)) == count

    def test_decimal_matches_str(self):
        # the last two have about 10^5 digits
        for n in [0, 1, 9, 10 ** 309, 2 ** 1024, 2 ** 1025 - 1, 9 ** 40000,
                  3 ** 209590, 7 ** 112915 + 10 ** 50000]:
            with _no_str_digit_limit():
                assert _decimal(n) == str(n), n.bit_length()

    def test_huge_count_prints_in_time(self, capsys):
        # 9^(10^6) has 954243 digits, within the budget's digit bound of 10^6;
        # str() alone took 16.5 s on Python 3.11
        t0 = time.perf_counter()
        code, out, err = run(capsys, "count-maps", "3", "2", "1000", "all")
        assert time.perf_counter() - t0 < 6
        assert code == 0 and err == ""
        assert len(out) == 954244 and out.endswith(f"{9 ** 10 ** 6 % 10 ** 60:060d}\n")
        assert out[0] != "0" and out[:-1].isdigit()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit before Python 3.10.7")
    def test_input_keeps_the_str_digit_limit(self, capsys, tmp_path):
        # printing a count leaves the limit as it is: a huge token in a
        # matrix file is refused by int() as it would be outside the CLI
        saved = sys.get_int_max_str_digits()
        f = tmp_path / "huge.mat"
        f.write_text("DN 3 2\n1 1\n" + "1" * (saved + 1) + "\n")
        code, out, err = run(capsys, "gen", str(f))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        run(capsys, "count-subgroups", "3", "2", "6000", "2")
        assert sys.get_int_max_str_digits() == saved

    def test_count_maps_refused_before_computing(self, capsys):
        # 9^(10^8) would take hours to compute and print; the digit bound refuses it at once
        code, out, err = run(capsys, "count-maps", "3", "2", "10000", "all")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "NEARVEC_BUDGET" in err

    @pytest.mark.parametrize("kind", ["all", "linear", "normal"])
    def test_count_maps_digit_bound_of_a_4300_digit_dim(self, capsys, kind):
        # linear and normal once printed Python's own 4300-digit str() error
        code, out, err = run(capsys, "count-maps", "3", "2", "9" * 4300, kind)
        assert code == 1 and out == ""
        assert re.fullmatch(r"error: digits of the count, bounded = a \d+-bit number exceeds "
                            r"the element budget 1000000 \(NEARVEC_BUDGET\)\n", err)

    @pytest.mark.parametrize("kind", ["linear", "normal"])
    def test_count_maps_digit_bound_is_n_times_the_row_digits(self, capsys, monkeypatch, kind):
        # 1 + 1000 (9 - 1) = 8001 has 4 digits, so the bound is 4000
        monkeypatch.setenv("NEARVEC_BUDGET", "3999")
        code, out, err = run(capsys, "count-maps", "3", "2", "1000", kind)
        assert (code, out) == (1, "") and "bounded = 4000 exceeds the element budget 3999" in err
        monkeypatch.setenv("NEARVEC_BUDGET", "4000")
        code, out, err = run(capsys, "count-maps", "3", "2", "1000", kind)
        assert (code, err) == (0, "") and out.endswith("\n") and out[:-1].isdigit()

    @pytest.mark.parametrize("argv,size", [
        (["count-maps", "3", "2", "10000", "all", "--method", "enum"], "9^100000000"),
        (["count-maps", "3", "2", "1000", "linear", "--method", "enum"], "9^1000000"),
    ])
    def test_count_maps_enum_refused_before_computing(self, capsys, argv, size):
        # these once computed the whole power, then failed to print it
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 5
        assert code == 1 and out == ""
        assert err == f"error: |R|^(n^2) = {size} exceeds the element budget 1000000 (NEARVEC_BUDGET)\n"

    @pytest.mark.parametrize("m,k", [(1, 1), (9, 2), (10, 3), (24, 3)])
    def test_seed_roundtrip(self, capsys, tmp_path, m, k):
        code, out, _ = run(capsys, "seed", "3", "2", str(m))
        assert code == 0
        assert out.splitlines()[0] == f"# q=3 n=2 m={m} k={k} s_order=2,3,4,5,6,7,8"
        f = tmp_path / "seed.mat"
        f.write_text(out)
        code, vout, _ = run(capsys, "verify-seed", str(f))
        assert code == 0
        assert vout == "true\n"

    def test_verify_seed_zero_column(self, capsys, tmp_path):
        f = tmp_path / "zero.mat"
        f.write_text("DN 3 2\n2 3\n1 0 0\n0 1 0\n")
        assert run(capsys, "verify-seed", str(f)) == (0, "false\n", "")

    def test_seed_roundtrip_all_m(self, capsys, tmp_path):
        f = tmp_path / "seed.mat"
        for m in range(1, 25):
            _, out, _ = run(capsys, "seed", "3", "2", str(m))
            f.write_text(out)
            code, vout, _ = run(capsys, "verify-seed", str(f))
            assert code == 0 and vout == "true\n", m

    def test_verify_rejects_non_seed(self, capsys, tmp_path):
        f = tmp_path / "one.mat"
        f.write_text("DN 3 2\n1 2\n1 x\n")
        code, out, _ = run(capsys, "verify-seed", str(f))
        assert code == 0
        assert out == "false\n"

    def test_seed_json(self, capsys):
        _, out, _ = run(capsys, "seed", "3", "2", "3", "--json")
        doc = json.loads(out)
        assert doc["result"]["k"] == 2
        assert doc["result"]["rows"] == [["1", "0", "1"], ["0", "1", "2"]]


class TestSearchIndex:
    def test_limited_scan(self, capsys):
        code, out, _ = run(capsys, "search-index", "3", "2", "2", "2", "2", "--limit", "200")
        assert code == 0
        lines = dict(ln.split() for ln in out.splitlines())
        assert lines["searched"] == "200"
        assert lines["max_index"] == "1"
        assert lines["exceeding_bound"] == "0"

    def test_limit_is_budgeted(self, capsys, monkeypatch):
        monkeypatch.setenv("NEARVEC_BUDGET", "100")
        code, out, err = run(capsys, "search-index", "3", "2", "2", "2", "1", "--limit", "101")
        assert code == 1 and out == ""
        assert "= 101 exceeds the element budget 100" in err and "--limit" in err
        code, out, _ = run(capsys, "search-index", "3", "2", "2", "2", "1", "--limit", "100")
        assert code == 0 and out.startswith("searched 100\n")

    def test_finds_index_two(self, capsys):
        # without a limit the R^3 pair scan would be long; bound=1 over R^2
        # already demonstrates counting of spanning tuples
        code, out, _ = run(capsys, "search-index", "3", "2", "2", "2", "1", "--limit", "50", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["searched"] == 50
        assert doc["result"]["spanning"] <= 50

    def test_exceeding_lists_the_first_ten_spanning_subsets_above_the_bound(self, capsys):
        # no 2-subset of R^2 is all of it, so every spanning one has index >= 1 > 0
        code, out, _ = run(capsys, "search-index", "3", "2", "2", "2", "0", "--limit", "50", "--json")
        assert code == 0
        result = json.loads(out)["result"]
        nf = build_nearfield(3, 2)
        spanning = []
        for combo in itertools.combinations(range(1, 81), 2):
            vectors = [unpack_vector(nf, 2, c) for c in combo]
            try:
                index = lc_index(nf, vectors)
            except ValueError:
                continue
            assert index > 0
            spanning.append([nf.format_elements(v) for v in vectors])
            if len(spanning) == 10:
                break
        assert result["spanning"] >= 10
        assert result["exceeding"] == spanning
        _, out, _ = run(capsys, "search-index", "3", "2", "2", "2", "0", "--limit", "50")
        assert out.splitlines()[-1] == "exceeding_bound 10"


    @pytest.mark.parametrize("argv,counts", [
        # a --limit past sys.maxsize reached islice, which refused it with its own error
        (["--limit", "99999999999999999999"], "8 8 1 8"),
        (["--limit", "100"], "8 8 1 8"),
    ])
    def test_limit_past_sys_maxsize(self, capsys, argv, counts):
        code, out, err = run(capsys, "search-index", "3", "2", "1", "1", "0", *argv)
        searched, spanning, max_index, exceeding = counts.split()
        assert (code, err) == (0, "")
        assert out == (f"searched {searched}\nspanning {spanning}\nmax_index {max_index}\n"
                       f"exceeding_bound {exceeding}\n")

    @pytest.mark.parametrize("k", ["9223372036854775808", "100"])
    def test_k_past_the_space_scans_nothing(self, capsys, k):
        # no k-subset of the 8 nonzero vectors: k past sys.maxsize once ended
        # in an OverflowError traceback from combinations
        code, out, err = run(capsys, "search-index", "3", "2", "1", k, "0")
        assert (code, err) == (0, "")
        assert out == "searched 0\nspanning 0\nmax_index 0\nexceeding_bound 0\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_args(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "3"])
        assert exc.value.code == 2


# a valid command line for every command that takes integers, and where
# each integer argument sits in it, under the name argparse gives it
_INT_ARGV = {
    "table": ["3", "2"],
    "witness": ["3", "2"],
    "count-maps": ["3", "2", "2", "normal"],
    "count-subgroups": ["3", "2", "3", "2"],
    "seed": ["3", "2", "4"],
    "search-index": ["3", "2", "2", "2", "1", "--limit", "5"],
}
_INT_FIELDS = [("table", "q", 0), ("table", "n", 1), ("witness", "q", 0), ("witness", "n", 1),
               ("count-maps", "q", 0), ("count-maps", "n", 1), ("count-maps", "dim", 2),
               ("count-subgroups", "q", 0), ("count-subgroups", "n", 1), ("count-subgroups", "m", 2),
               ("count-subgroups", "k", 3), ("seed", "q", 0), ("seed", "n", 1), ("seed", "m", 2),
               ("search-index", "q", 0), ("search-index", "n", 1), ("search-index", "m", 2),
               ("search-index", "k", 3), ("search-index", "bound", 4), ("search-index", "--limit", 6)]


def _run_argv(argv):
    """main(argv) in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


class TestIntegerArguments:
    def test_every_integer_argument_is_listed(self):
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        typed = {(name, a.option_strings[0] if a.option_strings else a.dest)
                 for name, p in sub.choices.items() for a in p._actions if a.type is not None}
        assert typed == {(command, name) for command, name, _ in _INT_FIELDS}
        assert len(typed) == 20
        assert all(a.type is _integer for p in sub.choices.values() for a in p._actions
                   if a.type is not None)

    @pytest.mark.parametrize("command", sorted(_INT_ARGV))
    def test_the_listed_command_lines_run(self, command):
        code, out, err = _run_argv([command] + _INT_ARGV[command])
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("bad", ["２", "٢", "²", "1_0", "+2", " 2", "2\xa0", "0x2", "", "1" * 5000],
                             ids=["fullwidth", "arabic-indic", "superscript", "underscore", "plus", "space",
                                  "nbsp", "hex", "empty", "5000-digits"])
    @pytest.mark.parametrize("command,name,i", _INT_FIELDS, ids=[f"{c}-{n}" for c, n, _ in _INT_FIELDS])
    def test_refused_with_one_line_that_names_it(self, command, name, i, bad):
        # int() read all but the hex and the empty one; '２' made count-maps print 161
        argv = [command] + _INT_ARGV[command]
        argv[1 + i] = bad
        code, out, err = _run_argv(argv)
        assert (code, out) == (2, "")
        assert [ln for ln in err.splitlines() if "error:" in ln] == [err.splitlines()[-1]]
        reason = ("value has 5000 digits, more than 4300" if len(bad) == 5000
                  else f"value must be an integer, got {bad!r}")
        assert err.splitlines()[-1] == f"nearvec {command}: error: argument {name}: {reason}"


# -- the CLI contract on malformed files --------------------------------------

# characters that int() reads, or that look like digits, but that no integer field admits;
# the whitespace among them is no separator either (only ASCII space and tab are)
_NOT_DIGITS = ["٢", "２", "²", "_", "+", "\xa0", "\x1c", "\x85", "\v", "\u2028"]


@st.composite
def _spelled(draw, n):
    """str(n), or now and then str(n) with one of _NOT_DIGITS put in anywhere."""
    text = str(n)
    if draw(st.integers(0, 3)):
        return text
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(st.sampled_from(_NOT_DIGITS)) + text[i:]


# valid headers and shapes are drawn often enough that many files parse
_HEADERS = ["DN 3 2", "DN 3 2", "DN 5 2", "DN 2 1", "DN 7 1", "DN 3 4", "DN 4 2", "DN 1 1",
            "DN 3", "XX 3 2", "DN a b", "DN ３ 2", "DN ٣ 2", "DN 3 ²", "DN 3_0 2", "DN +3 2", "DN 3 2\xa0",
            "DN 3\xa02"]
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_token = st.one_of(st.integers(0, 1).map(str), st.integers(0, 9).flatmap(_spelled),
                   st.sampled_from(["24", "-1", "x", "2x", "1+x", "2+2x", "x^2", "x^9", "abc", "+",
                                    "x^٢", "x^+1", "x^1_0", "２x", "1_0x", "+1", "1\xa0+x"]),
                   _text)
_size = st.one_of(st.integers(1, 4), st.integers(1, 4), st.sampled_from([-1, 0]))


@st.composite
def _matrix_texts(draw):
    """A matrix file that is well formed or close to it, then maybe corrupted."""
    k, m = draw(_size), draw(_size)
    lines = [draw(st.sampled_from(_HEADERS)), f"{draw(_spelled(k))} {draw(_spelled(m))}"]
    lines += [" ".join(draw(st.lists(_token, min_size=max(m, 0), max_size=max(m, 0))))
              for _ in range(max(k, 0))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["insert", "delete", "replace"]))
        if action == "insert" or i == len(lines):
            lines.insert(i, draw(_text))
        elif action == "delete":
            del lines[i]
        else:
            lines[i] = draw(_text)
    return "\n".join(lines) + "\n"


_trace_texts = st.lists(
    st.builds(lambda op, args: " ".join([op] + args),
              st.sampled_from(["SWAP", "SCALE", "ELIM", "TRICK", "swap", "NOPE", "#"]),
              st.lists(st.one_of(st.integers(-1, 6).flatmap(_spelled), _token), max_size=5)),
    max_size=5).map("\n".join)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from([["ege"], ["ege", "--trace"], ["replay"], ["gen"], ["lc-index"],
                                ["classify-map"], ["verify-seed"]]),
       matrix=_matrix_texts(), trace=_trace_texts, as_json=st.booleans())
def test_file_commands_keep_the_cli_contract(tmp_path, monkeypatch, command, matrix, trace,
                                             as_json):
    """Exit 0, 1 or 2; on exit 1 exactly one error: line; never a traceback."""
    monkeypatch.setenv("NEARVEC_BUDGET", "1000")
    mat, tr = tmp_path / "in.mat", tmp_path / "in.trace"
    mat.write_text(matrix)
    tr.write_text(trace)
    argv = [command[0], str(mat)] + command[1:]
    if command[0] == "replay":
        argv.append(str(tr))
    if as_json:
        argv.append("--json")
    code, _, err = _run_argv(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1


@st.composite
def _spelled_matrices(draw):
    """(text, field, rows, spoil): a matrix file of random codes, each token
    spelled in a way the grammar admits (a code, with or without leading
    zeros, or a polynomial with or without coefficients and powers of 1 and
    leading zeros), and half the time the character spoil, one of
    _NOT_DIGITS, put in one of its fields (else spoil is None).

    rows are the codes that the text spells, or None when no file spells
    them.  Of the characters put in, only a '+' between the coefficient c
    and the x of a token's first term c x^i, with no constant term before
    it, leaves a spelling: of c + x^i, worked out here from the digits.
    Anything else put in a field is refused."""
    q, n = draw(st.sampled_from([(3, 2), (5, 2), (2, 1), (7, 1), (7, 3), (4, 3), (9, 2), (5, 4)]))
    nf = build_nearfield(q, n)
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[draw(st.integers(0, nf.order - 1)) for _ in range(m)] for _ in range(k)]
    splits = {}     # (line, j): (where a '+' spells another code, that code)

    def spell(code, at):
        digits = [code // nf.p ** i % nf.p for i in range(nf.d)]
        zeros = [("0" * draw(st.integers(0, 1)), "0" * draw(st.integers(0, 1))) for _ in digits]
        terms = [f"{z1}{c}x^{z2}{i}" for i, (c, (z1, z2)) in enumerate(zip(digits, zeros)) if c and i]
        poly = "+".join([str(digits[0])] * bool(digits[0]) + terms) or "0"
        text = draw(st.sampled_from([str(code), "00" + str(code), nf.format_element(code), poly]))
        i = next((i for i, c in enumerate(digits) if c), 0)
        c = digits[i]
        other = code - c * nf.p ** i + c + nf.p ** i
        if i and text == poly:                      # z1 c x^z2 i
            splits[at] = (len(zeros[i][0]) + 1, other)
        elif i and c > 1 and text == nf.format_element(code):     # c x or c x^i
            splits[at] = (1, other)
        return text

    fields = [["DN", str(q), str(n)], [str(k), str(m)]]
    fields += [[spell(code, (line, j)) for j, code in enumerate(row)] for line, row in enumerate(rows, 2)]
    spoil = draw(st.one_of(st.none(), st.sampled_from(_NOT_DIGITS)))
    if spoil is not None:
        if spoil == "+" and splits and draw(st.booleans()):     # a '+' put in at a split
            (line, j), (i, _) = draw(st.sampled_from(sorted(splits.items())))
        else:
            line = draw(st.integers(0, len(fields) - 1))
            j = draw(st.integers(line == 0, len(fields[line]) - 1))
            i = draw(st.integers(0, len(fields[line][j])))
        fields[line][j] = fields[line][j][:i] + spoil + fields[line][j][i:]
        if spoil == "+" and splits.get((line, j), (None,))[0] == i:
            rows[line - 2][j] = splits[line, j][1]
        else:
            rows = None
    return "\n".join(map(" ".join, fields)) + "\n", nf, rows, spoil


@settings(max_examples=300, deadline=None)
@example(case=("DN 3 2\n2 3\n0 3 2+x\n0 3 3\n", build_nearfield(3, 2), [[0, 3, 5], [0, 3, 3]], "+"))
@example(case=("DN 3 2\n1 2\n1 \xa0x\n", build_nearfield(3, 2), None, "\xa0"))
@given(case=_spelled_matrices())
def test_accepted_matrix_files_round_trip(case):
    """A file that parses is printed by matrix_format, in either style, as one
    that parses to the same field and codes.  Every spelling the grammar
    admits parses to the code it spells, and a spoiled file parses only
    when the '+' put in spells another code (see _spelled_matrices): 2x
    with a '+' put in is 2+x, the code 5 over DN(3,2).  Whitespace but
    ASCII space and tab separates no fields, so it is refused."""
    text, nf, rows, spoil = case
    try:
        M = matrix_parse(text)
    except ValueError:
        assert rows is None
        return
    for style in ("poly", "code"):
        again = matrix_parse(matrix_format(M, style))
        assert (again.nf, again.width, again.rows) == (M.nf, M.width, M.rows)
    assert rows is not None and (M.nf, M.rows) == (nf, tuple(map(tuple, rows)))


@st.composite
def _bad_integer_fields(draw):
    """(argv, NEARVEC_BUDGET, expected exit code, start of the error) with
    one integer field spelled with a character outside the grammar, from a
    matrix file, a trace, the environment or the command line.  In a file
    or a trace the character goes strictly inside a field padded with a
    leading 0, where whitespace cannot pass for a separator; the texts
    after the command are then file contents.  Whitespace but ASCII space,
    tab, CR and LF is refused there before any field is read, with an
    error that names its line."""
    ch = draw(st.characters(blacklist_categories=("Cs",)).filter(lambda c: c not in "0123456789"))
    channel = draw(st.sampled_from(["header", "dimensions", "trace", "budget", "argv"]))
    no_separator = ch.isspace() and ch not in " \t\r\n"

    def spoil(field, inside):
        i = draw(st.integers(1, len(field) - 1) if inside else st.integers(0, len(field)))
        return field[:i] + ch + field[i:]

    def start(text, line):
        return f"error: {line}: whitespace {ch!r} " if no_separator else f"error: {text} "

    if channel == "header":
        return (["ege", f"DN {spoil('03', True)} 02\n1 2\n1 x\n"], None, 1,
                start("bad header", "matrix file line 1"))
    if channel == "dimensions":
        return (["ege", f"DN 3 2\n{spoil('01', True)} 02\n1 x\n"], None, 1,
                start("bad dimension line", "matrix file line 2"))
    if channel == "trace":
        line = draw(st.sampled_from(["SWAP {} 02", "SWAP 01 {}", "ELIM {} 02 1", "ELIM 01 {} 1",
                                     "SCALE {} 1", "TRICK {} 1 x x"]))
        return (["replay", V3, line.format(spoil("01", True)) + "\n"], None, 1,
                start("malformed trace line", "trace line 1"))
    if channel == "budget":
        assume(ch != "\x00")   # no environment variable holds a NUL
        return ["gen", V3], spoil("1000", False), 1, "error: NEARVEC_BUDGET must be an integer >= 1, got "
    command, name, i = draw(st.sampled_from(_INT_FIELDS))
    argv = [command] + _INT_ARGV[command]
    argv[1 + i] = spoil(argv[1 + i], False)
    assume(not re.fullmatch(r"-?[0-9]+", argv[1 + i]))  # a leading '-' is in the grammar
    return argv, None, 2, f"nearvec {command}: error: "


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_bad_integer_fields())
def test_a_bad_integer_field_exits_with_one_line(tmp_path, monkeypatch, case):
    """Exit 1 (files, traces, the environment) or 2 (argv), nothing on
    stdout and one error line, which names the field."""
    argv, budget, expected, start = case
    if budget is None:
        monkeypatch.delenv("NEARVEC_BUDGET", raising=False)
    else:
        monkeypatch.setenv("NEARVEC_BUDGET", budget)
    if expected == 1:
        paths = [tmp_path / f"in{i}" for i in range(1, len(argv))]
        for path, text in zip(paths, argv[1:]):
            path.write_text(text, encoding="utf-8")
        argv = argv[:1] + list(map(str, paths))
    code, out, err = _run_argv(argv)
    assert (code, out) == (expected, "")
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and errors[0].startswith(start)
    if expected == 1:
        assert err == errors[0] + "\n"


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "nearvec.cli", "count-maps", "3", "2", "2", "normal"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "161"


@pytest.mark.parametrize("argv,line", [
    (["seed", "3", "2", "0"], "m must be an integer >= 1, got 0"),
    (["count-maps", "3", "2", "-1", "all"], "dimension must be an integer >= 0, got -1"),
    (["count-subgroups", "3", "2", "3", "4"], "m must be an integer >= 4, got 3"),
    (["count-subgroups", "3", "2", "3", "0"], "k must be an integer >= 1, got 0"),
    (["witness", "1", "2"], "q must be an integer >= 2, got 1"),
    (["table", "3", "0"], "n must be an integer >= 1, got 0"),
    (["search-index", "3", "2", "0", "1", "1"], "m must be an integer >= 1, got 0"),
    (["search-index", "3", "2", "1", "0", "1"], "k must be an integer >= 1, got 0"),
    (["search-index", "3", "2", "1", "1", "1", "--limit", "-2"], "--limit must be an integer >= 0, got -2"),
])
def test_integer_arguments_refused(capsys, argv, line):
    # one ValueError text for every integer below its bound, exit 1
    assert run(capsys, *argv) == (1, "", f"error: {line}\n")
