import json
import subprocess
import sys

import pytest

from nearvec.cli import main

V3 = "DN 3 2\n2 3\n1 0 1\n1 1 0\n"
CMAP = "DN 3 2\n2 2\n1 1\n2 1\n"


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
        ("SWAP 0 1\n", "trace step 1: row 0 out of range"),
        ("SWAP 1 5\n", "trace step 1: row 5 out of range"),
        ("ELIM 1 9 1\n", "trace step 1: row 9 out of range"),
        ("TRICK 0 1 x x\n", "trace step 1: column index out of range"),
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

    def test_finds_index_two(self, capsys):
        # without a limit the R^3 pair scan would be long; bound=1 over R^2
        # already demonstrates counting of spanning tuples
        code, out, _ = run(capsys, "search-index", "3", "2", "2", "2", "1", "--limit", "50", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["searched"] == 50
        assert doc["result"]["spanning"] <= 50


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_args(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "3"])
        assert exc.value.code == 2


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "nearvec.cli", "count-maps", "3", "2", "2", "normal"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "161"
