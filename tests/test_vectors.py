import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from nearvec import (
    NfMatrix,
    build_nearfield,
    left_multiple_of,
    matrix_format,
    matrix_parse,
    vec_add,
    vec_neg,
    vec_scale_left,
    vec_scale_right,
    vec_sub,
)

X = 3


class TestVectorOps:
    def test_add_examples(self, dn32):
        assert vec_add(dn32, (1, X), (2, 6)) == (0, 0)
        assert vec_add(dn32, (5, 7), (0, 0)) == (5, 7)
        assert vec_add(dn32, (1, 0, 1), (1, 1, 0)) == (2, 1, 1)

    def test_dimension_mismatch(self, dn32):
        with pytest.raises(ValueError):
            vec_add(dn32, (1, 2), (1, 2, 3))
        with pytest.raises(ValueError):
            vec_sub(dn32, (1,), (1, 2))

    def test_neg_sub(self, dn32):
        v = (1, X, 8)
        assert vec_add(dn32, v, vec_neg(dn32, v)) == (0, 0, 0)
        assert vec_sub(dn32, v, v) == (0, 0, 0)

    def test_scale_examples(self, dn32):
        assert vec_scale_right(dn32, (1, X), 2) == (2, 6)  # (2, 2x)
        v = (5, 7, 2)
        assert vec_scale_right(dn32, v, 1) == v
        assert vec_scale_right(dn32, v, 0) == (0, 0, 0)

    def test_right_module_laws_exhaustive(self, dn32):
        """(v o r1) o r2 = v o (r1 o r2) and v o (r1+r2) = v o r1 + v o r2,
        for every vector of R^2 and every scalar pair."""
        vectors = list(itertools.product(range(9), repeat=2))
        for v in vectors:
            for r1 in range(9):
                vr1 = vec_scale_right(dn32, v, r1)
                for r2 in range(9):
                    assert vec_scale_right(dn32, vr1, r2) == vec_scale_right(
                        dn32, v, dn32.mul(r1, r2))
                    assert vec_scale_right(dn32, v, dn32.add(r1, r2)) == vec_add(
                        dn32, vr1, vec_scale_right(dn32, v, r2))

    def test_orbit_size_is_order(self, dn32):
        """vR has exactly |R| elements for every nonzero v, m <= 3."""
        for m in (1, 2, 3):
            for v in itertools.product(range(9), repeat=m):
                if not any(v):
                    continue
                orbit = {vec_scale_right(dn32, v, r) for r in range(9)}
                assert len(orbit) == 9


class TestCheckedCodes:
    # each of these once answered silently through negative table indices
    def test_scale_right_refuses_a_negative_scalar(self, dn32):
        # gave (8, 4)
        with pytest.raises(ValueError, match="^scalar code -1 out of range for order 9$"):
            vec_scale_right(dn32, (1, 2), -1)

    def test_add_refuses_a_negative_entry(self, dn32):
        # gave (6, 2)
        with pytest.raises(ValueError, match="^element code -1 out of range for order 9$"):
            vec_add(dn32, (1, 2), (-1, 0))

    def test_left_multiple_refuses_a_negative_entry(self, dn32):
        # gave None
        with pytest.raises(ValueError, match="^element code -1 out of range for order 9$"):
            left_multiple_of(dn32, (1, 2), (-1, 0))

    @pytest.mark.parametrize("call", [
        lambda nf, bad: vec_add(nf, bad, (0, 0)),
        lambda nf, bad: vec_sub(nf, (0, 0), bad),
        lambda nf, bad: vec_neg(nf, bad),
        lambda nf, bad: vec_scale_right(nf, bad, 1),
        lambda nf, bad: vec_scale_left(nf, 1, bad),
        lambda nf, bad: left_multiple_of(nf, bad, (1, 0)),
    ])
    @pytest.mark.parametrize("bad,message", [
        ((9, 0), "element code 9 out of range for order 9"),
        ((True, 0), "element code True is not an integer"),
        ((1.0, 0), "element code 1.0 is not an integer"),
    ])
    def test_every_kernel_checks_its_vectors(self, dn32, call, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(dn32, bad)

    @pytest.mark.parametrize("call", [
        lambda nf, r: vec_scale_right(nf, (1, 0), r),
        lambda nf, r: vec_scale_left(nf, r, (1, 0)),
    ])
    def test_scalars_are_checked(self, dn32, call):
        with pytest.raises(ValueError, match="^scalar code 9 out of range for order 9$"):
            call(dn32, 9)


class TestLeftMultiple:
    def test_examples(self, dn32):
        assert left_multiple_of(dn32, (2, 6), (1, X)) == 2
        assert left_multiple_of(dn32, (0, 0), (5, 7)) == 0
        assert left_multiple_of(dn32, (1, 0), (0, 1)) is None
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            left_multiple_of(dn32, (1, 0), (1,))

    def test_left_vs_right_action_differ(self, dn32):
        # u = v o r need not make u a left multiple of v; (1+x) o x != x o (1+x)
        v = (1, X)
        r = 4  # 1+x
        u = vec_scale_right(dn32, v, r)  # (1+x, x o (1+x)) = (1+x, 2+x)
        assert u == (4, 5)
        assert left_multiple_of(dn32, u, v) is None

    @settings(max_examples=300, derandomize=True)
    @given(data=st.data())
    def test_result_verifies(self, data):
        nf = build_nearfield(3, 2)
        m = data.draw(st.integers(1, 4))
        u = tuple(data.draw(st.integers(0, 8)) for _ in range(m))
        v = tuple(data.draw(st.integers(0, 8)) for _ in range(m))
        r = left_multiple_of(nf, u, v)
        if r is not None:
            assert vec_scale_left(nf, r, v) == u
        else:
            assert all(vec_scale_left(nf, s, v) != u for s in range(9))


MATRIX_TEXT = """\
# a demo matrix
DN 3 2
2 3
1 0 1
0 1 2
"""


class TestMatrixCodec:
    def test_parse(self, dn32):
        M = matrix_parse(MATRIX_TEXT)
        assert M.nf is dn32
        assert M.rows == ((1, 0, 1), (0, 1, 2))
        assert M.width == 3

    def test_roundtrip(self, dn32):
        M = NfMatrix.from_rows(dn32, [(1, 0, X), (4, 8, 2)])
        for style in ("poly", "code"):
            assert matrix_parse(matrix_format(M, style)) == M
        assert str(M) == matrix_format(M)

    def test_mixed_token_styles(self):
        M = matrix_parse("DN 3 2\n1 3\n2 1+x 7\n")
        assert M.rows == ((2, 4, 7),)

    def test_comments_ignored(self):
        M = matrix_parse("# hi\nDN 3 2\n# there\n1 2\n# rows\n1 2\n")
        assert M.rows == ((1, 2),)

    def test_errors(self):
        for text in ("", "# only a comment\n\n"):
            with pytest.raises(ValueError, match="^empty matrix file$"):
                matrix_parse(text)
        with pytest.raises(ValueError, match="^missing dimension line$"):
            matrix_parse("DN 3 2\n# no dimensions\n")
        with pytest.raises(ValueError, match="header"):
            matrix_parse("GF 3 2\n1 1\n1\n")
        # int() alone reads '_' separators, signs and other Unicode digits;
        # the error keeps the line and adds the integer reader's reason
        for header, reason in [("DN ３ 2", "q must be an integer >= 0, got '３'"),
                               ("DN 3_0 2", "q must be an integer >= 0, got '3_0'"),
                               ("DN +3 2", "q must be an integer >= 0, got '+3'"),
                               ("DN 3 -2", "n must be an integer >= 0, got '-2'"),
                               ("DN " + "3" * 5000 + " 2", "q has 5000 digits, more than 4300")]:
            with pytest.raises(ValueError, match=f"^bad header {re.escape(repr(header))}: {re.escape(reason)}$"):
                matrix_parse(f"{header}\n1 1\n1\n")
        for dims, reason in [("2", "expected '<k> <m>'"),
                             ("2 3 4", "expected '<k> <m>'"),
                             ("x 2", "dimension must be an integer >= 0, got 'x'"),
                             ("1 2.5", "dimension must be an integer >= 0, got '2.5'"),
                             ("1_0 2", "dimension must be an integer >= 0, got '1_0'"),
                             ("+1 2", "dimension must be an integer >= 0, got '+1'"),
                             ("١ 2", "dimension must be an integer >= 0, got '١'"),
                             ("1 ２", "dimension must be an integer >= 0, got '２'"),
                             ("-1 2", "dimension must be an integer >= 0, got '-1'")]:
            with pytest.raises(ValueError, match=f"^bad dimension line {re.escape(repr(dims))}: {re.escape(reason)}$"):
                matrix_parse(f"DN 3 2\n{dims}\n1 2\n")
        with pytest.raises(ValueError, match="no rows"):
            matrix_parse("DN 3 2\n0 3\n")
        with pytest.raises(ValueError, match="no columns"):
            matrix_parse("DN 3 2\n1 0\n")
        with pytest.raises(ValueError, match="ragged"):
            matrix_parse("DN 3 2\n1 3\n1 2\n")
        with pytest.raises(ValueError, match="expected 2 rows"):
            matrix_parse("DN 3 2\n2 2\n1 2\n")
        with pytest.raises(ValueError):
            matrix_parse("DN 3 2\n1 1\n9\n")  # code out of range

    def test_matrix_validation(self, dn32):
        with pytest.raises(ValueError, match="ragged"):
            NfMatrix(dn32, ((1, 2), (1,)), 2)
        with pytest.raises(ValueError, match="out of range"):
            NfMatrix(dn32, ((1, 9),), 2)
        empty = NfMatrix(dn32, (), 3)  # zero-row matrices are legal in memory
        assert empty.n_rows == 0
        with pytest.raises(ValueError, match="width required"):
            NfMatrix.from_rows(dn32, [])

    @pytest.mark.parametrize("bad", [1.0, "2", 1.5, True])
    def test_matrix_rejects_codes_that_are_not_ints(self, dn32, bad):
        # a float equal to a code once passed the range check, and ege
        # returned it in the basis
        with pytest.raises(ValueError, match=f"element code {bad!r} is not an int"):
            NfMatrix(dn32, ((bad, 2),), 2)
        with pytest.raises(ValueError, match="is not an int"):
            NfMatrix(dn32, ((1, 2), (0, bad)), 2)

    def test_matrix_refuses_bad_codes_by_the_fields_check(self, dn32, bad_code):
        bad, message = bad_code
        for rows in [((bad, 2),), ((1, 2), (0, bad))]:
            with pytest.raises(ValueError, match=f"^element code {re.escape(message)}$"):
                NfMatrix(dn32, rows, 2)
            with pytest.raises(ValueError, match=f"^element code {re.escape(message)}$"):
                NfMatrix.from_rows(dn32, rows)

    def test_columns(self, dn32):
        M = NfMatrix.from_rows(dn32, [(1, 2, 3), (4, 5, 6)])
        assert M.column(1) == (2, 5)
        assert M.columns == ((1, 4), (2, 5), (3, 6))

    def test_codec_memoises_only_the_codes_it_reads(self):
        # order 1042441: a 2 x 2 file stores the texts of its 4 entries, not
        # a table of every element
        nf = build_nearfield(1021, 2)
        nf._texts.clear()
        nf._codes.clear()
        text = "DN 1021 2\n2 2\n1 x\n1020x 5+7x\n"
        M = matrix_parse(text)
        assert M.rows == ((1, 1021), (1020 * 1021, 5 + 7 * 1021))
        assert len(nf._texts) <= 4 and len(nf._codes) <= 4
        assert matrix_format(M) == text
        assert len(nf._texts) <= 4 and len(nf._codes) <= 4


@pytest.mark.parametrize("text", [
    "DN 3 2\n1 2\n1\xa02\n", "DN 3 2\r\n1 2\r\n1\xa02\r\n", "DN 3 2\r1 2\r1\xa02\r", "DN 3 2\r1 2\n1\xa02\r\n",
], ids=["lf", "crlf", "cr", "mixed"])
def test_separator_error_numbers_lines_as_splitlines_does(text):
    # LF alone was counted, so the CR-only text named line 1
    with pytest.raises(ValueError, match=r"^matrix file line 3: whitespace '\\xa0' \(U\+00A0\)"):
        matrix_parse(text)
