import gc
import hashlib
import itertools
import random
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kernel_oracle import (ORACLE_FIELDS, _pmul, _ppowmod, column_index, eliminate_case, ref_add, ref_is_irreducible,
                           ref_mul, ref_neg, ref_powers, ref_row_axpy, ref_row_eliminate, run_row_eliminate)
from nearvec import Witness, build_nearfield, validate_dickson_pair
from nearvec.nearfield import (BUDGET_ENV, ORDER_LIMIT, PAIR_LIMIT, BudgetExceededError, Nearfield, _TimesG,
                               _ascii_int, _digits_of, _is_irreducible, _prime_factors)

# The classical 9x9 table of the twisted product on the order-9 nearfield,
# as usually printed: entry [a][b] there is b o a under the rule implemented
# here (the printed orientation is the transpose of "row acts on the left").
# Codes: 0,1,2, x=3, 1+x=4, 2+x=5, 2x=6, 1+2x=7, 2+2x=8.
PRINTED_TABLE = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 2, 3, 4, 5, 6, 7, 8),
    (0, 2, 1, 6, 8, 7, 3, 5, 4),
    (0, 3, 6, 2, 7, 4, 1, 8, 5),
    (0, 4, 8, 5, 2, 6, 7, 3, 1),
    (0, 5, 7, 8, 3, 2, 4, 1, 6),
    (0, 6, 3, 1, 5, 8, 2, 4, 7),
    (0, 7, 5, 4, 6, 1, 8, 2, 3),
    (0, 8, 4, 7, 1, 3, 5, 6, 2),
)

X = 3  # code of x in DN(3,2)


class TestPairValidation:
    def test_valid_pairs(self):
        for q, n in [(3, 2), (5, 2), (2, 1), (4, 3), (9, 2), (5, 4), (7, 3)]:
            assert validate_dickson_pair(q, n).valid, (q, n)

    def test_three_mod_four(self):
        v = validate_dickson_pair(3, 4)
        assert not v.valid
        assert "4 divides n" in v.reason

    def test_divisor_condition(self):
        v = validate_dickson_pair(5, 3)
        assert not v.valid
        assert "3 does not divide q-1 = 4" == v.reason

    def test_not_prime_power(self):
        v = validate_dickson_pair(6, 1)
        assert not v.valid
        assert "not a prime power" in v.reason

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            validate_dickson_pair(1, 1)
        with pytest.raises(ValueError):
            validate_dickson_pair(3, 0)
        with pytest.raises(ValueError, match="^q must be an integer >= 2, got 3.0$"):
            validate_dickson_pair(3.0, 2)
        with pytest.raises(ValueError, match="^q must be an integer >= 2, got True$"):
            validate_dickson_pair(True, 1)

    def test_bounded_before_factoring(self):
        # trial division of the Mersenne prime 2^61 - 1 would run for minutes
        for q, n in [(3, 2**61 - 1), (2**61 - 1, 2), (PAIR_LIMIT + 1, 1)]:
            with pytest.raises(ValueError, match=f"exceeds the pair test's limit {PAIR_LIMIT}"):
                validate_dickson_pair(q, n)
        # pairs at the limit keep their verdicts (2^32 - 5 is prime)
        assert validate_dickson_pair(PAIR_LIMIT, 1).valid
        assert validate_dickson_pair(PAIR_LIMIT - 5, 2).valid
        assert validate_dickson_pair(3, PAIR_LIMIT).reason == "q = 3 (mod 4) and 4 divides n"


def _product(polys, p):
    out = [1]
    for g in polys:
        out = _pmul(out, g, p)
    return out


class TestConstruction:
    def test_order_and_metadata(self, dn32):
        assert dn32.order == 9
        assert dn32.p == 3 and dn32.l == 1 and dn32.d == 2
        assert dn32.modulus == (1, 0, 1)
        assert dn32.generator == 4  # 1+x
        assert dn32.coset_table == (0, 1)

    def test_squares(self, dn32):
        squares = sorted(a for a in range(1, 9) if dn32.coset_index(a) == 0)
        assert squares == [1, 2, X, 6]  # 1, 2, x, 2x

    def test_dn52(self, dn52):
        assert dn52.order == 25
        assert dn52.find_witness() is not None

    def test_gf2_trivial_coupling(self):
        nf = build_nearfield(2, 1)
        assert nf.order == 2
        assert nf.coset_table == (0,)
        for a in nf.elements:
            for b in nf.elements:
                assert nf.mul(a, b) == nf.field_mul(a, b)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError, match="4 divides n"):
            build_nearfield(3, 4)

    def test_order_limit_rejected(self):
        # 1031 is prime and 2 divides 1030: a Dickson pair of order 1062961 > 2^20
        with pytest.raises(ValueError, match="order 1062961 exceeds the hard limit 1048576"):
            build_nearfield(1031, 2)
        # q alone above the limit is refused without computing q**n
        with pytest.raises(ValueError, match=f"^order {ORDER_LIMIT + 1}\\^1 exceeds the hard limit {ORDER_LIMIT}$"):
            build_nearfield(ORDER_LIMIT + 1, 1)
        # checked ahead of the cache, where 3.0 would find DN(3,2)
        build_nearfield(3, 2)
        with pytest.raises(ValueError, match="^q must be an integer >= 2, got 3.0$"):
            build_nearfield(3.0, 2)
        with pytest.raises(ValueError):
            build_nearfield(9, 8)  # 9^8 > 2^20, rejected before construction

    def test_cache_keeps_one_field_above_2_16(self, dn32):
        # small fields stay cached; building a second field above 2^16
        # releases the first, and a rebuilt field computes the same
        small = build_nearfield(3, 2)
        first = build_nearfield(65537, 1)
        assert build_nearfield(65537, 1) is first
        probe = [(a, first.mul(a, b), first.add(a, b), first.inv(a)) for a, b in ((3, 40000), (65536, 2))]
        released = weakref.ref(first)
        del first
        second = build_nearfield(131071, 1)
        gc.collect()
        assert released() is None
        assert build_nearfield(131071, 1) is second
        assert build_nearfield(3, 2) is small is dn32
        again = build_nearfield(65537, 1)
        assert [(a, again.mul(a, b), again.add(a, b), again.inv(a)) for a, b in ((3, 40000), (65536, 2))] == probe

    @pytest.mark.parametrize("q,n", [(2, 1), (5, 1), (3, 2), (9, 2), (4, 3), (7, 3), (5, 4)])
    def test_modulus_is_first_irreducible(self, q, n):
        # the reference scans every candidate, zero constant terms included
        nf = build_nearfield(q, n)
        first = next(tail + (1,) for tail in itertools.product(range(nf.p), repeat=nf.d)
                     if _is_irreducible(list(tail) + [1], nf.p))
        assert nf.modulus == first
        assert nf.d > 1 or nf.modulus == (0, 1)

    @pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (2, 6), (2, 10), (3, 1), (3, 4), (3, 6),
                                     (5, 3), (5, 4), (7, 3), (31, 2), (1021, 1)])
    def test_rabin_test_matches_the_list_polynomial_one(self, p, d):
        # every monic polynomial of degree d over GF(p)
        for tail in itertools.product(range(p), repeat=d):
            f = list(tail) + [1]
            assert _is_irreducible(f, p) == ref_is_irreducible(f, p), f

    @pytest.mark.parametrize("p,factors,f", [
        (2, ([1, 1], [1, 1, 1], [1, 1, 0, 1]), [1, 1, 0, 0, 1, 0, 1]),     # 1 + x + x^4 + x^6
        (3, ([1, 1], [1, 0, 1], [1, 2, 0, 1]), [1, 0, 0, 1, 0, 1, 1]),     # 1 + x^3 + x^5 + x^6
    ])
    def test_rabin_gcd_step_alone_rejects_a_product_of_degrees_1_2_3(self, p, factors, f):
        assert _product(factors, p) == f
        # x^(p^6) = x, as each factor's degree divides 6, while x^(p^3) - x
        # and x^(p^2) - x are not 0: only the gcd steps, on nonzero h, reject f
        x = [0, 1]
        assert _ppowmod(x, p ** 6, f, p) == x
        assert _ppowmod(x, p ** 3, f, p) != x and _ppowmod(x, p ** 2, f, p) != x
        assert not ref_is_irreducible(f, p)
        assert not _is_irreducible(f, p)

    @pytest.mark.parametrize("p,d", [(2, 15), (2, 20), (3, 12), (5, 8)])
    def test_rabin_test_matches_the_list_polynomial_one_above_the_exhaustive_range(self, p, d):
        rng = random.Random(f"rabin:{p},{d}")

        def monic(k):
            return [rng.randrange(p) for _ in range(k)] + [1]

        def irreducible(k):
            while not ref_is_irreducible(f := monic(k), p):
                pass
            return f

        cases = [monic(d) for _ in range(200)]
        for _ in range(20):
            a = rng.randint(1, d - 1)
            cases.append(_pmul(irreducible(a), irreducible(d - a), p))
        # distinct irreducibles of the largest proper divisor e of d: their
        # product passes x^(p^d) = x and only the gcd step for r = d/e rejects it
        e = d // _prime_factors(d)[0]
        for _ in range(10):
            parts = []
            while len(parts) < d // e:
                if (g := irreducible(e)) not in parts:
                    parts.append(g)
            f = _product(parts, p)
            assert _ppowmod([0, 1], p ** d, f, p) == [0, 1]
            cases.append(f)
        verdicts = [ref_is_irreducible(f, p) for f in cases]
        assert [_is_irreducible(f, p) for f in cases] == verdicts
        assert any(verdicts)

    @pytest.mark.parametrize("q,n", [(1021, 2), (29, 4), (5, 8), (7, 6), (16, 5)])
    def test_large_modulus_is_the_first_candidate_the_reference_accepts(self, q, n):
        # above the golden digests' orders; _find_modulus's order: constant
        # term first, from 1, as for d >= 2 a zero one means x divides f
        nf = Nearfield(q, n)    # not cached: its tables go with the test
        p, d = nf.p, nf.d
        first = next(tail + (1,) for tail in itertools.product(range(1, p), *[range(p)] * (d - 1))
                     if ref_is_irreducible(list(tail) + [1], p))
        assert nf.modulus == first

    def test_coset_residues_complete(self):
        for q, n in [(3, 2), (5, 2), (7, 2), (9, 2), (4, 3), (7, 3), (5, 4)]:
            nf = build_nearfield(q, n)
            assert sorted(nf.coset_table) == list(range(n))


class TestTableFidelity:
    def test_transpose_matches_printed(self, dn32):
        table = dn32.mul_table()
        for a in range(9):
            for b in range(9):
                assert table[a][b] == PRINTED_TABLE[b][a], (a, b)

    def test_square_rule(self, dn32):
        # a o b = a*b when a is a square, a*b^3 otherwise
        for a in range(1, 9):
            for b in range(9):
                if dn32.coset_index(a) == 0:
                    expected = dn32.field_mul(a, b)
                else:
                    expected = dn32.field_mul(a, dn32.field_pow(b, 3))
                assert dn32.mul(a, b) == expected
        with pytest.raises(ValueError, match="^exponent must be an integer >= 0, got -1$"):
            dn32.field_pow(2, -1)

    def test_zero_and_identity_rows(self, dn32):
        table = dn32.mul_table()
        assert table[0] == [0] * 9
        assert table[1] == list(range(9))

    def test_table_size_limit(self, monkeypatch):
        """Both tables are bounded by the element budget at order^2 cells,
        checked before any row is built: order 4096 is refused at the
        default budget and one cell below 4096^2, and admitted at 4096^2,
        where the row kernel is stopped at its first call rather than
        build 2^24 cells."""
        big = build_nearfield(16, 3)
        assert big.order == 4096
        monkeypatch.delenv(BUDGET_ENV, raising=False)

        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(big, "row_axpy", started)
        for table in (big.mul_table, big.add_table):
            with pytest.raises(BudgetExceededError, match=re.escape(
                    "operation table cells, |R|^2 = 4096^2 exceeds the element budget 1000000 (NEARVEC_BUDGET)")):
                table()
            monkeypatch.setenv(BUDGET_ENV, str(4096 ** 2 - 1))
            with pytest.raises(BudgetExceededError, match=r"4096\^2 exceeds the element budget 16777215 "):
                table()
            monkeypatch.setenv(BUDGET_ENV, str(4096 ** 2))
            with pytest.raises(Started):
                table()
            monkeypatch.delenv(BUDGET_ENV)


class TestArithmetic:
    def test_mul_examples(self, dn32):
        assert dn32.mul(X, X) == 2
        assert dn32.mul(4, X) == 7  # (1+x) o x = 1+2x
        for a in dn32.elements:
            assert dn32.mul(1, a) == a
            assert dn32.mul(a, 1) == a

    def test_add_examples(self, dn32):
        assert dn32.add(4, 8) == 0  # (1+x) + (2+2x)
        assert dn32.field_mul(X, X) == 2
        for a in dn32.elements:
            assert dn32.add(a, dn32.neg(a)) == 0

    def test_inverse_examples(self, dn32):
        assert dn32.inv(X) == 6  # 2x
        assert dn32.inv(1) == 1
        assert dn32.inv(2) == 2
        with pytest.raises(ZeroDivisionError):
            dn32.inv(0)

    def test_inverses_two_sided(self, dn32, dn52):
        for nf in (dn32, dn52):
            for a in range(1, nf.order):
                b = nf.inv(a)
                assert nf.mul(a, b) == 1 and nf.mul(b, a) == 1

    def test_coset_examples(self, dn32):
        assert dn32.coset_index(1) == 0
        assert dn32.coset_index(X) == 0
        assert dn32.coset_index(4) == 1  # 1+x
        with pytest.raises(ValueError):
            dn32.coset_index(0)

    def test_log_bijection(self, dn32):
        logs = {dn32.log(a) for a in range(1, 9)}
        assert logs == set(range(8))
        with pytest.raises(ValueError):
            dn32.log(0)


LAW_PAIRS = [(2, 1), (3, 2), (5, 2), (4, 3), (7, 2), (9, 2)]


@pytest.mark.parametrize("q,n", LAW_PAIRS)
def test_laws_exhaustive(q, n):
    """Associativity, identity, left distributivity, abelian addition and the
    zero annihilator, exhaustively for every order <= 81."""
    nf = build_nearfield(q, n)
    order = nf.order
    mt = nf.mul_table()
    at = nf.add_table()
    rng = range(order)
    for a in rng:
        mta, ata = mt[a], at[a]
        assert mt[0][a] == 0 and mta[0] == 0
        assert mt[1][a] == a and mta[1] == a
        for b in rng:
            assert ata[b] == at[b][a]  # abelian
            if a and b:
                assert mta[b] != 0     # nonzero elements closed under o
            mtab = mt[mta[b]]
            mtb = mt[b]
            atab = at[mta[b]]
            for c in rng:
                assert mtab[c] == mta[mtb[c]]        # (a o b) o c = a o (b o c)
                assert mta[at[b][c]] == atab[mta[c]]  # a o (b + c) = a o b + a o c


@pytest.mark.parametrize("q,n", [(5, 4), (7, 3)])
def test_laws_sampled_large_order(q, n):
    """Orders above 81 are beyond exhaustive reach; 10^5 seeded triples instead."""
    nf = build_nearfield(q, n)
    rng = random.Random(54625)
    mul, add = nf.mul, nf.add
    order = nf.order
    for _ in range(100_000):
        a = rng.randrange(order)
        b = rng.randrange(order)
        c = rng.randrange(order)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, b) == add(b, a)
    for a in range(1, order, 7):
        b = nf.inv(a)
        assert mul(a, b) == 1 and mul(b, a) == 1


def test_frobenius_additive(dn32, dn52):
    for nf in (dn32, dn52):
        q = nf.q
        for a in nf.elements:
            for b in nf.elements:
                assert nf.field_pow(nf.add(a, b), q) == nf.add(nf.field_pow(a, q), nf.field_pow(b, q))


class TestWitness:
    def test_first_witness_dn32(self, dn32):
        w = dn32.find_witness()
        assert w == Witness(1, X, X)

    def test_witness_violates(self, dn32, dn52):
        for nf in (dn32, dn52):
            w = nf.find_witness()
            lhs = nf.mul(nf.add(w.alpha, w.beta), w.lam)
            rhs = nf.add(nf.mul(w.alpha, w.lam), nf.mul(w.beta, w.lam))
            assert lhs != rhs

    def test_field_has_none(self):
        assert build_nearfield(5, 1).find_witness() is None
        assert build_nearfield(2, 1).find_witness() is None

    def test_witness_is_lexicographically_first(self, dn32):
        w = dn32.find_witness()
        assert (w.alpha, w.beta, w.lam) == _first_witness_full_scan(dn32)

    @pytest.mark.parametrize("q,n", [(5, 1), (5, 2), (7, 2), (4, 3), (9, 2), (13, 2), (7, 3)])
    def test_alpha_one_scan_matches_full_scan(self, q, n):
        nf = build_nearfield(q, n)
        w = nf.find_witness()
        assert (None if w is None else (w.alpha, w.beta, w.lam)) == _first_witness_full_scan(nf)


@pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (7, 2), (4, 3), (7, 3), (5, 4), (13, 3), (25, 2)])
def test_witness_probes_match_lambda_scan(q, n):
    """find_witness probes lam in {1, p, ..., p^(d-1)}; the oracle scans every lam."""
    nf = build_nearfield(q, n)
    w = nf.find_witness()
    assert (w.alpha, w.beta, w.lam) == _first_witness_alpha_one_scan(nf)


def _first_witness_alpha_one_scan(nf):
    """Reference: alpha = 1 (see find_witness) and every (beta, lam) in order."""
    order, add, mul = nf.order, nf.add, nf.mul
    for b in range(order):
        for lam in range(order):
            if mul(add(1, b), lam) != add(lam, mul(b, lam)):
                return (1, b, lam)
    return None


def _first_witness_full_scan(nf):
    """Reference: scan every (alpha, beta, lam) in lexicographic order."""
    order, add, mul = nf.order, nf.add, nf.mul
    for a in range(order):
        for b in range(order):
            for lam in range(order):
                if mul(add(a, b), lam) != add(mul(a, lam), mul(b, lam)):
                    return (a, b, lam)
    return None


def _reference_text(nf, a):
    """The text of code a, spelled digit by digit."""
    terms = [
        (str(c) if i == 0 else ("" if c == 1 else str(c)) + ("x" if i == 1 else f"x^{i}"))
        for i, c in enumerate(_digits_of(a, nf.p, nf.d)) if c
    ]
    return "+".join(terms) or "0"


class TestCheckCodes:
    def test_accepts_every_code_and_no_code(self, dn32):
        for codes in (range(9), (0,), (8, 8), (), []):
            dn32.check_codes(codes)

    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    def test_names_the_first_bad_entry_with_the_callers_noun(self, dn32, bad_code, at):
        bad, message = bad_code
        codes = [1, 2, 3]
        codes[at] = bad
        with pytest.raises(ValueError, match=f"^scalar code {re.escape(message)}$"):
            dn32.check_codes(codes, "scalar code")
        with pytest.raises(ValueError, match=f"^element code {re.escape(message)}$"):
            dn32.check_codes([*codes, 9.5])

    @pytest.mark.parametrize("style", ["poly", "code"])
    def test_format_elements_refuses_bad_codes(self, bad_code, style):
        # on a cold memo and on a warm one: True hashes like 1 and would hit
        bad, message = bad_code
        nf = Nearfield(3, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^code {re.escape(message)}$"):
                nf.format_elements([0, bad], style)
            with pytest.raises(ValueError, match=f"^code {re.escape(message)}$"):
                nf.format_element(bad, style)
            nf.format_elements(range(9), style)
        assert all(type(a) is int for a in nf._texts)


class TestElementCodec:
    def test_examples(self, dn32):
        assert dn32.parse_element("2+2x") == 8
        assert dn32.parse_element("0") == 0
        assert dn32.format_element(8) == "2+2x"
        assert dn32.format_element(0) == "0"
        nf73 = build_nearfield(7, 3)
        assert nf73.parse_element("x^2") == 49
        assert nf73.format_element(49) == "x^2"

    def test_roundtrip_all(self, dn32, dn52):
        for nf in (dn32, dn52):
            for a in nf.elements:
                assert nf.parse_element(nf.format_element(a, "poly")) == a
                assert nf.parse_element(nf.format_element(a, "code")) == a

    @settings(max_examples=200, derandomize=True)
    @given(a=st.integers(0, 342))
    def test_roundtrip_random_dn73(self, a):
        nf = build_nearfield(7, 3)
        assert nf.parse_element(nf.format_element(a)) == a

    def test_format_matches_digit_reference(self):
        # every spelling the term tables print, against the digit-by-digit rule
        for q, n in [(3, 2), (5, 4), (257, 1), (257, 2)]:
            nf = build_nearfield(q, n)
            for a in range(0, nf.order, max(1, nf.order // 3000)):
                text = _reference_text(nf, a)
                assert nf.format_element(a) == text
                assert nf.parse_element(text) == a

    @pytest.mark.parametrize("q,n", [(3, 2), (7, 3), (5, 4), (4, 3), (7, 1)])
    @pytest.mark.parametrize("first", ["format", "parse"])
    def test_memo_matches_digit_reference(self, q, n, first):
        # a new field holds no texts; whichever direction fills the memo, the
        # second round reads every code and text from it
        nf = Nearfield(q, n)
        assert nf._texts == {} and nf._codes == {}
        codes = list(nf.elements)
        reference = [_reference_text(nf, a) for a in codes]
        if first == "parse":
            assert nf.parse_elements(reference) == codes
        for _ in range(2):
            assert nf.format_elements(codes) == reference
            assert nf.parse_elements(reference) == codes
        assert nf._texts == dict(zip(codes, reference))
        assert nf._codes == dict(zip(reference, codes))

    @pytest.mark.parametrize("q,n,spellings", [
        (7, 3, [("1x", 7), ("x^1", 7), ("0001", 1), ("7", 7), ("10", 10), ("342", 342), ("01+x", 8),
                ("1 + x", 8), ("x^1+1x^2", 56), (" 3", 3), ("2x^2", 98)]),
        (3, 2, [("1x", 3), ("x^1", 3), ("0001", 1), ("3", 3), ("8", 8), ("00", 0), ("1+1x", 4)]),
        (5, 4, [("1x", 5), ("x^1", 5), ("0001", 1), ("5", 5), ("624", 624), ("1x^2", 25)]),
        (4, 3, [("1x", 2), ("x^1", 2), ("0001", 1), ("2", 2), ("63", 63)]),
        (7, 1, [("0001", 1), ("06", 6), ("6", 6), ("0", 0)]),
    ])
    def test_other_spellings_parse_through_the_memo(self, q, n, spellings):
        # the codes the general rules gave before the memo; only the codes'
        # canonical texts are stored, so the second round parses the same way
        nf = Nearfield(q, n)
        tokens, codes = [t for t, _ in spellings], [c for _, c in spellings]
        for _ in range(2):
            assert nf.parse_elements(tokens) == codes
            assert [nf.parse_element(t) for t in tokens] == codes
        assert nf._codes == {_reference_text(nf, a): a for a in codes}

    @pytest.mark.parametrize("bad", ["", "3x", "0x", "x^2", "x+1", "2+", "1x^0", "y", "9", "99", " x + 1 "])
    def test_parse_errors_are_not_memoised(self, bad):
        nf = Nearfield(3, 2)
        messages = set()
        for tokens in ([bad], ["x", bad], ["x", bad], [bad]):
            with pytest.raises(ValueError) as exc:
                nf.parse_elements(tokens)
            messages.add(str(exc.value))
            with pytest.raises(ValueError) as exc:
                nf.parse_element(bad)
            messages.add(str(exc.value))
        assert len(messages) == 1
        assert nf._codes == {"x": 3} and nf._texts == {3: "x"}

    def test_format_errors_are_not_memoised(self):
        nf = Nearfield(3, 2)
        for _ in range(2):
            for bad in (9, -1, 100):
                for style in ("poly", "code", "hex"):
                    with pytest.raises(ValueError, match=f"^code {bad} out of range for order 9$"):
                        nf.format_elements([1, bad], style)
            with pytest.raises(ValueError, match="^style must be 'poly' or 'code'$"):
                nf.format_element(3, "hex")
        assert nf._texts == {1: "1"} and nf._codes == {"1": 1}
        assert nf.format_elements(range(9), "code") == [str(a) for a in range(9)]
        assert nf._texts == {1: "1"}

    def test_memo_stores_int_codes(self):
        # a value that only compares equal to a code, True or 1.0, is refused
        # both before and after the code's text is stored, as True and 1.0
        # hash like 1 and would hit the memo; the memo holds ints only
        nf = Nearfield(3, 2)
        for _ in range(2):
            for bad in (True, 1.0):
                with pytest.raises(ValueError, match=f"^code {bad!r} is not an integer$"):
                    nf.format_elements([bad, 3])
            assert nf.format_elements([1, 3]) == ["1", "x"]
        assert [type(a) for a in nf.parse_elements(["1", "x"])] == [int, int]
        assert nf._texts == {1: "1", 3: "x"}

    def test_other_spellings_still_parse(self):
        nf = build_nearfield(7, 3)
        for text, code in [("1x", 7), ("x^1", 7), ("01+x", 8), ("1 + x", 8), ("2x^2", 98), ("6", 6)]:
            assert nf.parse_element(text) == code

    @pytest.mark.parametrize("q,n,text,message", [
        (3, 2, "", "empty element token"),
        (3, 2, "3x", "coefficient 3 out of range for GF(3)"),
        (3, 2, "0x", "coefficient 0 out of range for GF(3)"),
        (3, 2, "x^2", "power 2 out of range for degree 2"),
        (3, 2, "x+1", "powers not ascending in 'x+1'"),
        (3, 2, "2x+x", "powers not ascending in '2x+x'"),
        (3, 2, "1 + x + 2", "powers not ascending in '1 + x + 2'"),
        (3, 2, "2+", "malformed element term ''"),
        (3, 2, "1++x", "malformed element term ''"),
        (3, 2, "1x^0", "malformed element term '1x^0'"),
        (3, 2, "y", "malformed element term 'y'"),
        # ASCII digits only: an Arabic-Indic one, a superscript two
        (3, 2, "١+x", "malformed element term '١'"),
        (3, 2, "٣", "malformed element term '٣'"),
        (3, 2, "²", "malformed element term '²'"),
        (3, 2, "٢x", "malformed element term '٢x'"),
        (7, 3, "x^٢", "malformed element term 'x^٢'"),
        (3, 2, "99", "code 99 out of range for order 9"),
        (7, 3, "1+x^2+x", "powers not ascending in '1+x^2+x'"),
        (7, 3, "x^1+x", "powers not ascending in 'x^1+x'"),
        (7, 3, " 2x^2 + 3 ", "powers not ascending in ' 2x^2 + 3 '"),
        (5, 1, "x", "power 1 out of range for degree 1"),
        (5, 1, "1+2", "powers not ascending in '1+2'"),
    ])
    def test_parse_error_messages(self, q, n, text, message):
        with pytest.raises(ValueError) as exc:
            build_nearfield(q, n).parse_element(text)
        assert str(exc.value) == message

    def test_errors(self, dn32):
        for bad in ["", "3x", "x^2", "x+1", "2+", "1x^0", "y", "99"]:
            with pytest.raises(ValueError):
                dn32.parse_element(bad)
        with pytest.raises(ValueError):
            dn32.format_element(9)
        with pytest.raises(ValueError):
            dn32.format_element(3, style="hex")

    def test_only_ascii_blanks_are_stripped(self, dn32):
        # str.strip() trimmed any whitespace, so "\xa01+x " read as 1 + x
        assert dn32.parse_element(" \t1 + x\t ") == 4
        for text, term in [("\xa01+x ", "\xa01"), ("1+x\u2028", "x\u2028"), ("1\x85+x", "1\x85")]:
            with pytest.raises(ValueError, match=f"^malformed element term {re.escape(repr(term))}$"):
                dn32.parse_element(text)

    @pytest.mark.parametrize("text,message", [
        ("1" * 5000, "element code has 5000 digits, more than 4300"),
        ("x^" + "1" * 5000, "power has 5000 digits, more than 4300"),
        ("1" * 5000 + "x", "coefficient has 5000 digits, more than 4300"),
        ("x+" + "1" * 5000, "coefficient has 5000 digits, more than 4300"),
    ], ids=["code", "power", "coefficient", "constant-term"])
    def test_a_number_past_4300_digits_is_named(self, dn32, text, message):
        # int() refused these with its own text, which names no field
        with pytest.raises(ValueError) as exc:
            dn32.parse_element(text)
        assert str(exc.value) == message

    def test_leading_zeros_and_the_4300_digit_edge(self, dn32):
        assert dn32.parse_element("0" * 4299 + "5") == 5
        assert dn32.parse_element("x^" + "0" * 4299 + "1") == 3
        with pytest.raises(ValueError, match="^element code has 4301 digits, more than 4300$"):
            dn32.parse_element("0" * 4300 + "5")


class TestAsciiInt:
    """The one reader of integer text: ASCII [0-9]+, one '-' when low is None."""

    @pytest.mark.parametrize("text,value", [("0", 0), ("7", 7), ("0042", 42), ("9" * 40, 10 ** 40 - 1)])
    def test_accepts_ascii_digits(self, text, value):
        assert _ascii_int(text, "field") == value
        assert _ascii_int(text, "field", None) == value

    @pytest.mark.parametrize("text", [
        "", " 1", "1 ", "\xa01", "1\xa0", "+1", "1_0", "٢", "２", "²", "1٢", "0x1", "1.0", "1e3", "-", "--1",
        "- 1", "1-",
    ])
    def test_refuses_everything_else(self, text):
        # int() reads most of these: spaces, '+', '_' and other Unicode digits
        for low in (0, None):
            bound = "" if low is None else " >= 0"
            with pytest.raises(ValueError) as exc:
                _ascii_int(text, "row", low)
            assert str(exc.value) == f"row must be an integer{bound}, got {text!r}"

    def test_sign_only_when_asked(self):
        assert _ascii_int("-3", "row", None) == -3
        assert _ascii_int("-0", "row", None) == 0
        with pytest.raises(ValueError, match=r"^row must be an integer >= 0, got '-3'$"):
            _ascii_int("-3", "row")

    def test_low_bound(self):
        assert _ascii_int("1", "NEARVEC_BUDGET", 1) == 1
        for text in ("0", "00", "-1"):
            with pytest.raises(ValueError) as exc:
                _ascii_int(text, "NEARVEC_BUDGET", 1)
            assert str(exc.value) == f"NEARVEC_BUDGET must be an integer >= 1, got {text!r}"

    def test_digit_limit(self):
        assert _ascii_int("1" * 4300, "field") == int("1" * 4300)
        assert _ascii_int("-" + "1" * 4300, "field", None) == -int("1" * 4300)
        for text, low in (("1" * 4301, 0), ("-" + "1" * 4301, None)):
            with pytest.raises(ValueError, match="^field has 4301 digits, more than 4300$"):
                _ascii_int(text, "field", low)

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))
    def test_agrees_with_the_grammar(self, text):
        for low, grammar in ((0, r"[0-9]+"), (None, r"-?[0-9]+")):
            if re.fullmatch(grammar, text, re.ASCII):
                assert _ascii_int(text, "field", low) == int(text)
            else:
                with pytest.raises(ValueError, match="^field must be an integer"):
                    _ascii_int(text, "field", low)


# -- the Zech-logarithm tables and the row kernel ---------------------------------
# ORACLE_FIELDS holds GF(2), DN(3,2), DN(4,3) and GF(256), up to order 256,
# and DN(7,3), DN(5,4), GF(257) and DN(257,2) above it; add and the row
# kernels are the Zech formula on all of them, and kernel_oracle's
# reference reads none of the tables

@st.composite
def _kernel_case(draw):
    nf = build_nearfield(*draw(st.sampled_from(ORACLE_FIELDS)))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, nf.order - 1))
    m = draw(st.integers(1, 8))
    row = draw(st.lists(entry, min_size=m, max_size=m))
    acc = draw(st.one_of(st.none(), st.lists(entry, min_size=m, max_size=m)))
    return nf, tuple(row), draw(entry), acc if acc is None else tuple(acc)


@settings(max_examples=400, deadline=None)
@given(_kernel_case())
def test_row_axpy_matches_reference(case):
    nf, row, c, acc = case
    assert nf.row_axpy(row, c, acc) == ref_row_axpy(nf, row, c, acc)


@st.composite
def _eliminate_case(draw):
    # a pivot row, target rows and (s, c) targets, repeats allowed: zero
    # target entries fill in, the first target's entries equal to row o c
    # cancel, and c = 0 is drawn; over DN(3,2) and GF(256), up to order
    # 256, and DN(7,3) and DN(5,4) above it
    nf = build_nearfield(*draw(st.sampled_from([(3, 2), (256, 1), (7, 3), (5, 4)])))
    return (nf, *eliminate_case(nf, random.Random(draw(st.integers(0, 2 ** 32))), draw(st.integers(1, 8)), 3))


@settings(max_examples=400, deadline=None)
@given(_eliminate_case())
def test_row_eliminate_matches_repeated_row_axpy(case):
    """The rows, updated in place, against one row_axpy per target and the
    reference, and the column index the kernel keeps against the one
    recomputed from them."""
    nf, row, rows, targets = case
    want = list(rows)
    for s, c in targets:
        want[s] = nf.row_axpy(row, nf.neg(c), want[s])
    got, index = run_row_eliminate(nf, row, rows, targets)
    assert got == want == ref_row_eliminate(nf, row, rows, targets)
    assert index == column_index(want, len(row))


@settings(max_examples=200, deadline=None)
@given(_eliminate_case())
def test_row_eliminate_pivot_that_is_a_target_row(case):
    """The pivot passed as the very list of one of the rows, a target among
    others: every target, that row included, is updated from the pivot as
    passed, which the kernel reads before any target changes."""
    nf, _, rows, targets = case
    r = targets[0][0] if targets else 0
    targets = [(r, 1)] + targets
    want = ref_row_eliminate(nf, rows[r], rows, targets)
    got, index = run_row_eliminate(nf, rows[r], rows, targets, pivot=r)
    assert got == want and index == column_index(want, len(rows[r]))


@settings(max_examples=400, deadline=None)
@given(_kernel_case())
def test_add_sub_match_reference(case):
    nf, row, _, acc = case
    for a, b in zip(row, acc or row):
        assert nf.add(a, b) == ref_add(nf, a, b)
        assert nf.sub(a, b) == ref_add(nf, a, ref_neg(nf, b))


@pytest.mark.parametrize("q,n", [(2, 1), (4, 3), (3, 2), (7, 3), (257, 1)])
def test_neg_matches_digitwise(q, n):
    # neg is read off exp: -1 = g^((order-1)/2) for odd p, and 1 for p = 2
    nf = build_nearfield(q, n)
    assert [nf.neg(a) for a in nf.elements] == [ref_neg(nf, a) for a in nf.elements]


@pytest.mark.parametrize("q,n", [(7, 3), (257, 2)])
def test_zech_edge_cases(q, n):
    """x + (-x) hits the sentinel, zeros pass through, c = 0 clears."""
    nf = build_nearfield(q, n)
    for a in range(1, nf.order, max(1, nf.order // 500)):
        assert nf.add(a, nf.neg(a)) == 0
        assert nf.add(a, 0) == nf.add(0, a) == a
        assert nf.row_axpy((a, 0), nf.neg(1), (a, a)) == (0, a)
        assert nf.row_axpy((a, 0), 0, (5, a)) == (5, a)
        assert nf.row_axpy((a, 0), 0) == (0, 0)


def test_add_table_matches_digitwise_on_every_small_pair():
    """add_table (through the row kernel) and add, and so the Zech tables
    behind both, against digitwise sums on every Dickson pair of order
    <= 256."""
    pairs = [(q, n) for q in range(2, 257) for n in range(1, 9)
             if q ** n <= 256 and validate_dickson_pair(q, n)]
    assert len(pairs) > 60
    for q, n in pairs:
        nf = build_nearfield(q, n)
        o, p, elems = nf.order - 1, nf.p, range(nf.order)
        assert len(nf._zech) == 2 * o and len(nf._exp) == 3 * o
        digits = [_digits_of(a, p, nf.d) for a in elems]
        weights = [p ** i for i in range(nf.d)]
        ref = [[sum(w * ((x + y) % p) for w, x, y in zip(weights, da, db)) for db in digits]
               for da in digits]
        assert nf.add_table() == ref, (q, n)
        # add itself, which add_table no longer calls
        assert [[nf.add(a, b) for b in elems] for a in elems] == ref, (q, n)


@pytest.mark.parametrize("q,n", [(3, 2), (7, 2), (4, 3), (256, 1)])
def test_row_kernel_add_table_matches_add(q, n):
    """The row kernels against per-entry add, sub and mul on every operand at
    orders 9, 49, 64 and 256: add_table (row_axpy with acc), row_axpy with
    and without acc for every c, and row_eliminate with every multiplier,
    with the column index it keeps."""
    nf = build_nearfield(q, n)
    elems = range(nf.order)
    add, sub, mul = nf.add, nf.sub, nf.mul
    assert nf.add_table() == [[add(a, b) for b in elems] for a in elems]
    rng = random.Random(f"row kernel:{q},{n}")
    acc = tuple(rng.randrange(nf.order) for _ in elems)
    for c in elems:
        assert nf.row_axpy(elems, c) == tuple(mul(a, c) for a in elems)
        assert nf.row_axpy(elems, c, acc) == tuple(add(x, mul(a, c)) for x, a in zip(acc, elems))
    # the pivot row holds every element; each multiplier hits a random row, a
    # zero row (fill-in) and that row's own multiple (cancellation)
    row = tuple(elems)
    targets = [(s, c) for c in elems for s in range(3)]
    rows = [acc, (0,) * nf.order, nf.row_axpy(row, 1)]
    want = list(rows)
    for s, c in targets:
        want[s] = tuple(sub(x, mul(a, c)) for x, a in zip(want[s], row))
    got, index = run_row_eliminate(nf, row, rows, targets)
    assert got == want == ref_row_eliminate(nf, row, rows, targets)
    assert index == column_index(want, nf.order)


def _entries(value) -> int:
    """The entries of an attribute, counted through nested sequences and dicts."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (tuple, list)):
        return 0
    return sum(1 + _entries(v) for v in value)


@pytest.mark.parametrize("q,n", [(3, 2), (7, 2), (4, 3), (256, 1), (7, 3), (5, 4), (257, 2)])
def test_zech_tables_are_linear_in_the_order(q, n):
    """No field attribute holds order^2 entries at any order, with the row
    kernels run: each holds at most 3 * order (the doubled exp and its
    zeros)."""
    nf = Nearfield(q, n)    # not cached: the attributes of this build only
    nf.row_axpy((1, 2, 0), 3, (0, 4, 5))
    want = ref_row_eliminate(nf, (1, 2, 0), [(0, 4, 5)], [(0, 3)])
    assert run_row_eliminate(nf, (1, 2, 0), [(0, 4, 5)], [(0, 3)]) == (want, column_index(want, 3))
    o = nf.order - 1
    assert len(nf._zech) == 2 * o and len(nf._exp) == 3 * o and len(nf._cosets) == nf.order
    sizes = {name: _entries(v) for name, v in vars(nf).items()}
    assert max(sizes.values()) <= 3 * nf.order, sizes


def _field_digest(nf):
    h = hashlib.sha256()
    # inverse and negation as order-length tuples, with 0 in the inverse's
    # slot 0, the form in which the golden digests hash them
    invt = (0,) + tuple(map(nf.inv, range(1, nf.order)))
    for item in (nf.modulus, nf.generator, nf._exp, nf._log, invt, nf._zech, nf._cosets,
                 tuple(map(nf.neg, nf.elements)), nf.find_witness()):
        h.update(repr(item).encode() + b"\n")
    return h.hexdigest()


def test_every_small_field_matches_its_golden_digest():
    """Modulus, generator, tables and witness of all 352 Dickson pairs of
    order <= 2000, p = 2 and n = 1 among them, pinned by the digests of the
    list-polynomial build that preceded the lane codes."""
    want = {}
    for line in (Path(__file__).parent / "field_digests.txt").read_text().splitlines():
        if not line.startswith("#"):
            q, n, digest = line.split()
            want[int(q), int(n)] = digest
    pairs = [(q, n) for q in range(2, 2001) for n in range(1, 11)
             if q ** n <= 2000 and validate_dickson_pair(q, n)]
    assert len(pairs) == len(want) == 352
    # Nearfield, not build_nearfield: the 352 fields are not kept in the cache
    assert {(q, n): _field_digest(Nearfield(q, n)) for q, n in pairs} == want


# the extreme shapes of the lane step: p = 2 at d = 20 (20 one-bit digits
# in two-bit lanes), the largest prime field, whose step is g^k * g % p,
# and the largest order for p = 29 (two digits a half) and for p = 1021
# (one 11-bit lane a half)
@pytest.mark.parametrize("q,n", [(1048576, 1), (1048573, 1), (29, 4), (1021, 2)])
def test_exp_matches_the_list_polynomial_step_on_extreme_shapes(q, n):
    nf = Nearfield(q, n)  # not cached: its tables go with the test
    o = nf.order - 1
    rng = random.Random(f"exp:{q},{n}")
    # exp is doubled, so a window may run past g^(order-2) into g^0 = 1
    for k in [0, o - 4] + rng.sample(range(o), 6):
        assert list(nf._exp[k:k + 8]) == ref_powers(nf, k, 8), (nf, k)
        # inverse and negation where the golden digests do not reach
        a = nf._exp[k]
        assert nf.mul(a, nf.inv(a)) == nf.mul(nf.inv(a), a) == 1, (nf, k)
        assert nf.add(a, nf.neg(a)) == 0 and nf.neg(a) == ref_neg(nf, a), (nf, k)
    for table in _TimesG(nf.p, nf.modulus, nf.generator).tables:
        assert len(table) <= 1 << 16


def test_lane_step_tables_are_bounded_at_every_order():
    # every prime power p^d <= ORDER_LIMIT is the order of a field DN(p^d, 1);
    # a table has p^ceil(d/2) entries, whatever the modulus and generator
    sizes = {}
    for p in (p for p in range(2, 1025) if _prime_factors(p) == [p]):
        d = 2
        while p ** d <= ORDER_LIMIT:
            tables = _TimesG(p, (1,) + (0,) * (d - 1) + (1,), 1).tables
            sizes[p, d] = [len(t) for t in tables]
            d += 1
    assert max(max(s) for s in sizes.values()) == 101 ** 2 <= 1 << 16
    assert sizes[2, 20] == [2 ** 10, 2 ** 10] and sizes[1021, 2] == [1021, 1021]


@pytest.mark.parametrize("call,field,low", [
    pytest.param(lambda v: validate_dickson_pair(v, 2), "q", 2, id="pair-q"),
    pytest.param(lambda v: validate_dickson_pair(3, v), "n", 1, id="pair-n"),
    pytest.param(lambda v: build_nearfield(v, 2), "q", 2, id="build-q"),
    pytest.param(lambda v: build_nearfield(3, v), "n", 1, id="build-n"),
    pytest.param(lambda v: Nearfield(v, 2), "q", 2, id="nearfield-q"),
    pytest.param(lambda v: Nearfield(3, v), "n", 1, id="nearfield-n"),
    pytest.param(lambda v: build_nearfield(3, 2).field_pow(3, v), "exponent", 0, id="field-pow"),
])
def test_integer_arguments_refused(refuse_int, call, field, low):
    # 3.0 and True raised the package's only TypeError for an argument;
    # field_pow(3, True) returned 3 and field_pow(3, 1.5) raised TypeError
    refuse_int(call, field, low)


@pytest.mark.parametrize("method", ["log", "coset_index"])
def test_log_and_coset_index_check_the_code(dn32, bad_code, method):
    # log(-1) was 5 and coset_index(-1) 1, read from the end of the log
    # table, and log(9) raised IndexError
    a, message = bad_code
    with pytest.raises(ValueError, match=f"^element code {re.escape(message)}$"):
        getattr(dn32, method)(a)
    with pytest.raises(ValueError, match="^(log of 0 undefined|coset index undefined for 0)$"):
        getattr(dn32, method)(0)
