import collections
import gc
import importlib
import itertools
import random
import re
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from nearvec import (
    BudgetExceededError,
    VectorSet,
    build_nearfield,
    check_lc1_cardinality,
    gen_closure,
    is_gamma_dependent,
    lc_index,
    lc_step,
    pack_vector,
    unpack_vector,
    vec_add,
    vec_neg,
    vec_scale_right,
)
from nearvec.closure import gen_size
from nearvec.nearfield import BUDGET_ENV, require_budget

closure_module = importlib.import_module("nearvec.closure")

X = 3


class TestPacking:
    def test_roundtrip(self, dn32):
        for m in (1, 2, 3):
            for v in itertools.islice(itertools.product(range(9), repeat=m), 100):
                assert unpack_vector(dn32, m, pack_vector(dn32, v)) == v

    def test_vector_set_canonical(self, dn32):
        S = VectorSet.from_vectors(dn32, 2, [(1, 0), (0, 1), (1, 0)])
        assert len(S) == 2
        assert S.codes == tuple(sorted(S.codes))
        assert (1, 0) in S and (2, 2) not in S


class TestLcStep:
    def test_standard_basis_spans(self, dn32):
        S = VectorSet.from_vectors(dn32, 2, [(1, 0), (0, 1)])
        assert len(lc_step(S)) == 81

    def test_empty_gives_zero(self, dn32):
        S = VectorSet.from_vectors(dn32, 2, [])
        assert lc_step(S).codes == (0,)

    def test_single_vector_orbit(self, dn32):
        S = VectorSet.from_vectors(dn32, 2, [(1, X)])
        step = lc_step(S)
        assert len(step) == 9
        vecs = step.vectors()
        assert set(vecs) == {vec_scale_right(dn32, (1, X), r) for r in range(9)}
        # additively closed thanks to left distributivity
        for u in vecs:
            for v in vecs:
                assert vec_add(dn32, u, v) in set(vecs)

    def test_monotone(self, dn32):
        rng = random.Random(7)
        for _ in range(20):
            k = rng.randint(1, 3)
            vs = [tuple(rng.randrange(9) for _ in range(3)) for _ in range(k)]
            cur = VectorSet.from_vectors(dn32, 3, vs)
            for _ in range(3):
                nxt = lc_step(cur)
                assert set(cur.codes) - {0} <= set(nxt.codes)
                cur = nxt

    def test_budget(self, dn32):
        S = VectorSet.from_vectors(dn32, 7, [(1,) * 7])
        with pytest.raises(BudgetExceededError):
            lc_step(S)  # 9^7 > 10^6

    def test_budget_env(self, dn32, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV, "100")
        S = VectorSet.from_vectors(dn32, 3, [(1, 0, 1)])
        with pytest.raises(BudgetExceededError, match=BUDGET_ENV):
            lc_step(S)
        monkeypatch.setenv(BUDGET_ENV, "729")  # |R|^3
        assert len(lc_step(S)) == 9

    def test_guard_refuses_a_power_before_computing_it(self):
        # 3^(10^18) could never be computed; the default budget 10^6 has 20 bits
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError) as refused:
            require_budget("x", 3, 10 ** 18)
        assert time.perf_counter() - t0 < 1
        assert str(refused.value) == "x = 3^1000000000000000000 exceeds the element budget 1000000 (NEARVEC_BUDGET)"
        with pytest.raises(BudgetExceededError, match="^y = a 5001-bit number exceeds"):
            require_budget("y", 2 ** 5000)
        with pytest.raises(BudgetExceededError, match="^z = 1000001 exceeds"):
            require_budget("z", 1000001)
        assert require_budget("z", 10, 6) == 10 ** 6
        assert require_budget("w", 1, 10 ** 18) == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5", ""])
    def test_bad_budget_env(self, dn32, monkeypatch, value):
        monkeypatch.setenv(BUDGET_ENV, value)
        S = VectorSet.from_vectors(dn32, 2, [(1, 0)])
        with pytest.raises(ValueError, match=f"{BUDGET_ENV} must be an integer >= 1, got {value!r}"):
            lc_step(S)


class TestGenClosure:
    def test_spans_r3(self, dn32):
        S = VectorSet.from_vectors(dn32, 3, [(1, 0, 1), (1, 1, 0)])
        assert len(gen_closure(S)) == 729

    def test_single_vector(self, dn32):
        S = VectorSet.from_vectors(dn32, 2, [(1, X)])
        assert len(gen_closure(S)) == 9

    def test_empty(self, dn32):
        S = VectorSet.from_vectors(dn32, 2, [])
        assert gen_closure(S).codes == (0,)

    def test_stabilization_is_fixpoint(self, dn32):
        rng = random.Random(11)
        for _ in range(15):
            vs = [tuple(rng.randrange(9) for _ in range(2)) for _ in range(2)]
            G = gen_closure(VectorSet.from_vectors(dn32, 2, vs))
            assert lc_step(G).codes == G.codes

    def test_scaling_rows_die_with_their_field(self):
        # the closure's scaling columns are cached on the field, so a field above
        # 2^16 that reached closure still leaves build_nearfield's one-slot cache
        first = build_nearfield(65537, 1)
        assert len(gen_closure(VectorSet.from_vectors(first, 1, [(3,)]))) == 65537
        released = weakref.ref(first)
        del first
        second = build_nearfield(131071, 1)
        gc.collect()
        assert released() is None
        assert len(gen_closure(VectorSet.from_vectors(second, 1, [(5,)]))) == 131071

    def test_scaling_rows_built_once_per_field(self, dn32):
        # one column per (m, r), which lc_step reads as linmaps does; over
        # DN(3,2) it reads x's column alone, as w o 1 = w needs none
        scale_column = closure_module.scale_column
        for r in (1, 3, 5):
            assert scale_column(dn32, 2, r) is scale_column(dn32, 2, r)
        lc_step(VectorSet.from_vectors(dn32, 2, [(1, X)]))
        assert dn32._scale_columns[2, X] is scale_column(dn32, 2, X)

    def test_closed_under_operations(self, dn32):
        G = gen_closure(VectorSet.from_vectors(dn32, 2, [(1, 5)]))
        vecs = set(G.vectors())
        for u in vecs:
            assert vec_neg(dn32, u) in vecs
            for r in range(9):
                assert vec_scale_right(dn32, u, r) in vecs
            for v in vecs:
                assert vec_add(dn32, u, v) in vecs


class TestLcIndex:
    def test_two_row_spanning_pair(self, dn32):
        assert lc_index(dn32, [(1, 0, 1), (1, 1, 0)]) == 2

    def test_standard_basis(self, dn32):
        assert lc_index(dn32, [(1, 0), (0, 1)]) == 1

    def test_undefined(self, dn32):
        with pytest.raises(ValueError, match="index undefined"):
            lc_index(dn32, [(1, X)])

    @pytest.mark.parametrize("entry", [lc_index, check_lc1_cardinality])
    def test_no_vectors_refused(self, dn32, entry):
        with pytest.raises(ValueError, match="^need at least one vector$"):
            entry(dn32, [])

    def test_all_of_the_space_has_index_zero(self, dn32):
        # LC_0(V) is V itself
        assert lc_index(dn32, [(a,) for a in dn32.elements]) == 0
        assert lc_index(dn32, list(itertools.product(range(9), repeat=2))) == 0
        assert lc_index(dn32, [(a,) for a in range(1, 9)]) == 1


class TestGammaDependence:
    def test_scaled_pair_dependent(self, dn32):
        # both vectors generate the same orbit; the first index already witnesses it
        dep, idx = is_gamma_dependent(dn32, [(1, 0), (2, 0)], 1)
        assert dep and idx == 0

    def test_disjoint_supports_independent(self, dn32):
        assert is_gamma_dependent(dn32, [(1, 0), (0, 1)], 1) == (False, None)

    def test_spanning_pair_2_independent(self, dn32):
        assert is_gamma_dependent(dn32, [(1, 0, 1), (1, 1, 0)], 2) == (False, None)

    def test_zero_vector_dependent(self, dn32):
        dep, idx = is_gamma_dependent(dn32, [(0, 0)], 1)
        assert dep and idx == 0

    def test_no_vectors_are_independent(self, dn32):
        assert is_gamma_dependent(dn32, [], 1) == (False, None)

    def test_gamma_must_be_positive(self, dn32):
        with pytest.raises(ValueError):
            is_gamma_dependent(dn32, [(1, 0)], 0)

    def test_gamma_must_be_an_int(self, dn32):
        # 1.5 once grew the strata to the fixpoint and answered as gamma = 2,
        # and True passed as 1
        vectors = [(8, 7, 4), (8, 2, 5), (6, 4, 0)]
        assert is_gamma_dependent(dn32, vectors, 1) == (True, 1)
        assert is_gamma_dependent(dn32, vectors, 2) == (True, 0)
        for gamma in (1.5, True, 2.0):
            with pytest.raises(ValueError, match=f"^gamma must be an integer >= 1, got {gamma!r}$"):
                is_gamma_dependent(dn32, vectors, gamma)


class TestElementCodes:
    """Every closure entry that takes vectors refuses a code that is not an
    int in range, by the field's one check, before it packs the vector."""

    @pytest.mark.parametrize("entry", [
        lambda nf, V: VectorSet.from_vectors(nf, 2, V),
        lambda nf, V: V[-1] in VectorSet.from_vectors(nf, 2, V[:-1]),
        lc_index,
        check_lc1_cardinality,
        lambda nf, V: gen_closure(VectorSet.from_vectors(nf, 2, V)),
        lambda nf, V: gen_size(VectorSet.from_vectors(nf, 2, V)),
        lambda nf, V: is_gamma_dependent(nf, V, 1),
        lambda nf, V: is_gamma_dependent(nf, V[::-1], 1),
    ], ids=["from_vectors", "contains", "lc_index", "lc1_cardinality", "gen_closure", "gen_size",
            "gamma-bad-last", "gamma-bad-first"])
    def test_entries_refuse_bad_codes(self, dn32, bad_code, entry):
        # the others, (1, 0) and (0, 1), span R^2, so is_gamma_dependent
        # with the bad vector first would answer (True, 0) before it
        # reached the others' set, if it did not check every vector first
        bad, message = bad_code
        with pytest.raises(ValueError, match=f"^element code {re.escape(message)}$"):
            entry(dn32, [(1, 0), (0, 1), (0, bad)])

    def test_codes_past_the_order_are_not_packed_as_other_vectors(self, dn32):
        # (10, 0) once packed as the code of (1, 1) and (-1, 0) as (8, 8):
        # lc_index returned 1 and is_gamma_dependent (True, 0)
        for V in ([(10, 0), (0, 1)], [(-1, 0), (0, 1)]):
            with pytest.raises(ValueError, match=" out of range for order 9$"):
                lc_index(dn32, V)
        with pytest.raises(ValueError, match="^element code 10 out of range for order 9$"):
            is_gamma_dependent(dn32, [(10, 0), (1, 1)], 1)
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            (1,) in VectorSet.from_vectors(dn32, 2, [(1, 0)])


class TestLc1Cardinality:
    def test_independent_pair_in_r3(self, dn32):
        rep = check_lc1_cardinality(dn32, [(1, 0, 1), (1, 1, 0)])
        assert rep.two_independent
        assert rep.size == 81 == rep.bound
        assert rep.equality and rep.within_bound and rep.k_le_m

    def test_dependent_pair(self, dn32):
        rep = check_lc1_cardinality(dn32, [(1, 0), (2, 0)])
        assert not rep.two_independent
        assert rep.size == 9 < rep.bound
        assert rep.within_bound

    def test_single_vector(self, dn32):
        rep = check_lc1_cardinality(dn32, [(1, X)])
        assert rep.size == 9 == rep.bound

    def test_bound_holds_randomly(self, dn32):
        rng = random.Random(23)
        for _ in range(40):
            k = rng.randint(1, 3)
            m = rng.randint(1, 3)
            vs = [tuple(rng.randrange(9) for _ in range(m)) for _ in range(k)]
            rep = check_lc1_cardinality(dn32, vs)
            assert rep.within_bound
            if rep.two_independent:
                assert rep.equality and rep.k_le_m


# -- oracle: the elimination-based step that coset growth replaced -----------

def _padd(p, a, b):
    out, mult = 0, 1
    while a or b:
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def _elimination_lc_step(S):
    """LC -> LC' by reducing the products to a GF(p)-basis, then enumerating its span."""
    nf, m = S.nf, S.m
    p, ndig = nf.p, m * nf.d
    basis, pivots = [], []
    for v in S.vectors():
        for r in range(nf.order):
            c = pack_vector(nf, vec_scale_right(nf, v, r))
            digits = [c // p ** i % p for i in range(ndig)]
            for row, piv in zip(basis, pivots):
                f = digits[piv]
                if f:
                    digits = [(x - f * y) % p for x, y in zip(digits, row)]
            piv = next((i for i, x in enumerate(digits) if x), None)
            if piv is not None:
                inv = pow(digits[piv], -1, p)
                basis.append([x * inv % p for x in digits])
                pivots.append(piv)
    out = [0]
    for row in basis:
        b = sum(x * p ** i for i, x in enumerate(row))
        grown, kb = list(out), b
        for _ in range(p - 1):
            grown.extend(_padd(p, x, kb) for x in out)
            kb = _padd(p, kb, b)
        out = grown
    return VectorSet(nf, m, tuple(sorted(out)))


# DN(3,2)^4 is a 6561-element space (above the old 1024-element addition
# table), GF(2)^12 spans two 8-digit chunks, and DN(5,2)^2, GF(7)^3 and
# DN(7,2)^2 cover the other primes
ORACLE_SHAPES = [(3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 2, 4), (5, 2, 1), (5, 2, 2),
                 (2, 1, 12), (7, 1, 3), (7, 2, 2)]


@st.composite
def _oracle_cases(draw, shapes=ORACLE_SHAPES, max_vectors=3):
    q, n, m = draw(st.sampled_from(shapes))
    nf = build_nearfield(q, n)
    space = nf.order ** m
    codes = draw(st.lists(st.integers(0, space - 1), max_size=max_vectors))
    return nf, m, [unpack_vector(nf, m, c) for c in codes], draw(st.integers(1, 3))


def _oracle_gamma_dependent(nf, m, vectors, gamma):
    """is_gamma_dependent by the oracle's strata LC_gamma of the other vectors."""
    for i, v in enumerate(vectors):
        cur = VectorSet.from_vectors(nf, m, vectors[:i] + vectors[i + 1:])
        for _ in range(gamma):
            cur = _elimination_lc_step(cur)
        if v in cur:
            return True, i
    return False, None


@settings(max_examples=60, deadline=None)
@given(_oracle_cases())
def test_lc_step_matches_elimination_oracle(case):
    nf, m, vectors, steps = case
    space = nf.order ** m
    S = VectorSet.from_vectors(nf, m, vectors)
    cur = ref = S
    for _ in range(steps):
        cur, ref = lc_step(cur), _elimination_lc_step(ref)
        assert cur == ref

    # continue the oracle to the fixpoint for gen and the index
    strata = [S, _elimination_lc_step(S)]
    while strata[-1].codes != strata[-2].codes and len(strata[-1]) < space:
        strata.append(_elimination_lc_step(strata[-1]))
    assert gen_closure(S) == strata[-1]
    if not vectors:
        return
    assert is_gamma_dependent(nf, vectors, steps) == _oracle_gamma_dependent(nf, m, vectors, steps)
    if len(strata[-1]) == space:
        assert lc_index(nf, vectors) == next(i for i, T in enumerate(strata) if len(T) == space)
    else:
        with pytest.raises(ValueError, match="index undefined"):
            lc_index(nf, vectors)


@settings(max_examples=12, deadline=None)
@given(_oracle_cases([(7, 3, 2), (5, 4, 2)], max_vectors=2))
def test_lc_step_matches_elimination_oracle_above_the_cap(case):
    # DN(7,3)^2 and DN(5,4)^2 are above the scaling-table cap and have
    # d >= 2: the d products w o x^i, computed on lookup, span all |R| products
    nf, m, vectors, _ = case
    S = VectorSet.from_vectors(nf, m, vectors)
    assert lc_step(S) == _elimination_lc_step(S)


@pytest.mark.parametrize("q,m,vectors", [(257, 2, [(3, 5), (7, 0)]), (1009, 1, [(4,)])])
def test_lc_step_prime_above_chunk_table(q, m, vectors):
    # one digit per chunk and no cached chunk table; both spaces are also
    # above the scaling-table cap, so products are computed one by one
    nf = build_nearfield(q, 1)
    S = VectorSet.from_vectors(nf, m, vectors)
    assert lc_step(S) == _elimination_lc_step(S)


def _h_max(p):
    # the most base-p digits a chunk of at most 256 values holds, 1 above p = 256
    return next(h for h in itertools.count(1) if p ** (h + 1) > 256)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_chunk_table_is_digitwise_addition(p):
    # the layout of codes of every width from 1 to 4 h_max digits: at most
    # ceil(digits / h_max) chunks, each of h digits, and a chunk-sum table of
    # p^(2h) <= 2^16 lists of ints, delta[b][a] = (a + b) - a with + digitwise
    # base p, built afresh, not read from the cache
    closure_module._chunk_layout.cache_clear()
    closure_module._chunk_table.cache_clear()
    h_max = _h_max(p)
    tables = {}
    for digits in range(1, 4 * h_max + 1):
        base, table = closure_module._chunk_layout(p, digits)
        h = next(h for h in itertools.count(1) if p ** h == base)
        assert -(-digits // h) <= -(-digits // h_max)
        assert base * base <= 2 ** 16
        assert tables.setdefault(h, table) is table
    for h, table in tables.items():
        base = p ** h
        assert type(table) is list and len(table) == base
        for b, row in enumerate(table):
            assert type(row) is list and len(row) == base
            assert all(type(x) is int for x in row)
            assert row == [_padd(p, a, b) - a for a in range(base)]


@pytest.mark.parametrize("q,n,m,entries", [
    (3, 2, 2, 6561), (3, 2, 3, 729), (3, 2, 4, 6561), (5, 2, 2, 625), (4, 3, 2, 4096), (7, 2, 2, 2401),
])
def test_chunk_tables_fit_the_code_width(q, n, m, entries):
    # DN(3,2)^2 and DN(3,2)^4 once read a 243 x 243 table, DN(5,2)^2 a 125 x 125
    # one and DN(4,3)^2 a 256 x 256 one, whatever the width of their codes
    nf = build_nearfield(q, n)
    base, table = closure_module._chunk_layout(nf.p, m * nf.d)
    assert base * base == len(table) * len(table[0]) == entries


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 257, 1009])
def test_translate_matches_digitwise_addition_at_every_layout(p):
    # GF(p)^digits at every width to 4 h_max digits; each c is drawn once
    # below p (shorter than one chunk) and once at full width
    nf = build_nearfield(p, 1)
    rng = random.Random(p)
    for digits in range(1, 4 * _h_max(p) + 1):
        codes = [rng.randrange(p ** digits) for _ in range(20)]
        for c in (rng.randrange(1, p), rng.randrange(p ** digits), p ** digits - 1):
            assert closure_module.translate(nf, digits, codes, c) == [_padd(p, x, c) for x in codes]
    assert closure_module.translate(nf, 1, codes, 0) is codes


@pytest.mark.parametrize("vectors", [
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
    [(1, 0, 2, X), (0, 1, 4, 5), (X, 7, 1, 0), (6, 2, 0, 1), (0, 0, 0, 8)],
])
def test_lc_step_stops_when_the_span_fills_the_space(dn32, monkeypatch, vectors):
    # once p |H| = |R^m| the last independent product closes the span, so
    # its p - 1 cosets (all but space / p elements) are never translated;
    # growing them all translates space - 1 elements
    translated = []
    real = closure_module.translate

    def counting(nf, m, codes, c):
        translated.append(len(codes))
        return real(nf, m, codes, c)

    monkeypatch.setattr(closure_module, "translate", counting)
    S = VectorSet.from_vectors(dn32, 4, vectors)
    space = dn32.order ** 4
    out = lc_step(S)
    assert out.codes == tuple(range(space))
    assert sum(translated) < space // dn32.p


@pytest.mark.parametrize("q,n,vectors", [
    (3, 2, [(4, 4, 1), (1, 2, 3), (4, 2, 6)]),
    (7, 1, [(6, 2, 1), (5, 6, 5)]),
    (3, 2, [(3, 8, 2, 1), (2, 7, 7, 2), (0, 1, 5, 5), (6, 8, 4, 8)]),
])
def test_held_product_is_listed_when_the_stratum_ends_one_rank_short(q, n, vectors):
    # |LC_1| = |R^m| / p: the product that takes the span past |R^m| / p^2
    # is held, no later product leaves span + <held>, and its cosets are
    # listed at the end; the next stratum starts from this one
    nf = build_nearfield(q, n)
    m = len(vectors[0])
    S = VectorSet.from_vectors(nf, m, vectors)
    lc1 = lc_step(S)
    assert len(lc1) * nf.p == nf.order ** m
    assert lc1 == _elimination_lc_step(S)
    lc2 = _elimination_lc_step(lc1)
    assert gen_closure(S) == lc2
    if len(lc2) == nf.order ** m:
        assert lc_index(nf, vectors) == 2
    else:
        with pytest.raises(ValueError, match="index undefined"):
            lc_index(nf, vectors)


@pytest.mark.parametrize("vectors,dependent", [
    ([(0, 0, 0), (1, 0, 1), (1, 1, 0)], (True, 0)),
    ([(1, 0, 1), (1, 1, 0), (1, 0, 1)], (True, 0)),
    ([(1, 1, 0), (0, 0, 0), (1, 0, 1), (1, 1, 0), (1, 0, 1)], (True, 0)),
])
def test_zero_and_repeated_vectors(dn32, vectors, dependent):
    # neither the zero vector nor a repeat changes a stratum; each makes the
    # set gamma-dependent, the zero vector from the empty sum, a repeat from itself
    S = VectorSet.from_vectors(dn32, 3, vectors)
    plain = VectorSet.from_vectors(dn32, 3, [(1, 0, 1), (1, 1, 0)])
    assert lc_step(S) == lc_step(plain) == _elimination_lc_step(S)
    assert gen_closure(S) == gen_closure(plain)
    assert lc_index(dn32, vectors) == lc_index(dn32, plain.vectors()) == 2
    assert is_gamma_dependent(dn32, vectors, 1) == dependent == _oracle_gamma_dependent(dn32, 3, vectors, 1)


def test_lc_index_lists_each_element_once_and_never_the_held_cosets(dn32, monkeypatch):
    # a spanning 3-subset of DN(3,2)^4 with |LC_1| = 729 = |R^m| / p^2: LC_2
    # starts from LC_1's list, so only LC_1's 728 nonzero elements are ever
    # translated as members; LC_2 holds its first new product, and after it
    # translates nothing longer than its p - 1 multiples
    vectors = [(3, 8, 2, 1), (2, 7, 7, 2), (0, 1, 5, 5)]
    S = VectorSet.from_vectors(dn32, 4, vectors)
    translated = []
    real = closure_module.translate

    def counting(nf, m, codes, c):
        translated.append(len(codes))
        return real(nf, m, codes, c)

    lc_step(S)  # warm
    monkeypatch.setattr(closure_module, "translate", counting)
    lc1 = len(lc_step(S))
    first = list(translated)
    assert lc1 == 729 and sum(first) == lc1 - 1
    translated.clear()
    assert lc_index(dn32, vectors) == 2
    assert translated[:len(first)] == first
    assert 0 < max(translated[len(first):]) <= dn32.p - 1


def test_lc_step_large_prime_is_linear_in_the_space():
    # GF(30011)^1: one generator spans the space through p - 1 translates of
    # one element each, so the step is O(p); a translate that did O(p) work
    # per call (building a row of digit sums) made it O(p^2), about 90 s
    nf = build_nearfield(30011, 1)
    S = VectorSet.from_vectors(nf, 1, [(5,)])
    start = time.perf_counter()
    out = lc_step(S)
    assert time.perf_counter() - start < 5
    assert len(out) == 30011
    assert lc_index(nf, [(5,)]) == 1


def test_lc_step_seeds_d_products_per_vector(monkeypatch):
    # DN(5,4)^2 is above the scaling-table cap, so each product is one
    # row_axpy: d = 4 per vector, where seeding every scalar took |R| = 625,
    # of which w o x^0 = w is the vector itself and needs no call
    nf = build_nearfield(5, 4)
    S = VectorSet.from_vectors(nf, 2, [(1, 0), (0, 1)])
    lc_step(S)  # warm
    calls = []
    real = nf.row_axpy

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(nf, "row_axpy", counting)
    assert len(lc_step(S)) == nf.order ** 2
    assert len(calls) == len(S) * (nf.d - 1)


def test_lc_step_memory_follows_the_span_not_the_space():
    # one standard basis vector of GF(2)^19 (524288 vectors, above the
    # scaling-table cap) spans 2 vectors; a membership bitmap over the
    # space alone would be 512 KB
    nf = build_nearfield(2, 1)
    S = VectorSet.from_vectors(nf, 19, [unpack_vector(nf, 19, 1)])
    assert lc_step(S).codes == (0, 1)  # warm
    tracemalloc.start()
    try:
        assert lc_step(S).codes == (0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("cap", ["cap", "no_table"])
@pytest.mark.parametrize("vectors", [[(1, X, 0)], [(1, 0, 1), (1, 1, 0)]])
def test_strata_after_lc1_read_no_x0_product(monkeypatch, cap, vectors):
    # LC_1 seeds S itself, w o x^0 = w, then w o x^i for 0 < i < d, and each
    # later stratum only w o x^i for 0 < i < d of the codes the last one
    # added, as w o 1 = w is listed: no stratum reads r = 1, one read of a
    # cached column per (code, scalar) under the cap, one row_axpy above
    # it, where no column is built.  The first set's gen is LC_1, so LC_2
    # reads w o x for its 8 nonzero codes; the second set's LC_2 fills R^3
    # and stops before it has read them all
    nf = build_nearfield(3, 2)
    S = VectorSet.from_vectors(nf, 3, vectors)
    lc1, size = len(lc_step(S)), gen_size(S)
    reads, columns = collections.Counter(), []
    if cap == "cap":
        real_column = closure_module.scale_column

        class Counted(list):
            def __getitem__(self, c):
                reads[self.r] += 1
                return super().__getitem__(c)

        def counted_column(nf, m, r):
            col = Counted(real_column(nf, m, r))
            col.r = r
            return col

        monkeypatch.setattr(closure_module, "scale_column", counted_column)
    else:
        monkeypatch.setattr(closure_module, "_VSCALE_TABLE_CAP", 0)
        real_column, real_axpy = closure_module._column, nf.row_axpy

        def counted_column(*args):
            columns.append(args)
            return real_column(*args)

        def counted_axpy(row, r, acc=None):
            reads[r] += 1
            return real_axpy(row, r, acc)

        monkeypatch.setattr(closure_module, "_column", counted_column)
        monkeypatch.setattr(nf, "row_axpy", counted_axpy)
    assert gen_size(S) == size and not columns
    assert set(reads) == {X}
    if size < nf.order ** 3:
        assert reads[X] == len(S) + size - 1
    else:
        assert len(S) < reads[X] < len(S) + lc1 - 1


@pytest.mark.parametrize("call,field,low", [
    pytest.param(lambda nf, v: is_gamma_dependent(nf, [(1, 0), (0, 1)], v), "gamma", 1, id="gamma"),
    pytest.param(lambda nf, v: VectorSet.from_vectors(nf, v, []), "m", 0, id="from_vectors-empty"),
    pytest.param(lambda nf, v: VectorSet.from_vectors(nf, v, [(1,)]), "m", 0, id="from_vectors"),
    pytest.param(lambda nf, v: VectorSet(nf, v, ()), "m", 0, id="vector-set"),
    pytest.param(lambda nf, v: unpack_vector(nf, v, 0), "m", 0, id="unpack-m"),
    pytest.param(lambda nf, v: unpack_vector(nf, 2, v), "vector code", 0, id="unpack-code"),
])
def test_integer_arguments_refused(dn32, refuse_int, call, field, low):
    # m = -1 once passed, and gen_closure over that set answered one element
    refuse_int(lambda v: call(dn32, v), field, low)


@pytest.mark.parametrize("codes", [(5, 1), (1, 1), (81,), (-1, 5), (1.0,), (True,), [1, 2]],
                         ids=["descending", "repeated", "past-the-space", "minus-1", "float", "bool", "list"])
def test_vector_set_codes_refused(dn32, codes):
    # (1,) in VectorSet(nf, 1, (5, 1)) was False, len(VectorSet(nf, 1, (1, 1)))
    # was 2, and gen_closure(VectorSet(nf, 2, (100,))) raised IndexError
    want = r"^codes must be a strictly ascending tuple of vector codes in 0\.\.\|R\|\^m - 1 = 9\^2 - 1$"
    with pytest.raises(ValueError, match=want):
        VectorSet(dn32, 2, codes)
    # a code below 2^m is below |R|^m, which is not computed
    assert len(VectorSet(dn32, 10 ** 12, (0, 5))) == 2


def test_pack_vector_checks_its_codes(dn32, bad_code):
    # (10, 0) packed as 10, the code of (1, 1)
    a, message = bad_code
    with pytest.raises(ValueError, match=f"^element code {re.escape(message)}$"):
        pack_vector(dn32, (1, a))


@pytest.mark.parametrize("code", [81, 100, 10 ** 40])
def test_unpack_vector_refuses_a_code_past_the_space(dn32, code):
    # unpack_vector(nf, 2, 100) returned (1, 2), the vector of code 19
    with pytest.raises(ValueError, match=rf"^vector code {code} out of range for \|R\|\^m = 9\^2$"):
        unpack_vector(dn32, 2, code)
