"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Everything is exact; no tolerances beyond equality.
"""

import random
import time

import pytest

from nearvec import (
    MapRep,
    NfMatrix,
    VectorSet,
    apply_map,
    build_seed,
    compose,
    count_maps,
    count_subgroups,
    ege,
    enumerate_canonical,
    enumerate_maps,
    gen_closure,
    is_gamma_dependent,
    is_linear,
    is_normal,
    lc_index,
    lc_step,
    linear_violation,
    map_sum,
    replay_states,
    seed_number,
    u_max,
    vec_scale_right,
    verify_seed,
)
from nearvec.closure import check_lc1_cardinality

from kernel_oracle import column_pair_dependent
from test_nearfield import PRINTED_TABLE

X = 3
CORPUS_SEED = 20260810


def _pass(num, msg, t0):
    print(f"ACCEPTANCE {num:2d} PASS ({time.perf_counter() - t0:6.2f}s): {msg}")


@pytest.fixture(scope="module")
def corpus(dn32):
    """200 seeded-random matrices over DN(3,2) with m <= 3, k <= 3, plus
    their decompositions (shared by criteria 5 and 11)."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(200):
        k = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = tuple(tuple(rng.randrange(9) for _ in range(m)) for _ in range(k))
        M = NfMatrix(dn32, rows, m)
        out.append((M, ege(M)))
    return out


def test_criterion_01_table_fidelity(dn32):
    t0 = time.perf_counter()
    table = dn32.mul_table()
    for a in range(9):
        for b in range(9):
            assert table[a][b] == PRINTED_TABLE[b][a]
    for a in range(1, 9):
        square = dn32.coset_index(a) == 0
        for b in range(9):
            expected = dn32.field_mul(a, b) if square else dn32.field_mul(a, dn32.field_pow(b, 3))
            assert table[a][b] == expected
    _pass(1, "DN(3,2) table transpose matches the printed table; square rule holds on all 81 entries", t0)


def test_criterion_02_nearfield_laws(dn32, dn52):
    t0 = time.perf_counter()
    for nf in (dn32, dn52):
        order = nf.order
        mt = nf.mul_table()
        at = nf.add_table()
        rng = range(order)
        for a in rng:
            mta, ata = mt[a], at[a]
            assert mta[0] == 0 and mt[0][a] == 0
            assert mta[1] == a and mt[1][a] == a
            if a:
                b = nf.inv(a)
                assert mta[b] == 1 and mt[b][a] == 1
            for b in rng:
                assert ata[b] == at[b][a]
                if a and b:
                    assert mta[b] != 0
                mtab, mtb, atab = mt[mta[b]], mt[b], at[mta[b]]
                for c in rng:
                    assert mtab[c] == mta[mtb[c]]
                    assert mta[at[b][c]] == atab[mta[c]]
        w = nf.find_witness()
        assert w is not None
        assert nf.mul(nf.add(w.alpha, w.beta), w.lam) != nf.add(
            nf.mul(w.alpha, w.lam), nf.mul(w.beta, w.lam))
    _pass(2, "group axioms, left distributivity, abelian addition exhaustive for DN(3,2), DN(5,2); witnesses exist", t0)


def test_criterion_03_map_census(dn32):
    t0 = time.perf_counter()
    sem_linear = sem_normal = 0
    for T in enumerate_maps(dn32, 2):
        crit_lin = is_linear(T, "criterion")
        sem_lin = is_linear(T, "semantic")
        assert crit_lin == sem_lin
        if sem_lin:
            sem_linear += 1
            crit_nrm = is_normal(T, "criterion")
            sem_nrm = is_normal(T, "semantic")
            assert crit_nrm == sem_nrm
            if sem_nrm:
                sem_normal += 1
    assert sem_linear == 289
    assert sem_normal == 161
    assert count_maps(dn32, 2, "all") == 6561
    _pass(3, "all 6561 maps: 289 semantically linear, 161 semantically normal, criteria agree map-by-map", t0)


def test_criterion_04_counterexample(dn32):
    t0 = time.perf_counter()
    T = MapRep.from_columns(dn32, [(1, 2), (1, 1)])
    assert not is_linear(T, "criterion")
    assert not is_linear(T, "semantic")
    v, r = linear_violation(T)
    lhs = apply_map(T, vec_scale_right(dn32, v, r))
    rhs = vec_scale_right(dn32, apply_map(T, v), r)
    assert lhs != rhs
    _pass(4, f"map with images (1,2),(1,1) is not linear; violating pair v={v}, r={r} re-checked", t0)


def test_criterion_05_ege_vs_oracle(dn32, corpus):
    t0 = time.perf_counter()
    for M, D in corpus:
        for j in range(D.basis.width):
            assert sum(1 for row in D.basis.rows if row[j]) <= 1
        before = gen_closure(VectorSet.from_vectors(dn32, M.width, M.rows))
        after = gen_closure(VectorSet.from_vectors(dn32, M.width, D.basis.rows))
        assert before.codes == after.codes
    _pass(5, f"{len(corpus)} seeded matrices: gen(input) = gen(ege output), all columns single-support", t0)


def test_criterion_06_linearity_index(dn32):
    t0 = time.perf_counter()
    vectors = [(1, 0, 1), (1, 1, 0)]
    assert lc_index(dn32, vectors) == 2
    lc1 = lc_step(VectorSet.from_vectors(dn32, 3, vectors))
    assert len(lc1) < 729
    lc2 = lc_step(lc1)
    assert len(lc2) == 729
    _pass(6, f"index((1,0,1),(1,1,0)) = 2 with |LC1| = {len(lc1)} < 729 and |LC2| = 729", t0)


def test_criterion_07_seed_construction(dn32):
    t0 = time.perf_counter()
    for m in range(1, 25):
        sm = build_seed(m, dn32)
        assert sm.matrix.n_rows == sm.k == seed_number(m, 9)
        assert verify_seed(sm.matrix)
    assert build_seed(9, dn32).k == 2
    assert build_seed(10, dn32).k == 3
    assert build_seed(24, dn32).k == 3
    for m in range(1, 5):
        G = gen_closure(VectorSet.from_vectors(dn32, m, build_seed(m, dn32).matrix.rows))
        assert len(G) == 9 ** m
    _pass(7, "seeds m=1..24 have ceil-formula row counts and verify; closure confirms 9^m for m <= 4", t0)


def test_criterion_08_u_sequence():
    t0 = time.perf_counter()
    for order in (5, 9, 25):
        prev = 0
        for k in range(1, 51):
            u = u_max(k, order)  # the closed form, checked against the recurrence
            assert u == prev + (order - 2) * (k - 1) + 1
            prev = u
    assert [u_max(k, 9) for k in (1, 2, 3, 4)] == [1, 9, 24, 46]
    _pass(8, "u_k recurrence = closed form for k <= 50, |R| in {5, 9, 25}; starts 1, 9, 24, 46", t0)


def test_criterion_09_subgroup_counts(dn32):
    t0 = time.perf_counter()
    for m in range(1, 5):
        for k in range(1, m + 1):
            assert len(enumerate_canonical(m, k, dn32)) == count_subgroups(m, k, 9)
    assert count_subgroups(2, 1, 9) == 9
    assert count_subgroups(3, 2, 9) == 9
    for m in range(1, 5):
        assert count_subgroups(m, m, 9) == 1
    _pass(9, "count_subgroups = |enumerate_canonical| for all m <= 4; (2,1) = (3,2) = 9, (m,m) = 1", t0)


def test_criterion_10_lc1_lemma(dn32):
    t0 = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 1)
    accepted = 0
    while accepted < 100:
        m = rng.randint(1, 3)
        k = rng.randint(1, m)
        vs = [tuple(rng.randrange(9) for _ in range(m)) for _ in range(k)]
        dep, _ = is_gamma_dependent(dn32, vs, 2)
        if dep:
            continue
        accepted += 1
        rep = check_lc1_cardinality(dn32, vs)
        assert rep.size == 9 ** k
    for _ in range(100):
        m = rng.randint(1, 3)
        k = rng.randint(1, 3)
        vs = [tuple(rng.randrange(9) for _ in range(m)) for _ in range(k)]
        rep = check_lc1_cardinality(dn32, vs)
        assert rep.size <= 9 ** k
    _pass(10, "100 2-independent sets have |LC1| = 9^k; arbitrary sets stay within the bound", t0)


def test_criterion_11_column_dependence_invariance(corpus):
    t0 = time.perf_counter()
    steps_checked = 0
    for M, D in corpus:
        if M.width < 2:
            continue
        pairs = [(i, j) for i in range(M.width) for j in range(i + 1, M.width)]
        status = {p: column_pair_dependent(M, *p) for p in pairs}
        for state in replay_states(M, D.trace):
            steps_checked += 1
            for p in pairs:
                assert column_pair_dependent(state, *p) == status[p]
    _pass(11, f"column-pair (in)dependence preserved across {steps_checked} traced steps, zero violations", t0)


def test_criterion_12_composition_closure(dn32):
    t0 = time.perf_counter()
    linear = [T for T in enumerate_maps(dn32, 2) if is_linear(T)]
    normal = [T for T in linear if is_normal(T)]
    assert len(linear) == 289 and len(normal) == 161
    for T1 in linear:
        for T2 in linear:
            assert is_linear(compose(T1, T2))
    for T1 in normal:
        for T2 in normal:
            assert is_normal(compose(T1, T2))
    S = map_sum(MapRep(dn32, 2, ((0, 0), (0, 1))), MapRep(dn32, 2, ((0, 0), (1, 0))))
    assert S.matrix[1] == (1, 1)
    assert not is_linear(S)
    _pass(12, "289^2 linear and 161^2 normal compositions stay closed; additive non-closure row (1,1) reproduced", t0)
