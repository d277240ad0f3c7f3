import functools

import pytest

from nearvec import (
    BudgetExceededError,
    VectorSet,
    count_subgroup_orbits,
    count_subgroups,
    ege,
    enumerate_canonical,
    gen_closure,
    partitions_into_parts,
)
from nearvec.counting import _partitions_desc

X = 3


class TestPartitions:
    def test_examples(self):
        assert partitions_into_parts(4, 2) == 2   # 3+1, 2+2
        assert partitions_into_parts(3, 3) == 1
        for t in range(1, 12):
            assert partitions_into_parts(t, 1) == 1

    def test_base_cases(self):
        assert partitions_into_parts(0, 0) == 1
        assert partitions_into_parts(3, 0) == 0
        for k in range(1, 6):
            for t in range(k):
                assert partitions_into_parts(t, k) == 0

    def test_recurrence(self):
        for t in range(1, 20):
            for k in range(1, t + 1):
                assert partitions_into_parts(t, k) == (
                    partitions_into_parts(t - 1, k - 1) + partitions_into_parts(t - k, k)
                )

    def test_against_explicit_listing(self):
        # the generator is an independent enumeration of the same objects
        for t in range(1, 15):
            for k in range(0, t + 1):
                parts = list(_partitions_desc(t, k))
                assert len(parts) == partitions_into_parts(t, k)
                for p in parts:
                    assert sum(p) == t and len(p) == k
                    assert all(a >= b for a, b in zip(p, p[1:]))
                assert len(set(parts)) == len(parts)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            partitions_into_parts(-1, 2)


class TestCountSubgroups:
    def test_examples(self):
        assert count_subgroups(2, 1, 9) == 9
        assert count_subgroups(3, 2, 9) == 9
        for m in range(1, 6):
            assert count_subgroups(m, m, 9) == 1

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            count_subgroups(2, 3, 9)
        with pytest.raises(ValueError):
            count_subgroups(2, 0, 9)
        with pytest.raises(ValueError):
            count_subgroups(2, 1, 1)

    def test_matches_recursive_reference(self):
        # the memoized recursion the iterative table replaced
        @functools.cache
        def p_k(t, k):
            if k == 0:
                return 1 if t == 0 else 0
            if t < k:
                return 0
            return p_k(t - 1, k - 1) + p_k(t - k, k)

        for m in range(1, 13):
            for k in range(1, m + 1):
                for order in (2, 9, 25, 49):
                    expected = sum(p_k(t, k) * (order - 1) ** (t - k) for t in range(k, m + 1))
                    assert count_subgroups(m, k, order) == expected

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("NEARVEC_BUDGET", "125")
        with pytest.raises(BudgetExceededError, match="NEARVEC_BUDGET"):
            count_subgroups(20, 5, 9)  # a 21 x 6 partition table
        monkeypatch.setenv("NEARVEC_BUDGET", "126")
        assert count_subgroups(20, 5, 9) > 0


class TestEnumerateCanonical:
    def test_m2_k1(self, dn32):
        mats = enumerate_canonical(2, 1, dn32)
        assert len(mats) == 9
        assert mats[0].rows == ((1, 0),)
        assert {M.rows for M in mats[1:]} == {((1, a),) for a in range(1, 9)}

    def test_identity_for_m_equals_k(self, dn32):
        for m in (1, 2, 3):
            mats = enumerate_canonical(m, m, dn32)
            assert len(mats) == 1
            assert mats[0].rows == tuple(
                tuple(1 if i == j else 0 for j in range(m)) for i in range(m))

    def test_counts_match_for_all_shapes(self, dn32):
        for m in range(1, 5):
            for k in range(1, m + 1):
                mats = enumerate_canonical(m, k, dn32)
                assert len(mats) == count_subgroups(m, k, 9)

    def test_every_matrix_is_an_ege_fixed_point(self, dn32):
        for m in range(1, 5):
            for k in range(1, m + 1):
                for M in enumerate_canonical(m, k, dn32):
                    for j in range(M.width):
                        assert sum(1 for row in M.rows if row[j]) <= 1
                    D = ege(M)
                    assert D.basis.rows == M.rows

    def test_distinct_subgroups_for_fixed_columns(self, dn32):
        for m in range(1, 4):
            for k in range(1, m + 1):
                closures = set()
                for M in enumerate_canonical(m, k, dn32):
                    G = gen_closure(VectorSet.from_vectors(dn32, m, M.rows))
                    closures.add(G.codes)
                assert len(closures) == count_subgroups(m, k, 9)

    def test_budget(self, dn32):
        with pytest.raises(BudgetExceededError):
            enumerate_canonical(4, 1, dn32, budget=10)


class TestOrbitReport:
    def test_orbit_count_below_formula(self, dn32):
        # column swaps merge the subgroups generated by (1, a) and (1, a^-1)
        assert count_subgroup_orbits(2, 1, dn32) == 6
        assert count_subgroups(2, 1, 9) == 9

    def test_full_space_single_orbit(self, dn32):
        assert count_subgroup_orbits(2, 2, dn32) == 1

    def test_swap_merge_witness(self, dn32):
        # swap(gen((1, x))) = gen((1, inv(x)))
        a = X
        inv_a = dn32.inv(a)
        assert inv_a != a
        left = {tuple(reversed(v)) for v in
                gen_closure(VectorSet.from_vectors(dn32, 2, [(1, a)])).vectors()}
        right = set(
            gen_closure(VectorSet.from_vectors(dn32, 2, [(1, inv_a)])).vectors())
        assert left == right
