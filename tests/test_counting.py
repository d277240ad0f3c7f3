import functools
import time

import pytest

from nearvec import (
    BudgetExceededError,
    VectorSet,
    build_nearfield,
    count_subgroup_orbits,
    count_subgroups,
    ege,
    enumerate_canonical,
    gen_closure,
    partitions_into_parts,
)
from nearvec import counting
from nearvec.counting import (_generator_rows, _marking_builds, _partition_counts, _partitions_desc,
                               _poly_at, _subgroup_builds)
from orbit_oracle import reference_subgroup_orbits

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

    def test_large_m_matches_termwise_sum(self):
        # the binary-splitting evaluation against the sum it replaced, on
        # term counts of both parities and with |R| - 1 = 1
        for m, k in [(1001, 1), (1000, 7), (777, 250)]:
            counts = _partition_counts(m, k)
            for order in (2, 9, 625):
                expected = sum(counts[t] * (order - 1) ** (t - k) for t in range(k, m + 1))
                assert count_subgroups(m, k, order) == expected

    def test_poly_at_small_cases(self):
        assert _poly_at([], 5) == 0
        assert _poly_at([7], 5) == 7
        assert _poly_at([1, 2, 3], 10) == 321
        assert _poly_at([0, 0, 0, 1], 3) == 27

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("NEARVEC_BUDGET", "125")
        with pytest.raises(BudgetExceededError, match="NEARVEC_BUDGET"):
            count_subgroups(20, 5, 9)  # a 21 x 6 partition table
        monkeypatch.setenv("NEARVEC_BUDGET", "126")
        assert count_subgroups(20, 5, 9) > 0

    def test_digit_bound(self, monkeypatch):
        # a 41 x 2 table, but a count of about 235 digits, bounded by 276
        monkeypatch.setenv("NEARVEC_BUDGET", "275")
        with pytest.raises(BudgetExceededError, match="digits of the count, bounded = 276"):
            count_subgroups(40, 1, 2 ** 20)
        monkeypatch.setenv("NEARVEC_BUDGET", "276")
        assert len(str(count_subgroups(40, 1, 2 ** 20))) <= 276


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

    def test_budget(self, dn32, monkeypatch):
        monkeypatch.setenv("NEARVEC_BUDGET", "10")
        with pytest.raises(BudgetExceededError):
            enumerate_canonical(4, 1, dn32)
        monkeypatch.setenv("NEARVEC_BUDGET", "584")  # 585 canonical matrices
        with pytest.raises(BudgetExceededError, match="NEARVEC_BUDGET"):
            enumerate_canonical(4, 1, dn32)
        monkeypatch.setenv("NEARVEC_BUDGET", "585")
        assert len(enumerate_canonical(4, 1, dn32)) == 585

    def test_listing_checked_against_formula(self, dn32, monkeypatch):
        monkeypatch.setattr(counting, "count_subgroups", lambda m, k, order: 584)
        with pytest.raises(RuntimeError, match="listed 585 canonical matrices, the formula counts 584"):
            enumerate_canonical(4, 1, dn32)


class TestOrbitReport:
    def test_orbit_count_below_formula(self, dn32):
        # column swaps merge the subgroups generated by (1, a) and (1, a^-1)
        assert count_subgroup_orbits(2, 1, dn32) == 6
        assert count_subgroups(2, 1, 9) == 9

    def test_full_space_single_orbit(self, dn32):
        assert count_subgroup_orbits(2, 2, dn32) == 1

    def test_budget(self, dn32, monkeypatch):
        monkeypatch.setenv("NEARVEC_BUDGET", "80")
        with pytest.raises(BudgetExceededError, match="NEARVEC_BUDGET"):
            count_subgroup_orbits(2, 1, dn32)  # |R|^2 = 81
        monkeypatch.setenv("NEARVEC_BUDGET", "81")
        assert count_subgroup_orbits(2, 1, dn32) == 6

    @pytest.mark.parametrize("listing,size", [
        (lambda nf: enumerate_canonical(20000, 2, nf), "a 60008-bit number"),
        (lambda nf: count_subgroup_orbits(10 ** 6, 1, nf), "9^1000000"),
    ], ids=["enumerate_canonical", "count_subgroup_orbits"])
    def test_huge_listing_refused_by_the_guard(self, dn32, listing, size):
        # these once raised ValueError from printing the refused size in full
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError) as refused:
            listing(dn32)
        assert time.perf_counter() - t0 < 1
        message = str(refused.value)
        assert f" = {size} exceeds the element budget 1000000 (NEARVEC_BUDGET)" in message
        assert "\n" not in message

    def test_work_bound_before_listing_permutations(self):
        # GF(2)^13, k = 2: the 1577940 subgroup builds pass their guard, but
        # marking may build 27634932 subgroups of 4 elements, 11 times the
        # budget's tenfold; (11, 2) takes a few seconds, and each m about
        # triples the time and the memory
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="marking builds \\|R\\|\\^k / 10 = 11053973 "):
            count_subgroup_orbits(13, 2, build_nearfield(2, 1))
        assert time.perf_counter() - t0 < 1

    def test_guard_admits_what_marking_finishes(self):
        # the old m! |R|^k guard refused (11, 1) and (12, 1); marking takes
        # each support size once, 4095 subgroups and 24576 marking builds
        t0 = time.perf_counter()
        assert count_subgroup_orbits(12, 1, build_nearfield(2, 1)) == 12
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("q,n,m,k", [
        (3, 2, 1, 1), (3, 2, 2, 1), (3, 2, 2, 2), (3, 2, 3, 1), (3, 2, 3, 2), (3, 2, 3, 3),
        (3, 2, 4, 2), (5, 2, 2, 1), (5, 2, 2, 2), (7, 2, 2, 1), (2, 1, 5, 1), (2, 1, 5, 2),
    ])
    def test_marking_matches_reference_quotient(self, q, n, m, k):
        # the min-key quotient over every subgroup's permuted elements;
        # over GF(2) many permutations give equal rows
        nf = build_nearfield(q, n)
        assert count_subgroup_orbits(m, k, nf) == reference_subgroup_orbits(m, k, nf)

    @pytest.mark.parametrize("m,k", [(6, 2), (6, 3)])
    def test_subgroup_builds_refused_before_listing(self, dn32, m, k):
        # 360542 and 338520 builds pass the other two guards; (5, 2)'s
        # 20340 builds take about a second
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="subgroup builds \\|R\\|\\^k / 10 = "):
            count_subgroup_orbits(m, k, dn32)
        assert time.perf_counter() - t0 < 1

    def test_marking_skips_permutations_that_give_equal_rows(self):
        # over GF(2) a dimension-1 subgroup is one row, and its orbit is
        # fixed by its support size; 10! permutations per orbit are never
        # taken one by one
        t0 = time.perf_counter()
        assert count_subgroup_orbits(10, 1, build_nearfield(2, 1)) == 10
        assert time.perf_counter() - t0 < 1

    def test_builds_formula_counts_generator_rows(self):
        assert [_subgroup_builds(m, k, 9) for m, k in [(3, 2), (5, 2), (6, 3)]] == [54, 20340, 338520]
        for order in (2, 3, 9):
            for m in range(5):
                for k in range(m + 2):
                    listed = sum(1 for _ in _generator_rows(m, k, order))
                    assert _subgroup_builds(m, k, order) == listed, (order, m, k)

    def test_marking_formula_sums_support_products(self):
        for order in (2, 3, 9):
            for m in range(5):
                for k in range(1, m + 2):
                    listed = sum(functools.reduce(lambda x, row: x * sum(1 for a in row if a), rows, 1)
                                 for rows in _generator_rows(m, k, order))
                    assert _marking_builds(m, k, order) == listed, (order, m, k)

    @pytest.mark.parametrize("q,n,m,k", [
        (3, 2, 3, 1), (3, 2, 3, 2), (3, 2, 4, 2), (3, 2, 5, 2), (2, 1, 6, 2), (2, 1, 6, 3), (4, 1, 4, 2),
    ])
    def test_marking_builds_stay_under_the_bound(self, monkeypatch, q, n, m, k):
        # every build packs its k rows once: the enumeration's builds, then marking's
        packed = 0
        pack = counting.pack_vector

        def counted(nf, row):
            nonlocal packed
            packed += 1
            return pack(nf, row)

        monkeypatch.setattr(counting, "pack_vector", counted)
        count_subgroup_orbits(m, k, build_nearfield(q, n))
        builds = _subgroup_builds(m, k, q ** n)
        assert builds < packed // k <= builds + _marking_builds(m, k, q ** n)

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
