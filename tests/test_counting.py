import functools
import itertools
import math
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
from nearvec.counting import _block_type_counts, _partition_counts, _partitions_desc, _poly_at
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

    def test_budget(self, monkeypatch):
        # the one guard counts the unit scan, u min(m, u), and a bound on
        # the table updates, k (m+1) m b for k of b bits
        for (q, n, m, k), orbits in [((3, 2, 2, 1), 6), ((3, 2, 5, 2), 155), ((2, 1, 12, 1), 12),
                                     ((5, 2, 4, 3), 14)]:
            nf = build_nearfield(q, n)
            u = nf.order - 1
            steps = u * min(m, u) + k * (m + 1) * m * k.bit_length()
            monkeypatch.setenv("NEARVEC_BUDGET", str(steps - 1))
            with pytest.raises(BudgetExceededError, match=f"^orbit count steps = {steps} .*NEARVEC_BUDGET"):
                count_subgroup_orbits(m, k, nf)
            monkeypatch.setenv("NEARVEC_BUDGET", str(steps))
            assert count_subgroup_orbits(m, k, nf) == orbits

    def test_table_updates_under_the_guard(self):
        # the table makes at most k (m+1) sum_{i<=k} m // i updates, which
        # the guard bounds by k (m+1) m b for k of b bits
        for m in range(1, 300):
            for k in range(1, m + 1):
                assert sum(m // i for i in range(1, k + 1)) <= m * k.bit_length(), (m, k)

    @pytest.mark.parametrize("listing,size", [
        (lambda nf: enumerate_canonical(20000, 2, nf), "a 60008-bit number"),
        (lambda nf: count_subgroup_orbits(10 ** 6, 1, nf), "1000001000064"),
        (lambda nf: count_subgroup_orbits(10 ** 18, 10 ** 18, nf), "a 186-bit number"),
    ], ids=["enumerate_canonical", "count_subgroup_orbits", "count_subgroup_orbits_huge_k"])
    def test_huge_listing_refused_by_the_guard(self, dn32, listing, size):
        # these once raised ValueError from printing the refused size in full;
        # at k = 1 the orbit count is small, but its table takes m^2 steps,
        # and at any k the guard's bound takes no loop
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError) as refused:
            listing(dn32)
        assert time.perf_counter() - t0 < 1
        message = str(refused.value)
        assert f" = {size} exceeds the element budget 1000000 (NEARVEC_BUDGET)" in message
        assert "\n" not in message

    def test_rejects_negative_arguments(self, dn32):
        with pytest.raises(ValueError, match="m must be an integer >= 0, got -1"):
            count_subgroup_orbits(-1, 1, dn32)
        with pytest.raises(ValueError, match="k must be an integer >= 0, got -1"):
            count_subgroup_orbits(3, -1, dn32)

    def test_edge_shapes(self, dn32):
        # the zero subgroup is one orbit at every m; k > m leaves no subgroup
        assert [count_subgroup_orbits(m, 0, dn32) for m in range(4)] == [1, 1, 1, 1]
        assert count_subgroup_orbits(0, 1, dn32) == 0
        assert count_subgroup_orbits(2, 3, dn32) == 0
        assert count_subgroup_orbits(10 ** 6, 10 ** 6 + 1, dn32) == 0

    def test_guard_admits_what_marking_finishes(self):
        # over GF(2) each block type is fixed by its size: one orbit per size
        t0 = time.perf_counter()
        assert count_subgroup_orbits(12, 1, build_nearfield(2, 1)) == 12
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("q,n,m,k", [
        (3, 2, 1, 1), (3, 2, 2, 1), (3, 2, 2, 2), (3, 2, 3, 1), (3, 2, 3, 2), (3, 2, 3, 3),
        (3, 2, 4, 2), (5, 2, 2, 1), (5, 2, 2, 2), (7, 2, 2, 1), (2, 1, 5, 1), (2, 1, 5, 2),
        (3, 1, 3, 1), (3, 1, 4, 2), (4, 1, 3, 1), (4, 1, 4, 2), (7, 3, 2, 1),
    ])
    def test_marking_matches_reference_quotient(self, q, n, m, k):
        # the closed form against the min-key quotient over every subgroup's
        # permuted elements
        nf = build_nearfield(q, n)
        assert count_subgroup_orbits(m, k, nf) == reference_subgroup_orbits(m, k, nf)

    @pytest.mark.parametrize("q,n,m,k,orbits", [
        # the marking quotient this closed form replaced computed each of
        # these with NEARVEC_BUDGET=10^8 (refused at the default budget) ...
        (3, 2, 5, 3, 36), (3, 2, 6, 2, 594), (5, 2, 4, 2, 214), (2, 1, 8, 4, 12), (9, 1, 5, 2, 154),
        # ... but refused this one even at 10^8: from the closed form only
        (3, 2, 6, 3, 190),
    ])
    def test_counts_past_the_reference(self, q, n, m, k, orbits):
        t0 = time.perf_counter()
        assert count_subgroup_orbits(m, k, build_nearfield(q, n)) == orbits
        assert time.perf_counter() - t0 < 1

    def test_nearfield_and_field_of_order_9_differ(self):
        # DN(3,2)* is the quaternion group, six units of order 4; GF(9)* is
        # cyclic, with two; at (5, 2) the counts are 155 and 154
        dn, gf = build_nearfield(3, 2), build_nearfield(9, 1)
        assert _block_type_counts(dn, 4) == [0, 1, 5, 15, 44]
        assert _block_type_counts(gf, 4) == [0, 1, 5, 15, 43]

    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (2, 1), (4, 1)])
    def test_block_types_match_burnside_sum(self, q, n):
        # (sigma, r) fixes v in (R*)^s iff v_i = v_sigma(i) o r for all i:
        # along a cycle of length l that needs r^l = 1, and then leaves the
        # cycle's first entry free
        nf = build_nearfield(q, n)
        units = range(1, nf.order)

        def power(r, e):
            x = 1
            for _ in range(e):
                x = nf.mul(x, r)
            return x

        def cycle_lengths(perm):
            seen, lengths = set(), []
            for i in range(len(perm)):
                length = 0
                while i not in seen:
                    seen.add(i)
                    i = perm[i]
                    length += 1
                if length:
                    lengths.append(length)
            return lengths

        types = _block_type_counts(nf, 6)
        for s in range(1, 7):
            fixed = 0
            for perm in itertools.permutations(range(s)):
                lengths = cycle_lengths(perm)
                fixed += sum(math.prod(len(units) if power(r, l) == 1 else 0 for l in lengths) for r in units)
            assert fixed % (math.factorial(s) * len(units)) == 0
            assert types[s] == fixed // (math.factorial(s) * len(units)), (q, n, s)

    @pytest.mark.parametrize("q,n,top", [(3, 2, 3), (4, 1, 4), (2, 1, 5)])
    def test_block_types_are_orbits_of_unit_vectors(self, q, n, top):
        # N_s by listing (R*)^s and keeping each orbit's least image
        nf = build_nearfield(q, n)
        units = range(1, nf.order)
        types = _block_type_counts(nf, top)
        for s in range(1, top + 1):
            keys = {min(tuple(nf.mul(v[p], r) for p in perm)
                        for perm in itertools.permutations(range(s)) for r in units)
                    for v in itertools.product(units, repeat=s)}
            assert types[s] == len(keys), (q, n, s)

    def test_marking_skips_permutations_that_give_equal_rows(self):
        # over GF(2) a dimension-1 subgroup is one row, and its orbit is
        # fixed by its support size
        t0 = time.perf_counter()
        assert count_subgroup_orbits(10, 1, build_nearfield(2, 1)) == 10
        assert time.perf_counter() - t0 < 1

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


@pytest.mark.parametrize("call,field,low", [
    pytest.param(lambda v: partitions_into_parts(v, 2), "t", 0, id="partitions-t"),
    pytest.param(lambda v: partitions_into_parts(4, v), "k", 0, id="partitions-k"),
    pytest.param(lambda v: count_subgroups(3, 2, v), "|R|", 2, id="subgroups-order"),
    pytest.param(lambda v: count_subgroups(3, v, 9), "k", 1, id="subgroups-k"),
    pytest.param(lambda v: count_subgroups(v, 2, 9), "m", 2, id="subgroups-m"),
    pytest.param(lambda v: enumerate_canonical(v, 1, build_nearfield(3, 2)), "m", 1, id="canonical-m"),
    pytest.param(lambda v: count_subgroup_orbits(v, 1, build_nearfield(3, 2)), "m", 0, id="orbits-m"),
    pytest.param(lambda v: count_subgroup_orbits(3, v, build_nearfield(3, 2)), "k", 0, id="orbits-k"),
])
def test_integer_arguments_refused(refuse_int, call, field, low):
    # count_subgroups(2, 1, 9.0) once ended in an AttributeError
    refuse_int(call, field, low)
