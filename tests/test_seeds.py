import importlib
import itertools
import math

import pytest

from nearvec import (
    NfMatrix,
    VectorSet,
    build_nearfield,
    build_seed,
    ege,
    gen_closure,
    seed_number,
    u_max,
    verify_seed,
)
from nearvec.seeds import MAX_SEED_WIDTH


class TestUMax:
    def test_dn32_sequence(self):
        assert [u_max(k, 9) for k in range(5)] == [0, 1, 9, 24, 46]

    def test_recurrence_matches_closed_form(self):
        # u_max is the closed form; the stage-width recurrence is checked here
        for order in (5, 9, 25):
            prev = 0
            for k in range(1, 51):
                u = u_max(k, order)
                assert u == prev + (order - 2) * (k - 1) + 1
                prev = u

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            u_max(3, 2)
        with pytest.raises(ValueError, match="^k must be nonnegative$"):
            u_max(-1, 9)


class TestSeedNumber:
    def test_boundaries(self):
        assert seed_number(9, 9) == 2    # u_2 = 9
        assert seed_number(10, 9) == 3
        assert seed_number(24, 9) == 3   # u_3 = 24
        assert seed_number(25, 9) == 4
        assert seed_number(1, 9) == 1

    def test_interval_consistency(self):
        for order in (5, 9, 25):
            for m in range(1, u_max(6, order) + 1):
                k = seed_number(m, order)
                assert u_max(k - 1, order) < m <= u_max(k, order)

    @staticmethod
    def scanned(ms, order):
        """The least k with u_k >= m for each m of the ascending ms, by a
        plain scan that resumes at the k of the previous m."""
        k = 1
        for m in ms:
            while u_max(k, order) < m:
                k += 1
            yield k

    def test_matches_a_plain_scan_for_every_m(self):
        # every m <= u_30 + 1 for the orders up to 60, 746 083 m in all
        for order in range(3, 61):
            ms = range(1, u_max(30, order) + 2)
            assert list(map(seed_number, ms, itertools.repeat(order))) == list(self.scanned(ms, order)), order

    def test_matches_a_plain_scan_where_the_candidates_change(self):
        # seed_number is constant wherever neither its candidates,
        # set by isqrt(2m // (|R| - 2)), nor a u_k bracket change, so for
        # every order 3..399 and m <= u_30 + 1 each such point and its
        # neighbours stand for all m
        for order in range(3, 400):
            t, top = order - 2, u_max(30, order) + 1
            points = {u_max(k, order) + d for k in range(31) for d in (-1, 0, 1)}
            points |= {(j * j * t + 1) // 2 + d for j in range(math.isqrt(2 * top // t) + 2) for d in (-1, 0)}
            ms = sorted(m for m in points if 1 <= m <= top)
            assert [seed_number(m, order) for m in ms] == list(self.scanned(ms, order)), order

    def test_far_past_the_width_limit(self):
        # u_k - 1, u_k and u_k + 1 for k up to 10^30, in exact integers
        ks = [10 ** j for j in range(31)] + [10 ** 30 - 1, 2 ** 99 + 7, 3 ** 60]
        for order in (3, 4, 9, 25, 1048576, 10 ** 40):
            for k in ks:
                u = u_max(k, order)
                assert seed_number(u, order) == k
                assert seed_number(u + 1, order) == k + 1
                if k > 1:
                    assert seed_number(u - 1, order) == k

    def test_bracket_check_survives_optimization(self, monkeypatch):
        # an explicit check, not an assert: a wrong u_max is reported
        monkeypatch.setattr("nearvec.seeds.u_max", lambda k, order: 0)
        with pytest.raises(RuntimeError, match="misses its u_k bracket"):
            seed_number(10, 9)

    def test_rejects(self):
        with pytest.raises(ValueError):
            seed_number(0, 9)
        with pytest.raises(ValueError):
            seed_number(3, 2)


class TestBuildSeed:
    def test_m1(self, dn32):
        sm = build_seed(1, dn32)
        assert sm.matrix.rows == ((1,),)
        assert sm.k == 1

    def test_m3(self, dn32):
        sm = build_seed(3, dn32)
        assert sm.matrix.rows == ((1, 0, 1), (0, 1, 2))
        assert sm.s_order == tuple(range(2, 9))

    def test_m10(self, dn32):
        sm = build_seed(10, dn32)
        assert sm.k == 3
        assert sm.matrix.rows[2] == (0, 0, 1) + (0,) * 7
        for j, s in zip(range(3, 10), range(2, 9)):
            assert sm.matrix.column(j) == (1, s, 0)

    def test_row_count_law(self, dn32):
        for m in range(1, u_max(4, 9) + 1):
            assert build_seed(m, dn32).matrix.n_rows == seed_number(m, 9)

    def test_boundary_law(self, dn32):
        for k in (1, 2, 3):
            assert build_seed(u_max(k, 9), dn32).k == k
            assert build_seed(u_max(k, 9) + 1, dn32).k == k + 1

    def test_identity_block(self, dn32):
        for m in (5, 12, 30):
            sm = build_seed(m, dn32)
            for j in range(sm.k):
                assert sm.matrix.column(j) == tuple(
                    1 if i == j else 0 for i in range(sm.k))

    def test_column_profiles(self, dn32):
        # every non-identity column is (1,...,1, s,...,s, 0,...,0)
        for m in (9, 20, 46):
            sm = build_seed(m, dn32)
            for j in range(sm.k, m):
                col = [a for a in sm.matrix.column(j)]
                while col and col[-1] == 0:
                    col.pop()
                ones = 0
                while ones < len(col) and col[ones] == 1:
                    ones += 1
                assert ones >= 1
                tail = col[ones:]
                assert tail, col
                assert len(set(tail)) == 1 and tail[0] in range(2, 9)

    def test_prefix_coherence(self, dn32):
        """Non-identity columns of the previous stage reappear zero-padded."""
        for k in (3, 4):
            prev = build_seed(u_max(k - 1, 9), dn32)
            cur = build_seed(u_max(k, 9), dn32)
            pad = cur.k - prev.k
            prev_extras = [prev.matrix.column(j) + (0,) * pad
                           for j in range(prev.k, prev.matrix.width)]
            cur_extras = [cur.matrix.column(j)
                          for j in range(cur.k, cur.k + len(prev_extras))]
            assert prev_extras == cur_extras

    def test_rejects(self, dn32):
        with pytest.raises(ValueError, match="proper nearfield"):
            build_seed(3, build_nearfield(5, 1))
        with pytest.raises(ValueError):
            build_seed(0, dn32)
        with pytest.raises(ValueError, match="width limit"):
            build_seed(MAX_SEED_WIDTH + 1, dn32)


class TestVerifySeed:
    def test_all_seeds_verify(self, dn32):
        for m in range(1, 25):
            assert verify_seed(build_seed(m, dn32).matrix)

    def test_stage4_spot_checks(self, dn32):
        for m in (25, 33, 46):
            assert verify_seed(build_seed(m, dn32).matrix)

    def test_dn52_seeds(self, dn52):
        for m in range(1, u_max(3, 25) + 1, 5):
            assert verify_seed(build_seed(m, dn52).matrix)

    def test_identity(self, dn32):
        rows = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
        assert verify_seed(NfMatrix(dn32, rows, 4))

    def test_single_row_fails(self, dn32):
        assert not verify_seed(NfMatrix.from_rows(dn32, [(1, 3)]))

    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2)])
    def test_agrees_with_ege_on_seeds_and_dropped_rows(self, q, n):
        # every seed of width 1..60, and each with every row dropped in turn
        nf = build_nearfield(q, n)
        negatives = 0
        for m in range(1, 61):
            V = build_seed(m, nf).matrix
            cases = [V.rows] + [V.rows[:i] + V.rows[i + 1:] for i in range(len(V.rows))]
            for rows in cases:
                M = NfMatrix(nf, rows, m)
                want = ege(M).dimension == m
                assert verify_seed(M) == want, (m, len(rows))
                negatives += not want
        assert negatives > 60

    def test_field_path_uses_elimination(self):
        # over a field distinct column classes do not make a seed, so
        # verify_seed must eliminate: (1 0 1), (0 1 1) spans a plane in GF(5)^3
        gf5 = build_nearfield(5, 1)
        assert verify_seed(NfMatrix.from_rows(gf5, [(1, 0), (0, 1)]))
        assert not verify_seed(NfMatrix.from_rows(gf5, [(1, 3)]))
        assert not verify_seed(NfMatrix.from_rows(gf5, [(1, 0, 1), (0, 1, 1)]))

    def test_closure_oracle_checks_the_criterion(self, dn32, monkeypatch):
        # a criterion that calls the one row (1 3) a seed is caught in R^2
        ege_module = importlib.import_module("nearvec.ege")   # the package's ege shadows it
        monkeypatch.setattr(ege_module, "_column_keys", lambda M: list(range(M.width)))
        with pytest.raises(RuntimeError, match="closure oracle disagree"):
            verify_seed(NfMatrix.from_rows(dn32, [(1, 3)]))

    def test_zero_column_fails(self, dn32):
        assert not verify_seed(NfMatrix.from_rows(dn32, [(1, 0, 0), (0, 1, 0)]))
        assert not verify_seed(NfMatrix.from_rows(dn32, [(0,), (0,)]))
        assert verify_seed(NfMatrix.from_rows(dn32, [(0,), (5,)]))

    def test_minimality_small_m(self, dn32):
        """No single vector generates R^m for m = 2, 3, so seed_number is
        genuinely minimal there."""
        for m in (2, 3):
            assert seed_number(m, 9) == 2
            for v in itertools.product(range(9), repeat=m):
                if not any(v):
                    continue
                G = gen_closure(VectorSet.from_vectors(dn32, m, [v]))
                assert len(G) < 9 ** m

    def test_rows_r_linearly_independent(self, dn32):
        """No seed row lies in the closure of the others (m <= 4)."""
        for m in (2, 3, 4):
            sm = build_seed(m, dn32)
            rows = list(sm.matrix.rows)
            for i, row in enumerate(rows):
                others = rows[:i] + rows[i + 1:]
                G = gen_closure(VectorSet.from_vectors(dn32, m, others))
                assert row not in set(G.vectors())
