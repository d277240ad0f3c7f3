import hashlib
import importlib
import pickle
import random
import re
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from kernel_oracle import GOLDEN_DENSE, column_index, column_pair_dependent, golden_digest, ref_neg, ref_row_axpy
from nearvec import (
    NfMatrix,
    Step,
    VectorSet,
    Witness,
    build_nearfield,
    distributivity_trick,
    ege,
    gen_closure,
    build_seed,
    is_one_column_independent,
    matrix_format,
    replay,
    replay_states,
    rref,
    trace_from_text,
    trace_to_text,
)
from nearvec.nearfield import Nearfield

# the module, which the package's ege function shadows as an attribute
ege_module = importlib.import_module("nearvec.ege")

X = 3
W32 = Witness(1, X, X)


def _random_matrix(rng, nf, max_rows=3, max_cols=3):
    k = rng.randint(1, max_rows)
    m = rng.randint(1, max_cols)
    rows = tuple(tuple(rng.randrange(nf.order) for _ in range(m)) for _ in range(k))
    return NfMatrix(nf, rows, m)


class TestRref:
    def test_example(self, dn32):
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (1, 1, 0)])
        R, steps = rref(M)
        assert R.rows == ((1, 0, 1), (0, 1, 2))
        assert steps

    def test_identity_fixed(self, dn32):
        M = NfMatrix.from_rows(dn32, [(1, 0), (0, 1)])
        R, steps = rref(M)
        assert R == M
        assert steps == ()

    def test_scaling(self, dn32):
        # 2 o 2 = 1, so the row (2, 0) normalizes by right-scaling with 2
        R, steps = rref(NfMatrix.from_rows(dn32, [(2, 0)]))
        assert R.rows == ((1, 0),)
        assert [s.kind for s in steps] == ["scale"]
        assert steps[0].c == 2

    def test_zero_rows_dropped(self, dn32):
        R, _ = rref(NfMatrix.from_rows(dn32, [(1, 1), (2, 2), (0, 0)]))
        assert R.rows == ((1, 1),)


class TestDistributivityTrick:
    def test_example(self, dn32):
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (0, 1, 2)])
        out = distributivity_trick(M, 2, W32)
        assert set(out.rows) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_theta_shape(self, dn32):
        # theta vanishes left of the conflict column and not on it
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (0, 1, 2)])
        D = ege(M)
        trick = next(s for s in D.trace if s.kind == "trick")
        assert trick.col == 2
        assert trick.theta[:2] == (0, 0)
        assert trick.theta[2] != 0
        assert trick.phi[2] == 1

    def test_rejects_non_conflict_column(self, dn32):
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (0, 1, 2)])
        with pytest.raises(ValueError, match="not a conflict column"):
            distributivity_trick(M, 1, W32)

    def test_rejects_earlier_conflict(self, dn32):
        M = NfMatrix.from_rows(dn32, [(1, 1, 1), (2, 1, 2)])
        with pytest.raises(ValueError, match="two nonzero entries before"):
            distributivity_trick(M, 2, W32)

    @pytest.mark.parametrize("w", [(1, X, X), None], ids=["tuple", "none"])
    def test_rejects_a_witness_that_is_not_a_witness(self, dn32, w):
        # replay's text for a trick step whose witness is not three codes
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (0, 1, 1)])
        with pytest.raises(ValueError, match=f"^witness {re.escape(repr(w))} is not three codes$"):
            distributivity_trick(M, 2, w)

    def test_rejects_bad_witness(self, dn32):
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (0, 1, 2)])
        with pytest.raises(ValueError, match="witness"):
            distributivity_trick(M, 2, Witness(1, 1, 1))
        # lam = -6 would index log from the end and pass as lam = 3
        with pytest.raises(ValueError, match="^witness code -6 out of range for order 9$"):
            distributivity_trick(M, 2, Witness(1, X, -6))


class TestEge:
    def test_two_rows_span_r3(self, dn32):
        D = ege(NfMatrix.from_rows(dn32, [(1, 0, 1), (1, 1, 0)]))
        assert D.dimension == 3
        assert D.canonical
        assert D.basis.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_identity(self, dn32):
        for m in (1, 2, 4):
            rows = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
            D = ege(NfMatrix(dn32, rows, m))
            assert D.dimension == m
            assert D.basis.rows == rows
            assert D.trace == ()

    def test_single_row(self, dn32):
        D = ege(NfMatrix.from_rows(dn32, [(1, X)]))
        assert D.dimension == 1
        assert D.basis.rows == ((1, X),)

    def test_zero_matrix(self, dn32):
        D = ege(NfMatrix.from_rows(dn32, [(0, 0), (0, 0)]))
        assert D.dimension == 0
        assert D.basis.rows == ()

    def test_field_fallback_not_canonical(self):
        gf = build_nearfield(5, 1)
        D = ege(NfMatrix.from_rows(gf, [(1, 0, 1), (0, 1, 2)]))
        assert not D.canonical
        assert D.dimension == 2
        assert D.basis.rows == ((1, 0, 1), (0, 1, 2))

    def test_field_without_conflicts_canonical(self):
        gf = build_nearfield(5, 1)
        D = ege(NfMatrix.from_rows(gf, [(2, 0), (0, 3)]))
        assert D.canonical
        assert D.basis.rows == ((1, 0), (0, 1))

    def test_dimension_can_exceed_row_count(self, dn32):
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (1, 1, 0)])
        assert ege(M).dimension > rref(M)[0].n_rows

    def test_conflict_column_with_three_entries(self, dn32):
        # one trick plus the following reduction must clear all three
        M = NfMatrix.from_rows(dn32, [(1, 0, 0, 2), (0, 1, 0, X), (0, 0, 1, 4)])
        D = ege(M)
        assert D.canonical
        _well_formed(D)
        tricks = [s for s in D.trace if s.kind == "trick"]
        assert tricks and tricks[0].col == 3
        assert sum(1 for row in M.rows if row[3]) == 3
        before = gen_closure(VectorSet.from_vectors(dn32, 4, M.rows))
        after = gen_closure(VectorSet.from_vectors(dn32, 4, D.basis.rows))
        assert before.codes == after.codes
        assert replay(M, D.trace) == D.basis


def _well_formed(D):
    basis = D.basis
    for j in range(basis.width):
        assert sum(1 for row in basis.rows if row[j]) <= 1
    leads = []
    for row in basis.rows:
        lead = next(i for i, a in enumerate(row) if a)
        assert row[lead] == 1
        leads.append(lead)
    assert leads == sorted(leads)


class TestEgeRandom:
    SEED = 1387

    def test_gen_preserved_and_well_formed(self, dn32):
        rng = random.Random(self.SEED)
        for _ in range(60):
            M = _random_matrix(rng, dn32)
            D = ege(M)
            assert D.canonical
            _well_formed(D)
            assert D.dimension >= rref(M)[0].n_rows
            before = gen_closure(VectorSet.from_vectors(dn32, M.width, M.rows))
            after = gen_closure(VectorSet.from_vectors(dn32, M.width, D.basis.rows))
            assert before.codes == after.codes

    def test_trick_columns_strictly_increase(self, dn32):
        rng = random.Random(self.SEED + 1)
        for _ in range(80):
            D = ege(_random_matrix(rng, dn32))
            cols = [s.col for s in D.trace if s.kind == "trick"]
            assert cols == sorted(set(cols))

    def test_replay_bit_exact(self, dn32):
        rng = random.Random(self.SEED + 2)
        for _ in range(60):
            M = _random_matrix(rng, dn32)
            D = ege(M)
            assert replay(M, D.trace) == D.basis
            text = trace_to_text(dn32, D.trace)
            assert replay(M, trace_from_text(dn32, text)) == D.basis

    def test_column_pair_status_preserved(self, dn32):
        rng = random.Random(self.SEED + 3)
        for _ in range(40):
            M = _random_matrix(rng, dn32, max_rows=3, max_cols=3)
            if M.width < 2:
                continue
            D = ege(M)
            pairs = [(i, j) for i in range(M.width) for j in range(i + 1, M.width)]
            status = {p: column_pair_dependent(M, *p) for p in pairs}
            for state in replay_states(M, D.trace):
                for p in pairs:
                    assert column_pair_dependent(state, *p) == status[p]


class TestStep:
    def test_trick_fields_by_support(self):
        st = Step("trick", col=1, witness=(1, 3, 3), theta=(0, 2, 0, 5), phi=(0, 1, 0, 7))
        assert (st.kind, st.r, st.s, st.c, st.col, st.witness) == ("trick", -1, -1, -1, 1, (1, 3, 3))
        assert st.theta == (0, 2, 0, 5) and st.phi == (0, 1, 0, 7)
        assert Step("swap", r=0, s=2).theta is None

    def test_value_semantics(self):
        st = Step("eliminate", r=0, s=2, c=4)
        assert st == Step("eliminate", r=0, s=2, c=4) and hash(st) == hash(Step("eliminate", r=0, s=2, c=4))
        assert st != Step("eliminate", r=0, s=2, c=5)
        assert st != tuple(st)
        assert repr(st) == "Step(kind='eliminate', r=0, s=2, c=4, col=-1, witness=None, theta=None, phi=None)"
        with pytest.raises(AttributeError):
            st.c = 5
        trick = Step("trick", col=0, witness=(1, 3, 3), theta=(2, 0), phi=(1, 0))
        assert pickle.loads(pickle.dumps(trick)) == trick

    def test_ege_tricks_store_theta_by_support(self, dn32):
        D = ege(NfMatrix(dn32, ((1, 0, 0, 0, 1), (0, 1, 0, 0, 2)), 5))
        trick = next(st for st in D.trace if st.kind == "trick")
        assert trick == Step("trick", col=trick.col, witness=trick.witness, theta=trick.theta, phi=trick.phi)
        assert len(trick.theta) == 5 and trick.theta[:trick.col] == (0,) * trick.col


class TestTraceCodec:
    def test_text_roundtrip(self, dn32):
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (1, 1, 0)])
        D = ege(M)
        text = trace_to_text(dn32, D.trace)
        assert text == "ELIM 1 2 1\nTRICK 3 1 x x\n"
        steps = trace_from_text(dn32, text)
        assert trace_to_text(dn32, steps) == text

    def test_malformed(self, dn32):
        with pytest.raises(ValueError, match="malformed trace"):
            trace_from_text(dn32, "NUDGE 1 2\n")

    @pytest.mark.parametrize("line,row", [
        ("ELIM 0 1 1", 0), ("ELIM 1 0 1", 0), ("ELIM -3 0 1", -3), ("SWAP 2 -1", -1), ("SCALE 0 1", 0),
    ])
    def test_from_text_refuses_a_row_below_1(self, dn32, line, row):
        # no replay accepts the line, so the codec names it as malformed
        text = "ELIM 1 2 1\n" + line + "\nTRICK 3 1 x x\n"
        want = f"^malformed trace line '{line}': row must be an integer >= 1, got '{row}'$"
        with pytest.raises(ValueError, match=want):
            trace_from_text(dn32, text)

    @pytest.mark.parametrize("step,row", [
        (Step("eliminate", r=-5, s=1, c=1), -5), (Step("eliminate", r=0, s=-1, c=1), -1),
        (Step("swap", r=1, s=-2), -2), (Step("scale", r=-1, c=1), -1),
    ], ids=["elim-r", "elim-s", "swap-s", "scale-r"])
    def test_to_text_refuses_a_negative_row(self, dn32, step, row):
        # replay and trace_to_text raise _int_arg's text, which needs no row count
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (1, 1, 0)])
        for call in (replay, lambda M, steps: trace_to_text(dn32, steps)):
            with pytest.raises(ValueError, match=f"^trace step 2: row index must be an integer >= 0, got {row}$"):
                call(M, [Step("eliminate", r=0, s=1, c=1), step])

    @pytest.mark.parametrize("line", ["TRICK 0 1 x x", "TRICK -2 1 x x"])
    def test_from_text_refuses_a_trick_column_below_1(self, dn32, line):
        text = "ELIM 1 2 1\n" + line + "\n"
        col = line.split()[1]
        want = f"^malformed trace line '{line}': column must be an integer >= 1, got '{col}'$"
        with pytest.raises(ValueError, match=want):
            trace_from_text(dn32, text)

    @pytest.mark.parametrize("col", [-1, -5])
    def test_to_text_refuses_a_negative_trick_column(self, dn32, col):
        # trace_to_text refuses the step with replay's text
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (1, 1, 0)])
        steps = [Step("eliminate", r=0, s=1, c=1), Step("trick", col=col, witness=(1, 3, 3))]
        for call in (lambda: replay(M, steps), lambda: trace_to_text(dn32, steps)):
            with pytest.raises(ValueError, match=f"^trace step 2: column index must be an integer >= 0, got {col}$"):
                call()

    def test_blank_and_comment_lines_are_skipped(self, dn32):
        text = "# a trace\n\nELIM 1 2 1\n   \n  # a trick next\nTRICK 3 1 x x\n"
        assert trace_to_text(dn32, trace_from_text(dn32, text)) == "ELIM 1 2 1\nTRICK 3 1 x x\n"
        with pytest.raises(ValueError, match="^malformed trace line 'SWAP 1': "):
            trace_from_text(dn32, text + "#\nSWAP 1\n")

    def test_replay_sees_a_row_scaled_to_zero(self, dn32):
        # an untrusted trace may scale by 0: the conflict check must then
        # see column 3 with one nonzero entry left
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (0, 1, 2)])
        steps = trace_from_text(dn32, "SCALE 1 0\nTRICK 3 1 x x\n")
        with pytest.raises(ValueError, match="trace step 2: the trick column is not a conflict column"):
            replay(M, steps)

    def test_replay_rechecks_columns_left_of_a_trick(self, dn32):
        # the trick at column 4 is valid; ELIM 1 2 1 then puts a second
        # nonzero in column 1, left of it, so the next trick is refused
        M = NfMatrix.from_rows(dn32, [(1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1)])
        steps = trace_from_text(dn32, "TRICK 4 1 x x\nELIM 1 2 1\nTRICK 4 1 x x\n")
        assert replay(M, steps[:1]).rows == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(ValueError, match="trace step 3: an earlier column already has two nonzero entries"):
            replay(M, steps)

    @pytest.mark.parametrize("step,noun", [
        (lambda a: Step("scale", r=0, c=a), "scalar code"),
        (lambda a: Step("eliminate", r=0, s=1, c=a), "scalar code"),
        (lambda a: Step("trick", col=2, witness=(a, 1, 1)), "witness code"),
        (lambda a: Step("trick", col=2, witness=(1, a, 1)), "witness code"),
        (lambda a: Step("trick", col=2, witness=(1, X, a)), "witness code"),
    ], ids=["scale", "eliminate", "trick-alpha", "trick-beta", "trick-lam"])
    def test_replay_refuses_bad_codes_by_the_fields_check(self, dn32, bad_code, step, noun):
        # True once passed as the scalar 1
        bad, message = bad_code
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (0, 1, 1)])   # column 3 is a conflict column
        with pytest.raises(ValueError, match=f"^trace step 1: {noun} {re.escape(message)}$"):
            replay(M, [step(bad)])
        with pytest.raises(ValueError, match=f"^trace step 1: {noun} {re.escape(message)}$"):
            trace_to_text(dn32, [step(bad)])
        if noun == "witness code":
            with pytest.raises(ValueError, match=f"^{noun} {re.escape(message)}$"):
                distributivity_trick(M, 2, Witness(*step(bad).witness))

    @pytest.mark.parametrize("q,n", [(3, 2), (7, 3)])
    @pytest.mark.parametrize("step,bad", [
        (lambda order: Step("scale", r=0, c=-1), "scalar code -1"),
        (lambda order: Step("scale", r=0, c=order), "scalar code {order}"),
        (lambda order: Step("eliminate", r=0, s=1, c=order + 91), "scalar code {plus91}"),
        (lambda order: Step("trick", col=2, witness=(1, order, 1)), "witness code {order}"),
        (lambda order: Step("trick", col=2, witness=(-2, 1, 1)), "witness code -2"),
    ], ids=["scale-minus-1", "scale-order", "eliminate-order-plus-91", "trick-beta-order", "trick-alpha-minus-2"])
    def test_replay_refuses_codes_out_of_range(self, q, n, step, bad):
        # a step built in code, not parsed from text: a code of -1 would
        # index from the end of a table and one past the order would raise
        # IndexError, so each is refused by name
        nf = build_nearfield(q, n)
        M = NfMatrix.from_rows(nf, [(1, 0, 1), (0, 1, 1)])   # column 3 is a conflict column
        bad = bad.format(order=nf.order, plus91=nf.order + 91)
        with pytest.raises(ValueError, match=f"^trace step 1: {bad} out of range for order {nf.order}$"):
            replay(M, [step(nf.order)])
        with pytest.raises(ValueError, match=f"^trace step 1: {bad} out of range for order {nf.order}$"):
            list(replay_states(M, [step(nf.order)]))
        with pytest.raises(ValueError, match=f"^trace step 1: {bad} out of range for order {nf.order}$"):
            trace_to_text(nf, [step(nf.order)])

    @pytest.mark.parametrize("step,msg", [
        (Step("trick", col=2), "witness None is not three codes"),
        (Step("trick", col=2, witness=(1, X)), r"witness \(1, 3\) is not three codes"),
        (Step("trick", col=2, witness=(1, X, X, X)), r"witness \(1, 3, 3, 3\) is not three codes"),
        (Step("trick", col=2, witness={1, X, 5}), r"witness \{1, 3, 5\} is not three codes"),
        (Step("trick", col=1.5, witness=(1, X, X)), "column index must be an integer >= 0, got 1.5"),
        (Step("trick", col=2, witness=(1, X, 3.0)), "witness code 3.0 is not an integer"),
        (Step("scale", r=0, c=1.5), "scalar code 1.5 is not an integer"),
        (Step("swap", r=0.0, s=1), "row index must be an integer >= 0, got 0.0"),
        (Step("eliminate", r=0, s=1, c=None), "scalar code None is not an integer"),
        # a bool is an int to isinstance: True once swapped rows 2 and 1
        (Step("swap", r=True, s=0), "row index must be an integer >= 0, got True"),
        (Step("scale", r=False, c=1), "row index must be an integer >= 0, got False"),
        (Step("trick", col=True, witness=(1, X, X)), "column index must be an integer >= 0, got True"),
        (Step("nudge"), "unknown step kind 'nudge'"),
    ], ids=["trick-no-witness", "trick-two-codes", "trick-four-codes", "trick-set-witness",
            "trick-float-col", "trick-float-code", "scale-float", "swap-float-row", "eliminate-none",
            "swap-bool-row", "scale-bool-row", "trick-bool-col", "unknown-kind"])
    def test_replay_refuses_malformed_steps(self, dn32, step, msg):
        # a step built in code can carry any Python value; each malformed
        # field is refused by name instead of raising TypeError, by replay
        # and by the trace codec alike (a witness that is not three codes
        # once leaked TypeError from trace_to_text's unpacking)
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (0, 1, 1)])   # column 3 is a conflict column
        with pytest.raises(ValueError, match=f"^trace step 1: {msg}$"):
            replay(M, [step])
        with pytest.raises(ValueError, match=f"^trace step 1: {msg}$"):
            list(replay_states(M, [step]))
        with pytest.raises(ValueError, match=f"^trace step 1: {msg}$"):
            trace_to_text(dn32, [step])

    def test_results_equal_checked_matrices(self, dn32):
        # ege, rref, replay and the trick build their results without the
        # entry scan; each equals, and hashes as, the checked construction
        M = build_seed(12, dn32).matrix
        D = ege(M)
        R, _ = rref(M)
        T = distributivity_trick(NfMatrix.from_rows(dn32, [(1, 0, 1), (0, 1, 1)]), 2, W32)
        for A in (D.basis, R, replay(M, D.trace), T, *replay_states(M, D.trace[:3])):
            checked = NfMatrix(dn32, A.rows, A.width)
            assert A == checked and hash(A) == hash(checked)


class TestOneColumnIndependence:
    def test_identity_true(self, dn32):
        assert is_one_column_independent(NfMatrix.from_rows(dn32, [(1, 0), (0, 1)]))

    def test_scaled_columns_false(self, dn32):
        # columns (1,0) and (2,0): the first is 2 o the second
        M = NfMatrix.from_rows(dn32, [(1, 2), (0, 0)])
        assert not is_one_column_independent(M)

    def test_example_matrix_true(self, dn32):
        assert is_one_column_independent(NfMatrix.from_rows(dn32, [(1, 0, 1), (0, 1, 2)]))

    def test_single_column_rejected(self, dn32):
        with pytest.raises(ValueError, match="2 columns"):
            is_one_column_independent(NfMatrix.from_rows(dn32, [(1,), (2,)]))

    @staticmethod
    def _coupled_matrix(rng, nf, max_rows=4, max_cols=6):
        """A random matrix in which some columns are forced to be left
        multiples of earlier ones and some to be zero."""
        k, m = rng.randint(1, max_rows), rng.randint(1, max_cols)
        cols = []
        for _ in range(m):
            kind = rng.random()
            if kind < 0.25 and cols:
                a = rng.randrange(1, nf.order)
                cols.append(tuple(nf.mul(a, x) for x in rng.choice(cols)))
            elif kind < 0.35:
                cols.append((0,) * k)
            else:
                cols.append(tuple(rng.randrange(nf.order) if rng.random() < 0.7 else 0 for _ in range(k)))
        return NfMatrix(nf, tuple(zip(*cols)), m)

    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (7, 3)])
    def test_column_classes_count_the_ege_dimension(self, q, n):
        # over a proper nearfield dim gen = the number of nonzero column classes
        nf = build_nearfield(q, n)
        rng = random.Random(f"column-keys:{q},{n}")
        for _ in range(150):
            M = self._coupled_matrix(rng, nf)
            keys = ege_module._column_keys(M)
            assert len(keys) == M.width
            assert [key is None for key in keys] == [not any(M.column(j)) for j in range(M.width)]
            assert len(set(keys) - {None}) == ege(M).dimension, M.rows

    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (7, 3), (5, 1)])
    def test_matches_the_pairwise_reference(self, q, n):
        # the pairwise loop over column_pair_dependent that the keys replace
        def reference(M):
            return not any(column_pair_dependent(M, i, j)
                           for i in range(M.width) for j in range(i + 1, M.width))

        nf = build_nearfield(q, n)
        rng = random.Random(f"one-column:{q},{n}")
        seen = set()
        for _ in range(150):
            M = self._coupled_matrix(rng, nf)
            if M.width >= 2:
                seen.add(reference(M))
                assert is_one_column_independent(M) == reference(M), M.rows
        assert seen == {True, False}


class TestWitnessChoiceIndependence:
    def test_final_basis_stable_across_witnesses(self, dn32):
        """Empirical check: distinct valid witnesses yield the same decomposition."""
        alt_witnesses = [Witness(1, X, X), Witness(1, X, 4), Witness(X, 1, X)]
        for w in alt_witnesses:
            lhs = dn32.mul(dn32.add(w.alpha, w.beta), w.lam)
            rhs = dn32.add(dn32.mul(w.alpha, w.lam), dn32.mul(w.beta, w.lam))
            assert lhs != rhs
        rng = random.Random(99)
        cases = [NfMatrix.from_rows(dn32, [(1, 0, 1), (1, 1, 0)])]
        cases += [_random_matrix(rng, dn32) for _ in range(20)]
        for M in cases:
            results = set()
            for w in alt_witnesses:
                nf = Nearfield(3, 2)  # fresh instance so the cached witness can be forced
                nf._witness = w
                Mw = NfMatrix(nf, M.rows, M.width)
                results.add(ege(Mw).basis.rows)
            assert len(results) == 1


# -- EGE as it ran before it resumed at the trick column: a full re-reduction
# from column 0 after every trick, with per-entry arithmetic.  Kept as the
# reference that ege() must match step for step.

def _ref_rref(nf, rows, width):
    steps = []
    pr = 0
    k = len(rows)
    for col in range(width):
        pivot = next((i for i in range(pr, k) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != pr:
            rows[pr], rows[pivot] = rows[pivot], rows[pr]
            steps.append(Step("swap", r=pr, s=pivot))
        lead = rows[pr][col]
        if lead != 1:
            c = nf.inv(lead)
            rows[pr] = tuple(nf.mul(a, c) for a in rows[pr])
            steps.append(Step("scale", r=pr, c=c))
        for i in range(k):
            if i != pr and rows[i][col]:
                a = rows[i][col]
                rows[i] = tuple(nf.sub(t, nf.mul(w, a)) for t, w in zip(rows[i], rows[pr]))
                steps.append(Step("eliminate", r=pr, s=i, c=a))
        pr += 1
    return steps


def _ref_first_conflict(rows, width):
    for col in range(width):
        if sum(1 for row in rows if row[col]) >= 2:
            return col
    return None


def _ref_trick(nf, rows, col, w):
    def scale(v, c):
        return tuple(nf.mul(a, c) for a in v)

    def add(u, v):
        return tuple(nf.add(a, b) for a, b in zip(u, v))

    def sub(u, v):
        return tuple(nf.sub(a, b) for a, b in zip(u, v))

    hits = [i for i in range(len(rows)) if rows[i][col]]
    r, s = hits[0], hits[1]
    wr, ws = rows[r], rows[s]
    a1 = nf.mul(nf.inv(wr[col]), w.alpha)
    b1 = nf.mul(nf.inv(ws[col]), w.beta)
    mixed = add(scale(wr, a1), scale(ws, b1))
    theta = sub(sub(scale(mixed, w.lam), scale(wr, nf.mul(a1, w.lam))), scale(ws, nf.mul(b1, w.lam)))
    phi = scale(theta, nf.inv(theta[col]))
    rows[r] = sub(wr, scale(phi, wr[col]))
    rows[s] = sub(ws, scale(phi, ws[col]))
    rows.append(phi)
    return Step("trick", col=col, witness=(w.alpha, w.beta, w.lam), theta=theta, phi=phi)


def _reference_ege(M):
    nf = M.nf
    rows = list(M.rows)
    steps = _ref_rref(nf, rows, M.width)
    while True:
        col = _ref_first_conflict(rows, M.width)
        if col is None:
            canonical = True
            break
        w = nf.find_witness()
        if w is None:
            canonical = False
            break
        steps.append(_ref_trick(nf, rows, col, w))
        steps.extend(_ref_rref(nf, rows, M.width))
    return tuple(steps), tuple(row for row in rows if any(row)), canonical


@st.composite
def _small_matrices(draw):
    # DN(3,2) and DN(5,2) take the table row kernel, DN(7,3) (order 343)
    # and DN(5,4) (order 625) the Zech one; zeros and ones are drawn often
    # so that swaps, trivial scales and columns with several nonzero
    # entries all occur
    q, n = draw(st.sampled_from([(3, 2), (5, 2), (7, 3), (5, 4)]))
    nf = build_nearfield(q, n)
    k = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, nf.order - 1))
    rows = draw(st.lists(st.tuples(*[entry] * m), min_size=k, max_size=k))
    return NfMatrix(nf, tuple(rows), m)


@settings(max_examples=300, deadline=None)
@given(_small_matrices())
def test_ege_matches_full_rereduction(M):
    D = ege(M)
    steps, basis, canonical = _reference_ege(M)
    assert D.trace == steps
    assert D.basis.rows == basis
    assert D.canonical == canonical


@pytest.mark.parametrize("q,n", [(3, 2), (7, 2)])
def test_wide_seed_matches_full_rereduction(q, n):
    # wide seeds have sparse rows and hundreds of tricks, far past the
    # hypothesis shapes: the support-restricted row ops, the column index
    # and the early stop of a reduction pass all run here
    M = build_seed(500, build_nearfield(q, n)).matrix
    D = ege(M)
    steps, basis, canonical = _reference_ege(M)
    assert D.trace == steps
    assert D.basis.rows == basis
    assert D.canonical and canonical and D.dimension == 500


# sha256 over trace_to_text + matrix_format of the EGE result for each seed
# width below, each seed followed by the seed without its first row and the
# seed without its last row (when it has more than one row)
GOLDEN_WIDTHS = (*range(1, 61), 97, 150, 211, 300)
GOLDEN = {
    (3, 2): "bb1c70be796ccfe355c39f048dc15e454946836d96ff608874ff62d7301bbe57",
    (5, 2): "9fbc5dd664ed0c7152042330b5720d9753d1346bf79a0319306f34ebc08315e9",
    (7, 2): "c4a2183a9355d84b2bace938d410fe9e6b6661ced925a29977c36bae82c235d7",
}


@pytest.mark.parametrize("q,n", sorted(GOLDEN))
def test_golden_seed_traces(q, n):
    nf = build_nearfield(q, n)
    h = hashlib.sha256()
    for m in GOLDEN_WIDTHS:
        V = build_seed(m, nf).matrix
        cases = [V]
        if V.n_rows > 1:
            cases += [NfMatrix(nf, V.rows[1:], m), NfMatrix(nf, V.rows[:-1], m)]
        for M in cases:
            D = ege(M)
            h.update((trace_to_text(nf, D.trace) + matrix_format(D.basis)).encode())
    assert h.hexdigest() == GOLDEN[(q, n)]


@pytest.mark.parametrize("q,n", sorted(GOLDEN_DENSE))
def test_golden_dense_traces(q, n):
    """Seeded dense tall, square and wide matrices, the fields GF(2),
    GF(256) and GF(257) among them with their canonical=False results;
    digests taken as GOLDEN_DENSE says, so at every order the Zech row
    kernels reproduce what the earlier arithmetic printed."""
    assert golden_digest(q, n) == GOLDEN_DENSE[(q, n)]


class TestInternalChecks:
    """The kernel checks that survive python -O."""

    def test_trick_without_pivot_row(self, monkeypatch):
        nf = Nearfield(3, 2)    # a private instance, so the corrupt kernel stays here
        monkeypatch.setattr(nf, "row_axpy",
                            lambda row, c, acc=None, cols=None: tuple(acc) if acc else (0,) * len(row))
        M = NfMatrix(nf, ((1, 0, 1), (0, 1, 2)), 3)   # reduced already: the trick comes first
        with pytest.raises(RuntimeError, match="no pivot row at column 3"):
            ege(M)

    def test_conflict_column_must_increase(self, dn32, monkeypatch):
        # a trick that leaves the rows as they were keeps the same conflict column
        monkeypatch.setattr(ege_module, "_trick_inplace", lambda nf, rows, col, w: Step("trick", col=col))
        with pytest.raises(RuntimeError, match="conflict column 3 does not follow"):
            ege(NfMatrix(dn32, ((1, 0, 1), (0, 1, 2)), 3))


# -- replay by runs: consecutive eliminate steps on one pivot row are one
# kernel call; the reference applies one step at a time

def _stepwise(M, steps):
    """The rows after every eliminate step applied alone by the reference
    arithmetic, rows[s] - rows[r] o c, reading both rows at that step; zero
    rows kept, as replay_states yields them."""
    nf, rows = M.nf, list(M.rows)
    for st in steps:
        rows[st.s] = ref_row_axpy(nf, rows[st.r], ref_neg(nf, st.c), rows[st.s])
    return tuple(rows)


def _elim(r, s, c):
    return Step("eliminate", r=r, s=s, c=c)


class _RecordedRows(ege_module._Rows):
    """_Rows that keeps every instance, for the support index check."""

    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


def _index_is_rebuilt(work):
    """sup and at equal what a rebuild from rows gives."""
    return (work.sup, work.at) == column_index(work.rows, work.width)


class TestReplayRuns:
    @pytest.mark.parametrize("q,n", [(3, 2), (7, 3), (5, 4)])
    def test_duplicate_targets_apply_in_order(self, q, n):
        # a run from an untrusted trace may name a target twice: the second
        # update reads the row that the first one wrote
        nf = build_nearfield(q, n)
        rng = random.Random(f"dup:{q},{n}")
        for _ in range(30):
            M = _random_matrix(rng, nf, max_rows=4, max_cols=5)
            k = M.n_rows
            if k < 2:
                continue
            r = rng.randrange(k)
            others = [s for s in range(k) if s != r]
            steps = [_elim(r, rng.choice(others), rng.randrange(nf.order)) for _ in range(5)]
            steps.insert(1, _elim(r, steps[0].s, rng.randrange(nf.order)))
            want = _stepwise(M, steps)
            assert replay(M, steps).rows == tuple(row for row in want if any(row))
            assert list(replay_states(M, steps))[-1].rows == want

    @pytest.mark.parametrize("q,n", [(3, 2), (7, 3)])
    def test_pivot_row_as_target(self, q, n):
        # ELIM 1 1 c changes the pivot row itself; the steps after it in the
        # run read the changed row
        nf = build_nearfield(q, n)
        rng = random.Random(f"self:{q},{n}")
        for _ in range(30):
            M = _random_matrix(rng, nf, max_rows=4, max_cols=5)
            k = M.n_rows
            r = rng.randrange(k)
            steps = [_elim(r, rng.randrange(k), rng.randrange(nf.order)) for _ in range(4)]
            steps.insert(1, _elim(r, r, rng.randrange(nf.order)))
            want = _stepwise(M, steps)
            assert replay(M, steps).rows == tuple(row for row in want if any(row))
            assert list(replay_states(M, steps))[-1].rows == want

    @pytest.mark.parametrize("q,n", [(3, 2), (7, 3), (5, 4)])
    def test_support_index_matches_the_rows(self, q, n, monkeypatch):
        # after ege, replay of its trace and replay of random runs, the sets
        # that the kernel keeps equal a rebuild
        monkeypatch.setattr(ege_module, "_Rows", _RecordedRows)
        monkeypatch.setattr(_RecordedRows, "made", [])
        nf = build_nearfield(q, n)
        rng = random.Random(f"index:{q},{n}")
        for _ in range(20):
            M = _random_matrix(rng, nf, max_rows=6, max_cols=8)
            D = ege(M)
            assert replay(M, D.trace) == D.basis
            k = M.n_rows
            steps = [_elim(rng.randrange(k), rng.randrange(k), rng.randrange(nf.order)) for _ in range(8)]
            replay(M, sorted(steps, key=lambda st: st.r))
        assert len(_RecordedRows.made) == 60
        assert all(map(_index_is_rebuilt, _RecordedRows.made))


# -- the column index that the eliminate kernel keeps, checked after every
# replayed step

def _index_holds(work):
    """sup[i] is {j : rows[i][j] != 0}, at[j] is {i : rows[i][j] != 0}, and
    no column left of clean has two nonzero entries."""
    left = zip(*(row[:work.clean] for row in work.rows))
    return _index_is_rebuilt(work) and all(len(col) - col.count(0) < 2 for col in left)


def _replay_checking_the_index(M, steps, runs):
    """Replay steps through _Rows and _apply, in runs as replay groups them
    or one step at a time, asserting _index_holds at the start and after
    every apply.  Returns the working rows and the number of eliminate
    targets whose support set the kernel replaced as it shrank."""
    nf, work, shrunk = M.nf, ege_module._Rows(M.nf, M.rows, M.width), 0
    assert _index_holds(work)
    runs = groupby(steps, itemgetter(0, 1)) if runs else ((st[:2], (st,)) for st in steps)
    i = 0
    for (kind, r), run in runs:
        run = tuple(run)
        before = {st.s: work.sup[st.s] for st in run} if kind == "eliminate" else {}
        ege_module._apply(nf, work, kind, r, run, i)
        i += len(run)
        assert _index_holds(work), f"after trace step {i}"
        shrunk += sum(work.sup[s] is not sup for s, sup in before.items())
    return work, shrunk


class TestColumnIndex:
    @pytest.mark.parametrize("q,n", [(7, 3), (5, 4)])
    def test_dense_traces(self, q, n):
        nf = build_nearfield(q, n)
        rng = random.Random(f"column index:{q},{n}")
        for k, m in ((3, 5), (5, 5), (4, 9), (9, 6)):
            M = NfMatrix(nf, tuple(tuple(rng.randrange(1, nf.order) for _ in range(m)) for _ in range(k)), m)
            D = ege(M)
            assert any(st.kind == "trick" for st in D.trace) or k >= m
            for runs in (True, False):
                work, _ = _replay_checking_the_index(M, D.trace, runs)
                assert work.tuples(nonzero=True) == D.basis.rows

    def test_wide_seed_whose_rows_shrink(self, dn32):
        V = build_seed(200, dn32).matrix
        D = ege(V)
        # after each of the first five tricks, ELIM 1 2 1 and ELIM 1 2 -1:
        # row 1 starts left of the trick column, so the first step puts a
        # second nonzero entry there and must lower the clean prefix, and
        # the second restores the rows
        trace = list(D.trace)
        for i in reversed([i for i, st in enumerate(trace) if st.kind == "trick"][:5]):
            trace[i + 1:i + 1] = [_elim(0, 1, 1), _elim(0, 1, dn32.neg(1))]
        for steps in (D.trace, trace):
            for runs in (True, False):
                work, shrunk = _replay_checking_the_index(V, steps, runs)
                assert work.tuples(nonzero=True) == D.basis.rows
                assert shrunk > 0

    @pytest.mark.parametrize("q,n", [(3, 2), (7, 3)])
    def test_run_that_names_its_pivot_as_a_target(self, q, n):
        nf = build_nearfield(q, n)
        rng = random.Random(f"pivot target:{q},{n}")
        for _ in range(10):
            M = _random_matrix(rng, nf, max_rows=4, max_cols=6)
            k = M.n_rows
            steps = [_elim(0, rng.randrange(k), rng.randrange(nf.order)) for _ in range(4)]
            steps.insert(1, _elim(0, 0, rng.randrange(1, nf.order)))
            for runs in (True, False):
                work, _ = _replay_checking_the_index(M, steps, runs)
                assert work.tuples() == _stepwise(M, steps)

    def test_scale_by_0(self, dn32):
        # the scaled row is cleared, then filled in again from another row
        M = NfMatrix.from_rows(dn32, [(1, 2, 0, 4), (0, 5, 6, 7), (3, 0, 0, 1)])
        steps = [Step("scale", r=1, c=0), _elim(0, 1, 2), _elim(2, 1, 1), Step("scale", r=0, c=0)]
        for runs in (True, False):
            work, _ = _replay_checking_the_index(M, steps, runs)
            assert work.sup[0] == set() and work.tuples() == _ref_states(M, steps)[-1]


def _ref_states(M, steps):
    """The rows after every step, each applied alone by the reference
    arithmetic and _ref_trick; zero rows kept, as replay_states yields them."""
    nf, rows, states = M.nf, list(M.rows), []
    for st in steps:
        if st.kind == "swap":
            rows[st.r], rows[st.s] = rows[st.s], rows[st.r]
        elif st.kind == "scale":
            rows[st.r] = ref_row_axpy(nf, rows[st.r], st.c)
        elif st.kind == "eliminate":
            rows[st.s] = ref_row_axpy(nf, rows[st.r], ref_neg(nf, st.c), rows[st.s])
        else:
            _ref_trick(nf, rows, st.col, Witness(*st.witness))
        states.append(tuple(rows))
    return states


def _tuple_rows(A):
    return type(A.rows) is tuple and all(type(row) is tuple for row in A.rows)


class TestTupleRowsAtEveryExit:
    """EGE's working rows are lists updated in place; no list leaves them."""

    @pytest.mark.parametrize("q,n", [(3, 2), (7, 3)])
    def test_replay_states_yields_snapshots(self, q, n):
        # each state holds tuple rows equal to the reference at its step, and
        # still equals it once the later steps have run; the traces have
        # scales and tricks, and each ends in a swap and a run that names
        # its pivot row as a target
        nf = build_nearfield(q, n)
        rng = random.Random(f"snapshots:{q},{n}")
        kinds = set()
        for _ in range(12):
            M = _random_matrix(rng, nf, max_rows=5, max_cols=7)
            k = M.n_rows
            r = rng.randrange(k)
            tail = [Step("swap", r=0, s=k - 1)] + [_elim(r, s, rng.randrange(1, nf.order)) for s in (r, k - 1 - r)]
            steps = ege(M).trace + tuple(tail)
            kinds.update(st.kind for st in steps)
            want = _ref_states(M, steps)
            states = []
            for i, state in enumerate(replay_states(M, steps)):
                assert _tuple_rows(state) and state.rows == want[i]
                states.append(state)
            assert [state.rows for state in states] == want
        assert kinds == {"swap", "scale", "eliminate", "trick"}

    def test_results_are_tuples_and_leave_the_input(self, dn32):
        M = build_seed(12, dn32).matrix
        N = NfMatrix.from_rows(dn32, [(1, 0, 1), (0, 1, 1)])
        rows, before = (M.rows, N.rows), ([list(row) for row in M.rows], [list(row) for row in N.rows])
        D = ege(M)
        R, _ = rref(M)
        assert D.trace and all(map(_tuple_rows, (D.basis, R, replay(M, D.trace), distributivity_trick(N, 2, W32))))
        assert (M.rows, N.rows) == rows and ([list(row) for row in M.rows], [list(row) for row in N.rows]) == before


class TestRunErrorParity:
    """A bad step inside a run, or on a trace's last line, is named with
    the text that the step-by-step and line-by-line paths raise."""

    @staticmethod
    def _trace_with_a_run():
        nf = build_nearfield(7, 3)
        rng = random.Random("parity")
        M = NfMatrix(nf, tuple(tuple(rng.randrange(1, nf.order) for _ in range(5)) for _ in range(6)), 5)
        trace = list(ege(M).trace)
        # the middle step of the first run of at least three eliminate steps
        i = next(i for i in range(1, len(trace) - 1)
                 if all(st.kind == "eliminate" and st.r == trace[i].r for st in trace[i - 1:i + 2]))
        return M, trace, i

    def _refused(self, M, trace, i, message, to_text=True):
        # trace_to_text knows no row count, so it refuses only what _int_arg
        # refuses (test_to_text_refuses_a_negative_row)
        want = f"^trace step {i + 1}: {re.escape(message)}$"
        with pytest.raises(ValueError, match=want):
            replay(M, trace)
        with pytest.raises(ValueError, match=want):
            list(replay_states(M, trace))
        if to_text:
            with pytest.raises(ValueError, match=want):
                trace_to_text(M.nf, trace)

    @pytest.mark.parametrize("field", ["r", "s"])
    @pytest.mark.parametrize("bad,message", [
        (6, "row 7 out of range for 6 rows"),
        (-1, "row index must be an integer >= 0, got -1"),
        ("float", "row index must be an integer >= 0, got {bad!r}"),
        ("bool", "row index must be an integer >= 0, got {bad!r}"),
    ], ids=["past-end", "minus-1", "float", "bool"])
    def test_bad_index_mid_run(self, field, bad, message):
        M, trace, i = self._trace_with_a_run()
        st = trace[i]
        if bad == "float":      # equal to the index, so a bad r stays in the run
            bad = float(getattr(st, field))
        elif bad == "bool":     # False for the pivot row 0, so it stays in the run
            bad = bool(getattr(st, field))
        trace[i] = _elim(**{"r": st.r, "s": st.s, "c": st.c, field: bad})
        self._refused(M, trace, i, message.format(bad=bad), to_text=type(bad) is not int or bad < 0)

    @pytest.mark.parametrize("bad,message", [
        (True, "scalar code True is not an integer"),
        (1.5, "scalar code 1.5 is not an integer"),
        (343, "scalar code 343 out of range for order 343"),
        (-1, "scalar code -1 out of range for order 343"),
    ], ids=["bool", "float", "order", "minus-1"])
    def test_bad_code_mid_run(self, bad, message):
        M, trace, i = self._trace_with_a_run()
        trace[i] = _elim(trace[i].r, trace[i].s, bad)
        self._refused(M, trace, i, message)

    @pytest.mark.parametrize("line,message", [
        ("ELIM 1 2 zz", "malformed element term 'zz'"),
        ("ELIM 1 2 343", "code 343 out of range for order 343"),
        ("ELIM 1 x 1", "row must be an integer >= 1, got 'x'"),
        ("ELIM 1 2", "unknown step or wrong number of fields"),
        ("TRICK 3 1 x", "unknown step or wrong number of fields"),
        ("NUDGE 1 2", "unknown step or wrong number of fields"),
    ])
    def test_bad_last_line(self, line, message):
        M, trace, _ = self._trace_with_a_run()
        text = trace_to_text(M.nf, trace) + line + "\n"
        with pytest.raises(ValueError, match=f"^malformed trace line {re.escape(repr(line))}: {re.escape(message)}$"):
            trace_from_text(M.nf, text)

    def test_to_text_raises_the_first_error_in_step_order(self, dn32):
        good = _elim(0, 1, 1)
        with pytest.raises(ValueError, match="^trace step 2: unknown step kind 'nudge'$"):
            trace_to_text(dn32, [good, Step("nudge"), _elim(0, 1, -1)])
        with pytest.raises(ValueError, match="^trace step 2: scalar code -1 out of range for order 9$"):
            trace_to_text(dn32, [good, _elim(0, 1, -1), Step("nudge")])
        with pytest.raises(ValueError, match="^trace step 1: scalar code True is not an integer$"):
            trace_to_text(dn32, [_elim(0, 1, True), Step("swap", r=None, s=0)])

    @pytest.mark.parametrize("step,message", [
        (_elim(False, True, 1), "row index must be an integer >= 0, got False"),
        (_elim(0, 1.0, 1), "row index must be an integer >= 0, got 1.0"),
        (Step("swap", r=True, s=0), "row index must be an integer >= 0, got True"),
        (Step("swap", r=0, s=None), "row index must be an integer >= 0, got None"),
        (Step("scale", r=True, c=1), "row index must be an integer >= 0, got True"),
        (Step("trick", col=True, witness=(1, X, X)), "column index must be an integer >= 0, got True"),
    ], ids=["elim-bool", "elim-float", "swap-bool", "swap-none", "scale-bool", "trick-bool"])
    def test_to_text_refuses_an_index_that_is_not_an_int(self, dn32, step, message):
        # the text replay raises for the same step
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (1, 1, 0)])
        with pytest.raises(ValueError, match=f"^trace step 1: {re.escape(message)}$"):
            replay(M, [step])
        with pytest.raises(ValueError, match=f"^trace step 1: {re.escape(message)}$"):
            trace_to_text(dn32, [step])
        with pytest.raises(ValueError, match=f"^trace step 2: {re.escape(message)}$"):
            trace_to_text(dn32, [_elim(0, 1, 1), step, _elim(0, 1, 2)])

    def test_to_text_raises_a_bad_index_and_a_bad_code_in_step_order(self, dn32):
        with pytest.raises(ValueError, match="^trace step 1: scalar code -1 out of range for order 9$"):
            trace_to_text(dn32, [_elim(0, 1, -1), Step("swap", r=True, s=0)])
        with pytest.raises(ValueError, match="^trace step 1: row index must be an integer >= 0, got True$"):
            trace_to_text(dn32, [Step("swap", r=True, s=0), _elim(0, 1, -1)])
        with pytest.raises(ValueError, match="^trace step 1: scalar code True is not an integer$"):
            trace_to_text(dn32, [Step("scale", r=0, c=True), _elim(False, 1, 1)])
        with pytest.raises(ValueError, match="^trace step 1: row index must be an integer >= 0, got False$"):
            trace_to_text(dn32, [_elim(False, 1, 1), Step("scale", r=0, c=True)])
        # within a trick step, a bad witness code comes before the column, as in replay
        with pytest.raises(ValueError, match="^trace step 1: witness code 9 out of range for order 9$"):
            trace_to_text(dn32, [Step("trick", col=True, witness=(1, 9, X))])

    @pytest.mark.parametrize("steps,i,item", [
        ([None], 1, "None"),
        ([("eliminate", 0)], 1, "('eliminate', 0)"),
        ([("swap", 0, 1)], 1, "('swap', 0, 1)"),
        ([Step("swap", r=0, s=1), 5], 2, "5"),
    ], ids=["none", "short-tuple", "tuple", "int-after-a-step"])
    @pytest.mark.parametrize("run", ["replay", "replay_states", "trace_to_text"])
    def test_an_item_that_is_not_a_step_is_refused(self, dn32, steps, i, item, run):
        # TypeError, IndexError and AttributeError got out before
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (1, 1, 0)])
        call = {"replay": lambda: replay(M, steps), "replay_states": lambda: list(replay_states(M, steps)),
                "trace_to_text": lambda: trace_to_text(dn32, steps)}[run]
        with pytest.raises(ValueError, match=f"^trace step {i}: {re.escape(item)} is not a Step$"):
            call()

    def test_a_bad_step_before_an_item_that_is_not_a_step_is_named_first(self, dn32):
        M = NfMatrix.from_rows(dn32, [(1, 0, 1), (1, 1, 0)])
        steps = [_elim(0, 1, 1), _elim(0, 5, 1), None]
        with pytest.raises(ValueError, match="^trace step 2: row 6 out of range for 2 rows$"):
            replay(M, steps)
        with pytest.raises(ValueError, match="^trace step 2: row 6 out of range for 2 rows$"):
            list(replay_states(M, steps))
        with pytest.raises(ValueError, match="^trace step 3: None is not a Step$"):
            trace_to_text(dn32, steps)    # with no row count, row 6 is in range
        with pytest.raises(ValueError, match="^trace step 2: scalar code -1 out of range for order 9$"):
            trace_to_text(dn32, [_elim(0, 1, 1), _elim(0, 1, -1), None])


# -- the trace reader tests every index of a trace in one batch; when that
# fails, each is read one by one by _ascii_int, as at least 1, and the text
# names the first bad line

_INDEX_LINES = [    # line with {} for the index, the index's field
    ("ELIM {} 1 1", "row"),
    ("ELIM 1 {} zz", "row"),
    ("SWAP 2 {}", "row"),
    ("SCALE {} x", "row"),
    ("TRICK {} 1 x x", "column"),
]


@pytest.mark.parametrize("line,field", _INDEX_LINES, ids=["elim-r", "elim-s", "swap", "scale", "trick"])
@pytest.mark.parametrize("index,message", [
    ("\u0662", "{field} must be an integer >= 1, got '\u0662'"),
    ("1_0", "{field} must be an integer >= 1, got '1_0'"),
    ("+2", "{field} must be an integer >= 1, got '+2'"),
    ("-0", "{field} must be an integer >= 1, got '-0'"),
    ("0", "{field} must be an integer >= 1, got '0'"),
    ("9" * 4301, "{field} has 4301 digits, more than 4300"),
], ids=["arabic-indic-2", "underscore", "plus", "minus-0", "0", "4301-digits"])
def test_trace_index_error_texts(dn32, line, field, index, message):
    # the texts that each index is refused with when it is read on its own
    line = line.format(index)
    want = f"malformed trace line {line!r}: {message.format(field=field)}"
    # alone, and on line 2 after a good line and before another bad one
    for text in (line, f"SWAP 1 2\n{line}\nELIM zz 1 1\n"):
        with pytest.raises(ValueError) as e:
            trace_from_text(dn32, text)
        assert str(e.value) == want


_INDICES_FIRST = [    # line, its first fault, the text that names it
    ("ELIM 0 1 zz", "row 0 out of range", "row must be an integer >= 1, got '0'"),
    ("ELIM 1 0 zz", "row 0 out of range", "row must be an integer >= 1, got '0'"),
    ("SCALE 0 1", "row 0 out of range", "row must be an integer >= 1, got '0'"),
    ("TRICK 0 1 1 1", "column index out of range", "column must be an integer >= 1, got '0'"),
    ("TRICK 0 zz 1 1", "column index out of range", "column must be an integer >= 1, got '0'"),
    ("ELIM 0 x 1", "row 0 before row x", "row must be an integer >= 1, got '0'"),
    ("ELIM -3 1 zz", "row -3 out of range", "row must be an integer >= 1, got '-3'"),
]


@pytest.mark.parametrize("line,fault,message", _INDICES_FIRST,
                         ids=[f"{line}-{fault}" for line, fault, _ in _INDICES_FIRST])
def test_trace_line_checks_its_indices_before_its_tokens(dn32, line, fault, message):
    # a line's indices are read in turn, each tested against 1, and then its tokens parsed
    for text in (line, f"SWAP 1 2\n{line}\nELIM zz 1 1\n"):
        with pytest.raises(ValueError) as e:
            trace_from_text(dn32, text)
        assert str(e.value) == f"malformed trace line {line!r}: {message}"


def test_trace_index_with_leading_zeros(dn32):
    assert trace_from_text(dn32, "ELIM 01 1 1\nSWAP 2 001\nSCALE 01 x\nTRICK 01 1 x x\n") == (
        _elim(0, 0, 1), Step("swap", r=1, s=0), Step("scale", r=0, c=X), Step("trick", col=0, witness=(1, X, X)))


# -- replay's trick verdicts: a replayed trick's conflict scan starts at the
# clean prefix that _Rows keeps; the reference scans from column 0

def _ref_verdict(M, steps):
    """(step number, text) of the first trick refused when each is checked on
    the replay_states snapshot before it by _ref_first_conflict, which scans
    from column 0; None when every trick applies."""
    rows, states = M.rows, replay_states(M, steps)
    for n, st in enumerate(steps, 1):
        if st.kind == "trick":
            first = _ref_first_conflict(rows, M.width)
            if first is None or first > st.col:
                return n, "the trick column is not a conflict column"
            if first < st.col:
                return n, "an earlier column already has two nonzero entries before the trick column"
        rows = next(states).rows
    return None


@pytest.mark.parametrize("q,n", [(3, 2), (7, 3)])
def test_replay_trick_verdicts_match_a_scan_from_column_0(q, n):
    # seeded EGE traces with tricks, mutated by inserting, dropping or
    # retargeting eliminate steps: an eliminate whose pivot row starts left
    # of an earlier trick column must lower the clean prefix, or replay
    # would miss the conflict that it makes there.  A detour inserts
    # ELIM r s c and ELIM r s -c, which leave the rows as they were but
    # lower the prefix, so the tricks after it still apply
    nf = build_nearfield(q, n)
    rng = random.Random(f"verdicts:{q},{n}")
    cases = [build_seed(m, nf).matrix for m in (6, 9, 12, 16)]
    cases += [_random_matrix(rng, nf, max_rows=5, max_cols=8) for _ in range(8)]
    verdicts = {"accepted": 0, "refused": 0}
    for M in cases:
        D = ege(M)
        if not any(st.kind == "trick" for st in D.trace):
            continue
        k = M.n_rows
        for _ in range(16):
            trace = list(D.trace)
            for _ in range(rng.randint(1, 3)):
                elims = [i for i, st in enumerate(trace) if st.kind == "eliminate"]
                action = rng.choice(["insert", "drop", "retarget", "detour"] if elims else ["insert", "detour"])
                if action == "detour" and k > 1:
                    r, s = rng.sample(range(k), 2)
                    c, i = rng.randrange(1, nf.order), rng.randint(0, len(trace))
                    trace[i:i] = [_elim(r, s, c), _elim(r, s, nf.neg(c))]
                elif action in ("insert", "detour"):
                    trace.insert(rng.randint(0, len(trace)), _elim(rng.randrange(k), rng.randrange(k),
                                                                   rng.randrange(1, nf.order)))
                elif action == "drop":
                    del trace[rng.choice(elims)]
                else:
                    i = rng.choice(elims)
                    trace[i] = _elim(trace[i].r, rng.randrange(k), trace[i].c)
            want = _ref_verdict(M, trace)
            if want is None:
                rows = _ref_states(M, trace)[-1]
                assert replay(M, trace).rows == tuple(row for row in rows if any(row))
            else:
                with pytest.raises(ValueError, match=f"^trace step {want[0]}: {re.escape(want[1])}$"):
                    replay(M, trace)
            verdicts["refused" if want else "accepted"] += 1
    assert min(verdicts.values()) >= 20, verdicts


@pytest.mark.parametrize("text", [
    "SWAP 1 2\nSWAP 1 2\nSWAP 1\u20032\n", "SWAP 1 2\r\nSWAP 1 2\r\nSWAP 1\u20032\r\n",
    "SWAP 1 2\rSWAP 1 2\rSWAP 1\u20032\r", "SWAP 1 2\r\rSWAP 1\u20032\n",
], ids=["lf", "crlf", "cr", "cr-blank-line"])
def test_trace_separator_error_numbers_lines_as_splitlines_does(dn32, text):
    # LF alone was counted, so the CR-only traces named line 1
    with pytest.raises(ValueError, match=r"^trace line 3: whitespace '\\u2003' \(U\+2003\)"):
        trace_from_text(dn32, text)


@pytest.mark.parametrize("call,field,prefix", [
    pytest.param(lambda M, v: replay(M, [Step("swap", r=v, s=0)]), "row index", "trace step 1: ", id="replay-r"),
    pytest.param(lambda M, v: replay(M, [_elim(0, v, 1)]), "row index", "trace step 1: ", id="replay-s"),
    pytest.param(lambda M, v: replay(M, [Step("trick", col=v, witness=(1, X, X))]), "column index",
                 "trace step 1: ", id="replay-col"),
    pytest.param(lambda M, v: distributivity_trick(M, v, W32), "column index", "", id="trick-col"),
])
def test_integer_arguments_refused(dn32, refuse_int, call, field, prefix):
    # a row index of -1 was `row 0 out of range for 2 rows`, a column of -1
    # `column index out of range`, and 1.5 `row index 1.5 is not an integer`
    M = NfMatrix.from_rows(dn32, [(1, 0, 1), (1, 1, 0)])
    refuse_int(lambda v: call(M, v), field, 0, prefix)
