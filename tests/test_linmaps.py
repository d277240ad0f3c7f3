import functools
import importlib
import itertools
import random
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nearvec import (
    BudgetExceededError,
    MapClass,
    MapRep,
    VectorSet,
    apply_map,
    classify,
    compose,
    count_maps,
    enumerate_maps,
    is_bijective,
    is_linear,
    is_normal,
    lc_index,
    lc_step,
    linear_violation,
    map_sum,
    build_nearfield,
    pack_vector,
    scale_family,
    unpack_vector,
    vec_add,
    vec_neg,
    vec_scale_right,
)
from nearvec import closure

linmaps_module = importlib.import_module("nearvec.linmaps")

X = 3


@pytest.fixture(scope="module")
def counterexample(dn32):
    # basis images (1,0) -> (1,2), (0,1) -> (1,1)
    return MapRep.from_columns(dn32, [(1, 2), (1, 1)])


def _all_linear(nf, n=2):
    return [T for T in enumerate_maps(nf, n) if is_linear(T)]


class TestApply:
    def test_identity(self, dn32):
        I = MapRep.identity(dn32, 2)
        for v in itertools.product(range(9), repeat=2):
            assert apply_map(I, v) == v

    def test_example(self, counterexample, dn32):
        assert counterexample.matrix == ((1, 1), (2, 1))
        assert apply_map(counterexample, (1, X)) == (4, 5)  # (1+x, 2+x)

    def test_zero(self, counterexample):
        assert apply_map(counterexample, (0, 0)) == (0, 0)

    def test_dimension_mismatch(self, counterexample):
        with pytest.raises(ValueError):
            apply_map(counterexample, (1, 2, 3))

    def test_additive_homomorphism_sampled(self, dn32):
        rng = random.Random(5)
        vectors = list(itertools.product(range(9), repeat=2))
        for _ in range(50):
            T = MapRep(dn32, 2, tuple(
                tuple(rng.randrange(9) for _ in range(2)) for _ in range(2)))
            for u in vectors:
                tu = apply_map(T, u)
                for v in vectors:
                    assert apply_map(T, vec_add(dn32, u, v)) == vec_add(
                        dn32, tu, apply_map(T, v))


class TestLinearity:
    def test_counterexample_not_linear(self, counterexample):
        assert not is_linear(counterexample)
        assert not is_linear(counterexample, "semantic")

    def test_violating_pair_rechecks(self, counterexample, dn32):
        v, r = linear_violation(counterexample)
        lhs = apply_map(counterexample, vec_scale_right(dn32, v, r))
        rhs = vec_scale_right(dn32, apply_map(counterexample, v), r)
        assert lhs != rhs
        # the documented pair ((1, x), x) violates too
        v2, r2 = (1, X), X
        assert apply_map(counterexample, vec_scale_right(dn32, v2, r2)) != vec_scale_right(
            dn32, apply_map(counterexample, v2), r2)

    def test_single_entry_rows_linear(self, dn32):
        T = MapRep(dn32, 2, ((0, 5), (7, 0)))
        assert is_linear(T) and is_linear(T, "semantic")

    def test_row_with_two_entries_not_linear(self, dn32):
        T = MapRep(dn32, 2, ((1, 1), (0, 0)))
        assert not is_linear(T) and not is_linear(T, "semantic")

    def test_mode_validation(self, counterexample, dn32):
        with pytest.raises(ValueError):
            is_linear(counterexample, "telepathic")
        with pytest.raises(ValueError, match="^mode must be 'criterion' or 'semantic'$"):
            is_normal(MapRep.identity(dn32, 2), "telepathic")

    def test_semantic_budget(self, dn32):
        I = MapRep.identity(dn32, 7)
        with pytest.raises(BudgetExceededError):
            is_linear(I, "semantic")


    @pytest.mark.parametrize("check", [is_linear, is_normal])
    def test_semantic_scan_bounded_before_any_work(self, dn32, monkeypatch, check):
        # the one guard is |R|^n, checked by _images_packed before any image,
        # column or label is built; a check reads (d - 1) |R|^n pairs
        def no_work(*args):
            raise AssertionError("the guard ran after the scan started")
        monkeypatch.setattr(MapRep, "_images", property(no_work))
        monkeypatch.setattr(linmaps_module, "scale_column", no_work)
        with pytest.raises(BudgetExceededError, match=r"^\|R\|\^n = 9\^7 exceeds"):
            check(MapRep.identity(dn32, 7), "semantic")
        monkeypatch.setenv("NEARVEC_BUDGET", "80")
        with pytest.raises(BudgetExceededError, match=r"^\|R\|\^n = 9\^2 exceeds the element budget 80"):
            check(MapRep.identity(dn32, 2), "semantic")
        monkeypatch.undo()
        monkeypatch.setenv("NEARVEC_BUDGET", "81")
        assert check(MapRep.identity(dn32, 2), "semantic")
        monkeypatch.undo()
        # DN(31,2)^2 has 923521 vectors, under the budget: refused while the
        # guard named |R|^(n+1) = 961^3, the pairs of a scan over every scalar
        assert check(MapRep.identity(build_nearfield(31, 2), 2), "semantic")


class TestImagesOnce:
    def test_one_build_shared_by_the_semantic_checks(self, dn32, monkeypatch):
        # a linear map that is not normal, so is_bijective counts its images;
        # a build translates p - 1 times per (column, basis scalar x^i): 2 x 2 x 2 calls
        calls, real = [], linmaps_module.translate
        def counted(nf, m, codes, c):
            calls.append(c)
            return real(nf, m, codes, c)
        monkeypatch.setattr(linmaps_module, "translate", counted)
        T = MapRep.from_columns(dn32, [(1, X), (0, 0)])
        assert classify(T) is MapClass.LINEAR and not calls
        assert linear_violation(T) is None and len(calls) == 8
        # the labels translate the 9-element image once per coset, 81 / 9
        assert not is_normal(T, "semantic") and len(calls) == 8 + 9
        assert not is_bijective(T) and linear_violation(T) is None and len(calls) == 17
        # another map, even an equal one, builds its own images
        assert not is_bijective(MapRep.from_columns(dn32, [(1, X), (0, 0)])) and len(calls) == 25

    def test_budget_checked_before_the_images_are_read(self, dn32, monkeypatch):
        T = MapRep.from_columns(dn32, [(1, X), (0, 0)])
        assert not is_bijective(T)
        monkeypatch.setenv("NEARVEC_BUDGET", "80")
        with pytest.raises(BudgetExceededError, match=r"^\|R\|\^n = 9\^2 exceeds the element budget 80"):
            is_bijective(T)
        with pytest.raises(BudgetExceededError, match=r"^\|R\|\^n = 9\^2 exceeds"):
            linear_violation(T)


class TestMapRepCodes:
    def test_refuses_bad_codes_by_the_fields_check(self, dn32, bad_code):
        # a float or bool once passed the range check, and a str raised TypeError
        bad, message = bad_code
        with pytest.raises(ValueError, match=f"^element code {re.escape(message)}$"):
            MapRep(dn32, 2, ((1, 0), (0, bad)))
        with pytest.raises(ValueError, match=f"^element code {re.escape(message)}$"):
            MapRep.from_columns(dn32, [(bad, 0), (0, 1)])

    @pytest.mark.parametrize("n,matrix", [(2, ((1, 0),)), (2, ((1, 0), (0,))), (1, ((1, 0),))],
                             ids=["rows", "ragged", "cols"])
    def test_refuses_a_matrix_that_is_not_n_x_n(self, dn32, n, matrix):
        with pytest.raises(ValueError, match="^matrix must be n x n$"):
            MapRep(dn32, n, matrix)


class TestNormality:
    def test_single_cell_map_normal(self, dn32):
        # columns e2 and 0, i.e. M_{21} = 1
        T = MapRep.from_columns(dn32, [(0, 1), (0, 0)])
        assert T.matrix == ((0, 0), (1, 0))
        assert is_normal(T) and is_normal(T, "semantic")

    def test_identity_normal_bijective(self, dn32):
        I = MapRep.identity(dn32, 2)
        assert is_normal(I) and is_normal(I, "semantic")
        assert is_bijective(I)

    def test_two_entries_in_column_not_normal(self, dn32):
        T = MapRep.from_columns(dn32, [(1, X), (0, 0)])
        assert is_linear(T)
        assert not is_normal(T)
        assert not is_normal(T, "semantic")

    def test_rejects_non_linear(self, counterexample):
        with pytest.raises(ValueError, match="linear"):
            is_normal(counterexample)


class TestAgreementN3:
    def test_criterion_semantic_agreement_sampled(self, dn32):
        rng = random.Random(31)
        for _ in range(25):
            T = MapRep(dn32, 3, tuple(
                tuple(rng.randrange(9) for _ in range(3)) for _ in range(3)))
            assert is_linear(T) == is_linear(T, "semantic")

    def test_normal_agreement_sampled(self, dn32):
        cases = [MapRep.identity(dn32, 3)]  # full-image invertible case
        rng = random.Random(37)
        for _ in range(6):
            rows = []
            for _ in range(3):
                row = [0, 0, 0]
                if rng.random() < 0.8:
                    row[rng.randrange(3)] = rng.randrange(1, 9)
                rows.append(tuple(row))
            cases.append(MapRep(dn32, 3, tuple(rows)))
        # linear but with a repeated column support: small image, not normal
        cases.append(MapRep(dn32, 3, ((2, 0, 0), (5, 0, 0), (0, 3, 0))))
        for T in cases:
            assert is_linear(T) and is_linear(T, "semantic")
            assert is_normal(T) == is_normal(T, "semantic")

    def test_proof_style_witness_for_double_row(self, dn32):
        """A row with entries at s and t yields a violating pair directly
        from the distributivity witness: v has (M_is)^-1 o alpha and
        (M_it)^-1 o beta at those spots, r = lam."""
        w = dn32.find_witness()
        M = ((4, 7), (0, 0))  # row 0 holds two nonzero entries
        T = MapRep(dn32, 2, M)
        v = (dn32.mul(dn32.inv(M[0][0]), w.alpha), dn32.mul(dn32.inv(M[0][1]), w.beta))
        r = w.lam
        lhs = apply_map(T, vec_scale_right(dn32, v, r))
        rhs = vec_scale_right(dn32, apply_map(T, v), r)
        assert lhs != rhs


class TestClassify:
    def test_scaled_permutation(self, dn32):
        T = MapRep(dn32, 2, ((0, 5), (7, 0)))
        assert classify(T) is MapClass.INVERTIBLE_NORMAL
        assert is_bijective(T)

    def test_zero_map(self, dn32):
        T = MapRep(dn32, 2, ((0, 0), (0, 0)))
        assert classify(T) is MapClass.NORMAL_LINEAR
        assert not is_bijective(T)

    def test_hom_only(self, dn32):
        T = MapRep(dn32, 2, ((1, 1), (0, 0)))
        assert classify(T) is MapClass.HOM_ONLY

    def test_linear_not_normal(self, dn32):
        T = MapRep.from_columns(dn32, [(1, X), (0, 0)])
        assert classify(T) is MapClass.LINEAR

    def test_bijectivity_agrees_with_image_count(self, dn32):
        """Structural rule vs honest image counting on every normal map."""
        for T in enumerate_maps(dn32, 2):
            if not is_linear(T) or not is_normal(T):
                continue
            structural = is_bijective(T)
            images = {apply_map(T, v) for v in itertools.product(range(9), repeat=2)}
            assert structural == (len(images) == 81)


class TestCounts:
    def test_closed_forms(self, dn32):
        assert count_maps(dn32, 2, "all") == 6561
        assert count_maps(dn32, 2, "linear") == 289
        assert count_maps(dn32, 2, "normal") == 161

    def test_enumeration_matches_closed_form(self, dn32, dn52):
        # n = 0 has one matrix, the empty one
        for nf in (build_nearfield(2, 1), dn32, dn52):
            for n in (0, 1, 2):
                for kind in ("all", "linear", "normal"):
                    assert count_maps(nf, n, kind, "enumeration") == count_maps(nf, n, kind), (nf, n, kind)

    def test_n1(self, dn32):
        assert count_maps(dn32, 1, "all") == 9
        assert count_maps(dn32, 1, "linear") == 9
        assert count_maps(dn32, 1, "normal") == 9

    def test_kind_validation(self, dn32):
        with pytest.raises(ValueError):
            count_maps(dn32, 2, "unitary")
        with pytest.raises(ValueError):
            count_maps(dn32, 2, "all", "guess")

    def test_dimension_must_be_an_int(self, dn32):
        # 1.5 once returned the float 140.296... and 2.0 the float 289.0
        for n in (1.5, 2.0, True):
            for kind in ("all", "linear", "normal"):
                for method in ("closed_form", "enumeration"):
                    with pytest.raises(ValueError, match=r"^dimension must be an integer >= 0, got "):
                        count_maps(dn32, n, kind, method)
        with pytest.raises(ValueError, match="^dimension must be an integer >= 0, got -1$"):
            count_maps(dn32, -1, "all")

    def test_closed_form_digit_bound(self, dn32, monkeypatch):
        # |R|^(n^2) has at most n^2 len(str(|R|)) digits: 9 for n = 3 over DN(3,2)
        monkeypatch.setenv("NEARVEC_BUDGET", "8")
        with pytest.raises(BudgetExceededError, match="NEARVEC_BUDGET"):
            count_maps(dn32, 3, "all")
        monkeypatch.setenv("NEARVEC_BUDGET", "9")
        assert count_maps(dn32, 3, "all") == 9 ** 9
        monkeypatch.delenv("NEARVEC_BUDGET")
        with pytest.raises(BudgetExceededError):
            count_maps(dn32, 1001, "all")  # 1002001 digits over the default budget
        # linear and normal counts are bounded by (1 + n (|R|-1))^n: 4004 digits
        assert count_maps(dn32, 1001, "linear") == 8009 ** 1001
        assert count_maps(dn32, 1001, "normal") < 8009 ** 1001

    def test_enumeration_budget(self, dn32, monkeypatch):
        monkeypatch.setenv("NEARVEC_BUDGET", "1000")
        with pytest.raises(BudgetExceededError):
            count_maps(dn32, 3, "linear", "enumeration")

    def test_enumerate_maps_refused_before_computing(self, dn32):
        # 9^(10^8) is named by its power, not computed
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=r"\|R\|\^\(n\^2\) = 9\^100000000 exceeds .* \(NEARVEC_BUDGET\)"):
            next(enumerate_maps(dn32, 10 ** 4))
        assert time.perf_counter() - t0 < 1


class TestCompose:
    def test_identity_neutral(self, counterexample, dn32):
        I = MapRep.identity(dn32, 2)
        assert compose(counterexample, I).matrix == counterexample.matrix
        assert compose(I, counterexample).matrix == counterexample.matrix

    def test_function_agreement_when_outer_linear(self, dn32):
        # the product matrix acts as the composite whenever the second
        # (outer) map is linear; the first may be arbitrary
        rng = random.Random(17)
        linear = _all_linear(dn32)
        vectors = list(itertools.product(range(9), repeat=2))
        for _ in range(60):
            T1 = MapRep(dn32, 2, tuple(
                tuple(rng.randrange(9) for _ in range(2)) for _ in range(2)))
            T2 = rng.choice(linear)
            C = compose(T1, T2)
            for v in vectors:
                assert apply_map(C, v) == apply_map(T2, apply_map(T1, v))

    def test_linear_closed_sampled(self, dn32):
        rng = random.Random(19)
        linear = _all_linear(dn32)
        for _ in range(300):
            C = compose(rng.choice(linear), rng.choice(linear))
            assert is_linear(C)

    def test_normal_closed_sampled(self, dn32):
        rng = random.Random(21)
        normal = [T for T in _all_linear(dn32) if is_normal(T)]
        assert len(normal) == 161
        for _ in range(300):
            C = compose(rng.choice(normal), rng.choice(normal))
            assert is_normal(C)

    def test_dimension_mismatch(self, dn32):
        with pytest.raises(ValueError):
            compose(MapRep.identity(dn32, 2), MapRep.identity(dn32, 3))


class TestSumAndScale:
    def test_not_closed_under_addition(self, dn32):
        T1 = MapRep(dn32, 2, ((0, 0), (0, 1)))
        T2 = MapRep(dn32, 2, ((0, 0), (1, 0)))
        assert is_normal(T1) and is_normal(T2)
        S = map_sum(T1, T2)
        assert S.matrix == ((0, 0), (1, 1))
        assert not is_linear(S)

    def test_sum_refuses_maps_on_different_spaces(self, dn32, dn52):
        for T2 in (MapRep.identity(dn32, 3), MapRep.identity(dn52, 2)):
            with pytest.raises(ValueError, match="^maps must live on the same space$"):
                map_sum(MapRep.identity(dn32, 2), T2)

    def test_scale_by_ones_is_identity(self, dn32):
        T = MapRep(dn32, 2, ((0, 5), (7, 0)))
        assert scale_family(T, (1, 1)).matrix == T.matrix

    def test_scale_by_zero_zeroes_column(self, dn32):
        T = MapRep(dn32, 2, ((0, 5), (7, 0)))
        S = scale_family(T, (0, 1))
        assert S.column(0) == (0, 0)
        assert is_linear(S)

    def test_every_scale_of_every_linear_map_is_linear(self, dn32):
        """Exhaustive: 289 linear maps x 81 scalar pairs, semantic check."""
        linear = _all_linear(dn32)
        assert len(linear) == 289
        scalars = list(itertools.product(range(9), repeat=2))
        for T in linear:
            for rs in scalars:
                assert is_linear(scale_family(T, rs), "semantic")

    def test_rejects_non_linear(self, counterexample):
        with pytest.raises(ValueError, match="linear"):
            scale_family(counterexample, (1, 1))


# -- oracle: the per-entry semantics the packed helpers replaced -------------

@functools.lru_cache(maxsize=None)
def _entry_tables(nf, n):
    """(vscale, vadd, vneg) on packed codes, each entry through unpack/vec_*/pack."""
    space = nf.order ** n
    vecs = [unpack_vector(nf, n, c) for c in range(space)]
    vscale = [[pack_vector(nf, vec_scale_right(nf, v, r)) for r in range(nf.order)] for v in vecs]
    vadd = [[pack_vector(nf, vec_add(nf, u, v)) for v in vecs] for u in vecs]
    vneg = [pack_vector(nf, vec_neg(nf, v)) for v in vecs]
    return vscale, vadd, vneg


def _entry_images(T):
    return [pack_vector(T.nf, apply_map(T, unpack_vector(T.nf, T.n, c)))
            for c in range(T.nf.order ** T.n)]


def _entry_linear_violation(T):
    vscale, _, _ = _entry_tables(T.nf, T.n)
    img = _entry_images(T)
    for c, ic in enumerate(img):
        for r in range(T.nf.order):
            if img[vscale[c][r]] != vscale[ic][r]:
                return unpack_vector(T.nf, T.n, c), r
    return None


def _entry_is_normal(T):
    """(m + a) o r - m o r in H for every m, every a in H and every r."""
    vscale, vadd, vneg = _entry_tables(T.nf, T.n)
    image = set(_entry_images(T))
    return all(vadd[vscale[vadd[m][a]][r]][vneg[vscale[m][r]]] in image
               for m in range(len(vscale)) for a in image for r in range(T.nf.order))


@pytest.mark.parametrize("q,k,n", [(5, 2, 2), (3, 2, 3)])
def test_first_violation_matches_per_entry_oracle(q, k, n):
    # hom-only maps: row 0 holds two nonzero entries, the other rows are
    # random; the first violating scalar lies past the start of the row
    nf = build_nearfield(q, k)
    rng = random.Random(43)
    for _ in range(6):
        rows = [tuple(rng.randrange(nf.order) for _ in range(n)) for _ in range(n)]
        rows[0] = (rng.randrange(1, nf.order), rng.randrange(1, nf.order)) + rows[0][2:]
        T = MapRep(nf, n, tuple(rows))
        violation = linear_violation(T)
        assert violation is not None and violation[1] > 1
        assert violation == _entry_linear_violation(T)


def test_semantic_checks_match_per_entry_oracle_on_every_map_of_dn32_squared(dn32):
    # all 9^4 maps; (1 + 2 x 8)^2 of them are linear
    linear = 0
    for T in enumerate_maps(dn32, 2):
        violation = linear_violation(T)
        assert violation == _entry_linear_violation(T)
        if violation is None:
            linear += 1
            assert is_normal(T, "semantic") == _entry_is_normal(T)
    assert linear == 289


# DN(3,2)^1..3, DN(5,2)^2, GF(7)^2, DN(4,3)^1 (p = 2, d = 6), GF(8)^2 (p = 2)
# and GF(9)^2 (a field with d = 2)
ORACLE_SPACES = [(3, 2, 1), (3, 2, 2), (3, 2, 3), (5, 2, 2), (7, 1, 2), (4, 3, 1), (8, 1, 2), (9, 1, 2)]


@st.composite
def _maps(draw):
    """Maps of every class: each row is zero, one entry, or drawn at random."""
    q, k, n = draw(st.sampled_from(ORACLE_SPACES))
    nf = build_nearfield(q, k)
    entry = st.integers(1, nf.order - 1)
    rows = []
    for _ in range(n):
        shape = draw(st.sampled_from(("zero", "single", "single", "dense")))
        if shape == "dense":
            row = [draw(st.integers(0, nf.order - 1)) for _ in range(n)]
        else:
            row = [0] * n
            if shape == "single":
                row[draw(st.integers(0, n - 1))] = draw(entry)
        rows.append(tuple(row))
    return MapRep(nf, n, tuple(rows))


@pytest.fixture(params=["cap", "no_table"])
def scale_cap(request, monkeypatch):
    """The real scaling-table cap, or 0 so that no column is cached and every
    product is computed on lookup; the oracle fields' cached scaling columns
    are dropped before and after."""
    if request.param == "no_table":
        monkeypatch.setattr(closure, "_VSCALE_TABLE_CAP", 0)
    fields = {build_nearfield(q, k) for q, k, _ in ORACLE_SPACES + [(3, 2, 4)]}
    for nf in fields:
        nf._scale_columns.clear()
    yield request.param
    for nf in fields:
        nf._scale_columns.clear()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_maps())
def test_semantic_checks_match_per_entry_oracle(scale_cap, T):
    violation = linear_violation(T)
    assert violation == _entry_linear_violation(T)
    images = _entry_images(T)
    assert is_bijective(T) == (len(set(images)) == len(images))
    if violation is None and is_linear(T):  # over a field every map is linear
        # the oracle costs space * |H| * order; the full-image maps of the
        # two largest spaces would take seconds each
        if len(images) * len(set(images)) * T.nf.order <= 10 ** 6:
            assert is_normal(T, "semantic") == _entry_is_normal(T)


@pytest.mark.parametrize("q,k,m,scalars", [
    pytest.param(q, k, m, None, id=f"{q}-{k}-{m}") for q, k, m in ORACLE_SPACES + [(3, 2, 4), (3, 2, 0)]
] + [pytest.param(3, 2, 2, (5,), id="3-2-2-one-scalar")])
def test_scale_rows_match_vec_scale_right(scale_cap, q, k, m, scalars):
    # every scalar's column by default; R^0 is a column of one code
    nf = build_nearfield(q, k)
    space = nf.order ** m
    for r in scalars or range(nf.order):
        col = closure.scale_column(nf, m, r)
        assert type(col) is list and len(col) == space
        assert all(type(x) is int for x in col)
        assert col == [pack_vector(nf, vec_scale_right(nf, unpack_vector(nf, m, c), r))
                       for c in range(space)]
        assert (closure.scale_column(nf, m, r) is col) == (scale_cap == "cap")


def test_scale_rows_on_demand_hold_the_codes_of_the_space_only(dn32, scale_cap):
    # a row computed on lookup once took any int: code 9^7 of R^7 gave a zero
    # row and -1 a row of codes, so iteration, list() and zip(*rows) never
    # ended; a column holds the codes of range(space) and no more, cached or not
    for m in (0, 1, 2):
        col = closure.scale_column(dn32, m, X)
        assert len(col) == 9 ** m and list(col) == [col[c] for c in range(9 ** m)]
        with pytest.raises(IndexError):
            col[9 ** m]
        with pytest.raises(IndexError):
            col[-9 ** m - 1]


def test_scale_column_matches_the_rows_and_is_cached_under_the_cap(dn32, scale_cap):
    for r in (3, 5):
        col = closure.scale_column(dn32, 2, r)
        assert col == [pack_vector(dn32, vec_scale_right(dn32, unpack_vector(dn32, 2, c), r))
                       for c in range(81)]
        assert (closure.scale_column(dn32, 2, r) is col) == (scale_cap == "cap")


def test_no_column_of_x0_is_built(monkeypatch):
    # w o x^0 = w: LC_1 seeds S itself and the semantic checks test x^i for
    # 0 < i < d only, so no call builds or caches the column of the scalar 1,
    # and over a field, d = 1, none is built at all
    built, real = [], closure._column
    monkeypatch.setattr(closure, "_column", lambda nf, m, r: built.append(r) or real(nf, m, r))
    for q, k in ((3, 2), (5, 1)):
        nf = build_nearfield(q, k)
        nf._scale_columns.clear()
        S = VectorSet.from_vectors(nf, 2, [(1, nf.p ** (nf.d - 1))])
        lc_step(S)
        closure.gen_size(S)
        lc_index(nf, [(1, 0), (0, 1)])
        for T in (MapRep.from_columns(nf, [(1, 2), (0, 0)]), MapRep.from_columns(nf, [(1, 1), (1, 0)])):
            linear_violation(T)
            is_linear(T, "semantic")
            if is_linear(T):
                is_normal(T, "semantic")
        assert all(r != 1 for _, r in nf._scale_columns)
        assert bool(nf._scale_columns) == (nf.d > 1)
    assert built and 1 not in built


@pytest.mark.parametrize("v,message", [
    ((-1, 0), "element code -1 out of range for order 9"),
    ((10, 0), "element code 10 out of range for order 9"),
    ((1, True), "element code True is not an integer"),
    ((1.0, 0), "element code 1.0 is not an integer"),
])
def test_apply_map_checks_the_vector_codes(dn32, v, message):
    # (-1, 0) once returned (8, 0) and (10, 0) raised IndexError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_map(MapRep.identity(dn32, 2), v)


@pytest.mark.parametrize("scalars,message", [
    ((-1, 1), "scalar code -1 out of range for order 9"),
    ((1, 9), "scalar code 9 out of range for order 9"),
    ((1, True), "scalar code True is not an integer"),
    ((1,), "need one scalar per column"),
])
def test_scale_family_checks_the_scalar_codes(dn32, scalars, message):
    # (-1, 1) once gave the matrix ((8, 0), (0, 1))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scale_family(MapRep.identity(dn32, 2), scalars)


@pytest.mark.parametrize("call", [
    pytest.param(lambda nf, v: count_maps(nf, v, "all"), id="count_maps"),
    pytest.param(lambda nf, v: count_maps(nf, v, "normal", "enumeration"), id="count_maps-enum"),
    pytest.param(enumerate_maps, id="enumerate_maps"),
    pytest.param(MapRep.identity, id="identity"),
    pytest.param(lambda nf, v: MapRep(nf, v, ((1,),)), id="maprep-n"),
])
def test_integer_arguments_refused(dn32, refuse_int, call):
    # enumerate_maps and MapRep.identity once raised TypeError for 1.5, and
    # MapRep(nf, True, ((1,),)) built a map whose n was True
    refuse_int(lambda v: call(dn32, v), "dimension", 0)
