"""Maps R^n -> R^n defined by basis images.

A map is stored as the n x n matrix whose column j is the image of the
j-th standard basis vector; it sends v to sum_j (column_j o v_j) and is
always a homomorphism of the additive group.  Linearity (commuting with
the right scalar action) holds exactly when every matrix row has at
most one nonzero entry, and the image is a submodule exactly when the
same holds per column as well; both criteria are checked against brute
force semantics in the tests.

The semantic checks are those brute-force oracles: they consult no
criterion and run over all of R^n, on packed codes through closure's
scale_column and translate.  They test the scalars x^i (codes p^i), as
lc_step and find_witness do.  Fix c in R^n.  T is additive and the
nearfield is left distributive, c o (r + s) = c o r + c o s, so
D(r) = T(c o r) - T(c) o r is additive in r, and so is
f_r(m, a) = (m + a) o r - m o r.  Hence the r with D(r) = 0, or with
f_r(m, a) in a subgroup H, form a GF(p)-subspace of R, which is all of R
exactly when it holds every x^i; x^0 = 1 always passes.  So the checks
test the d - 1 scalars x, ..., x^(d-1), (d - 1) |R|^n pairs, each
scalar in passes over its column c -> c o x^i whose loops run in C.
The tests' per-entry oracles are the full reference: they test every
pair (x, r) through vec_scale_right, vec_add and vec_neg.
The images are built one base-p digit of x at a time: by left
distributivity column_j o x_j is the sum of a (column_j o x^i) over
the digits a of x_j, so T(low + p^k a) = T(low) + a (column_j o x^i),
k = j d + i, n d (p - 1) translates per map.  They are built once per
map: linear_violation, the semantic is_normal and is_bijective share
them, and |R|^n, the semantic checks' one guard, is checked on every
call before an image, column or label is built or read.
Normality is checked by coset labels: each x is labelled with the least
element of x + H, H the image, so two vectors lie in one coset exactly
when their labels agree.  That costs O(space * d), where the
definition read literally costs O(space * |H| * order); is_normal gives
the argument.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from decimal import Decimal
from math import comb, factorial
from operator import ne

from .nearfield import Nearfield, _int_arg, require_budget
from .closure import pack_vector, scale_column, translate, unpack_vector


class MapClass(enum.Enum):
    HOM_ONLY = "hom_only"
    LINEAR = "linear"
    NORMAL_LINEAR = "normal_linear"
    INVERTIBLE_NORMAL = "invertible_normal"


@dataclass(frozen=True)
class MapRep:
    """Matrix representation; matrix[i][j] is row i, column j, an element code
    checked by the field."""

    nf: Nearfield
    n: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _int_arg(self.n, "dimension")
        if len(self.matrix) != self.n or any(len(r) != self.n for r in self.matrix):
            raise ValueError("matrix must be n x n")
        for row in self.matrix:
            self.nf.check_codes(row)

    @classmethod
    def from_columns(cls, nf: Nearfield, cols) -> "MapRep":
        cols = [tuple(c) for c in cols]
        n = len(cols)
        return cls(nf, n, tuple(tuple(c[i] for c in cols) for i in range(n)))

    @classmethod
    def identity(cls, nf: Nearfield, n: int) -> "MapRep":
        _int_arg(n, "dimension")
        return cls(nf, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.matrix)

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.column(j) for j in range(self.n))

    @functools.cached_property
    def _images(self) -> list[int]:
        """T(x) for every packed x in R^n, in code order; read through _images_packed."""
        nf = self.nf
        img = [0]
        for col in self.columns:
            for i in range(nf.d):
                # the codes with digit a at the next place: T(low) + a (column_j o x^i)
                step = pack_vector(nf, nf.row_axpy(col, nf.p ** i))
                blocks = [img]
                for _ in range(nf.p - 1):
                    blocks.append(translate(nf, self.n, blocks[-1], step))
                img = list(itertools.chain.from_iterable(blocks))
        return img


def apply_map(T: MapRep, v) -> tuple[int, ...]:
    """sum_j column_j o v_j, one row-kernel step per column; the codes of v
    are checked by the field."""
    if len(v) != T.n:
        raise ValueError("dimension mismatch")
    T.nf.check_codes(v)
    out = (0,) * T.n
    for col, r in zip(T.columns, v):
        out = T.nf.row_axpy(col, r, out)
    return out


def _images_packed(T: MapRep) -> list[int]:
    """T(x) for every packed x in R^n, in code order, built once per map; |R|^n,
    the semantic checks' one guard, is checked first on every call."""
    require_budget("|R|^n", T.nf.order, T.n)
    return T._images


def _basis_columns(T: MapRep) -> list[list[int]]:
    """The columns c -> packed (c o x^i) over R^n for 0 < i < d, one per
    scalar that the semantic checks test."""
    nf = T.nf
    return [scale_column(nf, T.n, nf.p ** i) for i in range(1, nf.d)]


def linear_violation(T: MapRep):
    """First (v, r) with T(v o r) != T(v) o r in lexicographic packed order, or None.

    For each v the r with T(v o r) = T(v) o r form a GF(p)-subspace (see
    the module docstring), so v fails for some r exactly when it fails for
    some x^i, and the least failing r is x^i for the least failing i:
    every code below p^i lies in the span of x^0, ..., x^(i-1).  Each
    column is scanned lazily, and only below the least failing v found so
    far, so a hom-only map stops at its first violation over x, and the
    scan reads at most (d - 1) |R|^n pairs, guarded by |R|^n."""
    img = _images_packed(T)
    c, r = len(img), None
    for i, col in enumerate(_basis_columns(T), 1):
        fails = map(ne, map(img.__getitem__, col), map(col.__getitem__, img))
        first = next(itertools.compress(itertools.count(), itertools.islice(fails, c)), c)
        if first < c:
            c, r = first, T.nf.p ** i
    return None if r is None else (unpack_vector(T.nf, T.n, c), r)


def is_linear(T: MapRep, mode: str = "criterion") -> bool:
    """Criterion: no row has two nonzero entries.  Semantic: linear_violation
    finds no pair, at most (d - 1) |R|^n of them, under its |R|^n guard."""
    if mode == "criterion":
        return all(sum(1 for a in row if a) <= 1 for row in T.matrix)
    if mode == "semantic":
        return linear_violation(T) is None
    raise ValueError("mode must be 'criterion' or 'semantic'")


def is_normal(T: MapRep, mode: str = "criterion") -> bool:
    """Linear maps only: is the image H a submodule of R^n?

    The semantic mode labels each x with the least element of x + H and
    checks label[x o r] == label[rep o r] for every x, every r and
    rep = label[x].  That is the definition, (m + a) o r - m o r in H,
    with m taken as the least element of its coset.  For any other m in
    that coset, label[(m + a) o r] and label[m o r] both equal
    label[rep o r], and equality of labels is transitive, so every pair
    is covered.  The r that pass form a GF(p)-subspace (see the module
    docstring), so only r = x, ..., x^(d-1) are checked, one pass per
    column under the |R|^n guard; the criterion is never consulted.
    """
    if not is_linear(T, "criterion"):
        raise ValueError("normality is defined for linear maps only")
    if mode == "criterion":
        return all(sum(1 for i in range(T.n) if T.matrix[i][j]) <= 1 for j in range(T.n))
    if mode != "semantic":
        raise ValueError("mode must be 'criterion' or 'semantic'")
    img = _images_packed(T)
    image = list(set(img))
    label, x = [-1] * len(img), 0
    for _ in range(len(img) // len(image)):
        x = label.index(-1, x)  # the least element of the next coset x + H
        for y in translate(T.nf, T.n, image, x):
            label[y] = x
    # per scalar r = x^i, the labels of x o r for every x against those of label[x] o r
    at = label.__getitem__
    return all(list(map(at, col)) == list(map(at, map(col.__getitem__, label)))
               for col in _basis_columns(T))


def _is_scaled_permutation(T: MapRep) -> bool:
    return (
        all(sum(1 for a in row if a) == 1 for row in T.matrix)
        and all(sum(1 for i in range(T.n) if T.matrix[i][j]) == 1 for j in range(T.n))
    )


def classify(T: MapRep) -> MapClass:
    if not is_linear(T, "criterion"):
        return MapClass.HOM_ONLY
    if not is_normal(T, "criterion"):
        return MapClass.LINEAR
    if _is_scaled_permutation(T):
        return MapClass.INVERTIBLE_NORMAL
    return MapClass.NORMAL_LINEAR


def is_bijective(T: MapRep) -> bool:
    """Structural for normal linear maps (scaled permutation); image count otherwise."""
    if is_linear(T, "criterion") and is_normal(T, "criterion"):
        return _is_scaled_permutation(T)
    img = _images_packed(T)
    return len(set(img)) == len(img)


def compose(T1: MapRep, T2: MapRep) -> MapRep:
    """Apply T1 first, then T2; the matrix is the product M2 . M1, whose
    column j is T2 applied to column j of T1.

    As a function on R^n the product representation is faithful when T2
    is linear (single-term rows need no right distributivity); the
    matrix itself is always the basis-image matrix of the composite.
    """
    if T1.nf is not T2.nf or T1.n != T2.n:
        raise ValueError("maps must live on the same space")
    return MapRep.from_columns(T1.nf, [apply_map(T2, c) for c in T1.columns])


def map_sum(T1: MapRep, T2: MapRep) -> MapRep:
    """Raw entrywise sum, row by row through the row kernel; linear maps are
    NOT closed under this."""
    if T1.nf is not T2.nf or T1.n != T2.n:
        raise ValueError("maps must live on the same space")
    return MapRep(T1.nf, T1.n, tuple(T1.nf.row_axpy(r2, 1, r1) for r1, r2 in zip(T1.matrix, T2.matrix)))


def scale_family(T: MapRep, scalars) -> MapRep:
    """Column j right-scaled by scalars[j], one row-kernel call per column;
    preserves linearity.  The scalar codes are checked by the field."""
    scalars = tuple(scalars)
    if len(scalars) != T.n:
        raise ValueError("need one scalar per column")
    T.nf.check_codes(scalars, "scalar code")
    if not is_linear(T, "criterion"):
        raise ValueError("scale_family is defined for linear maps only")
    return MapRep.from_columns(T.nf, [T.nf.row_axpy(col, r) for col, r in zip(T.columns, scalars)])


def enumerate_maps(nf: Nearfield, n: int):
    """All |R|^(n^2) maps, row-major lexicographic on entry codes, checked on the call."""
    _int_arg(n, "dimension")
    require_budget("|R|^(n^2)", nf.order, n * n)
    rows = list(itertools.product(range(nf.order), repeat=n))
    return (MapRep(nf, n, mat) for mat in itertools.product(rows, repeat=n))


def count_maps(nf: Nearfield, n: int, kind: str, method: str = "closed_form") -> int:
    """Counts for kind in {all, linear, normal}."""
    order = nf.order
    if kind not in ("all", "linear", "normal"):
        raise ValueError("kind must be 'all', 'linear' or 'normal'")
    _int_arg(n, "dimension")
    if method == "closed_form":
        # a count of matrices whose rows take x values is x^n, at most n len(str(x))
        # digits; a row of a linear map is all-zero or one of |R|-1 values in one
        # of n positions, and normal maps are linear, so that bounds both; Decimal
        # counts the digits exactly where str() refuses, past 4300 of them
        row_digits = n * len(str(order)) if kind == "all" else Decimal(1 + n * (order - 1)).adjusted() + 1
        require_budget("digits of the count, bounded", n * row_digits)
        if kind == "all":
            return order ** (n * n)
        if kind == "linear":
            return (1 + n * (order - 1)) ** n
        # place j nonzero cells like non-attacking rooks, values from R*
        return sum(comb(n, j) ** 2 * factorial(j) * (order - 1) ** j for j in range(n + 1))
    if method != "enumeration":
        raise ValueError("method must be 'closed_form' or 'enumeration'")
    require_budget("|R|^(n^2)", order, n * n)
    # each matrix is tested inside itertools and map, with no Python step per matrix
    if kind == "all":
        # the one empty matrix of n = 0 is a falsy tuple, which compress would drop
        if n == 0:
            return 1
        matrices = itertools.product(range(order), repeat=n * n)
        return sum(itertools.compress(itertools.repeat(1), matrices))
    rows = list(itertools.product(range(order), repeat=n))
    if kind == "linear":
        row_ok = [sum(map(bool, row)) <= 1 for row in rows]
        return sum(map(all, itertools.product(row_ok, repeat=n)))
    # a row weighs (n+1)^j for its one nonzero column j, 0 when zero and
    # (n+1)^n with two nonzero entries or more; the n weights of a matrix add
    # without carry, so it is normal exactly when they sum to (n+1)^j over
    # distinct columns j
    base = n + 1
    weight = []
    for row in rows:
        support = [j for j, a in enumerate(row) if a]
        weight.append(base ** n if len(support) > 1 else sum(base ** j for j in support))
    normal_sums = set(map(sum, itertools.product(*[(0, base ** j) for j in range(n)])))
    return sum(map(normal_sums.__contains__, map(sum, itertools.product(weight, repeat=n))))
