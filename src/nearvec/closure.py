"""Brute-force ground truth for gen, the LC_p strata, and related notions.

This module is the only one that knows how vectors are packed.  Packing
is mixed-radix with radix q^n = p^d, first coordinate lowest, so a packed
vector code is simply the base-p digit string of all its coordinates laid
end to end.  Two helpers serve every caller that works on packed codes:

- scale_rows(nf, m, scalars)[c][i] is the code of c o scalars[i], for
  a tuple of scalar codes (every scalar by default).  The right action
  works on each coordinate alone, so one scalar r gives a column,
  col[c] = c o r, built with no unpacking: the column for R^(j+1) adds
  the row kernel's row [a o r for a] (row_axpy) to the column for R^j
  scaled by the order, one add per code.  scale_column(nf, m, r) is that
  column, which linmaps' semantic checks read for the scalars x^i.
  While space * order is under a cap, zip turns the columns into rows
  once, one cached table per tuple of scalars; above the cap each row
  is computed when looked up, one row_axpy per scalar.  A row is a
  tuple, so no caller can change the shared table.
- translate(nf, codes, c) is [x + c for x in codes].  Componentwise
  addition of vectors is digitwise base-p addition of packed codes, done
  one chunk of h base-p digits of c at a time, p^h <= 256, through one
  cached table per prime p of chunk sums (at most 2^16 entries), looked
  up once per call; the lowest chunk needs no scaling, x + delta[x % p^h].
  The table is built a digit at a time in whole rows, one add per entry.
  Above p = 256 a chunk is one digit, added inline less p where it
  carries, so a translate costs O(len(codes)) for every p.

No structure grows with the square of the space.

The linear-combination step LC -> LC' seeds the products {w o lam} and
closes them under addition.  Because the additive group of R^m is
elementary abelian, the additive closure of the products equals their
GF(p)-span.  The nearfield is left distributive, w o (lam + mu) =
w o lam + w o mu, so w o lam is GF(p)-linear in lam, and the span of
{w o lam : lam in R} is the span of the d products w o x^i, i < d (the
scalar code p^i is x^i): the step seeds d products per vector, not |R|,
through scale_rows(nf, m, (1, p, ..., p^(d-1))).  One helper, _grow,
grows the span as a subgroup H, held as a list and as a set of its codes.
A product already in H is skipped; any other product c extends H to
H + <c>, the disjoint union of the cosets H + k c for k = 0..p-1, each
translated from the one before and added to the set one coset at a time.

The strata are grown semi-naively, each from the last.  LC_p is inside
LC_(p+1), since x^0 = 1 is seeded and w o 1 = w, and the products of
LC_(p-1) already lie in LC_p.  So LC_(p+1) starts from LC_p's list and
set and seeds only the codes that LC_p added; LC_1 starts from {0} and
seeds V.  One loop, _gen_codes, grows every stratum, up to a limit for
lc_step (1) and is_gamma_dependent (gamma).  No element is listed twice
across the strata, and the fixpoint is a stratum that adds nothing, seen
by its size, with no sort or compare.  Only lc_step and gen_closure
sort, once, for their VectorSet.  A stratum costs its new codes' d
products each, mostly set lookups, plus the elements it adds.

A stratum that fills R^m stops at its last independent product: once
p |H| = |R^m|, H + <c> is the whole space, known by its size.  One rank
earlier the growth holds a product back.  Once p^2 |H| = |R^m|, the next
new product c is kept as its multiples c, 2c, ..., (p-1)c instead of
being translated.  A later new product e lies in H + <c> exactly when
some e + j c lies in H, one translate of p - 1 codes; one that does not
fills R^m.  c's p - 1 cosets are listed only when the stratum ends short
of R^m.  So the stratum that fills R^m lists no coset of its last one
or two independent products, lc_index, gen_size and is_gamma_dependent
end there, and only lc_step and gen_closure list the space, as
range(space), when they return it.
There is no elimination over GF(p).

Every size the package enumerates, lists or prints goes through
require_budget, the one guard, against the element budget; the full
operation tables too, at order^2 cells.  The budget is set only by the
environment variable NEARVEC_BUDGET (ASCII digits [0-9]+ worth >= 1,
default 10^6; no sign, '_', space or other digit); no function takes it
as an argument.  The other limits are fixed: order 2^20
(nearfield.ORDER_LIMIT), seed width 2^12 (seeds.MAX_SEED_WIDTH) and q, n
up to 2^32 in the Dickson pair test (PAIR_LIMIT).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os
from dataclasses import dataclass

from .nearfield import Nearfield, _ascii_int

DEFAULT_BUDGET = 10 ** 6
BUDGET_ENV = "NEARVEC_BUDGET"

_VSCALE_TABLE_CAP = 10 ** 6  # space * order cap for the scaling table


class BudgetExceededError(RuntimeError):
    pass


def current_budget() -> int:
    """The element budget: NEARVEC_BUDGET, ASCII digits [0-9]+ worth >= 1
    read by nearfield._ascii_int, else the default."""
    raw = os.environ.get(BUDGET_ENV)
    return DEFAULT_BUDGET if raw is None else _ascii_int(raw, BUDGET_ENV, 1)


def require_budget(what: str, base: int, exp: int = 1) -> int:
    """base ** exp, or BudgetExceededError when it exceeds current_budget(): the
    one size guard.  A power of base >= 2 is at least 2^exp, so from exp >= the
    budget's bit length on it is refused uncomputed and named as a power; a
    refused size over 64 bits is named by its bit length, never by its digits."""
    limit = current_budget()
    if base < 2 or exp < limit.bit_length():
        size = base ** exp
        if size <= limit:
            return size
    bits = base.bit_length()
    shown = f"{base}^{exp}" if exp != 1 else str(base) if bits <= 64 else f"a {bits}-bit number"
    raise BudgetExceededError(f"{what} = {shown} exceeds the element budget {limit} ({BUDGET_ENV})")


def pack_vector(nf: Nearfield, v) -> int:
    code = 0
    for a in reversed(v):
        code = code * nf.order + a
    return code


def unpack_vector(nf: Nearfield, m: int, code: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        code, a = divmod(code, nf.order)
        out.append(a)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _chunk_base(p: int) -> int:
    """p^h for the largest h >= 1 with p^h <= 256 (p itself above 256)."""
    base = p
    while base * p <= 256:
        base *= p
    return base


_CHUNK_TABLES: dict[int, list[list[int]]] = {}  # per prime p, built on first use


def _chunk_table(nf: Nearfield) -> list[list[int]]:
    """delta[b][a] = (a + b) - a, with + digitwise base p on chunks a, b < _chunk_base(p) <= 256.

    Built one base-p digit at a time, whole rows at once: the p rows
    low[b0][a0] = (a0 + b0) mod p - a0 of one digit are made once, and each
    row of the table so far is scaled by p once, so an entry costs one add."""
    p, table = nf.p, _CHUNK_TABLES.get(nf.p)
    if table is None:
        low = [[(a0 + b0) % p - a0 for a0 in range(p)] for b0 in range(p)]
        table = [[0]]
        while len(table) < _chunk_base(p):
            # one more base-p digit, the lowest: a = a0 + p a1 and b = b0 + p b1
            table = [[lo + hi for hi in scaled for lo in row]
                     for scaled in [[p * d for d in prev] for prev in table] for row in low]
        _CHUNK_TABLES[p] = table
    return table


def translate(nf: Nearfield, codes: list[int], c: int) -> list[int]:
    """[x + c for x in codes] with + componentwise, one chunk of c at a time (codes itself for c = 0)."""
    base = _chunk_base(nf.p)
    table = _chunk_table(nf) if base <= 256 else None
    scale = 1
    while c:
        c, b = divmod(c, base)
        if b and table is None:
            # above p = 256 a chunk is one digit: add b, less p where it carries
            add, wrap, keep = b * scale, (b - base) * scale, base - b
            codes = [x + add if x // scale % base < keep else x + wrap for x in codes]
        elif b and scale == 1:
            # the lowest chunk: x + delta[chunk of x], with nothing to scale
            delta = table[b]
            codes = [x + delta[x % base] for x in codes]
        elif b:
            # x + b on the chunk at scale is x + delta[chunk of x] * scale
            delta = table[b]
            codes = [x + delta[x // scale % base] * scale for x in codes]
        scale *= base
    return codes


class _ScaleRowsOnDemand:
    """scale_rows above the cap: each lookup computes one row, for codes in
    range(space) only, so that iteration stops."""

    def __init__(self, nf: Nearfield, m: int, scalars: tuple[int, ...]):
        self.nf, self.m, self.scalars, self.space = nf, m, scalars, nf.order ** m

    def __len__(self) -> int:
        return self.space

    def __getitem__(self, c: int) -> tuple[int, ...]:
        if not 0 <= c < self.space:
            raise IndexError(f"vector code {c} out of range for a space of {self.space}")
        nf = self.nf
        v = unpack_vector(nf, self.m, c)
        return tuple(pack_vector(nf, nf.row_axpy(v, r)) for r in self.scalars)


def _column(nf: Nearfield, m: int, r: int) -> list[int]:
    """col[c] = packed (c o r) for every c in R^m, from the kernel's row
    [a o r for a], a coordinate at a time with one add per code."""
    order = nf.order
    low, col = nf.row_axpy(range(order), r), [0]
    for _ in range(m):
        # code a + order * b: the new coordinate a lowest, the old ones b above it
        col = [a + hi for hi in [order * b for b in col] for a in low]
    return col


def scale_column(nf: Nearfield, m: int, r: int) -> list[int]:
    """col[c] = packed (c o r) for every c in R^m, built whole; cached on the
    field, keyed (m, r), while space * order is under the cap, as
    scale_rows' tables are."""
    col = nf._scale_rows.get((m, r))
    if col is None:
        col = _column(nf, m, r)
        if nf.order ** (m + 1) <= _VSCALE_TABLE_CAP:
            nf._scale_rows[m, r] = col
    return col


def scale_rows(nf: Nearfield, m: int, scalars: tuple[int, ...] | None = None):
    """rows[c][i] = packed (c o scalars[i]), for a nonempty tuple of scalar
    codes, every scalar by default: a table while space * order is under
    the cap.  Cached on the field, keyed (m, scalars), so the tables die
    with it.  The table is built whole at first use, one _column per
    scalar, and zip makes each row's tuple once.  Each row is a tuple: the
    table is shared by every caller, and a row compares equal to a tuple
    gathered from it."""
    key = (m, scalars)
    rows = nf._scale_rows.get(key)
    if rows is not None:
        return rows
    order = nf.order
    if scalars is None:
        scalars = tuple(range(order))
    if order ** (m + 1) > _VSCALE_TABLE_CAP:
        rows = _ScaleRowsOnDemand(nf, m, scalars)
    else:
        rows = list(zip(*[_column(nf, m, r) for r in scalars]))
    nf._scale_rows[key] = rows
    return rows


@dataclass(frozen=True)
class VectorSet:
    """Deduplicated set of vectors in R^m, canonically ordered by packed code."""

    nf: Nearfield
    m: int
    codes: tuple[int, ...]

    @classmethod
    def from_vectors(cls, nf: Nearfield, m: int, vectors) -> "VectorSet":
        """The set of vectors of m element codes each, checked by the field."""
        seen = set()
        for v in vectors:
            if len(v) != m:
                raise ValueError("dimension mismatch")
            nf.check_codes(v)
            seen.add(pack_vector(nf, v))
        return cls(nf, m, tuple(sorted(seen)))

    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(unpack_vector(self.nf, self.m, c) for c in self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, v) -> bool:
        (code,) = VectorSet.from_vectors(self.nf, self.m, (v,)).codes  # v's length and codes checked
        i = bisect.bisect_left(self.codes, code)
        return i < len(self.codes) and self.codes[i] == code


def _extend(nf: Nearfield, out: list[int], seen: set[int], c: int) -> None:
    """out + <c>: append the cosets out + k c, 0 < k < p, to out and seen."""
    coset = out
    for _ in range(nf.p - 1):
        coset = translate(nf, coset, c)
        seen.update(coset)
        out += coset


def _grow(S: VectorSet, out: list[int], seen: set[int], new, space: int) -> bool:
    """Extend the subgroup out, its members in seen, by the products w o x^i
    of the codes w in new; False once it fills R^m."""
    nf, p = S.nf, S.nf.p
    rows = scale_rows(nf, S.m, tuple(p ** i for i in range(nf.d)))
    held = None   # c, 2c, ..., (p-1)c for a product c not yet listed
    # the filter is lazy, so it skips products that out has grown to cover
    products = itertools.chain.from_iterable(map(rows.__getitem__, new))
    for c in itertools.filterfalse(seen.__contains__, products):
        if held is not None:
            # c lies in out + <held> iff c + j held lies in out for some 0 < j < p
            if seen.isdisjoint(translate(nf, held, c)):
                return False  # out + <held> + <c> has p^2 |out| elements: all of R^m
            continue
        if len(out) * p == space:
            return False      # out + <c> has p |out| elements: all of R^m
        if len(out) * p * p == space:
            held = [c]
            while len(held) < p - 1:
                held += translate(nf, held[-1:], c)
        else:
            _extend(nf, out, seen, c)
    if held is not None:
        _extend(nf, out, seen, held[0])
    return True


def _gen_codes(S: VectorSet, space: int, limit: int | None = None) -> tuple[set[int] | None, int]:
    """The set of gen(S), or of LC_limit(S) for a stratum limit, or None when
    it is R^m, and the strata grown, each from the codes the last one added."""
    out, seen, new, strata = [0], {0}, S.codes, 0
    while new and strata != limit:
        start = len(out)
        strata += 1
        if not _grow(S, out, seen, new, space):
            return None, strata
        new = out[start:]
    return seen, strata


def _stratum_set(S: VectorSet, limit: int | None) -> VectorSet:
    space = require_budget("|R|^m", S.nf.order, S.m)
    codes, _ = _gen_codes(S, space, limit)
    return VectorSet(S.nf, S.m, tuple(range(space)) if codes is None else tuple(sorted(codes)))


def lc_step(S: VectorSet) -> VectorSet:
    """One stratum up: the additive subgroup generated by {w o lam}."""
    return _stratum_set(S, 1)


def gen_closure(S: VectorSet) -> VectorSet:
    """Least fixpoint of lc_step containing S: the smallest R-subgroup."""
    return _stratum_set(S, None)


def gen_size(S: VectorSet) -> int:
    """|gen(S)|, without listing R^m when S spans it."""
    space = require_budget("|R|^m", S.nf.order, S.m)
    codes, _ = _gen_codes(S, space)
    return space if codes is None else len(codes)


def lc_index(nf: Nearfield, vectors) -> int:
    """Least p with LC_p(V) = R^m; error when gen(V) falls short."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise ValueError("need at least one vector")
    m = len(vectors[0])
    space = require_budget("|R|^m", nf.order, m)
    S = VectorSet.from_vectors(nf, m, vectors)
    if len(S) == space:
        return 0
    codes, p = _gen_codes(S, space)
    if codes is not None:
        raise ValueError("index undefined: gen != R^m")
    return p


def is_gamma_dependent(nf: Nearfield, vectors, gamma: int) -> tuple[bool, int | None]:
    """Does some v_i lie in LC_gamma of the remaining vectors?

    Returns (True, i) for the first such i (0-based), else (False, None).
    """
    if gamma < 1:
        raise ValueError("gamma must be a positive integer")
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return False, None
    m = len(vectors[0])
    space = require_budget("|R|^m", nf.order, m)
    VectorSet.from_vectors(nf, m, vectors)  # checks each v_i, which no set of the others holds
    for i, v in enumerate(vectors):
        others = VectorSet.from_vectors(nf, m, vectors[:i] + vectors[i + 1:])
        codes, _ = _gen_codes(others, space, gamma)
        # None: LC_gamma of the others is all of R^m, v included
        if codes is None or pack_vector(nf, v) in codes:
            return True, i
    return False, None


@dataclass(frozen=True)
class Lc1Report:
    """Measured |LC_1(V)| against the t^k law."""

    k: int
    m: int
    size: int
    bound: int             # |R|^k
    two_independent: bool
    within_bound: bool     # size <= bound, unconditional
    equality: bool         # size == bound
    k_le_m: bool


def check_lc1_cardinality(nf: Nearfield, vectors) -> Lc1Report:
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise ValueError("need at least one vector")
    m = len(vectors[0])
    k = len(vectors)
    lc1 = lc_step(VectorSet.from_vectors(nf, m, vectors))
    size = len(lc1)
    bound = nf.order ** k
    return Lc1Report(
        k=k, m=m, size=size, bound=bound,
        two_independent=not is_gamma_dependent(nf, vectors, 2)[0],
        within_bound=size <= bound,
        equality=size == bound,
        k_le_m=k <= m,
    )
