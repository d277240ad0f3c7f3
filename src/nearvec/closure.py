"""Brute-force ground truth for gen, the LC_p strata, and related notions.

This module is the only one that knows how vectors are packed.  Packing
is mixed-radix with radix q^n = p^d, first coordinate lowest, so a packed
vector code is simply the base-p digit string of all its coordinates laid
end to end.  Two helpers serve every caller that works on packed codes:

- scale_column(nf, m, r)[c] is the code of c o r.  The right action
  works on each coordinate alone, so the column is built with no
  unpacking: the column for R^(j+1) adds the row kernel's row
  [a o r for a] (row_axpy) to the column for R^j scaled by the order,
  one add per code.  It is cached on the field while space * order is
  under a cap and built per call above it.  _grow and linmaps' semantic
  checks read the columns of the scalars x^i, 0 < i < d, none of x^0;
  above the cap _grow computes each product it looks up, one row_axpy
  per (code, scalar), and builds no column.
- translate(nf, m, codes, c) is [x + c for x in codes] over R^m.
  Componentwise addition of vectors is digitwise base-p addition of
  packed codes, done one chunk of h base-p digits of c at a time through
  a table of chunk sums, looked up once per call; the lowest chunk needs
  no scaling, x + delta[x % p^h].  The chunks fit the code width: codes
  of m d digits take as many chunks as the largest p^h <= 256 needs, each
  ceil(m d / chunks) digits wide, so DN(3,2)^3 reads a 27 x 27 table.
  One table per (p, h) is cached, p^(2h) <= 2^16 entries, built a digit
  at a time in whole rows, one add per entry.  Above p = 256 a chunk is
  one digit, added inline less p where it carries, so a translate costs
  O(len(codes)) for every p.

No structure grows with the square of the space.

The linear-combination step LC -> LC' seeds the products {w o lam} and
closes them under addition.  Because the additive group of R^m is
elementary abelian, the additive closure of the products equals their
GF(p)-span.  The nearfield is left distributive, w o (lam + mu) =
w o lam + w o mu, so w o lam is GF(p)-linear in lam, and the span of
{w o lam : lam in R} is the span of the d products w o x^i, i < d (the
scalar code p^i is x^i): the step seeds d products per vector, not |R|:
w itself, then one scalar's column at a time.  One helper, _grow, grows
the span as a subgroup H, held as a list and as a set of its codes.  A
product already in H is skipped; any other product c extends H to
H + <c>, the disjoint union of the cosets H + k c for k = 0..p-1, each
translated from the one before and added to the set one coset at a time.

The strata are grown semi-naively, each from the last.  LC_p is inside
LC_(p+1), since w o x^0 = w o 1 = w is seeded, and the products of
LC_(p-1) already lie in LC_p.  So LC_(p+1) starts from LC_p's list and
set and seeds only the codes w that LC_p added, and of those only the
d - 1 products w o x^i, 0 < i < d, as w o 1 = w is listed; LC_1 starts
from {0} and seeds V itself (w o 1 = w), then V's products.  One loop,
_gen_codes, grows every stratum, up to a limit for lc_step (1) and
is_gamma_dependent (gamma).  No element is listed twice across the
strata, and the fixpoint is a stratum that adds nothing, seen by its
size, with no sort or compare.  Only lc_step and gen_closure sort, once,
for their VectorSet.  A stratum after LC_1 costs d - 1 products per new
code, mostly set lookups, plus the elements it adds.

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
operation tables too, at order^2 cells.  Not yet so are ege, replay and
verify-seed over a field (n = 1): they read a matrix file of any size
and start work with no guard (ROADMAP item 13).  The budget is set only
by the environment variable NEARVEC_BUDGET (ASCII digits [0-9]+ worth
>= 1, default 10^6; no sign, '_', space or other digit); no function
takes it as an argument.  The other limits are fixed: order 2^20
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

_VSCALE_TABLE_CAP = 10 ** 6  # space * order cap for a cached scaling column


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
def _chunk_table(p: int, h: int) -> list[list[int]]:
    """delta[b][a] = (a + b) - a, with + digitwise base p on chunks a, b < p^h.

    Built one base-p digit at a time, whole rows at once: the p rows
    low[b0][a0] = (a0 + b0) mod p - a0 of one digit are made once, and each
    row of the table so far is scaled by p once, so an entry costs one add."""
    low = [[(a0 + b0) % p - a0 for a0 in range(p)] for b0 in range(p)]
    table = [[0]]
    for _ in range(h):
        # one more base-p digit, the lowest: a = a0 + p a1 and b = b0 + p b1
        table = [[lo + hi for hi in scaled for lo in row]
                 for scaled in [[p * d for d in prev] for prev in table] for row in low]
    return table


@functools.lru_cache(maxsize=None)
def _chunk_layout(p: int, digits: int) -> tuple[int, list[list[int]] | None]:
    """(p^h, delta) for codes of the given number of base-p digits.

    The codes take as many chunks as chunks of h_max digits need, p^h_max
    the largest power of p <= 256, and each chunk is h = ceil(digits /
    chunks) digits wide, so delta = _chunk_table(p, h) has p^(2h) <= 2^16
    entries.  Above p = 256 a chunk is one digit and delta is None."""
    h_max = 1
    while p ** (h_max + 1) <= 256:
        h_max += 1
    chunks = max(1, -(-digits // h_max))
    h = max(1, -(-digits // chunks))
    return p ** h, _chunk_table(p, h) if p <= 256 else None


def translate(nf: Nearfield, m: int, codes: list[int], c: int) -> list[int]:
    """[x + c for x in codes] over R^m, with + componentwise, one chunk of c
    at a time (codes itself for c = 0)."""
    base, table = _chunk_layout(nf.p, m * nf.d)
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
    field, keyed (m, r), while space * order is under the cap, so the
    columns die with the field."""
    col = nf._scale_columns.get((m, r))
    if col is None:
        col = _column(nf, m, r)
        if nf.order ** (m + 1) <= _VSCALE_TABLE_CAP:
            nf._scale_columns[m, r] = col
    return col


def _scaled(nf: Nearfield, m: int, r: int):
    """c -> packed (c o r) for c in R^m: a lookup in scale_column's cached
    column while space * order is under the cap, else one row_axpy per call."""
    if nf.order ** (m + 1) <= _VSCALE_TABLE_CAP:
        return scale_column(nf, m, r).__getitem__
    return lambda c: pack_vector(nf, nf.row_axpy(unpack_vector(nf, m, c), r))


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


def _extend(nf: Nearfield, m: int, out: list[int], seen: set[int], c: int) -> None:
    """out + <c>: append the cosets out + k c, 0 < k < p, to out and seen."""
    coset = out
    for _ in range(nf.p - 1):
        coset = translate(nf, m, coset, c)
        seen.update(coset)
        out += coset


def _grow(nf: Nearfield, m: int, out: list[int], seen: set[int], products, space: int) -> bool:
    """Extend the subgroup out, its members in seen, by the codes of the lazy
    stream products in turn; False once it fills R^m."""
    p = nf.p
    held = None   # c, 2c, ..., (p-1)c for a product c not yet listed
    # the filter is lazy, so it skips products that out has grown to cover
    for c in itertools.filterfalse(seen.__contains__, products):
        if held is not None:
            # c lies in out + <held> iff c + j held lies in out for some 0 < j < p
            if seen.isdisjoint(translate(nf, m, held, c)):
                return False  # out + <held> + <c> has p^2 |out| elements: all of R^m
            continue
        if len(out) * p == space:
            return False      # out + <c> has p |out| elements: all of R^m
        if len(out) * p * p == space:
            held = [c]
            while len(held) < p - 1:
                held += translate(nf, m, held[-1:], c)
        else:
            _extend(nf, m, out, seen, c)
    if held is not None:
        _extend(nf, m, out, seen, held[0])
    return True


def _gen_codes(S: VectorSet, space: int, limit: int | None = None) -> tuple[set[int] | None, int]:
    """The set of gen(S), or of LC_limit(S) for a stratum limit, or None when
    it is R^m, and the strata grown, each from the codes the last one added."""
    nf, m = S.nf, S.m
    scaled = [_scaled(nf, m, nf.p ** i) for i in range(1, nf.d)]
    out, seen, new, strata = [0], {0}, S.codes, 0
    while new and strata != limit:
        start = len(out)
        strata += 1
        # w o x^i for 0 < i < d; LC_1 seeds S itself, w o x^0 = w, ahead of them
        products = itertools.chain(new if strata == 1 else (), *[map(f, new) for f in scaled])
        if not _grow(nf, m, out, seen, products, space):
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
    # no stratum count equals a gamma that is not an int: the strata would run to the fixpoint
    if isinstance(gamma, bool) or not isinstance(gamma, int) or gamma < 1:
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
