"""Seed sets spanning R^m with far fewer than m vectors.

Over a proper nearfield the whole space R^m is generated by k rows where
k grows like the square root of m: the matrix V_m consists of a k x k
identity block followed, stage by stage, by every column of the shape
(1, ..., 1, s, ..., s) with j <= k leading rows occupied (counter+1 ones,
then a constant s from S = R \\ {0, 1}, zero-padded).  Stage j
contributes (j-1)(|R|-2) columns, so k rows last exactly up to

    u_k = k + (|R|-2) k (k-1) / 2

columns, and the row count for a given m is the least k with u_k >= m.
All of it is exact integer arithmetic; no floating point enters it.

Checking a seed needs no elimination over a proper nearfield (n >= 2).
Normalise each nonzero column c to its key c_t^-1 o c, the left product
taken entrywise with c_t the first nonzero entry of c.  Then dim gen(V)
is the number of distinct keys, so gen(V) = R^m exactly when no column
is zero and all m keys differ (after Djagba and Howell's results on the
R-dimension):

- keys are well defined: key(b o c) = key(c), by associativity;
- columns in one class stay coupled: if c_j = a o c_i, every element of
  gen(V) keeps v_j = a o v_i, by left distributivity,
  a o (x + y) = a o x + a o y, and associativity,
  a o (x o r) = (a o x) o r; a zero column stays zero;
- columns in different classes stay apart: EGE's final basis u_1..u_d
  lies in gen(V), generates it and has rows with pairwise disjoint
  supports, so gen(V) = u_1 o R + ... + u_d o R.  Two columns in the
  support of one u_l are then coupled in every element of gen(V), so in
  V; columns in different supports are not left multiples in the basis,
  so not in V, as a coupling in V would hold in the basis too.  The
  classes of nonzero columns are thus the d basis rows.

Over a field (n = 1) EGE may stop short of disjoint supports, and the
criterion fails: the rows (1 0 1) and (0 1 1) over GF(5) have three
distinct keys but span a plane.  verify_seed eliminates there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closure import VectorSet, gen_size
from .ege import _columns_apart, ege
from .nearfield import Nearfield, _int_arg
from .vectors import NfMatrix

MAX_SEED_WIDTH = 1 << 12


def u_max(k: int, nf_order: int) -> int:
    """Largest m whose seed matrix has k rows (u_0 = 0)."""
    _int_arg(nf_order, "|R|", 3)
    _int_arg(k, "k")
    # the sum of the stage widths (|R|-2)(i-1) + 1 over i = 1..k; the tests
    # check it against that recurrence
    return ((nf_order - 2) * (k - 1) + 2) * k // 2


def seed_number(m: int, nf_order: int) -> int:
    """Row count of V_m: the least k with u_k >= m.

    With t = |R| - 2, t (k^2 - k) / 2 <= u_k = k + t (k^2 - k) / 2 <= t (k^2 + k) / 2.
    For e = isqrt(2m // t), t e^2 / 2 <= m < t (e+1)^2 / 2, so u_(e-1) < m
    (when e >= 1) and m < u_(e+2): k is the one candidate among max(e, 1),
    e + 1 and e + 2 with u_(k-1) < m <= u_k; a miss is a fault in u_max.
    """
    _int_arg(nf_order, "|R|", 3)
    _int_arg(m, "m", 1)
    e = math.isqrt(2 * m // (nf_order - 2))
    for k in range(max(e, 1), e + 3):
        if u_max(k - 1, nf_order) < m <= u_max(k, nf_order):
            return k
    raise RuntimeError(f"seed number for m = {m}, |R| = {nf_order} misses its u_k bracket")


@dataclass(frozen=True)
class SeedMatrix:
    """V_m together with its row count and the ordering of S used."""

    matrix: NfMatrix
    k: int
    s_order: tuple[int, ...]


def build_seed(m: int, nf: Nearfield) -> SeedMatrix:
    """The k x m seed matrix V_m whose rows generate R^m."""
    if nf.is_field:
        raise ValueError("seed construction requires a proper nearfield (n >= 2)")
    _int_arg(m, "m", 1)
    if m > MAX_SEED_WIDTH:
        raise ValueError(f"m exceeds the width limit {MAX_SEED_WIDTH}")
    k = seed_number(m, nf.order)
    s_order = tuple(range(2, nf.order))
    cols = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    for j in range(2, k + 1):
        pad = (0,) * (k - j)
        for counter in range(j - 1):
            ones = (1,) * (counter + 1)
            for s in s_order:
                cols.append(ones + (s,) * (j - 1 - counter) + pad)
    rows = tuple(zip(*cols[:m]))
    return SeedMatrix(NfMatrix._unchecked(nf, rows, m), k, s_order)


def verify_seed(V: NfMatrix) -> bool:
    """Does gen(rows of V) equal all of R^m?

    Over a proper nearfield (n >= 2) this is decided without elimination.
    Each nonzero column c has the key c_t^-1 o c (ege._column_keys: c_t
    is its first nonzero entry, the product is entrywise on the left), and
    dim gen(V) is the number of distinct keys.  Columns with one key are
    left multiples of each other, a coupling that every element of gen(V)
    keeps by left distributivity and associativity; EGE's basis, whose
    rows have disjoint supports, keeps columns with different keys apart.
    So gen(V) = R^m exactly when no column is zero and all m keys differ;
    the module docstring gives the proof in full.  Over a field the
    criterion fails, so EGE decides there.  For small spaces
    (|R|^m <= 10^4) the closure oracle independently confirms the verdict.
    """
    nf, m = V.nf, V.width
    ok = _columns_apart(V) if not nf.is_field else ege(V).dimension == m
    # |R| >= 2, so a width of 14 or more is past 10^4 without the power
    if m < 14 and (space := nf.order ** m) <= 10 ** 4:
        if (gen_size(VectorSet.from_vectors(nf, m, V.rows)) == space) != ok:
            raise RuntimeError("the seed verdict and the closure oracle disagree on the seed property")
    return ok
