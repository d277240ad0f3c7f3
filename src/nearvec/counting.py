"""Counting R-subgroups of R^m of R-dimension k.

The count "up to reordering of coordinates" is the number of canonical
elimination outputs with the column blocks sorted: pick the total
number t of nonzero entries, a partition of t into k parts (one part
per row, descending, occupying consecutive column blocks), and a
nonzero value for each of the t - k non-leading cells.  This is

    sum_{t=k}^{m} p_k(t) (|R|-1)^(t-k)

and enumerate_canonical lists exactly the matrices the formula counts.
Genuine orbit counting under coordinate permutations is a different
(smaller) number, which count_subgroup_orbits gives in closed form.
An orbit is a multiset of k block types, a block type of size s being
an orbit of (R*)^s under S_s x R*; with u = |R| - 1 and c_o the units
of order o there are

    N_s = (1/u) sum_{o | gcd(s, u)} c_o C(u/o + s/o - 1, s/o)

of them (Burnside), and the orbit count is

    sum_{t <= m} [y^k x^t] prod_{s=1}^{m} (1 - y x^s)^(-N_s).
"""

from __future__ import annotations

import itertools
from math import comb

from .nearfield import Nearfield, _int_arg, require_budget
from .vectors import NfMatrix


def _partition_counts(m: int, k: int) -> list[int]:
    """[p_k(t) for t in 0..m], p_k(t) the partitions of t into exactly k parts.

    Iterates p_j(t) = p_{j-1}(t-1) + p_j(t-j) over parts j <= k and t <= m,
    one row of the (m+1)(k+1) table at a time.
    """
    require_budget("partition table (m+1)(k+1)", (m + 1) * (k + 1))
    row = [1] + [0] * m  # j = 0
    for j in range(1, k + 1):
        nxt = [0] * (m + 1)
        for t in range(j, m + 1):
            nxt[t] = row[t - 1] + nxt[t - j]
        row = nxt
    return row


def partitions_into_parts(t: int, k: int) -> int:
    """Number of partitions of t into exactly k positive parts."""
    _int_arg(t, "t")
    _int_arg(k, "k")
    return _partition_counts(t, k)[t] if k <= t else 0


def count_subgroups(m: int, k: int, nf_order: int) -> int:
    """Number of R-subgroups of R-dimension k of R^m, up to reordering of coordinates."""
    _int_arg(nf_order, "|R|", 2)
    _int_arg(k, "k", 1)
    _int_arg(m, "m", k)
    # the count is below m 2^m (|R|-1)^(m-k), and x < 2^b has at most b // 3 + 1 digits
    bits = m.bit_length() + m + (m - k) * (nf_order - 1).bit_length()
    require_budget("digits of the count, bounded", bits // 3 + 1)
    return _poly_at(_partition_counts(m, k)[k:], nf_order - 1)


def _poly_at(coeffs: list[int], x: int) -> int:
    """sum(coeffs[i] * x**i) by binary splitting: each round pairs
    neighbours as c_2i + c_2i+1 x and squares x, so the big products are
    few and balanced and Python's Karatsuba makes the whole subquadratic."""
    while len(coeffs) > 1:
        coeffs = [a + b * x for a, b in itertools.zip_longest(coeffs[::2], coeffs[1::2], fillvalue=0)]
        x *= x
    return coeffs[0] if coeffs else 0


def _partitions_desc(t: int, k: int, maxpart: int | None = None):
    """Partitions of t into exactly k parts as descending tuples,
    lexicographically decreasing."""
    if maxpart is None:
        maxpart = t
    if k == 0:
        if t == 0:
            yield ()
        return
    for first in range(min(t - k + 1, maxpart), 0, -1):
        for rest in _partitions_desc(t - first, k - 1, first):
            yield (first,) + rest


def enumerate_canonical(m: int, k: int, nf: Nearfield) -> list[NfMatrix]:
    """The canonical matrices the counting formula counts, in order.

    Row i has its leading 1 at the first column of the i-th block and
    arbitrary nonzero entries in the remaining part_i - 1 block columns;
    blocks are consecutive, parts descending, spare columns zero.
    """
    total = require_budget("canonical matrices", count_subgroups(m, k, nf.order))
    out = []
    for t in range(k, m + 1):
        for parts in _partitions_desc(t, k):
            free = t - k
            starts = [0]
            for part in parts[:-1]:
                starts.append(starts[-1] + part)
            for fill in itertools.product(range(1, nf.order), repeat=free):
                rows = []
                pos = 0
                for i, part in enumerate(parts):
                    row = [0] * m
                    row[starts[i]] = 1
                    for off in range(1, part):
                        row[starts[i] + off] = fill[pos]
                        pos += 1
                    rows.append(tuple(row))
                out.append(NfMatrix(nf, tuple(rows), m))
    if len(out) != total:
        raise RuntimeError(f"listed {len(out)} canonical matrices, the formula counts {total}")
    return out


def _block_type_counts(nf: Nearfield, m: int) -> list[int]:
    """[N_s for s in 0..m]: N_s block types of size s, the orbits of
    (R*)^s under S_s x R*, permuting coordinates and scaling on the right.

    R* acts freely, so a pair (sigma, r) with r of order o fixes a vector
    only when every cycle of sigma has length divisible by o, and then
    fixes u choices per cycle (u = |R| - 1).  Summed over sigma by the
    cycle index of S_s this is C(u/o + s/o - 1, s/o) when o | s, and
    Burnside's lemma gives

        N_s = (1/u) sum_{o | gcd(s, u)} c_o C(u/o + s/o - 1, s/o)

    with c_o the units of order o, found by powering each unit up to
    min(m, u) times.
    """
    u = nf.order - 1
    top = min(m, u)
    units = [0] * (top + 1)  # units[o]: the units of multiplicative order o
    for a in range(1, nf.order):
        x = a
        for o in range(1, top + 1):
            if x == 1:
                units[o] += 1
                break
            x = nf.mul(x, a)
    return [sum(units[o] * comb(u // o + s // o - 1, s // o)
                for o in range(1, min(s, top) + 1) if units[o] and s % o == 0) // u
            for s in range(m + 1)]


def count_subgroup_orbits(m: int, k: int, nf: Nearfield) -> int:
    """True orbit count of dimension-k R-subgroups of R^m under coordinate
    permutations, in closed form.  It is generally below count_subgroups
    (e.g. the subgroups generated by (1,a) and (1,a^-1) merge under a
    column swap).

    A dimension-k subgroup is the direct sum of k blocks v o R whose rows
    v have disjoint supports (EGE), and the blocks are unique.  A column
    permutation maps blocks onto blocks, so an orbit is a multiset of k
    block types with sizes summing to at most m; _block_type_counts gives
    N_s, the types of size s.  By the multiset construction the count is

        sum_{t <= m} [y^k x^t] prod_s (1 - y x^s)^(-N_s),

    read off a table T[j][t] of the multisets of j types of total size t:
    taking i blocks of size s multiplies in C(N_s + i - 1, i) y^i x^(i s).

    One guard bounds the steps before any work: the unit scan,
    u min(m, u), and the table updates, at most k (m+1) sum_{i<=k} m // i,
    which is at most k (m+1) m b for k of b bits: the 2^(l-1) terms 1/i
    with i of bit length l are each at most 2^(1-l).  The bound costs no
    loop, so a huge m or k is refused at once.
    """
    _int_arg(m, "m")
    _int_arg(k, "k")
    if k > m:
        return 0
    u = nf.order - 1
    require_budget("orbit count steps", u * min(m, u) + k * (m + 1) * m * k.bit_length())
    types = _block_type_counts(nf, m)
    table = [[1] + [0] * m] + [[0] * (m + 1) for _ in range(k)]
    for s in range(1, m + 1):
        for j in range(k, 0, -1):  # downwards, so table[j - i] holds no size-s block yet
            row = table[j]
            for i in range(1, min(j, m // s) + 1):
                ways, off = comb(types[s] + i - 1, i), i * s
                row[off:] = [a + ways * b for a, b in zip(row[off:], table[j - i])]
    return sum(table[k])
