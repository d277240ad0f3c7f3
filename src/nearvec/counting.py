"""Counting R-subgroups of R^m of R-dimension k.

The count "up to reordering of coordinates" is the number of canonical
elimination outputs with the column blocks sorted: pick the total
number t of nonzero entries, a partition of t into k parts (one part
per row, descending, occupying consecutive column blocks), and a
nonzero value for each of the t - k non-leading cells.  This is

    sum_{t=k}^{m} p_k(t) (|R|-1)^(t-k)

and enumerate_canonical lists exactly the matrices the formula counts.
Genuine orbit counting under coordinate permutations is a different
(smaller) number; count_subgroup_orbits computes it by explicit
quotient at small m for comparison.
"""

from __future__ import annotations

import itertools
from math import factorial

from .closure import pack_vector, require_budget, scale_rows, translate, unpack_vector
from .nearfield import Nearfield
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
    if t < 0 or k < 0:
        raise ValueError("t and k must be nonnegative")
    return _partition_counts(t, k)[t] if k <= t else 0


def count_subgroups(m: int, k: int, nf_order: int) -> int:
    """Number of R-subgroups of R-dimension k of R^m, up to reordering of coordinates."""
    if nf_order < 2:
        raise ValueError("nearfield order must be at least 2")
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
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


def count_subgroup_orbits(m: int, k: int, nf: Nearfield) -> int:
    """True orbit count of dimension-k R-subgroups of R^m under coordinate
    permutations, by explicit quotient.  Small m only; provided for
    comparison with count_subgroups, which it is generally below
    (e.g. the subgroups generated by (1,a) and (1,a^-1) merge under a
    column swap)."""
    order = nf.order
    require_budget("|R|^max(k, m)", order, max(k, m))
    # the quotient does m! |R|^k work, allowed up to ten times the budget
    require_budget("m! |R|^k / 10", -(-factorial(m) * order ** k // 10))
    columns = range(m)
    perms = list(itertools.permutations(columns))
    scale = scale_rows(nf, m)

    # every dimension-k subgroup is generated by k rows with pairwise
    # disjoint supports and unit leading entries; enumerate all of them
    subgroups = set()
    for labels in itertools.product(range(k + 1), repeat=m):  # 0 = unused column
        rows_cols = [[j for j in columns if labels[j] == i + 1] for i in range(k)]
        if any(not cols for cols in rows_cols):
            continue
        rows_cols.sort(key=lambda cols: cols[0])
        frees = [cols[1:] for cols in rows_cols]
        nfree = sum(len(f) for f in frees)
        for fill in itertools.product(range(1, order), repeat=nfree):
            rows = []
            pos = 0
            for cols, free in zip(rows_cols, frees):
                row = [0] * m
                row[cols[0]] = 1
                for j in free:
                    row[j] = fill[pos]
                    pos += 1
                rows.append(tuple(row))
            # disjoint supports: the subgroup is the direct sum of the row modules
            elems = [0]
            for row in rows:
                elems = [y for s in scale[pack_vector(nf, row)] for y in translate(nf, elems, s)]
            subgroups.add(frozenset(elems))

    orbits = set()
    for sg in subgroups:
        vecs = [unpack_vector(nf, m, c) for c in sg]
        key = min(
            tuple(sorted(pack_vector(nf, tuple(v[p] for p in perm)) for v in vecs))
            for perm in perms
        )
        orbits.add(key)
    return len(orbits)
