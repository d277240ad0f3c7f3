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
quotient at small m for comparison.  It builds each subgroup as the
carry-free sum of its generator rows' scalings on packed codes, marks
each orbit through the column permutations of one member's rows, and
bounds its subgroup builds by the budget before it starts.
"""

from __future__ import annotations

import itertools
from math import comb, factorial

from .closure import pack_vector, require_budget, scale_rows
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


def _subgroup_builds(m: int, k: int, order: int) -> int:
    """How many generator-row lists _generator_rows yields: a labelling of
    t columns onto all k rows (k! S(t, k) of them, by inclusion-exclusion)
    times |R|-1 values for each of its t - k non-leading cells."""
    onto = [sum((-1) ** i * comb(k, i) * (k - i) ** t for i in range(k + 1)) for t in range(m + 1)]
    return sum(comb(m, t) * onto[t] * (order - 1) ** (t - k) for t in range(k, m + 1))


def _marking_builds(m: int, k: int, order: int) -> int:
    """The sum, over the generator-row lists _generator_rows yields, of the
    product of their rows' support sizes, which bounds the builds of the
    orbit marking in count_subgroup_orbits.  A labelling of t columns onto
    k rows with one column marked in each row is t!/(t-k)! placements of
    the marked columns times k^(t-k) rows for the other columns."""
    return sum(comb(m, t) * factorial(t) // factorial(t - k) * k ** (t - k) * (order - 1) ** (t - k)
               for t in range(k, m + 1))


def _generator_rows(m: int, k: int, order: int):
    """Every list of k rows with pairwise disjoint supports and a unit
    leading entry, sorted by leading column; each dimension-k subgroup is
    generated by such a list.  A column labelling names each row's
    support, so every list comes once per ordering of its rows."""
    columns = range(m)
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
            yield rows


def _distinct_orders(items):
    """Each distinct ordering of the items once, in lexicographic order."""
    a = sorted(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def count_subgroup_orbits(m: int, k: int, nf: Nearfield) -> int:
    """True orbit count of dimension-k R-subgroups of R^m under coordinate
    permutations, by explicit quotient.  Small m only; provided for
    comparison with count_subgroups, which it is generally below
    (e.g. the subgroups generated by (1,a) and (1,a^-1) merge under a
    column swap).

    Each subgroup is built from its generator rows as the set of its
    elements.  The rows have disjoint supports, so the subgroup is the
    direct sum of the row modules v o R, and packed codes of vectors with
    disjoint supports add without carry: the sum is x + y on codes.  The
    quotient then marks orbits: a column permutation pi maps the direct
    sum of the v_i o R onto that of the pi(v_i) o R, so the first subgroup
    not yet marked starts an orbit, and the sums of its permuted rows mark
    the whole orbit.  Permutations that give equal rows are taken once,
    so marking builds each member of the orbit at most k! prod |supp v_i|
    <= k! (m/k)^k times (a row order, and where each row's unit lands in
    its support), not m! times; over DN(3,2), (m, k) = (5, 2) marks with
    11645 builds where the enumeration makes 20340.

    Three guards bound the work before it starts, each build costing
    |R|^k elements: |R|^max(k, m); the subgroup builds of the enumeration;
    and the marking builds, at most k! prod |supp v_i| per subgroup,
    summed over the subgroups by _marking_builds (each subgroup's rows
    come as k! generator-row lists).  The last two stop at ten times the
    budget.
    """
    order = nf.order
    require_budget("|R|^max(k, m)", order, max(k, m))
    require_budget("subgroup builds |R|^k / 10", -(-_subgroup_builds(m, k, order) * order ** k // 10))
    require_budget("marking builds |R|^k / 10", -(-_marking_builds(m, k, order) * order ** k // 10))
    scale = scale_rows(nf, m)

    def direct_sum(rows) -> frozenset[int]:
        elems = [0]
        for row in rows:
            images = scale[pack_vector(nf, row)]
            elems = [x + y for x in elems for y in images]
        return frozenset(elems)

    # any generator rows of each subgroup, keyed by its elements
    subgroups = {direct_sum(rows): rows for rows in _generator_rows(m, k, order)}
    orbits = 0
    while subgroups:
        _, rows = subgroups.popitem()
        orbits += 1
        # a permutation of the rows' columns; equal columns are permuted once
        for columns in _distinct_orders(zip(*rows)):
            subgroups.pop(direct_sum(zip(*columns)), None)
    return orbits
