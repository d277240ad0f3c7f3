"""Reference orbit count of R-subgroups under coordinate permutations.

Stdlib only, so it runs under any interpreter without pytest:

    PYTHONPATH=src python tests/orbit_oracle.py q n m k

prints the reference count for DN(q, n)^m, dimension k, beside
count_subgroup_orbits and the seconds each took.  The reference builds
every subgroup by translating its element list, one generator row at a
time, and takes as an orbit's key the least sorted tuple of packed codes
over all m! column permutations of the subgroup's elements: the explicit
quotient that count_subgroup_orbits replaced by a closed form over block
types.  It enumerates the generator rows itself and shares nothing with
count_subgroup_orbits.
"""

from __future__ import annotations

import itertools
import sys
import time

from nearvec import build_nearfield, count_subgroup_orbits
from nearvec.closure import pack_vector, scale_column, translate, unpack_vector


def reference_subgroup_orbits(m: int, k: int, nf) -> int:
    order = nf.order
    columns = range(m)
    perms = list(itertools.permutations(columns))
    # scale[c][r] = packed (c o r) for every scalar r
    scale = list(zip(*[scale_column(nf, m, r) for r in range(order)]))

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
            elems = [0]
            for row in rows:
                elems = [y for s in scale[pack_vector(nf, row)] for y in translate(nf, m, elems, s)]
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


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print("usage: orbit_oracle.py q n m k", file=sys.stderr)
        return 2
    q, n, m, k = map(int, argv)
    nf = build_nearfield(q, n)
    results = []
    for count in (reference_subgroup_orbits, count_subgroup_orbits):
        t0 = time.perf_counter()
        results.append(count(m, k, nf))
        print(f"{count.__name__}: {results[-1]} in {time.perf_counter() - t0:.1f} s")
    return 0 if results[0] == results[1] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
