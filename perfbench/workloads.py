"""The four benchmark workloads.

Each workload turns a seed into a fixed pool of inputs, does its cold
set-up, runs one op per input through nearvec's public API, and checks
each op's output with an oracle that does not share the op's code path.

Inputs are stratified rather than drawn independently: every seed gets
the same number of ops per field, shape and size band, and the seed picks
the exact size near the middle of each band and every entry.  That keeps
the cost of a pool nearly the same from seed to seed, so runs on
different seeds can be compared, while every seed still exercises
different matrices.
"""

from __future__ import annotations

import io
import itertools
import math
import statistics
from contextlib import redirect_stdout
from pathlib import Path

import nearvec
import nearvec.cli
from nearvec import MapClass, MapRep, NfMatrix, VectorSet

DEFAULT_SEED = 1


def _strata(rng, lo, hi, count, jitter):
    """One integer near the middle of each of `count` equal bands of [lo, hi]:
    the seed moves it by at most `jitter`.  Op cost grows like the cube of
    the size, so the largest ops would dominate a pass if the seed could
    move them across a whole band."""
    width = (hi - lo) / count
    return [round(lo + (i + 0.5) * width) + rng.randint(-jitter, jitter) for i in range(count)]


def _seed_rows(m, order):
    """Least k with u_k = k + (order-2) k (k-1) / 2 >= m (the paper's seed number)."""
    k = 1
    while k + (order - 2) * k * (k - 1) // 2 < m:
        k += 1
    return k


class Workload:
    """A seeded pool of inputs, a cold set-up, one op per input and its check."""

    name = ""
    reference_ops = 0   # leading default-seed ops whose digest every run checks

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir      # directory for files an op writes

    def setup_steps(self):
        """The cold set-up as (name, callable) steps, run in this order."""
        return []

    def setup(self):
        for _, step in self.setup_steps():
            step()

    def canonical(self, item, output):
        """The bytes of an op's output that the digest covers."""
        return repr(output).encode()

    def outcome_metrics(self, outcomes):
        """Outcome ratios of one traced pass of (item, output, ok)."""
        return {}


def _field_steps(q, n, witness=True):
    """Set-up steps for one field: the cold build, then its first witness scan."""
    steps = [(f"build DN({q},{n})", lambda: nearvec.build_nearfield(q, n))]
    if witness:
        steps.append((f"witness DN({q},{n})", lambda: nearvec.build_nearfield(q, n).find_witness()))
    return steps


# -- seed_verify --------------------------------------------------------------

class SeedVerify(Workload):
    """`nearvec seed q n m | nearvec verify-seed`, in process through cli.main."""

    name = "seed_verify"
    fields = ((3, 2), (5, 2), (7, 2))
    width_range = (60, 200)
    strata = 8
    # width band -> dropped row (first or last) of the negative cases, 2 of 8 per field;
    # which row goes changes the cost several times over, so it is fixed
    negatives = {1: 0, 5: -1}
    reference_ops = 4

    def make_pool(self, rng):
        pool = []
        for q, n in self.fields:
            for i, m in enumerate(_strata(rng, *self.width_range, self.strata, 1)):
                drop = self.negatives.get(i)
                if drop is not None:
                    drop %= _seed_rows(m, q ** n)
                pool.append((q, n, m, drop))
        rng.shuffle(pool)
        return pool

    def properties(self, pool):
        widths = [m for _, _, m, _ in pool]
        negatives = sum(1 for *_, drop in pool if drop is not None)
        return {
            "ops": len(pool),
            "negative_share": negatives / len(pool),
            "negative_ops": negatives,
            "width_min": min(widths),
            "width_max": max(widths),
            "fields": [f"DN({q},{n})" for q, n in self.fields],
        }

    def setup_steps(self):
        return [step for q, n in self.fields for step in _field_steps(q, n)]

    def run(self, item):
        q, n, m, drop = item
        main = nearvec.cli.main
        out = io.StringIO()
        with redirect_stdout(out):
            rc_seed = main(["seed", str(q), str(n), str(m)])
        seed_text = out.getvalue()
        if drop is not None:
            seed_text = _drop_row(seed_text, drop)
        matrix_file = self.out_dir / "seed_verify.mat"
        matrix_file.write_text(seed_text)
        out = io.StringIO()
        with redirect_stdout(out):
            rc_verify = main(["verify-seed", str(matrix_file)])
        return rc_seed, seed_text, rc_verify, out.getvalue()

    def check(self, item, output):
        q, n, m, drop = item
        rc_seed, seed_text, rc_verify, verdict = output
        rows = [ln for ln in seed_text.splitlines() if ln and not ln.startswith("#")][2:]
        k = _seed_rows(m, q ** n) - (drop is not None)
        return (
            rc_seed == 0 and rc_verify == 0
            and len(rows) == k and all(len(r.split()) == m for r in rows)
            and verdict == ("true\n" if drop is None else "false\n")
        )


def _drop_row(text, drop):
    """Remove row `drop` (0-based) from a matrix file and fix its row count."""
    lines = text.splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    k, m = lines[head + 1].split()
    lines[head + 1] = f"{int(k) - 1} {m}"
    del lines[head + 2 + drop]
    return "\n".join(lines) + "\n"


# -- ege_dense ----------------------------------------------------------------

class EgeDense(Workload):
    """ege -> trace_to_text -> trace_from_text -> replay on random dense matrices."""

    name = "ege_dense"
    fields = ((7, 3), (5, 4))
    tall_width = (16, 40)       # k = m + 4: pure row reduction, no tricks
    wide_width = (24, 48)       # k = m/4, m/3 or m/2 by band: m - k tricks
    strata = 8
    reference_ops = 8

    def make_pool(self, rng):
        pool = []
        for q, n in self.fields:
            order = q ** n
            for m in _strata(rng, *self.tall_width, self.strata, 1):
                pool.append(self._matrix(rng, q, n, m + 4, m, order))
            for i, m in enumerate(_strata(rng, *self.wide_width, self.strata, 1)):
                pool.append(self._matrix(rng, q, n, m // (2 + i % 3), m, order))
        rng.shuffle(pool)
        return pool

    @staticmethod
    def _matrix(rng, q, n, k, m, order):
        return (q, n, m, tuple(tuple(rng.randrange(order) for _ in range(m)) for _ in range(k)))

    def properties(self, pool):
        tall = sum(1 for _, _, m, rows in pool if len(rows) >= m)
        return {
            "ops": len(pool),
            "trick_free_share": tall / len(pool),
            "trick_free_ops": tall,
            "fields": [f"DN({q},{n})" for q, n in self.fields],
        }

    def setup_steps(self):
        return [step for q, n in self.fields for step in _field_steps(q, n)]

    def run(self, item):
        q, n, m, rows = item
        nf = nearvec.build_nearfield(q, n)
        M = NfMatrix(nf, rows, m)
        D = nearvec.ege(M)
        text = nearvec.trace_to_text(nf, D.trace)
        steps = nearvec.trace_from_text(nf, text)
        return D, text, nearvec.replay(M, steps)

    def check(self, item, output):
        D, _, replayed = output
        basis = D.basis.rows
        return (
            replayed.rows == basis
            and D.canonical
            and D.dimension == len(basis) <= D.basis.width
            and all(sum(1 for row in basis if row[j]) <= 1 for j in range(D.basis.width))
        )

    def canonical(self, item, output):
        D, text, _ = output
        return repr((D.dimension, D.basis.rows)).encode() + b"\0" + text.encode()


# -- closure_scan -------------------------------------------------------------

class ClosureScan(Workload):
    """lc_index (or the gen_closure size) of random k-subsets, as search-index does."""

    name = "closure_scan"
    # (q, n, m, k): ops per pass.  Spaces of 729 and 625 sit below the
    # 1024-element vector-addition table cap, 6561 above it.  The median op
    # falls inside the 20 of (3, 2, 3, 2) and op_tail_ms inside the 20 of
    # (3, 2, 4, 3), not on the edge of a cell.  3-subsets of the 729-space
    # are left out: they cost anything from 0.3 to 4 ms and straddle the
    # median.
    cells = {(3, 2, 3, 2): 20, (3, 2, 4, 2): 12, (3, 2, 4, 3): 20,
             (5, 2, 2, 2): 12, (5, 2, 2, 3): 12}
    table_cap = 1024
    reference_ops = 24

    def make_pool(self, rng):
        pool = []
        for (q, n, m, k), count in self.cells.items():
            space = (q ** n) ** m
            for _ in range(count):
                pool.append((q, n, m, tuple(sorted(rng.sample(range(1, space), k)))))
        rng.shuffle(pool)
        return pool

    def properties(self, pool):
        above = sum(1 for q, n, m, _ in pool if (q ** n) ** m > self.table_cap)
        return {
            "ops": len(pool),
            "above_table_cap_share": above / len(pool),
            "above_table_cap_ops": above,
            "spaces": sorted({(q ** n) ** m for q, n, m, _ in pool}),
        }

    def setup_steps(self):
        steps, built = [], set()
        for q, n, m in sorted({c[:3] for c in self.cells}):
            if (q, n) not in built:
                built.add((q, n))
                steps += _field_steps(q, n, witness=False)
            steps.append((f"lc_step DN({q},{n})^{m}", lambda q=q, n=n, m=m: self._warm(q, n, m)))
        return steps

    @staticmethod
    def _warm(q, n, m):
        nf = nearvec.build_nearfield(q, n)
        nearvec.lc_step(VectorSet.from_vectors(nf, m, [nearvec.unpack_vector(nf, m, 1)]))

    def run(self, item):
        q, n, m, codes = item
        nf = nearvec.build_nearfield(q, n)
        vectors = [nearvec.unpack_vector(nf, m, c) for c in codes]
        try:
            return "index", nearvec.lc_index(nf, vectors)
        except ValueError as e:
            if not str(e).startswith("index undefined"):
                raise
        return "size", len(nearvec.gen_closure(VectorSet.from_vectors(nf, m, vectors)))

    def check(self, item, output):
        # EGE against the closure oracle: the subset spans iff EGE finds
        # dimension m, and otherwise gen is a direct sum of cyclic modules
        # of |R| elements each
        q, n, m, codes = item
        nf = nearvec.build_nearfield(q, n)
        rows = tuple(nearvec.unpack_vector(nf, m, c) for c in codes)
        dim = nearvec.ege(NfMatrix(nf, rows, m)).dimension
        kind, value = output
        if kind == "index":
            return dim == m and value >= 1
        return dim < m and value == nf.order ** dim

    def outcome_metrics(self, outcomes):
        """Outcome ratios of one pass, with their bases."""
        indices = [out[1] for _, out, _ in outcomes if out and out[0] == "index"]
        return {
            "closure.spanning_frac": len(indices) / len(outcomes),
            "closure.scan_ops": len(outcomes),
            "closure.mean_index": statistics.mean(indices) if indices else 0.0,
            "closure.spanning_ops": len(indices),
        }


# -- map_census ---------------------------------------------------------------

class MapCensus(Workload):
    """classify + semantic checks on random maps of R^2, plus counting checks."""

    name = "map_census"
    # (q, n, class, ops per pass).  Semantic is_normal on an invertible map
    # over DN(5,2) takes seconds, so that cell is left out; the rank-one
    # normal maps over DN(5,2) are the slow cell (about 0.15 s each).
    mix = (
        (3, 2, MapClass.HOM_ONLY, 8),
        (3, 2, MapClass.LINEAR, 8),
        (3, 2, MapClass.NORMAL_LINEAR, 8),
        (3, 2, MapClass.INVERTIBLE_NORMAL, 8),
        (5, 2, MapClass.HOM_ONLY, 8),
        (5, 2, MapClass.LINEAR, 8),
        (5, 2, MapClass.NORMAL_LINEAR, 2),
    )
    counting_ops = 4
    canonical_shapes = ((3, 1), (3, 2), (4, 2), (4, 3))
    reference_ops = 16

    def make_pool(self, rng):
        pool = []
        for q, n, cls, count in self.mix:
            order = q ** n
            for slot in range(count):
                pool.append(("map", q, n, (cls, _random_map(rng, order, cls, slot))))
        pool.append(("count_maps", 3, 2, rng.choice(("all", "linear", "normal"))))
        pool.append(("count_maps", 5, 2, "all"))
        pool.append(("canonical", 3, 2, rng.choice(self.canonical_shapes)))
        pool.append(("orbits", 3, 2, (3, 2)))
        rng.shuffle(pool)
        return pool

    def properties(self, pool):
        mix = {}
        for item in pool:
            key = f"DN({item[1]},{item[2]}) {item[3][0].value}" if item[0] == "map" else item[0]
            mix[key] = mix.get(key, 0) + 1
        return {"ops": len(pool), "class_mix": mix,
                "counting_share": self.counting_ops / len(pool)}

    def setup_steps(self):
        steps = []
        for q, n in sorted({(q, n) for q, n, _, _ in self.mix}):
            steps += _field_steps(q, n, witness=False)
            steps.append((f"linear_violation DN({q},{n})^2", lambda q=q, n=n: self._warm(q, n)))
        return steps

    @staticmethod
    def _warm(q, n):
        nearvec.linear_violation(MapRep.identity(nearvec.build_nearfield(q, n), 2))

    def run(self, item):
        kind, q, n, arg = item
        nf = nearvec.build_nearfield(q, n)
        if kind == "map":
            T = MapRep(nf, 2, arg[1])
            cls = nearvec.classify(T)
            violation = nearvec.linear_violation(T)
            normal = nearvec.is_normal(T, "semantic") if violation is None else None
            return cls, violation, normal, nearvec.is_bijective(T)
        if kind == "count_maps":
            return nearvec.count_maps(nf, 2, arg, "enumeration")
        if kind == "canonical":
            return len(nearvec.enumerate_canonical(*arg, nf))
        return nearvec.count_subgroup_orbits(*arg, nf)

    def check(self, item, output):
        kind, q, n, arg = item
        order = q ** n
        if kind == "map":
            cls, violation, normal, bijective = output
            nf = nearvec.build_nearfield(q, n)
            T = MapRep(nf, 2, arg[1])
            images = {nearvec.apply_map(T, v) for v in itertools.product(range(order), repeat=2)}
            semantic_normal = normal is True
            return (
                cls is arg[0]
                and (cls is not MapClass.HOM_ONLY) == (violation is None)
                and (violation is not None
                     or (cls in (MapClass.NORMAL_LINEAR, MapClass.INVERTIBLE_NORMAL)) == semantic_normal)
                and bijective == (len(images) == order ** 2)
                and (cls is MapClass.INVERTIBLE_NORMAL) == (semantic_normal and bijective)
            )
        if kind == "count_maps":
            return output == _closed_form_maps(order, 2, arg)
        if kind == "canonical":
            return output == _canonical_count(*arg, order)
        return 1 <= output <= _canonical_count(*arg, order)

    def canonical(self, item, output):
        if item[0] == "map":
            cls, violation, normal, bijective = output
            return repr((cls.value, violation, normal, bijective)).encode()
        return repr(output).encode()

    def outcome_metrics(self, outcomes):
        agree = [ok for item, _, ok in outcomes if item[0] == "map"]
        return {"linmaps.agree_frac": sum(agree) / len(agree), "linmaps.map_ops": len(agree)}


def _random_map(rng, order, cls, slot):
    """Entries of a random 2x2 map of the given class, row-major.

    `slot` fixes where the nonzero entries sit and the seed draws their
    values: semantic is_normal on a normal map with its entry in row 1
    takes about four times as long as with it in row 0, so every seed
    gets the same positions.
    """
    nz = lambda: rng.randrange(1, order)
    M = [[0, 0], [0, 0]]
    j = slot % 2
    if cls is MapClass.HOM_ONLY:         # a row with two nonzero entries
        M[j] = [nz(), nz()]
        M[1 - j] = [rng.randrange(order), rng.randrange(order)]
    elif cls is MapClass.LINEAR:         # one entry per row, both in one column
        M[0][j], M[1][j] = nz(), nz()
    elif cls is MapClass.NORMAL_LINEAR:  # a single nonzero entry
        M[j][slot // 2 % 2] = nz()
    else:                                # a scaled permutation
        M[0][j], M[1][1 - j] = nz(), nz()
    return tuple(map(tuple, M))


def _closed_form_maps(order, n, kind):
    if kind == "all":
        return order ** (n * n)
    if kind == "linear":
        return (1 + n * (order - 1)) ** n
    return sum(math.comb(n, j) ** 2 * math.factorial(j) * (order - 1) ** j for j in range(n + 1))


def _canonical_count(m, k, order):
    """sum_{t=k}^{m} p_k(t) (order-1)^(t-k), with p_k(t) counted by brute force."""
    def parts(t, k, top):
        if k == 0:
            return 1 if t == 0 else 0
        return sum(parts(t - a, k - 1, a) for a in range(1, min(t, top) + 1))
    return sum(parts(t, k, t) * (order - 1) ** (t - k) for t in range(k, m + 1))


WORKLOADS = {w.name: w for w in (SeedVerify, EgeDense, ClosureScan, MapCensus)}
