"""Reference scalar arithmetic, golden EGE digests, and the pairwise
column test that EGE's traced steps keep.

Stdlib only, so it runs under any interpreter without pytest:

    PYTHONPATH=src python tests/kernel_oracle.py

checks Nearfield.row_axpy, row_eliminate with the column index it keeps,
add and sub against the per-entry reference below on seeded random rows,
and recomputes the golden digests.  The reference uses none of the nearfield's tables:
products come from polynomial arithmetic modulo the field's modulus,
sums digit by digit.  It imports no helper of the field set-up either: its
coefficient lists, with Rabin's gcd step in ref_is_irreducible, check the
set-up's Kronecker integers, whose gcd step is a power, independently.
"""

from __future__ import annotations

import functools
import hashlib
import random
import sys
from itertools import compress

from nearvec import NfMatrix, build_nearfield, ege, left_multiple_of, matrix_format, trace_to_text

# fields of the kernel oracle, whose row kernels run the one Zech path at
# every order: four up to order 256, among them p = 2 fields, and four
# above it, among them a prime field and a prime base above 256
ORACLE_FIELDS = ((2, 1), (3, 2), (4, 3), (256, 1), (7, 3), (5, 4), (257, 1), (257, 2))

# sha256 over the text of golden_matrices' EGE results: above order 256
# computed with the per-entry arithmetic that preceded the Zech tables, up
# to 256 with the order x order tables that the row kernels read there
# before they ran the Zech step at every order
GOLDEN_DENSE = {
    (2, 1): "772e2fec849f15cbcb2ad84430fc738cba7852c42a3468adbe5c91e3f648b069",
    (3, 2): "3944d3f5c5ec2ea685a475b287a14459dd5c113f80eb53f04fd30ad4b60a7c96",
    (4, 3): "23353f3cfec96da33f8266b957e29e49146b8f6a3f2ac7b1480b1092162cd937",
    (7, 2): "7e9a36dae3d5dfcb22b0be503208d20f204cf0290fb787a4086bbca6cd17ec4a",
    (256, 1): "1d3f9b53cc6b0554c95bc0a57bf9b7b36fd25632f16ba2bbf92ef25995a69db8",
    (7, 3): "810e0639b6b6f50c67c3a0f18987e2140c1f4027ccb4e4b59d5e622df4339a29",
    (5, 4): "decbf4ada1bc92451e895c564ff8b06a8a803ca108c336dd554144c60f3edb71",
    (31, 2): "67e887072cab9fce8ff73295865614d61dde9fd415a80b79c9a7459983649589",
    (257, 1): "5edc3d09e3844639dc2c0d72a171135f0611880488adaf77bd28b1fcf1328c4e",
}
GOLDEN_WIDTHS = (1, 2, 3, 4, 6, 9, 13, 18, 24)


# list-polynomial arithmetic over GF(p), little-endian coefficient lists,
# trimmed, which the field set-up used before it moved to integers: the
# reference for the modulus, generator and exp tables

def _digits_of(code, p, d):
    return [code // p ** i % p for i in range(d)]


def _prime_factors(n):
    return [r for r in range(2, n + 1) if n % r == 0 and all(r % k for k in range(2, r))]


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a, m, p):
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        c = a[-1]
        if c:
            k = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[k + i] = (a[k + i] - c * mi) % p
        a.pop()
    return _ptrim(a)


def _psub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return _ptrim(out)


def _pgcd(a, b, p):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _ppowmod(a, e, m, p):
    r = [1]
    a = _pmod(a, m, p)
    while e:
        if e & 1:
            r = _pmod(_pmul(r, a, p), m, p)
        a = _pmod(_pmul(a, a, p), m, p)
        e >>= 1
    return r


def ref_is_irreducible(f, p):
    """Rabin irreducibility test for a monic polynomial f over GF(p)."""
    d = len(f) - 1
    x = [0, 1]
    xq = _ppowmod(x, p ** d, f, p)
    if _pmod(_psub(xq, x, p), f, p):
        return False
    for r in _prime_factors(d):
        h = _ppowmod(x, p ** (d // r), f, p)
        if len(_pgcd(_psub(h, x, p), f, p)) > 1:
            return False
    return True


def _code_of(digits, p):
    code = 0
    for c in reversed(digits):
        code = code * p + c
    return code


def ref_add(nf, a, b):
    """Digitwise base-p sum."""
    p = nf.p
    return _code_of([(x + y) % p for x, y in zip(_digits_of(a, p, nf.d), _digits_of(b, p, nf.d))], p)


def ref_neg(nf, a):
    p = nf.p
    return _code_of([-x % p for x in _digits_of(a, p, nf.d)], p)


@functools.lru_cache(maxsize=None)
def _coset_residue(p, d, n, modulus, generator, a):
    """r = k mod n for a = g^k: a^e = zeta^r for zeta = g^e, e = (p^d - 1)/n.
    Keyed by the field's values, not the Nearfield, so no field stays alive."""
    f, e = list(modulus), (p ** d - 1) // n
    ae = _ppowmod(_digits_of(a, p, d), e, f, p)
    zeta = _ppowmod(_digits_of(generator, p, d), e, f, p)
    power = [1]
    for r in range(n):
        if power == ae:
            return r
        power = _pmod(_pmul(power, zeta, p), f, p)
    raise AssertionError(f"{a} is not a power of the generator")


def ref_mul(nf, a, c):
    """a o c = a * c^(q^j(a)), with j(a) read off a^((order-1)/n)."""
    if a == 0 or c == 0:
        return 0
    p, d, f = nf.p, nf.d, list(nf.modulus)
    r = _coset_residue(p, d, nf.n, nf.modulus, nf.generator, a)
    cq = _ppowmod(_digits_of(c, p, d), nf.q ** nf.coset_table[r], f, p)
    prod = _pmod(_pmul(_digits_of(a, p, d), cq, p), f, p)
    return _code_of(prod + [0] * (d - len(prod)), p)


def ref_row_axpy(nf, row, c, acc=None):
    prod = [ref_mul(nf, a, c) for a in row]
    if acc is None:
        return tuple(prod)
    return tuple(ref_add(nf, x, y) for x, y in zip(acc, prod))


def column_pair_dependent(M, i, j):
    """Is column i a left multiple of column j, or vice versa?  The pairwise
    reference for is_one_column_independent's column keys."""
    ci, cj = M.column(i), M.column(j)
    return left_multiple_of(M.nf, ci, cj) is not None or left_multiple_of(M.nf, cj, ci) is not None


def golden_matrices(nf):
    """Seeded tall, square and wide matrices, four entries in five uniform
    and the rest 0 or 1, so that swaps and sparse columns occur too."""
    rng = random.Random(f"golden:{nf.q},{nf.n}")

    def entry():
        return rng.randrange(nf.order) if rng.random() < 0.8 else rng.choice((0, 1))

    for m in GOLDEN_WIDTHS:
        for k in (m + 3, m, max(1, m // 3)):
            yield NfMatrix(nf, tuple(tuple(entry() for _ in range(m)) for _ in range(k)), m)


def ref_powers(nf, k, count):
    """Codes of g^k, ..., g^(k+count-1) by the list-polynomial step that built
    exp before the lane codes: g^k by square-and-multiply, then one
    polynomial product and reduction per power."""
    p, f = nf.p, list(nf.modulus)
    g = _digits_of(nf.generator, p, nf.d)
    cur = _ppowmod(g, k, f, p)
    out = []
    for _ in range(count):
        out.append(_code_of(cur, p))
        cur = _pmod(_pmul(cur, g, p), f, p)
    return out


def golden_digest(q, n):
    nf = build_nearfield(q, n)
    h = hashlib.sha256()
    for M in golden_matrices(nf):
        D = ege(M)
        h.update((f"{D.canonical}\n" + trace_to_text(nf, D.trace) + matrix_format(D.basis)).encode())
    return h.hexdigest()


def ref_row_eliminate(nf, row, rows, targets):
    """row_eliminate one target at a time with the reference arithmetic:
    the rows after rows[s] - row o c for each (s, c) of targets, as tuples."""
    rows = [tuple(r) for r in rows]
    for s, c in targets:
        rows[s] = ref_row_axpy(nf, row, ref_neg(nf, c), rows[s])
    return rows


def column_index(rows, width):
    """The column index that row_eliminate keeps, recomputed from the rows:
    the set of nonzero columns of each row and of nonzero rows of each column."""
    columns = zip(*rows) if rows else [()] * width
    return ([set(compress(range(width), row)) for row in rows],
            [set(compress(range(len(rows)), col)) for col in columns])


def run_row_eliminate(nf, row, rows, targets, pivot=None):
    """row_eliminate, with the ascending support of row, on list copies of
    rows and their column index; pivot, when given, is the index of the
    list to pass as the pivot row in place of row.  Returns the rows as
    tuples and the index that the kernel kept."""
    work = [list(r) for r in rows]
    width = len(row)
    sup, at = column_index(work, width)
    cols = [j for j, a in enumerate(row) if a]
    nf.row_eliminate(row if pivot is None else work[pivot], cols, work, targets, sup, at)
    return [tuple(r) for r in work], (sup, at)


def eliminate_case(nf, rng, m, k):
    """A pivot row of width m, k target rows and targets drawn with repeats:
    some target entries are zero (fill-in), some equal row o c (forced
    cancellation), and some multipliers are 0."""
    def entry():
        return rng.choice((0, 0, 1)) if rng.random() < 0.3 else rng.randrange(nf.order)

    row = tuple(entry() for _ in range(m))
    targets = [(rng.randrange(k), entry()) for _ in range(rng.randint(0, 2 * k))]
    rows = [tuple(entry() for _ in range(m)) for _ in range(k)]
    for s, c in targets[:1]:
        rows[s] = tuple(ref_mul(nf, a, c) if rng.random() < 0.5 else x for x, a in zip(rows[s], row))
    return row, rows, targets


def check_kernel(nf, rng, trials):
    """Compare row_axpy (with and without acc), row_eliminate and its column
    index, add and sub with the reference on random rows that hold zeros;
    c = 0 is drawn too."""
    def entry():
        return rng.choice((0, 0, 1)) if rng.random() < 0.3 else rng.randrange(nf.order)

    for _ in range(trials):
        m = rng.randint(1, 8)
        row = tuple(entry() for _ in range(m))
        acc = tuple(entry() for _ in range(m))
        c = entry()
        assert nf.row_axpy(row, c) == ref_row_axpy(nf, row, c), (nf, row, c)
        assert nf.row_axpy(row, c, acc) == ref_row_axpy(nf, row, c, acc), (nf, row, c, acc)
        for a, b in zip(row, acc):
            assert nf.add(a, b) == ref_add(nf, a, b), (nf, a, b)
            assert nf.sub(a, b) == ref_add(nf, a, ref_neg(nf, b)), (nf, a, b)
        row, rows, targets = eliminate_case(nf, rng, m, 3)
        want = ref_row_eliminate(nf, row, rows, targets)
        got, index = run_row_eliminate(nf, row, rows, targets)
        assert got == want and index == column_index(want, m), (nf, row, targets)
        # the pivot is the list of row 0, which the first target changes: all
        # targets are updated from the pivot as passed
        targets = [(0, c or 1)] + targets
        want = ref_row_eliminate(nf, rows[0], rows, targets)
        got, index = run_row_eliminate(nf, rows[0], rows, targets, pivot=0)
        assert got == want and index == column_index(want, m), (nf, rows[0], targets)


def main():
    rng = random.Random(2024)
    for q, n in ORACLE_FIELDS:
        check_kernel(build_nearfield(q, n), rng, 200)
        print(f"kernel oracle DN({q},{n}): ok")
    bad = 0
    for (q, n), want in GOLDEN_DENSE.items():
        got = golden_digest(q, n)
        ok = got == want
        bad += not ok
        print(f"golden DN({q},{n}): {got} {'ok' if ok else 'MISMATCH'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
