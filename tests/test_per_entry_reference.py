"""The vector, map and table operations that run through the row kernel
(row_axpy), against per-entry references written here with nf.add and
nf.mul.  The kernel runs one Zech path at every order, here over DN(3,2),
DN(5,2) and DN(7,3); zero vectors and zero maps are among the inputs."""

import functools
import itertools
import random

import pytest

from nearvec import MapRep, build_nearfield, compose, map_sum, scale_family, vec_add, vec_neg, vec_sub

FIELDS = [(3, 2), (5, 2), (7, 3)]
DIM = 4


@pytest.fixture(params=FIELDS, ids=[f"DN({q},{n})" for q, n in FIELDS])
def nf(request):
    return build_nearfield(*request.param)


def _vectors(nf, rng, count=30):
    """Zero and one-hot vectors, then random ones with zero entries among them."""
    out = [(0,) * DIM, (1,) + (0,) * (DIM - 1), (0,) * (DIM - 1) + (nf.order - 1,)]
    while len(out) < count:
        out.append(tuple(rng.randrange(nf.order) if rng.random() < 0.7 else 0 for _ in range(DIM)))
    return out


def _maps(nf, rng, count=12):
    """The zero map, the identity, then random maps."""
    out = [MapRep(nf, DIM, ((0,) * DIM,) * DIM), MapRep.identity(nf, DIM)]
    while len(out) < count:
        out.append(MapRep(nf, DIM, tuple(tuple(rng.randrange(nf.order) for _ in range(DIM)) for _ in range(DIM))))
    return out


def _linear_maps(nf, rng, count=12):
    """The zero map, the identity, then random maps with at most one nonzero entry per row."""
    out = [MapRep(nf, DIM, ((0,) * DIM,) * DIM), MapRep.identity(nf, DIM)]
    while len(out) < count:
        rows = []
        for _ in range(DIM):
            row = [0] * DIM
            if rng.random() < 0.8:
                row[rng.randrange(DIM)] = rng.randrange(1, nf.order)
            rows.append(tuple(row))
        out.append(MapRep(nf, DIM, tuple(rows)))
    return out


def test_vector_ops_match_per_entry(nf):
    rng = random.Random(f"vectors {nf}")
    vectors = _vectors(nf, rng)
    add, neg = nf.add, nf.neg
    for u, v in itertools.product(vectors, repeat=2):
        assert vec_add(nf, u, v) == tuple(add(a, b) for a, b in zip(u, v))
        assert vec_sub(nf, u, v) == tuple(add(a, neg(b)) for a, b in zip(u, v))
    for u in vectors:
        assert vec_neg(nf, u) == tuple(neg(a) for a in u)
    assert vec_add(nf, (), ()) == vec_sub(nf, (), ()) == vec_neg(nf, ()) == ()


def test_map_ops_match_per_entry(nf):
    rng = random.Random(f"maps {nf}")
    add, mul = nf.add, nf.mul
    maps = _maps(nf, rng)
    for T1, T2 in itertools.product(maps, repeat=2):
        m1, m2 = T1.matrix, T2.matrix
        assert map_sum(T1, T2).matrix == tuple(tuple(add(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2))
        assert compose(T1, T2).matrix == tuple(
            tuple(functools.reduce(add, (mul(m2[i][k], m1[k][j]) for k in range(DIM))) for j in range(DIM))
            for i in range(DIM))
    for T in _linear_maps(nf, rng):
        for scalars in [(0,) * DIM, (1,) * DIM] + [tuple(rng.randrange(nf.order) for _ in range(DIM))
                                                   for _ in range(5)]:
            assert scale_family(T, scalars).matrix == tuple(
                tuple(mul(a, scalars[j]) for j, a in enumerate(row)) for row in T.matrix)


def test_tables_match_per_entry(nf):
    elems = nf.elements
    assert nf.mul_table() == [[nf.mul(a, b) for b in elems] for a in elems]
    assert nf.add_table() == [[nf.add(a, b) for b in elems] for a in elems]
