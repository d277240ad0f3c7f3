"""Vectors and matrices over a nearfield: the right module R^m and its codecs.

Vectors are plain tuples of element codes; scalars act componentwise on
the right (v o r)_i = v_i o r, and u + v, u - v and -u are the row kernel
row_axpy (acc + row o c) with c = 1 or -1, as a o (-1) = -a.  The left
action r o v, per entry, appears only in vec_scale_left, the
left-multiple test and the column keys of 1-column independence.  The
vec_* kernels and left_multiple_of check their codes, vector entries and
scalars alike, with Nearfield.check_codes, as apply_map does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nearfield import Nearfield, _ascii_int, _check_separators, build_nearfield


def vec_add(nf: Nearfield, u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    nf.check_codes((*u, *v))
    return nf.row_axpy(v, 1, u)


def vec_neg(nf: Nearfield, u):
    nf.check_codes(u)
    return nf.row_axpy(u, nf.neg(1))


def vec_sub(nf: Nearfield, u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    nf.check_codes((*u, *v))
    return nf.row_axpy(v, nf.neg(1), u)


def vec_scale_right(nf: Nearfield, v, r: int):
    """Componentwise right action (v o r)_i = v_i o r, through the row kernel."""
    nf.check_codes(v)
    nf.check_codes((r,), "scalar code")
    return nf.row_axpy(v, r)


def vec_scale_left(nf: Nearfield, r: int, v):
    """Componentwise left product (r o v_i)_i."""
    nf.check_codes((r,), "scalar code")
    nf.check_codes(v)
    mul = nf.mul
    return tuple(mul(r, a) for a in v)


def left_multiple_of(nf: Nearfield, u, v) -> int | None:
    """Scalar r with u_i = r o v_i for all i, or None.

    Deterministic: r is solved from the first nonzero position of v and
    then verified everywhere.  The zero vector is 0 times anything.
    """
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    nf.check_codes((*u, *v))
    t = next((i for i, a in enumerate(v) if a), None)
    if t is None:
        return 0 if not any(u) else None
    r = nf.mul(u[t], nf.inv(v[t]))
    mul = nf.mul
    return r if all(mul(r, b) == a for a, b in zip(u, v)) else None


@dataclass(frozen=True)
class NfMatrix:
    """Rectangular matrix of element codes over a fixed nearfield.

    Zero rows are allowed (intermediate computation needs them); the
    file codec rejects degenerate shapes at parse time.
    """

    nf: Nearfield
    rows: tuple[tuple[int, ...], ...]
    width: int

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.width:
                raise ValueError("ragged rows")
            self.nf.check_codes(row)

    @classmethod
    def _unchecked(cls, nf: Nearfield, rows: tuple, width: int) -> "NfMatrix":
        """An NfMatrix without the entry scan, for rows of `width` codes that
        are in-range ints by construction, where it cannot fail: computed
        by the row kernel from checked codes, read by the field's codec,
        or laid out by build_seed."""
        M = object.__new__(cls)
        M.__dict__.update(nf=nf, rows=rows, width=width)
        return M

    @classmethod
    def from_rows(cls, nf: Nearfield, rows, width: int | None = None) -> "NfMatrix":
        rows = tuple(tuple(r) for r in rows)
        if width is None:
            if not rows:
                raise ValueError("width required for an empty matrix")
            width = len(rows[0])
        return cls(nf, rows, width)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.column(j) for j in range(self.width))

    def __str__(self):
        return matrix_format(self)


def matrix_parse(text: str) -> NfMatrix:
    """Parse the shared matrix file format.

    Line 1: ``DN <q> <n>``; line 2: ``<k> <m>``, all four ASCII decimal
    integers; then k rows of m element tokens (polynomial or code style,
    auto-detected per token).  Fields split at ASCII spaces and tabs only,
    lines at CR and LF.  ``#`` lines are comments.
    """
    _check_separators(text, "matrix file")
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "DN":
        raise ValueError(f"bad header {lines[0]!r}, expected 'DN <q> <n>'")
    try:
        q, n = _ascii_int(head[1], "q"), _ascii_int(head[2], "n")
    except ValueError as e:
        raise ValueError(f"bad header {lines[0]!r}: {e}") from None
    nf = build_nearfield(q, n)
    if len(lines) < 2:
        raise ValueError("missing dimension line")
    dims = lines[1].split()
    try:
        if len(dims) != 2:
            raise ValueError("expected '<k> <m>'")
        k, m = (_ascii_int(f, "dimension") for f in dims)
    except ValueError as e:
        raise ValueError(f"bad dimension line {lines[1]!r}: {e}") from None
    if k < 1:
        raise ValueError("no rows")
    if m < 1:
        raise ValueError("no columns")
    if len(lines) != 2 + k:
        raise ValueError(f"expected {k} rows, found {len(lines) - 2}")
    rows = []
    for ln in lines[2:]:
        tokens = ln.split()
        if len(tokens) != m:
            raise ValueError(f"ragged row {ln!r}, expected {m} entries")
        rows.append(tuple(nf.parse_elements(tokens)))
    return NfMatrix._unchecked(nf, tuple(rows), m)


def matrix_format(M: NfMatrix, style: str = "poly", comments: tuple[str, ...] = ()) -> str:
    """Inverse of matrix_parse (up to comments and token style).  M's rows
    were checked when it was built, so poly texts skip the type check."""
    nf = M.nf
    fmt = nf._texts_of if style == "poly" else lambda row: nf.format_elements(row, style)
    out = [f"# {c}" for c in comments]
    out.append(f"DN {nf.q} {nf.n}")
    out.append(f"{M.n_rows} {M.width}")
    out += [" ".join(fmt(row)) for row in M.rows]
    return "\n".join(out) + "\n"
