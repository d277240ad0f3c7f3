"""Expanded Gaussian Elimination over a nearfield.

Ordinary row reduction works over a nearfield because row operations
only ever multiply rows by scalars on the right and add rows, both of
which preserve the generated R-subgroup.  What it cannot do is clear a
column that holds trailing entries of two different pivot rows: using
one pivot row against the other would disturb the earlier pivot
columns.  The way out is to manufacture a brand-new row from inside the
generated subgroup whose leading entry sits exactly on the conflict
column, exploiting a failure of right distributivity:

    theta = (w_r o a' + w_s o b') o lam - w_r o (a' o lam) - w_s o (b' o lam)

with a' = (w_r^j)^-1 o alpha, b' = (w_s^j)^-1 o beta for a witness
triple (alpha + beta) o lam != alpha o lam + beta o lam.  Every entry of
theta left of the conflict column j cancels (at most one of the two
rows is nonzero there), while the j entry equals the witness defect and
so cannot vanish.  Normalizing theta yields a pivot row for column j;
back-substituting it clears the conflict, and re-running row reduction
restores echelon shape.  The first conflict column strictly increases
from round to round, so at most `width` of these steps are needed.

Each round resumes where the trick happened instead of starting over.
The matrix before a trick at column j is in reduced row echelon form,
and the trick changes rows r and s only at or right of j and appends
phi, which is zero left of j.  A full reduction pass would therefore
emit nothing for the columns left of j and reach j with as many pivot
rows as there are pivot columns left of j; it also leaves those columns
as they are, so the next conflict column lies right of j.  So each
round resumes reduction at j with that pivot count, and the conflict
scan at j, and records the trace that a full pass would.

The end result is a basis whose columns have pairwise disjoint supports,
exhibiting the generated subgroup as a direct sum of cyclic modules u_i R.
Every step is traced and traces replay bit-exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .nearfield import Nearfield, Witness
from .vectors import NfMatrix, left_multiple_of


@dataclass(frozen=True)
class Step:
    """One traced operation.  Row/column indices are 0-based here; the
    textual trace format is 1-based."""

    kind: str                                   # swap | scale | eliminate | trick
    r: int = -1                                 # pivot row / first swap row
    s: int = -1                                 # second swap row / eliminated row
    c: int = -1                                 # scalar code (scale factor or multiplier)
    col: int = -1                               # trick conflict column
    witness: tuple[int, int, int] | None = None
    theta: tuple[int, ...] | None = None
    phi: tuple[int, ...] | None = None


@dataclass(frozen=True)
class GenDecomposition:
    """EGE output: basis rows with pairwise disjoint column supports.

    canonical is False only over a field (n = 1) when a conflict column
    remained; the basis is then the plain reduced row echelon form.
    """

    basis: NfMatrix
    dimension: int
    trace: tuple[Step, ...]
    canonical: bool


def _rref_inplace(nf: Nearfield, rows: list[tuple[int, ...]], width: int,
                  steps: list, pivots: list[int], start: int = 0) -> None:
    """Reduce columns start.. to reduced row echelon form, recording steps.

    `pivots` holds the pivot columns left of `start`, one per leading
    row, and gets the new ones appended.  Zero rows sink to the bottom
    and are kept in place (traces stay replayable).
    """
    pr = len(pivots)
    k = len(rows)
    for col in range(start, width):
        pivot = next((i for i in range(pr, k) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != pr:
            rows[pr], rows[pivot] = rows[pivot], rows[pr]
            steps.append(Step("swap", r=pr, s=pivot))
        lead = rows[pr][col]
        if lead != 1:
            c = nf.inv(lead)
            rows[pr] = nf.row_axpy(rows[pr], c)
            steps.append(Step("scale", r=pr, c=c))
        prow = rows[pr]
        for i in range(k):
            a = rows[i][col]
            if a and i != pr:    # rows[i] - prow o a = rows[i] + prow o (-a)
                rows[i] = nf.row_axpy(prow, nf.neg(a), rows[i])
                steps.append(Step("eliminate", r=pr, s=i, c=a))
        pivots.append(col)
        pr += 1


def _first_conflict(rows, width, start=0) -> int | None:
    """First column from `start` on with two nonzero entries."""
    for col in range(start, width):
        seen = 0
        for row in rows:
            if row[col]:
                seen += 1
                if seen == 2:
                    return col
    return None


def _check_trick(nf: Nearfield, rows, width: int, col: int, w: Witness) -> None:
    """Raise ValueError unless `col` is the first conflict column and `w`
    violates right distributivity: the preconditions of the trick."""
    if not 0 <= col < width:
        raise ValueError("column index out of range")
    first = _first_conflict(rows, col + 1)
    if first is None:
        raise ValueError("the trick column is not a conflict column")
    if first < col:
        raise ValueError("an earlier column already has two nonzero entries before the trick column")
    lhs = nf.mul(nf.add(w.alpha, w.beta), w.lam)
    rhs = nf.add(nf.mul(w.alpha, w.lam), nf.mul(w.beta, w.lam))
    if lhs == rhs:
        raise ValueError("witness does not violate right distributivity")


def _trick_inplace(nf: Nearfield, rows: list, col: int, w: Witness) -> Step:
    """Apply the distributivity trick at `col`; mutates rows, returns the Step.

    The caller guarantees the preconditions that _check_trick tests.
    RuntimeError means theta is not a pivot row for `col`, which only a
    faulty row kernel can cause.
    """
    hits = [i for i in range(len(rows)) if rows[i][col]]
    r, s = hits[0], hits[1]
    wr, ws = rows[r], rows[s]
    mul, neg, axpy = nf.mul, nf.neg, nf.row_axpy
    a1 = mul(nf.inv(wr[col]), w.alpha)
    b1 = mul(nf.inv(ws[col]), w.beta)
    mixed = axpy(ws, b1, axpy(wr, a1))
    # theta = mixed o lam - wr o (a1 o lam) - ws o (b1 o lam), using
    # -(v o c) = v o (-c) (left distributivity)
    theta = axpy(ws, neg(mul(b1, w.lam)), axpy(wr, neg(mul(a1, w.lam)), axpy(mixed, w.lam)))
    if not theta[col] or any(theta[:col]):
        raise RuntimeError(f"the row kernel produced no pivot row at column {col + 1}")
    phi = axpy(theta, nf.inv(theta[col]))
    rows[r] = axpy(phi, neg(wr[col]), wr)
    rows[s] = axpy(phi, neg(ws[col]), ws)
    rows.append(phi)
    return Step("trick", col=col, witness=(w.alpha, w.beta, w.lam), theta=theta, phi=phi)


def rref(M: NfMatrix) -> tuple[NfMatrix, tuple[Step, ...]]:
    """Reduced row echelon form over the nearfield; zero rows dropped."""
    rows, steps = list(M.rows), []
    _rref_inplace(M.nf, rows, M.width, steps, [])
    kept = tuple(row for row in rows if any(row))
    return NfMatrix(M.nf, kept, M.width), tuple(steps)


def distributivity_trick(M: NfMatrix, col: int, w: Witness) -> NfMatrix:
    """One trick step at the first conflict column `col` (0-based).

    Preconditions: every column left of `col` has at most one nonzero
    entry, `col` has at least two, and `w` really violates right
    distributivity; ValueError otherwise.  With exactly two nonzero
    entries the returned matrix has a single nonzero (the new pivot) in
    column `col`; with more, the following rref pass clears the rest
    against it.
    """
    rows = list(M.rows)
    _check_trick(M.nf, rows, M.width, col, w)
    _trick_inplace(M.nf, rows, col, w)
    return NfMatrix(M.nf, tuple(rows), M.width)


def ege(M: NfMatrix) -> GenDecomposition:
    """Decompose gen(rows of M) as a direct sum of cyclic modules.

    Alternates row reduction with the distributivity trick until every
    column has at most one nonzero entry.  Over a field with a conflict
    column no witness exists; the plain RREF is returned with
    canonical=False.  After each trick, reduction and the conflict scan
    resume at the trick column (see the module docstring); RuntimeError
    means a conflict column did not strictly increase, which only a faulty
    trick or row kernel can cause.
    """
    nf = M.nf
    rows, steps, pivots = list(M.rows), [], []
    _rref_inplace(nf, rows, M.width, steps, pivots)
    last = -1
    while True:
        col = _first_conflict(rows, M.width, max(last, 0))
        if col is None:
            canonical = True
            break
        w = nf.find_witness()
        if w is None:
            canonical = False
            break
        if col <= last:
            raise RuntimeError(f"conflict column {col + 1} does not follow the last trick column {last + 1}")
        last = col
        steps.append(_trick_inplace(nf, rows, col, w))
        del pivots[bisect_left(pivots, col):]
        _rref_inplace(nf, rows, M.width, steps, pivots, col)
    basis = NfMatrix(nf, tuple(row for row in rows if any(row)), M.width)
    return GenDecomposition(basis, basis.n_rows, tuple(steps), canonical)


def replay(M: NfMatrix, steps) -> NfMatrix:
    """Apply a trace to M; returns the final matrix (zero rows dropped).

    Raises ValueError naming the first step that does not apply.
    """
    rows = list(M.rows)
    for i, st in enumerate(steps):
        _apply_step(M, rows, st, i)
    return NfMatrix(M.nf, tuple(row for row in rows if any(row)), M.width)


def replay_states(M: NfMatrix, steps):
    """Yield the working matrix after every step (zero rows kept)."""
    rows = list(M.rows)
    for i, st in enumerate(steps):
        _apply_step(M, rows, st, i)
        yield NfMatrix(M.nf, tuple(rows), M.width)


def _row_index(rows, idx: int) -> int:
    if not 0 <= idx < len(rows):
        raise ValueError(f"row {idx + 1} out of range for {len(rows)} rows")
    return idx


def _apply_step(M: NfMatrix, rows, st: Step, i: int):
    """Apply step i (0-based) of a trace, which may come from an untrusted
    file: row indices, the trick column and the witness are checked first."""
    nf = M.nf
    try:
        if st.kind == "swap":
            r, s = _row_index(rows, st.r), _row_index(rows, st.s)
            rows[r], rows[s] = rows[s], rows[r]
        elif st.kind == "scale":
            r = _row_index(rows, st.r)
            rows[r] = nf.row_axpy(rows[r], st.c)
        elif st.kind == "eliminate":
            r, s = _row_index(rows, st.r), _row_index(rows, st.s)
            rows[s] = nf.row_axpy(rows[r], nf.neg(st.c), rows[s])
        elif st.kind == "trick":
            w = Witness(*st.witness)
            _check_trick(nf, rows, M.width, st.col, w)
            _trick_inplace(nf, rows, st.col, w)
        else:
            raise ValueError(f"unknown step kind {st.kind!r}")
    except ValueError as e:
        raise ValueError(f"trace step {i + 1}: {e}") from None


def is_one_column_independent(M: NfMatrix) -> bool:
    """No column is a left scalar multiple of another (all ordered pairs)."""
    if M.width < 2:
        raise ValueError("need at least 2 columns")
    for i in range(M.width):
        for j in range(i + 1, M.width):
            if column_pair_dependent(M, i, j):
                return False
    return True


def column_pair_dependent(M: NfMatrix, i: int, j: int) -> bool:
    """Is column i a left multiple of column j, or vice versa?"""
    ci, cj = M.column(i), M.column(j)
    return (
        left_multiple_of(M.nf, ci, cj) is not None
        or left_multiple_of(M.nf, cj, ci) is not None
    )


# -- textual trace codec -----------------------------------------------------

def trace_to_text(nf: Nearfield, steps) -> str:
    """One step per line, 1-based indices, elements in polynomial style."""
    out = []
    fmt = nf.format_element
    for st in steps:
        if st.kind == "swap":
            out.append(f"SWAP {st.r + 1} {st.s + 1}")
        elif st.kind == "scale":
            out.append(f"SCALE {st.r + 1} {fmt(st.c)}")
        elif st.kind == "eliminate":
            out.append(f"ELIM {st.r + 1} {st.s + 1} {fmt(st.c)}")
        elif st.kind == "trick":
            a, b, lam = st.witness
            out.append(f"TRICK {st.col + 1} {fmt(a)} {fmt(b)} {fmt(lam)}")
        else:
            raise ValueError(f"unknown step kind {st.kind!r}")
    return "\n".join(out) + ("\n" if out else "")


def trace_from_text(nf: Nearfield, text: str) -> tuple[Step, ...]:
    steps = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        op = parts[0].upper()
        try:
            if op == "SWAP" and len(parts) == 3:
                steps.append(Step("swap", r=int(parts[1]) - 1, s=int(parts[2]) - 1))
            elif op == "SCALE" and len(parts) == 3:
                steps.append(Step("scale", r=int(parts[1]) - 1, c=nf.parse_element(parts[2])))
            elif op == "ELIM" and len(parts) == 4:
                steps.append(Step("eliminate", r=int(parts[1]) - 1, s=int(parts[2]) - 1,
                                  c=nf.parse_element(parts[3])))
            elif op == "TRICK" and len(parts) == 5:
                w = tuple(nf.parse_element(t) for t in parts[2:5])
                steps.append(Step("trick", col=int(parts[1]) - 1, witness=w))
            else:
                raise ValueError("unknown step or wrong number of fields")
        except ValueError as e:
            raise ValueError(f"malformed trace line {ln!r}: {e}") from None
    return tuple(steps)
