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
scan at j, and records the trace that a full pass would.  A pass stops
as soon as every row is a pivot row, since no later column can then
yield a pivot.

Work follows the rows' support, not the width.  theta vanishes wherever
w_r or w_s does: where w_s is zero its entry is
(x o a' + 0) o lam - x o (a' o lam) - 0 o (b' o lam) = 0 by associativity,
and likewise where w_r is zero.  So theta is computed on the common
support S of the two rows, which starts at j, as rows of |S| entries;
phi and the updates of rows r and s touch only supp(theta), and the
trace keeps theta and phi by support.  A pivot's elimination run is one
kernel call (Nearfield.row_eliminate): it gets the pivot row's support
once and updates only those entries of every target row, in place, and
the two row updates of a trick are one call with phi as the pivot row.
The working rows are lists, so no update copies a row; every function
here returns tuple rows, built once at its return.  They carry a column
index, the nonzero rows of each column and the support of each row,
which the kernel keeps in the same pass over a target's entries, adding
a column where an entry fills in and dropping it where one cancels; so
the pivot search, the rows to eliminate, the conflict scan and the two
trick rows are set lookups, not scans over every row.

The end result is a basis whose columns have pairwise disjoint supports,
exhibiting the generated subgroup as a direct sum of cyclic modules u_i R.
Every step is traced and traces replay bit-exactly.  Replay has one
check of a step (_check_step), which tests a trick against the rows it
meets, and one apply (_apply); a trick's conflict scan starts at the
clean prefix that the working rows keep (_Rows.clean).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress, groupby, islice, repeat
from operator import itemgetter

from .nearfield import _INT_ONLY, _MAX_DIGITS, Nearfield, Witness, _ascii_int, _check_separators, _int_arg
from .vectors import NfMatrix


class Step(tuple):
    """One traced operation.  Row/column indices are 0-based here; the
    textual trace format is 1-based.

    Fields: kind (swap | scale | eliminate | trick), r (pivot row / first
    swap row), s (second swap row / eliminated row), c (scalar code: scale
    factor or multiplier), col (trick conflict column), witness, theta and
    phi.  A trick keeps theta and phi by support, as (width, columns,
    values): they vanish off the common support of the two conflicting
    rows (see the module docstring), and .theta and .phi rebuild the
    dense tuples.  Steps are immutable and compare and hash by value,
    equal only to Steps.
    """

    __slots__ = ()

    def __new__(cls, kind, r=-1, s=-1, c=-1, col=-1, witness=None, theta=None, phi=None):
        if theta is not None:
            theta = _by_support(theta)
        if phi is not None:
            phi = _by_support(phi)
        return tuple.__new__(cls, (kind, r, s, c, col, witness, theta, phi))

    @classmethod
    def _trick(cls, col, witness, width, cols, theta, phi):
        """A trick step from the values of theta and phi on their support cols."""
        return tuple.__new__(cls, ("trick", -1, -1, -1, col, witness, (width, cols, theta), (width, cols, phi)))

    kind = property(itemgetter(0))
    r = property(itemgetter(1))
    s = property(itemgetter(2))
    c = property(itemgetter(3))
    col = property(itemgetter(4))
    witness = property(itemgetter(5))

    @property
    def theta(self) -> tuple[int, ...] | None:
        return _dense(self[6])

    @property
    def phi(self) -> tuple[int, ...] | None:
        return _dense(self[7])

    def __eq__(self, other):
        return type(other) is Step and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __getnewargs__(self):
        return (*self[:6], self.theta, self.phi)

    def __repr__(self):
        return ("Step(kind={!r}, r={!r}, s={!r}, c={!r}, col={!r}, witness={!r}, theta={!r}, phi={!r})"
                .format(*self[:6], self.theta, self.phi))


def _by_support(v):
    """(width, columns, values) of a dense row: its nonzero entries."""
    v = tuple(v)
    return len(v), tuple(compress(range(len(v)), v)), tuple(filter(None, v))


def _dense(sparse):
    if sparse is None:
        return None
    width, cols, vals = sparse
    out = [0] * width
    for j, a in zip(cols, vals):
        out[j] = a
    return tuple(out)


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


class _Rows:
    """The working rows of EGE and replay, with a column index.

    rows[i] is a dense list, sup[i] the set of its nonzero columns and
    at[j] the set of rows nonzero in column j.  The row ops update the
    lists in place on the operand row's support, and the eliminate kernel
    updates both sets as it updates the entries, so a row op costs that
    support, and the column scans of reduction, the conflict search and
    the trick are set lookups.  The lists never leave: every caller
    returns tuple rows (see tuples).

    No column left of clean has two nonzero entries, so a trick's
    conflict scan starts there; it starts at 0.  An eliminate adds
    nonzero entries only on the operand row's support, so it lowers clean
    to that support's first column; a checked trick at col changes rows
    only at or right of col and sets clean to col.  A swap or scale adds
    no nonzero entry (a o c = 0 only for a = 0 or c = 0), so clean stays.
    """

    def __init__(self, nf: Nearfield, rows, width: int):
        self.nf = nf
        self.width = width
        self.clean = 0
        self.rows, self.sup = [], []
        self.at = [set() for _ in range(width)]
        for row in rows:
            self.append(row)

    def append(self, row, cols=None) -> None:
        """Append a copy of row as a list; cols, when given, is its support."""
        i, at = len(self.rows), self.at
        sup = set(compress(range(self.width), row) if cols is None else cols)
        for j in sup:
            at[j].add(i)
        self.rows.append(list(row))
        self.sup.append(sup)

    def tuples(self, nonzero: bool = False) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples, only the nonzero ones when nonzero is true."""
        return tuple(tuple(row) for row in self.rows if not nonzero or any(row))

    def cols(self, i: int) -> list[int]:
        """The ascending support of row i."""
        return sorted(self.sup[i])

    def swap(self, i: int, k: int) -> None:
        rows, sup, at = self.rows, self.sup, self.at
        for j in sup[i] - sup[k]:
            at[j].discard(i)
            at[j].add(k)
        for j in sup[k] - sup[i]:
            at[j].discard(k)
            at[j].add(i)
        rows[i], rows[k] = rows[k], rows[i]
        sup[i], sup[k] = sup[k], sup[i]

    def scale(self, i: int, c: int, cols) -> None:
        """rows[i] = rows[i] o c, where cols is the ascending support of
        rows[i]; the support stays unless c = 0 clears the row, as a o c != 0
        for nonzero a and c."""
        row = self.rows[i]
        for j, a in zip(cols, self.nf.row_axpy([row[j] for j in cols], c)):
            row[j] = a
        if not c:
            for j in cols:
                self.at[j].discard(i)
            self.sup[i] = set()

    def eliminate(self, row, cols, targets) -> None:
        """rows[s] = rows[s] - row o c for each (s, c) of targets in turn, in
        place, in one kernel call (Nearfield.row_eliminate), which keeps sup
        and at, where cols is the ascending support of row, which may be one
        of the rows; lowers clean to the first column of cols."""
        if cols and cols[0] < self.clean:
            self.clean = cols[0]
        self.nf.row_eliminate(row, cols, self.rows, targets, self.sup, self.at)

    def first_conflict(self, start: int, stop: int) -> int | None:
        """First column in start..stop - 1 with two nonzero entries."""
        many = map((1).__lt__, map(len, islice(self.at, start, stop)))   # 1 < len(at[j])
        return next(compress(range(start, stop), many), None)


def _rref_inplace(nf: Nearfield, work: _Rows, steps: list, pivots: list[int], start: int = 0) -> None:
    """Reduce columns start.. to reduced row echelon form, recording steps.

    `pivots` holds the pivot columns left of `start`, one per leading
    row, and gets the new ones appended.  Zero rows sink to the bottom
    and are kept in place (traces stay replayable).  Once every row is a
    pivot row no column can yield another pivot, so the pass stops.
    """
    pr = len(pivots)
    rows, at = work.rows, work.at
    new = tuple.__new__     # each eliminate Step as Step.__new__ would build it
    for col in range(start, work.width):
        if pr == len(rows):
            break
        pivot = min((i for i in at[col] if i >= pr), default=None)   # first row from pr on
        if pivot is None:
            continue
        if pivot != pr:
            work.swap(pr, pivot)
            steps.append(Step("swap", r=pr, s=pivot))
        cols = work.cols(pr)
        lead = rows[pr][col]
        if lead != 1:
            c = nf.inv(lead)
            work.scale(pr, c, cols)
            steps.append(Step("scale", r=pr, c=c))
        targets = [(i, rows[i][col]) for i in sorted(at[col]) if i != pr]
        if targets:    # rows[i] - prow o a for the entry a of each row i in column col
            work.eliminate(rows[pr], cols, targets)
            steps += [new(Step, ("eliminate", pr, i, a, -1, None, None, None)) for i, a in targets]
        pivots.append(col)
        pr += 1


def _trick_inplace(nf: Nearfield, work: _Rows, col: int, w: Witness) -> Step:
    """Apply the distributivity trick at `col`; mutates the rows and their
    clean prefix, returns the Step.

    The caller guarantees the preconditions that _check_step tests for a
    trick, so the common support S of the two rows starts at `col`.  theta
    is computed on S, as rows of |S| entries; phi and the updates of the
    two rows, one kernel call with phi as the pivot row, touch only
    supp(theta).  RuntimeError means theta is not a pivot
    row for `col`, which only a faulty row kernel can cause.
    """
    r, s = sorted(work.at[col])[:2]
    wr, ws = work.rows[r], work.rows[s]
    common = sorted(work.sup[r] & work.sup[s])
    cr, cs = [wr[j] for j in common], [ws[j] for j in common]
    mul, neg, axpy = nf.mul, nf.neg, nf.row_axpy
    a1 = mul(nf.inv(wr[col]), w.alpha)
    b1 = mul(nf.inv(ws[col]), w.beta)
    mixed = axpy(cs, b1, axpy(cr, a1))
    # theta = mixed o lam - wr o (a1 o lam) - ws o (b1 o lam), using
    # -(v o c) = v o (-c) (left distributivity)
    theta = axpy(cs, neg(mul(b1, w.lam)), axpy(cr, neg(mul(a1, w.lam)), axpy(mixed, w.lam)))
    if not theta[0]:
        raise RuntimeError(f"the row kernel produced no pivot row at column {col + 1}")
    cols = tuple(compress(common, theta))
    theta = tuple(filter(None, theta))
    phi = axpy(theta, nf.inv(theta[0]))
    dense = _dense((work.width, cols, phi))
    work.eliminate(dense, cols, ((r, wr[col]), (s, ws[col])))
    work.append(dense, cols)
    work.clean = col
    return Step._trick(col, (w.alpha, w.beta, w.lam), work.width, cols, theta, phi)


def rref(M: NfMatrix) -> tuple[NfMatrix, tuple[Step, ...]]:
    """Reduced row echelon form over the nearfield; zero rows dropped."""
    work, steps = _Rows(M.nf, M.rows, M.width), []
    _rref_inplace(M.nf, work, steps, [])
    return NfMatrix._unchecked(M.nf, work.tuples(nonzero=True), M.width), tuple(steps)


def distributivity_trick(M: NfMatrix, col: int, w: Witness) -> NfMatrix:
    """One trick step at the first conflict column `col` (0-based).

    Preconditions: every column left of `col` has at most one nonzero
    entry, `col` has at least two, and `w` is a Witness that really
    violates right distributivity with codes in range; ValueError
    otherwise, with replay's text for a trick step's witness when `w` is
    not a Witness.  With exactly two nonzero entries the returned matrix
    has a single nonzero (the new pivot) in column `col`; with more, the
    following rref pass clears the rest against it.
    """
    if not isinstance(w, Witness):
        raise ValueError(f"witness {w!r} is not three codes")
    work = _Rows(M.nf, M.rows, M.width)
    _check_step(M.nf, Step("trick", col=col, witness=(w.alpha, w.beta, w.lam)), work)
    _trick_inplace(M.nf, work, col, w)
    return NfMatrix._unchecked(M.nf, work.tuples(), M.width)


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
    work, steps, pivots = _Rows(nf, M.rows, M.width), [], []
    _rref_inplace(nf, work, steps, pivots)
    last = -1
    while True:
        col = work.first_conflict(max(last, 0), M.width)
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
        steps.append(_trick_inplace(nf, work, col, w))
        del pivots[bisect_left(pivots, col):]
        _rref_inplace(nf, work, steps, pivots, col)
    basis = NfMatrix._unchecked(nf, work.tuples(nonzero=True), M.width)
    return GenDecomposition(basis, basis.n_rows, tuple(steps), canonical)


# a run's grouping key and the fields of its steps that _apply checks at once,
# read by position, not through Step's properties, so only Steps are read so
_KIND_ROW, _FIELDS, _STEP_ONLY = itemgetter(0, 1), itemgetter(1, 2, 3), frozenset((Step,))


def replay(M: NfMatrix, steps) -> NfMatrix:
    """Apply a trace to M; returns the final matrix (zero rows dropped).

    Consecutive eliminate steps on one pivot row are applied as a run in
    one kernel call (_apply).  Raises ValueError naming the first step
    that does not apply: the steps before the first one that is not a
    Step are replayed before _check_step refuses it.
    """
    nf, i = M.nf, 0
    work = _Rows(nf, M.rows, M.width)
    steps = tuple(steps)
    end = len(steps)
    if not _STEP_ONLY.issuperset(map(type, steps)):
        end = next(j for j, st in enumerate(steps) if type(st) is not Step)
    for (kind, r), run in groupby(steps[:end], _KIND_ROW):
        run = tuple(run)
        _apply(nf, work, kind, r, run, i)
        i += len(run)
    _check_steps(nf, steps[end:end + 1], end)    # the first non-Step, if any
    return NfMatrix._unchecked(nf, work.tuples(nonzero=True), M.width)


def replay_states(M: NfMatrix, steps):
    """Yield the working matrix after every step (zero rows kept), each a
    snapshot in tuple rows of its own; each eliminate step is a run of
    one."""
    nf, work = M.nf, _Rows(M.nf, M.rows, M.width)
    for i, st in enumerate(steps):
        if type(st) is not Step:
            _check_steps(nf, (st,), i)
        _apply(nf, work, st.kind, st.r, (st,), i)
        yield NfMatrix._unchecked(nf, work.tuples(), M.width)


def _check_step(nf: Nearfield, st: Step, work: _Rows | None = None) -> None:
    """The one check of a step, which may come from an untrusted file:
    ValueError with replay's text unless it is a Step, its kind is known,
    its row indices pass _int_arg (ints, not bools, at least 0), below
    len(work.rows) when work is given, and its scalar code passes the
    field's check.  A trick's witness must be three witness codes and its
    column pass _int_arg; given work, the column must lie below the width,
    and _trick_inplace's preconditions hold: the column is the first
    conflict column, scanned from work.clean, and the witness violates
    right distributivity."""
    if type(st) is not Step:
        raise ValueError(f"{st!r} is not a Step")
    kind = st.kind
    if kind == "trick":
        w, col = st.witness, st.col
        if not isinstance(w, (tuple, list)) or len(w) != 3:
            raise ValueError(f"witness {w!r} is not three codes")
        nf.check_codes(w, "witness code")
        _int_arg(col, "column index")
        if work is None:
            return
        if col >= work.width:
            raise ValueError("column index out of range")
        first = work.first_conflict(min(work.clean, col), col + 1)    # None or at most col
        if first != col:
            raise ValueError("the trick column is not a conflict column" if first is None
                             else "an earlier column already has two nonzero entries before the trick column")
        alpha, beta, lam = w
        if nf.mul(nf.add(alpha, beta), lam) == nf.add(nf.mul(alpha, lam), nf.mul(beta, lam)):
            raise ValueError("witness does not violate right distributivity")
        return
    if kind not in ("eliminate", "swap", "scale"):
        raise ValueError(f"unknown step kind {kind!r}")
    rows = None if work is None else len(work.rows)
    for idx in (st.r,) if kind == "scale" else (st.r, st.s):
        _int_arg(idx, "row index")
        if rows is not None and idx >= rows:
            raise ValueError(f"row {idx + 1} out of range for {rows} rows")
    if kind != "swap":
        nf.check_codes((st.c,), "scalar code")


def _check_steps(nf: Nearfield, steps, i: int = 0, work: _Rows | None = None) -> None:
    """ValueError `trace step N: ...` for the first of steps, steps i + 1..
    of a trace, that _check_step refuses."""
    for n, st in enumerate(steps, i + 1):
        try:
            _check_step(nf, st, work)
        except ValueError as e:
            raise ValueError(f"trace step {n}: {e}") from None


def _apply(nf: Nearfield, work: _Rows, kind, r, run, i: int) -> None:
    """Apply run, steps i + 1.. of a trace that share the kind and pivot
    row r, Steps each passed by _check_step first, so the rows stay in
    range and replay builds its result without the NfMatrix entry scan.

    An eliminate run is checked in one pass over its fields by the tests
    of _check_step, and _check_steps names the first bad step.  The
    pivot's support is sorted once and one kernel call updates every
    target row, unless the run names r as a target: then each step is
    one call, as the steps after it read the changed pivot row.
    """
    if kind == "eliminate":
        k = len(work.rows)
        rs, ss, cs = zip(*map(_FIELDS, run))
        if not (_INT_ONLY.issuperset(map(type, rs + ss + cs))
                and 0 <= r < k and 0 <= min(ss) and max(ss) < k and 0 <= min(cs) and max(cs) < nf.order):
            _check_steps(nf, run, i, work)
        targets = tuple(zip(ss, cs))
        for part in zip(targets) if r in ss else (targets,):    # zip(targets): one target per part
            work.eliminate(work.rows[r], work.cols(r), part)
        return
    for j, st in enumerate(run, i):
        _check_steps(nf, (st,), j, work)
        if kind == "swap":
            work.swap(st.r, st.s)
        elif kind == "scale":
            work.scale(st.r, st.c, work.cols(st.r))
        else:
            _trick_inplace(nf, work, st.col, Witness(*st.witness))


def _column_keys(M: NfMatrix) -> list:
    """Each column's class under left multiplication: key(c) = c_t^-1 o c,
    entrywise, for the first nonzero entry c_t of c, or None for a zero
    column.

    Two nonzero columns are left multiples of each other exactly when
    their keys are equal: key(b o c) = (b o c_t)^-1 o b o c = key(c) by
    associativity.  One pass over the k x m entries, codes NfMatrix has
    checked, with no pairwise comparison.
    """
    nf = M.nf
    keys = []
    for col in zip(*M.rows) if M.rows else [()] * M.width:
        lead = next(filter(None, col), 0)
        if not lead:
            keys.append(None)
        else:
            keys.append(col if lead == 1 else tuple(map(nf.mul, repeat(nf.inv(lead)), col)))
    return keys


def is_one_column_independent(M: NfMatrix) -> bool:
    """No column is a left scalar multiple of another (all ordered pairs).

    A zero column is 0 times any other, so it counts as dependent; the
    nonzero columns are compared by their keys (_column_keys), which
    decides every ordered pair at once.
    """
    if M.width < 2:
        raise ValueError("need at least 2 columns")
    return _columns_apart(M)


def _columns_apart(M: NfMatrix) -> bool:
    """No column is zero and no two share a key (_column_keys): the
    criterion of is_one_column_independent and seeds.verify_seed."""
    keys = _column_keys(M)
    return None not in keys and len(set(keys)) == M.width


# -- textual trace codec -----------------------------------------------------

def trace_to_text(nf: Nearfield, steps) -> str:
    """One step per line, 1-based indices, elements in polynomial style.

    The codes of the whole trace are formatted in one format_elements call:
    the text is the pieces between the codes interleaved with the codes'
    texts.  The fields of a step are read by position, so only Steps are
    read so.  Any failure, a step that is not a Step or an index that is
    not an int at least 0 among them, sends the steps through _check_step,
    which refuses the first malformed one with replay's text, `trace step
    N: ...`; with no row count, it tests no index against an upper bound.
    """
    steps = tuple(steps)
    pieces, codes, gap = [], [], ""     # gap: the text since the last code
    try:
        if not _STEP_ONLY.issuperset(map(type, steps)):
            raise ValueError
        for st in steps:
            kind, r, s = st[:3]
            if kind == "eliminate" or kind == "swap":
                if type(r) is not int or type(s) is not int or r < 0 or s < 0:
                    raise ValueError
                if kind == "swap":
                    gap += f"SWAP {r + 1} {s + 1}\n"
                    continue
                pieces.append(f"{gap}ELIM {r + 1} {s + 1} ")
                codes.append(st[3])
            elif kind == "scale" and type(r) is int and r >= 0:
                pieces.append(f"{gap}SCALE {r + 1} ")
                codes.append(st[3])
            elif (kind == "trick" and type(col := st[4]) is int and col >= 0
                  and isinstance(w := st[5], (tuple, list)) and len(w) == 3):
                codes += w
                pieces += (f"{gap}TRICK {col + 1} ", " ", " ")
            else:
                raise ValueError
            gap = "\n"
        texts = nf.format_elements(codes)
    except ValueError:
        _check_steps(nf, steps)     # names the step at fault with replay's text
        raise
    return "".join(chain.from_iterable(zip(pieces, texts))) + gap


def trace_from_text(nf: Nearfield, text: str) -> tuple[Step, ...]:
    """The steps of a textual trace; blank lines and lines starting with #
    are skipped.  A row index or trick column below 1, which no replay
    accepts, makes its line malformed.  Fields split at ASCII spaces and
    tabs only, lines at CR and LF (_check_separators).

    The indices of the whole trace are tested in one batch and its element
    tokens parsed in one parse_elements call.  When any line is malformed,
    the lines are parsed again one at a time, and the first bad one is
    named with the error it raises.
    """
    _check_separators(text, "trace")
    lines = text.splitlines()
    try:
        return _parse_trace(nf, lines)
    except ValueError:
        for ln in lines:
            try:
                _parse_trace(nf, (ln,))
            except ValueError as e:
                raise ValueError(f"malformed trace line {ln.strip()!r}: {e}") from None
        raise


def _parse_trace(nf: Nearfield, lines) -> tuple[Step, ...]:
    """trace_from_text without the line in the error: each line's fields,
    then every index, then every element token at once, then the Steps.

    The indices are tested in one batch, joined: ASCII digits, none longer
    than _MAX_DIGITS, none below 1.  Only when that fails are they read one
    by one by _ascii_int, as a row or a column at least 1, which raises the
    error of the first bad one."""
    kinds, idx, tokens = [], [], []
    for ln in lines:
        parts = ln.split()
        if not parts or parts[0][0] == "#":
            continue
        op, n = parts[0].upper(), len(parts)
        if (op == "ELIM" and n == 4) or (op == "SWAP" and n == 3):
            kinds.append("eliminate" if n == 4 else "swap")
            idx += parts[1:3]
            tokens += parts[3:]
        elif (op == "SCALE" and n == 3) or (op == "TRICK" and n == 5):
            kinds.append(op.lower())
            idx.append(parts[1])
            tokens += parts[2:]
        else:
            raise ValueError("unknown step or wrong number of fields")
    digits = "".join(idx)
    if not (digits.isascii() and digits.isdigit() and len(max(idx, key=len)) <= _MAX_DIGITS
            and min(values := list(map(int, idx))) > 0):
        fields = [field for kind in kinds for field in _INDEX_FIELDS[kind]]
        values = list(map(_ascii_int, idx, fields, repeat(1)))
    codes, values = iter(nf.parse_elements(tokens)), iter(values)
    new, steps = tuple.__new__, []
    # each Step as Step.__new__ would build it: no theta or phi to pack
    for kind in kinds:
        if kind == "eliminate":
            steps.append(new(Step, (kind, next(values) - 1, next(values) - 1, next(codes), -1, None, None, None)))
        elif kind == "swap":
            steps.append(new(Step, (kind, next(values) - 1, next(values) - 1, -1, -1, None, None, None)))
        elif kind == "scale":
            steps.append(new(Step, (kind, next(values) - 1, -1, next(codes), -1, None, None, None)))
        else:
            steps.append(new(Step, (kind, -1, -1, -1, next(values) - 1, tuple(islice(codes, 3)), None, None)))
    return tuple(steps)


# the indices of a trace line of each step kind, by the names _ascii_int gives them
_INDEX_FIELDS = {"eliminate": ("row", "row"), "swap": ("row", "row"), "scale": ("row",), "trick": ("column",)}
