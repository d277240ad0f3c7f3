"""Finite Dickson nearfields DN(q, n).

A Dickson nearfield of order q^n is the Galois field GF(q^n) with its
multiplication replaced by a twisted product

    a o b = a * b^(q^j(a))        (field product on the right),

where the automorphism exponent j(a) is read off the discrete logarithm
of the left operand: writing a = g^k for a fixed primitive element g,
j(a) is the unique j in 0..n-1 with k = (q^j - 1)/(q - 1) (mod n).
Addition is untouched, so the twisted structure keeps the left
distributive law a o (b + c) = a o b + a o c while (for n >= 2) losing
the right one.

For (q, n) = (3, 2) this reduces to the classical rule "a * b when a is
a square, a * b^3 otherwise".  Note that the widely printed 9x9 table of
that operation is the transpose of the rule as stated (row label acting
on the right); this module implements the stated rule and the table
fidelity test pins the orientation.

Elements are integer codes 0 .. q^n - 1.  The base-p digits c_0..c_{d-1}
of a code are the coefficients of the residue polynomial
c_0 + c_1 x + ... + c_{d-1} x^{d-1} over GF(p), reduced modulo a fixed
monic irreducible polynomial of degree d = l*n (where q = p^l).  The
modulus is the lexicographically smallest irreducible candidate with
coefficients compared low-degree-first, and the generator is the
smallest primitive code, so every table is reproducible.

Arithmetic is table lookup, and every table is derived from the log
tables.  Every field carries these O(order) tables:

- exp (exp[k] is the code of g^k), doubled and followed by order-1
  zeros, and log;
- the coset index j(a) of every element;
- the Zech logarithms Z[k] = log(1 + g^k), doubled.  Z is built from exp:
  1 + g^k is g^k with 1 added to its lowest base-p digit.  Where
  1 + g^k = 0 (g^k = -1), Z holds the sentinel 2(order-1), which sends
  the exp index into the zeros.

Then a o c = exp[log a + log c * q^j(a)] and
x + y = exp[log x + Z[log y - log x]]; the doubling absorbs the index
ranges without a modulo, and zero operands are branches, not entries.
add is this formula at every order.  The row kernel row_axpy uses it
above order 256; up to 256 it reads two order x order tables instead,
t[c][a] = a o c and x + y, built once from the log-domain kernel and add
because a table lookup costs about half a Zech step per entry.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

TABLE_LIMIT = 1 << 12   # largest order for which full operation tables are materialized
ORDER_LIMIT = 1 << 20   # largest order for which log/exp tables are built at all
PAIR_LIMIT = 1 << 32    # largest q and n that the Dickson pair test factors

_ADD_TABLE_LIMIT = 256  # largest order whose row kernel reads order x order tables

_TERM_RE = re.compile(r"^(\d*)x(?:\^(\d+))?$")


# ---------------------------------------------------------------------------
# small number theory helpers (desk-scale inputs, trial division is plenty)

def _prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of n >= 1."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, l) with q = p**l, or None if q is not a prime power."""
    fs = _prime_factors(q)
    if len(fs) != 1:
        return None
    p = fs[0]
    l = 0
    while q % p == 0:
        q //= p
        l += 1
    return (p, l) if q == 1 else None


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p): little-endian coefficient lists, trimmed

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
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


def _ppowmod(a, e, m, p):
    r = [1]
    a = _pmod(a, m, p)
    while e:
        if e & 1:
            r = _pmod(_pmul(r, a, p), m, p)
        a = _pmod(_pmul(a, a, p), m, p)
        e >>= 1
    return r


def _pgcd(a, b, p):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    return a


def _is_irreducible(f, p):
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


def _digits_of(code, p, d):
    out = [0] * d
    for i in range(d):
        code, out[i] = divmod(code, p)[0], code % p
    return out


def _code_of(digits, p):
    code = 0
    for c in reversed(digits):
        code = code * p + c
    return code


# ---------------------------------------------------------------------------
# public data types

@dataclass(frozen=True)
class PairVerdict:
    """Outcome of the Dickson pair test; reason is set when invalid."""
    valid: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class DicksonPair:
    q: int
    n: int
    p: int
    l: int


@dataclass(frozen=True)
class Witness:
    """Triple violating right distributivity: (alpha+beta) o lam != alpha o lam + beta o lam."""
    alpha: int
    beta: int
    lam: int


def _check_pair_args(q, n):
    if isinstance(q, bool) or isinstance(n, bool) or not isinstance(q, int) or not isinstance(n, int):
        raise TypeError("q and n must be integers")
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")


def _bounded_order(q, n, limit: int, what: str) -> int:
    """q**n, or ValueError naming `what` above limit, before any factoring.

    As q >= 2, q > limit or n >= limit.bit_length() puts q**n above limit
    without computing it."""
    _check_pair_args(q, n)
    if q > limit or n >= limit.bit_length():
        raise ValueError(f"order {q}^{n} exceeds {what}")
    order = q ** n
    if order > limit:
        raise ValueError(f"order {order} exceeds {what}")
    return order


def validate_dickson_pair(q: int, n: int) -> PairVerdict:
    """Check the three Dickson pair conditions for (q, n).

    Returns a verdict carrying the failed condition; raises on
    non-integer or out-of-range inputs.  q and n are factored by trial
    division, so either above PAIR_LIMIT is refused before any factoring.
    """
    _check_pair_args(q, n)
    for name, v in (("q", q), ("n", n)):
        if v > PAIR_LIMIT:
            raise ValueError(f"{name} = {v} exceeds the pair test's limit {PAIR_LIMIT}")
    if _prime_power(q) is None:
        return PairVerdict(False, f"q = {q} is not a prime power")
    for r in _prime_factors(n):
        if (q - 1) % r:
            return PairVerdict(False, f"{r} does not divide q-1 = {q - 1}")
    if q % 4 == 3 and n % 4 == 0:
        return PairVerdict(False, "q = 3 (mod 4) and 4 divides n")
    return PairVerdict(True, None)


_UNSET = object()


class Nearfield:
    """Immutable arithmetic context for DN(q, n).

    All operations are pure table lookups after construction; instances
    are safe to share between threads.  Obtain instances through
    build_nearfield(), which caches them.
    """

    def __init__(self, q: int, n: int):
        self.order = _bounded_order(q, n, ORDER_LIMIT, f"the hard limit {ORDER_LIMIT}")
        verdict = validate_dickson_pair(q, n)
        if not verdict:
            raise ValueError(f"({q},{n}) is not a Dickson pair: {verdict.reason}")
        p, l = _prime_power(q)
        self.q = q
        self.n = n
        self.p = p
        self.l = l
        self.d = l * n
        self.pair = DicksonPair(q, n, p, l)

        self.modulus = self._find_modulus()
        self.generator = self._find_generator()
        self._build_coset_table()
        self._build_log_tables()
        self._qpow = tuple(q ** j for j in range(n))
        self._build_inverse_table()

        # -1 = g^((order-1)/2) for odd p, and -1 = 1 for p = 2
        o, exp, log = self.order - 1, self._exp, self._log
        half = o // 2 if p != 2 else 0
        self._negt = (0,) + tuple(exp[(log[a] + half) % o] for a in range(1, self.order))
        # the row kernel's order^2 tables; row_axpy computes the rows of
        # t[c][a] = a o c in the log domain while _addt is still None
        self._addt = self._rmul = None
        if self.order <= _ADD_TABLE_LIMIT:
            elems = range(self.order)
            self._rmul = [self.row_axpy(elems, c) for c in elems]
            self._addt = [[self.add(a, b) for b in elems] for a in elems]
        self._build_term_tables()
        self._witness = _UNSET

    # -- construction ------------------------------------------------------

    def _find_modulus(self):
        p, d = self.p, self.d
        # candidates in lexicographic order, constant coefficient compared
        # first; for d >= 2 a zero constant term means x divides the candidate
        consts = range(1 if d > 1 else 0, p)
        for tail in itertools.product(consts, *[range(p)] * (d - 1)):
            f = list(tail) + [1]
            if _is_irreducible(f, p):
                return tuple(f)
        raise RuntimeError(f"no irreducible polynomial of degree {d} over GF({p})")

    def _find_generator(self):
        p, d, order = self.p, self.d, self.order
        f = list(self.modulus)
        exponents = [(order - 1) // r for r in _prime_factors(order - 1)]
        for a in range(1, order):
            digits = _digits_of(a, p, d)
            if all(_ppowmod(digits, e, f, p) != [1] for e in exponents):
                return a
        raise RuntimeError("no primitive element found")

    def _build_log_tables(self):
        # exp and log, then the log-domain tables of add and row_axpy (see
        # the module docstring)
        p, order, o = self.p, self.order, self.order - 1
        f = list(self.modulus)
        g = _digits_of(self.generator, p, self.d)
        exp = [0] * o
        cur = [1]
        for k in range(o):
            exp[k] = _code_of(cur + [0] * (self.d - len(cur)), p)
            cur = _pmod(_pmul(cur, g, p), f, p)
        if _ptrim(cur) != [1]:
            raise RuntimeError("generator order mismatch: g^(order-1) != 1")
        log = [-1] * order
        for k, a in enumerate(exp):
            if log[a] != -1:
                raise RuntimeError("log table is not a bijection")
            log[a] = k
        if log.count(-1) != 1:
            raise RuntimeError("log table does not cover all nonzero elements")
        self._log = tuple(log)
        succ = [e + 1 if e % p != p - 1 else e - p + 1 for e in exp]
        zech = [log[s] if s else 2 * o for s in succ]
        self._zech = tuple(zech + zech)
        self._exp = tuple(exp + exp) + (0,) * o
        self._cosets = (0,) + tuple(self.coset_table[log[a] % self.n] for a in range(1, order))

    def _build_coset_table(self):
        q, n = self.q, self.n
        table = [-1] * n
        acc = 0  # (q^j - 1)/(q - 1) = 1 + q + ... + q^(j-1)
        for j in range(n):
            r = acc % n
            if table[r] != -1:
                raise RuntimeError("coupling residues are not a complete residue system")
            table[r] = j
            acc += q ** j
        self.coset_table = tuple(table)

    def _build_inverse_table(self):
        # a = g^k has inverse g^(-k q^(n - j(a))); each entry is checked
        # against mul once here, so inv itself is a lookup
        o1, n = self.order - 1, self.n
        exp, log, qpow, cosets, mul = self._exp, self._log, self._qpow, self._cosets, self.mul
        invt = [0] * self.order     # entry 0 is never read: inv(0) raises
        for a in range(1, self.order):
            b = exp[((-log[a] % o1) * qpow[(n - cosets[a]) % n]) % o1]
            if mul(a, b) != 1 or mul(b, a) != 1:
                raise RuntimeError(f"inverse of {a} is not two-sided")
            invt[a] = b
        self._invt = tuple(invt)

    def _build_term_tables(self):
        # the printed text of each term c x^i (0 < c < p), indexed [i][c] for
        # format_element and keyed by text for parse_element: p * d entries,
        # and none for a prime field, whose elements print as their codes
        p, d = self.p, self.d
        texts = []
        if d > 1:
            texts.append([""] + [str(c) for c in range(1, p)])
            for i in range(1, d):
                xi = "x" if i == 1 else f"x^{i}"
                texts.append([""] + [("" if c == 1 else str(c)) + xi for c in range(1, p)])
        self._term_text = texts
        self._term_code = {t: (i, c * p ** i) for i, row in enumerate(texts) for c, t in enumerate(row) if c}

    # -- additive structure --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Coefficientwise sum mod p, through a Zech logarithm at every order.

        g^i + g^k = g^(i + Z[k - i]), with Z[k] = log(1 + g^k); a zero
        operand returns the other one, and where g^k = -g^i the sentinel in
        Z indexes the zeros past the doubled exp table.
        """
        if not a:
            return b
        if not b:
            return a
        lg = self._log
        la = lg[a]
        return self._exp[la + self._zech[lg[b] - la]]

    def neg(self, a: int) -> int:
        return self._negt[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._negt[b])

    # -- multiplicative structure --------------------------------------------

    def field_mul(self, a: int, b: int) -> int:
        """Untwisted Galois field product (reference operation)."""
        if a == 0 or b == 0:
            return 0
        lg = self._log
        return self._exp[(lg[a] + lg[b]) % (self.order - 1)]

    def field_pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def mul(self, a: int, b: int) -> int:
        """The twisted product a o b."""
        if a == 0 or b == 0:
            return 0
        lg = self._log
        return self._exp[(lg[a] + lg[b] * self._qpow[self._cosets[a]]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        """Two-sided inverse for o."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._invt[a]

    def coset_index(self, a: int) -> int:
        """The automorphism exponent j(a); for n = 2 it is 0 iff a is a square."""
        if a == 0:
            raise ValueError("coset index undefined for 0")
        return self.coset_table[self._log[a] % self.n]

    def log(self, a: int) -> int:
        """Discrete logarithm to base generator."""
        if a == 0:
            raise ValueError("log of 0 undefined")
        return self._log[a]

    # -- derived data ----------------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.order)

    @property
    def is_field(self) -> bool:
        return self.n == 1

    def find_witness(self) -> Witness | None:
        """First (alpha, beta, lam) in lexicographic code order violating
        right distributivity, or None for a field (n = 1).  Cached.

        Only alpha = 1 is scanned.  alpha = 0 is never a witness, and
        (alpha, beta, lam) is one iff (1, alpha^-1 o beta, lam) is: left-
        multiplying by alpha^-1 is a bijection that respects + (left
        distributivity) and o (associativity).  So the first witness in
        lexicographic order has alpha = 1.

        For each beta only lam in {1, p, ..., p^(d-1)} is probed:
        L(lam) = (1 + beta) o lam - lam - beta o lam is additive in lam, as
        a o lam = a * lam^(q^j(a)) and Frobenius and the field product are,
        so the lam with L(lam) = 0 form a GF(p)-subspace.  The codes below
        p^i are the GF(p)-combinations of 1, p, ..., p^(i-1), so the least
        code outside it is p^i for the least i with L(p^i) != 0.  That is
        O(beta* d) probes, not O(beta* order), for the same witness.
        """
        if self._witness is not _UNSET:
            return self._witness
        w = None
        if self.n > 1:  # fields are two-sided distributive, nothing to scan
            add, mul = self.add, self.mul
            probes = [self.p ** i for i in range(self.d)]
            w = next(
                (Witness(1, beta, lam)
                 for beta in range(self.order)
                 for lam in probes
                 if mul(add(1, beta), lam) != add(lam, mul(beta, lam))),
                None,
            )
        self._witness = w
        return w

    def mul_table(self) -> list[list[int]]:
        """Full o table, row index = left operand, built on each call up to
        TABLE_LIMIT; the row kernel keeps its own rows (see row_axpy)."""
        return self._table(self.mul)

    def add_table(self) -> list[list[int]]:
        """Full + table, built on each call up to TABLE_LIMIT."""
        return self._table(self.add)

    def _table(self, op) -> list[list[int]]:
        if self.order > TABLE_LIMIT:
            raise ValueError(f"order {self.order} too large for a full table (limit {TABLE_LIMIT})")
        elems = range(self.order)
        return [[op(a, b) for b in elems] for a in elems]

    def row_axpy(self, row, c: int, acc=None, cols=None) -> tuple[int, ...]:
        """acc + row o c componentwise, or row o c when acc is None.

        The row kernel of elimination, and of the scaling rows of closure.
        Above _ADD_TABLE_LIMIT each entry stays in the log domain: with
        off[j] = log c * q^j, a o c = exp[log a + off[j(a)]], and adding x
        is the Zech step exp[log x + Z[log(a o c) - log x]] (see add);
        c = 0, a = 0 and x = 0 are branches, not table entries, and no
        order^2 table is allocated.  Up to the limit each entry is one or
        two lookups in the order^2 tables t[c][a] = a o c and x + y, which
        the constructor derives from this log-domain path and add.

        cols, an ascending sequence of column indices that holds the
        support of row, restricts the work to those entries: the result
        is a copy of acc (of zeros when acc is None) with only the entries
        at cols updated, through the same tables, so a row op costs the
        support of row rather than its width.
        """
        addt = self._addt
        if addt is None and c:
            ex, lg, cosets, z = self._exp, self._log, self._cosets, self._zech
            o, lc = self.order - 1, lg[c]
            off = [lc * qj % o for qj in self._qpow]
        if cols is not None:
            out = [0] * len(row) if acc is None else list(acc)
            if addt is not None:
                tc = self._rmul[c]
                for j in cols:
                    out[j] = addt[out[j]][tc[row[j]]]
            elif c:
                for j in cols:
                    a = row[j]
                    if a:
                        x = out[j]
                        la = lg[a] + off[cosets[a]]
                        out[j] = ex[lg[x] + z[la - lg[x]]] if x else ex[la]
            return tuple(out)
        if addt is None:
            if not c:
                return (0,) * len(row) if acc is None else tuple(acc)
            if acc is None:
                return tuple([ex[lg[a] + off[cosets[a]]] if a else 0 for a in row])
            return tuple([
                (ex[lg[x] + z[lg[a] + off[cosets[a]] - lg[x]]] if x else ex[lg[a] + off[cosets[a]]])
                if a else x
                for x, a in zip(acc, row)
            ])
        tc = self._rmul[c]
        if acc is None:
            return tuple([tc[a] for a in row])
        return tuple([addt[x][tc[a]] for x, a in zip(acc, row)])

    # -- text codec -------------------------------------------------------------

    def parse_element(self, text: str) -> int:
        """Parse either style: bare decimal code, or polynomial like '2+2x', '1+x^2'.

        A term spelled as format_element prints it is looked up; any other
        spelling is parsed with the term pattern.
        """
        t = text.strip()
        if not t:
            raise ValueError("empty element token")
        if t.isdigit():
            code = int(t)
            if code >= self.order:
                raise ValueError(f"code {code} out of range for order {self.order}")
            return code
        term_code = self._term_code
        code, last_pow = 0, -1
        for term in t.split("+"):
            hit = term_code.get(term)
            if hit is None:
                term = term.strip()
                if term.isdigit():
                    c, i = int(term), 0
                else:
                    mt = _TERM_RE.match(term)
                    if not mt:
                        raise ValueError(f"malformed element term {term!r}")
                    cs, ks = mt.groups()
                    c = int(cs) if cs else 1
                    i = int(ks) if ks else 1
                    if ks is not None and i < 1:
                        raise ValueError(f"malformed element term {term!r}")
                if not 0 < c < self.p:
                    raise ValueError(f"coefficient {c} out of range for GF({self.p})")
                if i >= self.d:
                    raise ValueError(f"power {i} out of range for degree {self.d}")
                hit = (i, c * self.p ** i)
            if hit[0] <= last_pow:
                raise ValueError(f"powers not ascending in {text!r}")
            last_pow = hit[0]
            code += hit[1]
        return code

    def format_element(self, a: int, style: str = "poly") -> str:
        if not 0 <= a < self.order:
            raise ValueError(f"code {a} out of range for order {self.order}")
        if style == "code":
            return str(a)
        if style != "poly":
            raise ValueError("style must be 'poly' or 'code'")
        if self.d == 1:
            return str(a)
        p, terms = self.p, []
        for texts in self._term_text:
            if not a:
                break
            a, c = divmod(a, p)
            if c:
                terms.append(texts[c])
        return "+".join(terms) or "0"

    def __repr__(self):
        return f"DN({self.q},{self.n})"


@functools.lru_cache(maxsize=None)
def _cached_nearfield(q: int, n: int) -> Nearfield:
    return Nearfield(q, n)


def build_nearfield(q: int, n: int) -> Nearfield:
    """Construct (or fetch the cached) DN(q, n).

    Raises TypeError for non-integers, and ValueError for invalid pairs
    or when q^n exceeds ORDER_LIMIT (2^20).  The type, range and order
    checks run ahead of the cache, which would return DN(3,2) for (3.0, 2)
    as 3.0 hashes like 3, and a huge q or n costs no factoring.  The
    limits are fixed: besides ORDER_LIMIT, full operation tables stop at
    TABLE_LIMIT (2^12) and the pair test at PAIR_LIMIT (2^32).  The one
    settable size limit is the element budget (closure, NEARVEC_BUDGET).
    """
    _bounded_order(q, n, ORDER_LIMIT, f"the hard limit {ORDER_LIMIT}")
    return _cached_nearfield(q, n)
