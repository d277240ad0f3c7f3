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

The set-up works on integers, not on polynomial lists.  The irreducibility
test of the modulus candidates and the generator test power as integers by
Kronecker substitution (a polynomial is its value at a power of two,
_Kronecker), and Rabin's gcd step is a power too: once x^(p^d) = x, the
candidate is prime to h = x^(p^(d/r)) - x exactly when h^(p^d - 1) = 1
(_is_irreducible).  exp steps g^k -> g^(k+1) on lane codes, one spare bit
per base-p digit: g*a is the sum of two table images of the halves of a's
digits, g*x^i from _Kronecker, reduced mod p in every lane at once
(_TimesG).  A prime field steps g^k * g % p.  The other tables follow
from exp by indexing.  At order 2^20 the build takes about a second.

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
Inverse and negation are formulas over log, with no tables of their own:
a^-1 = exp[-log a * q^(n - j(a)) mod (order - 1)], which the construction
checks once per residue of log a mod n, and -a = exp[log a + log(p - 1)],
as -1 is the code p - 1.
add is this formula, and so are the two row kernels, at every order:
row_axpy (acc + row o c, for closure, maps and scale steps) and
row_eliminate, which applies every eliminate step of one pivot row in
one call to list rows in place, reading the pivot's logs once, grouped
by coset j(a), so that each target computes its offset log(-c) * q^j
once per group, and keeping the rows' column index (the support of each
row and the rows of each column) in the same pass over the entries.
The field builds no table of order^2 entries: add_table and mul_table
are rows of row_axpy, made when asked for.

Element text goes through one memo per field: format_elements and
parse_elements look codes and tokens up in two dicts, code -> canonical
text and back, and every other text path (format_element, parse_element,
the matrix file and trace codecs, the command line) calls them.  A code
or token that misses is spelled or parsed once by the general rules,
which raise every error, and only its code's canonical text is stored,
so each dict holds at most order entries.  Nothing is stored at
construction: a field pays for the texts it prints or reads.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

ORDER_LIMIT = 1 << 20   # largest order for which log/exp tables are built at all
PAIR_LIMIT = 1 << 32    # largest q and n that the Dickson pair test factors

_CACHE_ALL_LIMIT = 1 << 16  # fields up to this order stay cached; of larger ones, the last only

_TERM_RE = re.compile(r"([0-9]+)|([0-9]*)x(?:\^(0*[1-9][0-9]*))?")  # c, or [c]x[^k], k >= 1
_INT_ONLY = frozenset((int,))  # the one type of an element code: not bool, not float
_MAX_DIGITS = 4300  # int()'s own default limit on a digit string
_NOT_SEPARATOR = re.compile(r"[^\S \t\r\n]")   # whitespace other than space, tab, CR and LF


def _ascii_int(text: str, field: str, low: int | None = 0) -> int:
    """The one reader of integer text from argv, NEARVEC_BUDGET, files,
    traces and element tokens: ASCII digits [0-9]+, at most _MAX_DIGITS,
    after one '-' when low is None, worth at least low.  Else ValueError
    naming field; int() alone reads other Unicode digits, '_', '+' and
    spaces, and refuses 4301 digits without naming the field."""
    digits = text if low is not None or text.isdigit() else text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        if len(digits) > _MAX_DIGITS:
            raise ValueError(f"{field} has {len(digits)} digits, more than {_MAX_DIGITS}")
        value = int(text)
        if low is None or value >= low:
            return value
    bound = "" if low is None else f" >= {low}"
    raise ValueError(f"{field} must be an integer{bound}, got {text!r}")


def _check_separators(text: str, what: str) -> None:
    """ValueError naming the first whitespace but ASCII space, tab, CR and LF
    in a matrix file or trace, where split() and splitlines() would break; an
    ASCII text free of \\v, \\f and \\x1c-\\x1f skips this tenth of a trace read.
    Its line is numbered as splitlines() numbers them: CRLF, a lone CR and a
    lone LF each end one."""
    if not text.isascii() or any(map(text.__contains__, "\v\f\x1c\x1d\x1e\x1f")):
        if bad := _NOT_SEPARATOR.search(text):
            head = text[:bad.start()]
            line = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
            where, ch = f"{what} line {line}", bad.group()
            raise ValueError(f"{where}: whitespace {ch!r} (U+{ord(ch):04X}) is not a field separator")


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
# polynomial arithmetic over GF(p), on integers

class _Kronecker:
    """Products and powers in GF(p)[x]/(f) on integers, by Kronecker
    substitution: the one polynomial arithmetic of the set-up, for the
    irreducibility test of the modulus candidates, the generator test and
    _TimesG's images g*x^i.

    A polynomial with coefficients below 2^w is held as its value at
    x = 2^w.  F = x^d - sum((-f_i % p) x^i) is f mod p with no negative
    term, so the product of two reduced values, taken mod F(2^w), is the
    value of the product's remainder mod F over the integers: reducing by
    F only adds, the coefficients stay below d p^(d+1) < 2^(w-1), and so
    the value stays below F(2^w).  Each coefficient mod p then gives the
    product mod f.
    """

    def __init__(self, p, f):
        d = len(f) - 1
        w = (d * p ** (d + 1)).bit_length() + 1
        self.p, self.mask, self.shifts = p, (1 << w) - 1, [w * i for i in range(d)]
        self.fw = (1 << (w * d)) - sum((-c % p) << (w * i) for i, c in enumerate(f[:-1]))

    def encode(self, a: list[int]) -> int:
        """The value of a reduced polynomial given by its coefficients."""
        return sum(c << s for c, s in zip(a, self.shifts))

    def decode(self, u: int) -> list[int]:
        """The d coefficients of a reduced value, untrimmed."""
        return [(u >> s) & self.mask for s in self.shifts]

    def mul(self, u: int, v: int) -> int:
        r = u * v % self.fw
        p, mask = self.p, self.mask
        return sum(((r >> s) & mask) % p << s for s in self.shifts)

    def pow(self, u: int, e: int) -> int:
        """u^e for e >= 1, by the bits of e from the top."""
        r = u
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, u)
        return r


def _is_irreducible(f, p):
    """Rabin's irreducibility test for a monic polynomial f of degree d over
    GF(p), with its gcd step as a power.

    f is irreducible when x^(p^d) = x (mod f) and, for each prime r | d,
    h = x^(p^(d/r)) - x is a unit mod f (Rabin's gcd(h, f) = 1).  Once the
    first test holds, f divides x^(p^d) - x, so f is squarefree and each
    of its factors has a degree e | d: GF(p)[x]/(f) is a product of fields
    GF(p^e), each of whose units has an order dividing p^e - 1, hence
    p^d - 1.  So h is a unit exactly when h^(p^d - 1) = 1, and a zero
    component keeps the power off 1.  The powers x^(p^k) come from one
    chain of p-th powers.  Every polynomial of degree 1 is irreducible,
    and its ring has no x lane.
    """
    d = len(f) - 1
    if d == 1:
        return True
    ring = _Kronecker(p, f)
    frobenius = [ring.encode([0, 1])]     # x^(p^k) for k = 0..d
    for _ in range(d):
        frobenius.append(ring.pow(frobenius[-1], p))
    if frobenius[d] != frobenius[0]:
        return False
    for r in _prime_factors(d):
        h = ring.decode(frobenius[d // r])
        h[1] = (h[1] - 1) % p     # minus x
        if ring.pow(ring.encode(h), p ** d - 1) != 1:
            return False
    return True


def _digits_of(code, p, d):
    out = [0] * d
    for i in range(d):
        code, out[i] = divmod(code, p)[0], code % p
    return out


class _TimesG:
    """a -> g*a in GF(p)[x]/(modulus) on integer lane codes, for the powers of g.

    A lane code holds base-p digit i in bits b*i .. b*i + b - 1, where b is
    one bit more than a digit needs, so two lane codes add digitwise with no
    carry between lanes.  Adding 2^(b-1) - p to every lane of such a sum
    sets a lane's top bit exactly where its digit sum reached p, and one
    multiply subtracts p from those lanes.  Multiplication by g is
    GF(p)-linear, so g*a is the sum of the images of the low and the high
    half of a's digits, read from two tables keyed by the halves' lanes and
    built from g, g*x, ..., g*x^(d-1).  Each image also carries the code of
    its half above the d lanes, so a step yields a's code along with g*a.
    A table has p^ceil(d/2) <= sqrt(p * order) <= 2^15 entries; a prime
    field (d = 1) has none, as its step is a * g % p.
    """

    def __init__(self, p, modulus, g):
        d = len(modulus) - 1
        self.p, self.g, self.tables = p, g, ()
        if d == 1:
            return
        b = (p - 1).bit_length() + 1
        self.top, self.lanes, self.split = b - 1, b * d, b * ((d + 1) // 2)
        self.fold = sum(((1 << (b - 1)) - p) << (b * i) for i in range(d))
        self.tops = sum(1 << (b * i + b - 1) for i in range(d))
        ring = _Kronecker(p, modulus)
        images, gx, x = [], ring.encode(_digits_of(g, p, d)), ring.encode([0, 1])
        for i in range(d):
            images.append(sum(c << (b * j) for j, c in enumerate(ring.decode(gx))) + (p ** i << self.lanes))
            gx = ring.mul(gx, x)
        half = (d + 1) // 2
        self.tables = (self._table(images[:half], b), self._table(images[half:], b))

    def _reduce(self, s):
        return s - (((s + self.fold) & self.tops) >> self.top) * self.p

    def _table(self, images, b):
        table = {0: 0}
        for i, image in enumerate(images):
            multiples = [0]
            for _ in range(1, self.p):
                multiples.append(self._reduce(multiples[-1] + image))
            table = {key + (v << (b * i)): self._reduce(val + m)
                     for key, val in table.items() for v, m in enumerate(multiples)}
        return table

    def powers(self, count: int) -> list[int]:
        """The codes of g^0, ..., g^(count-1)."""
        out, p, cur = [0] * count, self.p, 1
        if not self.tables:
            g = self.g
            for k in range(count):
                out[k] = cur
                cur = cur * g % p
            return out
        lo, hi = self.tables
        split, fold, tops, top, lanes = self.split, self.fold, self.tops, self.top, self.lanes
        mask, lane_mask = (1 << split) - 1, (1 << lanes) - 1
        for k in range(count):
            s = lo[cur & mask] + hi[cur >> split]
            s -= (((s + fold) & tops) >> top) * p
            out[k] = s >> lanes
            cur = s & lane_mask
        return out


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
    are safe to share between threads, as the text memo and the closure's
    scaling columns only ever gain entries that do not depend on the order
    of the calls.  Obtain instances through build_nearfield(), which
    caches them.
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
        self._check_inverse_formula()
        # filled on demand: the element text memo, code -> canonical text and
        # back (see format_elements), and closure's scaling columns
        self._texts, self._codes = {}, {}
        self._scale_columns = {}
        self._witness = _UNSET

    # -- construction ------------------------------------------------------

    def _find_modulus(self):
        p, d = self.p, self.d
        # candidates in lexicographic order, constant coefficient compared
        # first: the base-p digits of c, most significant first; for d >= 2
        # a zero constant term means x divides the candidate
        for c in range(p ** (d - 1) if d > 1 else 0, p ** d):
            f = _digits_of(c, p, d)[::-1] + [1]
            if _is_irreducible(f, p):
                return tuple(f)
        raise RuntimeError(f"no irreducible polynomial of degree {d} over GF({p})")

    def _find_generator(self):
        # the least code a with a^((order-1)/r) != 1 for every prime r of order-1
        p, d, order = self.p, self.d, self.order
        ring = _Kronecker(p, self.modulus)
        exponents = [(order - 1) // r for r in _prime_factors(order - 1)]
        # a constant's order divides p - 1, so from d = 2 on x is the first candidate
        for a in range(p if d > 1 else 1, order):
            u = ring.encode(_digits_of(a, p, d))
            if all(ring.pow(u, e) != 1 for e in exponents):
                return a
        raise RuntimeError("no primitive element found")

    def _build_log_tables(self):
        # exp by stepping g^k -> g^(k+1) on lane codes (_TimesG), then log,
        # and the log-domain tables of add and row_axpy (see the module
        # docstring)
        p, n, order, o = self.p, self.n, self.order, self.order - 1
        exp = _TimesG(p, self.modulus, self.generator).powers(order)
        if exp.pop() != 1:
            raise RuntimeError("generator order mismatch: g^(order-1) != 1")
        log = [-1] * order
        for k, a in enumerate(exp):
            log[a] = k
        # o powers fill o of the order slots: two or more left empty means
        # two powers collided, and an empty slot other than 0 means that a
        # power is 0
        if log.count(-1) != 1:
            raise RuntimeError("log table is not a bijection")
        if log[0] != -1:
            raise RuntimeError("log table does not cover all nonzero elements")
        self._log = tuple(log)
        # 1 + a adds 1 to the lowest digit of a: by code, the next code
        # within a's block of p, cyclically.  Where 1 + a = 0, Z holds the
        # sentinel
        log[0] = 2 * o
        succ_log = [0] * order
        for c in range(p):
            succ_log[c::p] = log[(c + 1) % p::p]
        zech = list(map(succ_log.__getitem__, exp))
        self._zech = tuple(zech + zech)
        self._exp = tuple(exp * 2 + [0] * o)
        # j(g^k) = coset_table[k mod n], set by residue class; 0 is the default
        cosets = [0] * order
        for r, j in enumerate(self.coset_table):
            if j:
                for a in exp[r::n]:
                    cosets[a] = j
        self._cosets = tuple(cosets)

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

    def _check_inverse_formula(self):
        # inv takes g^k to g^l, l = -k Q mod o, with o = order - 1, r = k mod n
        # and Q = q^(n - j(g^k)) = q^(n - coset_table[r]).  Both products are
        # checked once per r, which decides them for every k of that residue:
        # g^k o g^l = g^(k + l q^j(g^k)) = g^(k (1 - Q q^j(g^k))), and as n
        # divides o, l = -r Q mod n, so g^l o g^k = g^(k (q^j(g^l) - Q))
        o, n, qpow, ct = self.order - 1, self.n, self._qpow, self.coset_table
        if o % n:
            raise RuntimeError(f"n = {n} does not divide the group order {o}")
        for r in range(n):
            Q = qpow[-ct[r] % n]
            if (1 - Q * qpow[ct[r]]) % o or (qpow[ct[-r * Q % n]] - Q) % o:
                raise RuntimeError(f"inverse of g^{r} is not two-sided")

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
        """-a = a * (-1) = exp[log a + log(p - 1)], as the code of -1 is p - 1;
        for p = 2 that is a itself."""
        if not a:
            return 0
        lg = self._log
        return self._exp[lg[a] + lg[self.p - 1]]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

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
        """Two-sided inverse for o: a = g^k has inverse g^(-k q^(n - j(a))),
        exp[-log a * q^(n - j(a)) mod (order - 1)], as checked at construction."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        lg = self._log
        return self._exp[-lg[a] * self._qpow[-self._cosets[a]] % (self.order - 1)]

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

    def check_codes(self, codes, what: str = "element code") -> None:
        """The one check of element codes: ValueError unless every entry of the
        sequence is an int (not a bool) in 0..order-1.  It reads the set of
        entry types, min and max, and walks the entries only to name a bad one."""
        order = self.order
        if codes and not (_INT_ONLY.issuperset(map(type, codes)) and 0 <= min(codes) and max(codes) < order):
            a = next(a for a in codes if type(a) is not int or not 0 <= a < order)
            if type(a) is not int:
                raise ValueError(f"{what} {a!r} is not an integer")
            raise ValueError(f"{what} {a} out of range for order {order}")

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
        L(lam) = (1 + beta) o lam - lam - beta o lam is additive in lam by
        left distributivity alone, x o (lam + mu) = x o lam + x o mu, and an
        additive map of (R, +) = GF(p)^d is GF(p)-linear, so the lam with
        L(lam) = 0 form a GF(p)-subspace.  The codes below p^i are the
        GF(p)-combinations of 1, p, ..., p^(i-1), so the least code outside
        it is p^i for the least i with L(p^i) != 0.  That is O(beta* d)
        probes, not O(beta* order), for the same witness.
        """
        if self._witness is not _UNSET:
            return self._witness
        w = None
        if not self.is_field:  # fields are two-sided distributive, nothing to scan
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
        """Full o table, row index = left operand: the transpose of the row
        kernel's rows [a o c for a], under the element budget (order^2 cells)."""
        elems = self._table_elements()
        return list(map(list, zip(*[self.row_axpy(elems, c) for c in elems])))

    def add_table(self) -> list[list[int]]:
        """Full + table, row a = a + elems o 1, under the element budget."""
        elems = self._table_elements()
        return [list(self.row_axpy(elems, 1, (a,) * self.order)) for a in elems]

    def _table_elements(self) -> range:
        from .closure import require_budget  # closure imports this module
        require_budget("operation table cells, |R|^2", self.order, 2)
        return self.elements

    def row_axpy(self, row, c: int, acc=None) -> tuple[int, ...]:
        """acc + row o c componentwise, or row o c when acc is None.

        The row kernel of closure's scaling columns, of apply_map, of the
        operation tables and of EGE's scale steps.  Each entry stays in the
        log domain: with off[j] = log c * q^j, a o c = exp[log a + off[j(a)]],
        and adding x is the Zech step exp[log x + Z[log(a o c) - log x]]
        (see add); c = 0, a = 0 and x = 0 are branches, not table entries.
        """
        if not c:
            return (0,) * len(row) if acc is None else tuple(acc)
        ex, lg, cosets, z = self._exp, self._log, self._cosets, self._zech
        o, lc = self.order - 1, lg[c]
        off = [lc * qj % o for qj in self._qpow]
        if acc is None:
            return tuple([ex[lg[a] + off[cosets[a]]] if a else 0 for a in row])
        return tuple([
            (ex[lg[x] + z[lg[a] + off[cosets[a]] - lg[x]]] if x else ex[lg[a] + off[cosets[a]]])
            if a else x
            for x, a in zip(acc, row)
        ])

    def row_eliminate(self, row, cols, rows, targets, sup, at) -> None:
        """rows[s] = rows[s] - row o c for each (s, c) of targets in turn, with
        each rows[s] a list updated in place: the eliminate steps of one
        pivot row in one call, which keep the rows' column index.

        cols is the ascending support of row, on which alone the targets
        change, so an update costs that support rather than the width.  The
        pivot's logs are read once, before any target changes, and grouped
        by coset j(a); a target computes its offset log(-c) * q^j once per
        group, and each entry is then add's Zech step, as in row_axpy.  A
        target row is read when its turn comes, so a row named twice gets
        both updates in order, and a target that is row itself is updated
        from row as passed.  A multiplier c = 0 changes nothing.

        sup[s] is the set of the nonzero columns of rows[s] and at[j] the
        set of the rows nonzero in column j, and both stay so: where an
        entry fills in (a zero entry always does, as a o c != 0 for nonzero
        a and c), j joins sup[s] and s joins at[j]; where one cancels, both
        leave.  A target that loses more columns than it keeps gets a new
        sup[s], as a set keeps its table when it shrinks.
        """
        ex, lg, z, cosets = self._exp, self._log, self._zech, self._cosets
        o, neg1 = self.order - 1, lg[self.p - 1]
        by_coset = [[] for _ in self._qpow]
        for j in cols:
            a = row[j]
            by_coset[cosets[a]].append((j, lg[a]))
        pivot = [(qj, group) for qj, group in zip(self._qpow, by_coset) if group]
        for s, c in targets:
            if not c:
                continue
            out, ss, lc, lost = rows[s], sup[s], lg[c] + neg1, 0
            # x + a o -c = exp[log x + Z[log(a o -c) - log x]], log(a o -c) = log a + t
            for qj, group in pivot:
                t = lc * qj % o
                for j, la in group:
                    x = out[j]
                    if x:
                        lx = lg[x]
                        v = out[j] = ex[lx + z[la + t - lx]]
                        if not v:
                            ss.discard(j)
                            at[j].discard(s)
                            lost += 1
                    else:
                        out[j] = ex[la + t]
                        ss.add(j)
                        at[j].add(s)
            if lost and len(ss) < lost:
                sup[s] = set(ss)

    # -- text codec -------------------------------------------------------------

    def format_elements(self, codes, style: str = "poly") -> list[str]:
        """The texts of a sequence of codes: in "poly" style by _texts_of, in
        "code" style str(a).  A code that is not an int is refused first, as
        True and 1.0 would hit the text of 1."""
        if style != "poly":
            self.check_codes(codes, "code")
            if style != "code":
                raise ValueError("style must be 'poly' or 'code'")
            return list(map(str, codes))
        if not _INT_ONLY.issuperset(map(type, codes)):
            self.check_codes(codes, "code")
        return self._texts_of(codes)

    def _texts_of(self, codes) -> list[str]:
        """The texts of int codes by lookup in the memo, for format_elements and
        an NfMatrix's rows, checked when it was built.  A code that misses is
        checked and stored, and the lookup runs again, reading codes twice."""
        texts = self._texts
        try:
            return list(map(texts.__getitem__, codes))
        except KeyError:
            for a in codes:
                if a not in texts:
                    self._remember(a)
            return list(map(texts.__getitem__, codes))

    def parse_elements(self, tokens) -> list[int]:
        """The codes of a sequence of tokens, each looked up in the memo of
        canonical texts; a token that misses is parsed by parse_element's
        rules, and its code's canonical text is stored."""
        codes = self._codes
        try:
            return list(map(codes.__getitem__, tokens))
        except KeyError:
            texts, out = self._texts, []
            for t in tokens:
                a = codes[t] if t in codes else self._parse_token(t)
                if a not in texts:
                    self._remember(a)
                out.append(a)
            return out

    def format_element(self, a: int, style: str = "poly") -> str:
        """The text of one code; see format_elements."""
        return self.format_elements((a,), style)[0]

    def parse_element(self, text: str) -> int:
        """Parse either style: bare decimal code, or polynomial like '2+2x', '1+x^2'."""
        return self.parse_elements((text,))[0]

    def _remember(self, a: int) -> None:
        """Store the canonical text of code a both ways in the memo.

        The text is spelled digit by digit, each nonzero digit c at power i
        as c, cx or cx^i with a coefficient 1 left out beside x, and a prime
        field prints the code itself.  A code that is not an int in range is
        refused before anything is stored, and callers pass only codes not
        yet stored, so each memo holds at most order entries.
        """
        self.check_codes((a,), "code")
        if self.d == 1:
            text = str(a)
        else:
            terms = []
            for i, c in enumerate(_digits_of(a, self.p, self.d)):
                if c:
                    power = "" if i == 0 else "x" if i == 1 else f"x^{i}"
                    terms.append(power if c == 1 and i else str(c) + power)
            text = "+".join(terms) or "0"
        self._texts[a] = text
        self._codes[text] = a

    def _parse_token(self, text: str) -> int:
        """The code of a token in either style, spelled any way the term
        pattern admits ('1x', 'x^1', ' 1 + x', '0001', decimal codes), in
        ASCII digits, spaces and tabs; one constant term is a decimal code."""
        t = text.strip(" \t")
        if not t:
            raise ValueError("empty element token")
        terms = t.split("+")
        code, last_pow = 0, -1
        for term in terms:
            term = term.strip(" \t")
            mt = _TERM_RE.fullmatch(term)
            if not mt:
                raise ValueError(f"malformed element term {term!r}")
            const, cs, ks = mt.groups()
            if const is not None:
                if len(terms) == 1:
                    code = _ascii_int(const, "element code")
                    if code >= self.order:
                        raise ValueError(f"code {code} out of range for order {self.order}")
                    return code
                c, i = _ascii_int(const, "coefficient"), 0
            else:
                c = _ascii_int(cs, "coefficient") if cs else 1
                i = _ascii_int(ks, "power") if ks else 1
            if not 0 < c < self.p:
                raise ValueError(f"coefficient {c} out of range for GF({self.p})")
            if i >= self.d:
                raise ValueError(f"power {i} out of range for degree {self.d}")
            if i <= last_pow:
                raise ValueError(f"powers not ascending in {text!r}")
            last_pow = i
            code += c * self.p ** i
        return code

    def __repr__(self):
        return f"DN({self.q},{self.n})"


@functools.lru_cache(maxsize=None)
def _cached_nearfield(q: int, n: int) -> Nearfield:
    return Nearfield(q, n)


@functools.lru_cache(maxsize=1)
def _cached_large_nearfield(q: int, n: int) -> Nearfield:
    return Nearfield(q, n)


def build_nearfield(q: int, n: int) -> Nearfield:
    """Construct (or fetch the cached) DN(q, n).

    Raises TypeError for non-integers, and ValueError for invalid pairs
    or when q^n exceeds ORDER_LIMIT (2^20).  The type, range and order
    checks run ahead of the cache, which would return DN(3,2) for (3.0, 2)
    as 3.0 hashes like 3, and a huge q or n costs no factoring.  Every
    field of order up to 2^16 stays cached; of the larger ones, whose
    tables take tens to hundreds of MB, only the last one built does.
    The limits are fixed: besides ORDER_LIMIT, the pair test stops at
    PAIR_LIMIT (2^32).  The one settable size limit is the element budget
    (closure, NEARVEC_BUDGET), which also bounds the full operation tables.
    """
    order = _bounded_order(q, n, ORDER_LIMIT, f"the hard limit {ORDER_LIMIT}")
    cache = _cached_nearfield if order <= _CACHE_ALL_LIMIT else _cached_large_nearfield
    return cache(q, n)
