"""Finite coefficient rings: prime fields, extension fields, integers mod n.

Ring elements are plain integers in ``[0, size)``.  The m base-c digits
of an index, c the characteristic and read little-endian, are polynomial
coefficients in the generator ``t``: the index
``a0 + a1*c + ... + a_{m-1}*c**(m-1)`` encodes
``a0 + a1*t + ... + a_{m-1}*t**(m-1)``.  For ``F:p`` and ``Z:n``, m = 1 and
the index is the residue itself.  Index 0 is the additive zero and index 1
the multiplicative identity in every ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

PRIME_FIELD = "prime-field"
EXTENSION_FIELD = "extension-field"
MOD_N = "mod-n"

DEFAULT_MAX_RING_SIZE = 1 << 22
MAX_EXTENSION_DEGREE = 8


class NotInvertibleError(ValueError):
    """Raised when asked to invert an element with no inverse."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q = p**m and p prime, or None."""
    if q < 2:
        return None
    p = q
    for d in range(2, math.isqrt(q) + 1):
        if q % d == 0:
            p = d
            break
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return (p, m) if q == 1 else None


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num mod den over F_p, trailing zeros dropped; den must be monic."""
    r = list(num)
    dd = len(den) - 1
    for i in range(len(r) - 1, dd - 1, -1):
        c = r[i] % p
        if c:
            for j in range(dd + 1):
                r[i - dd + j] = (r[i - dd + j] - c * den[j]) % p
    r = [v % p for v in r[:dd]]
    while r and r[-1] == 0:
        r.pop()
    return r


def _is_irreducible(low: list[int], p: int, m: int) -> bool:
    """Is x**m + sum(low[i] x**i) irreducible over F_p?

    Trial division by every monic polynomial of degree 1..m//2; a monic
    reducible polynomial always has a monic factor in that range.
    """
    if m == 1:
        return True
    if low[0] == 0:
        return False  # divisible by x
    coeffs = list(low) + [1]
    for d in range(1, m // 2 + 1):
        for c in range(p**d):
            div = [(c // p**i) % p for i in range(d)] + [1]
            if not _poly_rem(coeffs, div, p):
                return False
    return True


def lex_smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Non-leading coefficients (a0..a_{m-1}) of the canonical modulus.

    Candidates x**m + a_{m-1} x**(m-1) + ... + a0 are scanned in ascending
    order of the tuple (a_{m-1}, ..., a0); the first irreducible one wins.
    """
    for c in range(p**m):
        low = [(c // p**i) % p for i in range(m)]
        if _is_irreducible(low, p, m):
            return tuple(low)
    raise AssertionError(f"defect: no irreducible of degree {m} over F_{p} found")


class _ModArrayOps:
    """Vectorized products on arrays of residues mod n; exact in int64
    while n*n is."""

    def __init__(self, n: int):
        self.n = n

    def mul(self, x, y):
        return (x * y) % self.n

    def submul(self, x, f, y):
        return (x - f * y) % self.n


class CoeffRing:
    """A finite coefficient ring with integer-indexed elements.

    Construct through :func:`field`, :func:`integers_mod`, or
    :func:`ring_from_spec`; the kind is one of ``prime-field``,
    ``extension-field``, ``mod-n``.
    """

    def __init__(self, kind: str, *, p: int | None = None, m: int = 1,
                 modulus_poly: tuple[int, ...] | None = None, n: int | None = None):
        self.kind = kind
        self.p = p
        self.m = m
        self.modulus_poly = modulus_poly
        self.n = n
        if kind == PRIME_FIELD:
            self.size = p
            self.spec = f"F:{p}"
        elif kind == EXTENSION_FIELD:
            self.size = p**m
            self.spec = f"F:{p}^{m}"
        else:
            self.size = n
            self.spec = f"Z:{n}"
        # digits of t**k reduced mod the modulus, for k = 0 .. 2m-2
        self._tpow: list[tuple[int, ...]] = [(1,)]
        if kind == EXTENSION_FIELD:
            den = list(modulus_poly) + [1]
            rems = (_poly_rem([0] * k + [1], den, p) for k in range(2 * m - 1))
            self._tpow = [tuple(r + [0] * (m - len(r))) for r in rems]
        self._array_ops = None

    def __repr__(self) -> str:
        return f"CoeffRing({self.spec!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffRing):
            return NotImplemented
        return (self.spec, self.modulus_poly) == (other.spec, other.modulus_poly)

    def __hash__(self) -> int:
        return hash((self.spec, self.modulus_poly))

    @property
    def is_field(self) -> bool:
        return self.kind != MOD_N

    @property
    def characteristic(self) -> int:
        """p for fields, the additive order of 1 for Z:n."""
        return self.p if self.is_field else self.n

    # --- digit plumbing ----------------------------------------------

    def decode(self, a: int) -> tuple[int, ...]:
        """Base-characteristic digits of a, little-endian, length m."""
        c = self.characteristic
        return tuple((a // c**i) % c for i in range(self.m))

    def encode(self, digits) -> int:
        c = self.characteristic
        return sum(int(d) % c * c**i for i, d in enumerate(digits))

    # --- scalar arithmetic --------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.kind == EXTENSION_FIELD:
            p = self.p
            return self.encode((x + y) % p for x, y in zip(self.decode(a), self.decode(b)))
        return (a + b) % self.size

    def neg(self, a: int) -> int:
        if self.kind == EXTENSION_FIELD:
            p = self.p
            return self.encode((-x) % p for x in self.decode(a))
        return (-a) % self.size

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.kind == EXTENSION_FIELD:
            p, m = self.p, self.m
            da, db = self.decode(a), self.decode(b)
            conv = [0] * (2 * m - 1)
            for i, x in enumerate(da):
                if x:
                    for j, y in enumerate(db):
                        conv[i + j] += x * y
            out = [0] * m
            for k, c in enumerate(conv):
                if c % p:
                    tp = self._tpow[k]
                    for i in range(m):
                        out[i] += c * tp[i]
            return self.encode(out)
        return (a * b) % self.size

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; a negative e powers inv(a)."""
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        """The Fermat power a**(q-2) in a field; Python's modular inverse
        in Z:n."""
        if a % self.size == 0:
            raise NotInvertibleError(f"not invertible: 0 in {self.spec}")
        if self.is_field:
            return self.pow(a, self.size - 2)
        try:
            return pow(a, -1, self.n)
        except ValueError:
            raise NotInvertibleError(f"not invertible: {a} in {self.spec}") from None

    # --- array ops ----------------------------------------------------

    def array_ops(self):
        """Two operations on numpy arrays of residues: mul(x, y) = x*y and
        submul(x, f, y) = x - f*y, mod the characteristic for every ring,
        so no operation here acts in F_{p^m}.  The census does not read
        them: the benchmark times this call, and the tests' int64
        reference elimination ranks through it.
        """
        if self._array_ops is None:
            self._array_ops = _ModArrayOps(self.characteristic)
        return self._array_ops


def field(p: int, m: int = 1, *, modulus: tuple[int, ...] | None = None,
          max_size: int = DEFAULT_MAX_RING_SIZE) -> CoeffRing:
    """F_p for m = 1, else F_{p**m} with the lexicographically smallest
    irreducible modulus (or an explicitly supplied one, verified)."""
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    if m > MAX_EXTENSION_DEGREE:
        raise ValueError(
            f"extension degree {m} exceeds the supported bound {MAX_EXTENSION_DEGREE}")
    if p**m > max_size:  # before the O(sqrt p) primality test
        raise ValueError(f"ring size {p**m} exceeds max_size={max_size}")
    if not is_prime(p):
        raise ValueError(f"field characteristic must be prime, got {p}")
    if m == 1:
        return CoeffRing(PRIME_FIELD, p=p)
    if modulus is None:
        modulus = lex_smallest_irreducible(p, m)
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m:
            raise ValueError(f"modulus needs {m} non-leading coefficients")
        if not _is_irreducible(list(modulus), p, m):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
    return CoeffRing(EXTENSION_FIELD, p=p, m=m, modulus_poly=modulus)


def integers_mod(n: int, *, max_size: int = DEFAULT_MAX_RING_SIZE) -> CoeffRing:
    """The ring Z:n of integers mod n, n >= 2."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if n > max_size:
        raise ValueError(f"ring size {n} exceeds max_size={max_size}")
    return CoeffRing(MOD_N, n=n)


def ring_from_spec(text: str, *, max_size: int = DEFAULT_MAX_RING_SIZE) -> CoeffRing:
    """Parse "F:q", "F:p^m", or "Z:n" into a ring.

    A bare "F:q" is factored; q must be a prime power.
    """
    s = text.strip()
    if ":" not in s:
        raise ValueError(f"bad ring spec {text!r}: expected F:q, F:p^m, or Z:n")
    head, _, tail = s.partition(":")
    head = head.upper()
    if head == "Z":
        if not tail.isdigit():
            raise ValueError(f"bad ring spec {text!r}: Z:n needs an integer n")
        return integers_mod(int(tail), max_size=max_size)
    if head != "F":
        raise ValueError(f"bad ring spec {text!r}: expected F:q, F:p^m, or Z:n")
    if "^" in tail:
        base, _, exp = tail.partition("^")
        if not (base.isdigit() and exp.isdigit()):
            raise ValueError(f"bad ring spec {text!r}: F:p^m needs integers p, m")
        return field(int(base), int(exp), max_size=max_size)
    if not tail.isdigit():
        raise ValueError(f"bad ring spec {text!r}: F:q needs an integer q")
    q = int(tail)
    if q > max_size:  # before the O(sqrt q) factoring
        raise ValueError(f"ring size {q} exceeds max_size={max_size}")
    pm = prime_power_decomposition(q)
    if pm is None:
        raise ValueError(f"bad ring spec {text!r}: {q} is not a prime power")
    return field(*pm, max_size=max_size)

