"""Reference values the benchmark checks the program against.

Everything here is plain-integer Python: no numpy and no ``nullity``.  Two
independent routes are provided:

* decomposition values: the field factor ``(2q-1)/q^2``, the 2x2 matrix
  ring, cyclic group algebras split into chain rings over extension fields
  by multiplicative orders, Galois-ring sums for ``Z:p^2``, and the
  published characteristic-2 polynomials for ``S3`` and ``Q8``;
* a brute-force pair counter that multiplies every ordered pair of ring
  elements literally, for rings with at most ``BRUTE_LIMIT`` pairs.

Rings and groups follow the element orders the program documents: base-p
digits little-endian for ``F:p^m`` with the lexicographically smallest
monic irreducible modulus, ``C:n`` as powers of a generator, products
first factor major, ``S3`` as e, (12), (13), (23), (123), (132) composed
right to left, and ``Q8`` index ``4j + i`` for ``a^i b^j``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

BRUTE_LIMIT = 1 << 16
SIDES = ("left", "right", "twosided")


# --- integers ---------------------------------------------------------

def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p**m, p prime; ValueError otherwise."""
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            while q % p == 0:
                q //= p
                m += 1
            if q != 1:
                break
            return p, m
    raise ValueError("not a prime power")


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def multiplicative_order(q: int, l: int) -> int:
    k, r = 1, q % l
    while r != 1 % l:
        r = r * q % l
        k += 1
    return k


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def weighted_sum(counts: list[int], base: int) -> int:
    """sum_k counts[k] * base**k: the zero-pair count of a census."""
    return sum(c * base**k for k, c in enumerate(counts))


# --- decomposition values --------------------------------------------

def field_counts(q: int) -> list[int]:
    """Census of F_q: q - 1 units and zero, so P = (2q - 1)/q^2."""
    return [q - 1, 1]


def p_m2(q: int, side: str) -> Fraction:
    if side == "twosided":
        return Fraction(3 * q**2 - 2, q**6)
    return Fraction(q**4 + 3 * q**3 - 2 * q**2 - 2 * q + 1, q**7)


def m2_counts(q: int, side: str) -> list[int]:
    """Census of M_2(F_q): invertible, rank one, zero."""
    units = (q * q - 1) * (q * q - q)
    rank_one = (q * q - 1) * (q + 1)
    if side == "twosided":
        return [units, rank_one, 0, 0, 1]
    return [units, 0, rank_one, 0, 1]


def chain_counts(r: int, length: int) -> list[int]:
    """F_r[y]/(y^L): counts[j] elements have annihilator size r**j."""
    return [r**(length - 1 - j) * (r - 1) for j in range(length)] + [1]


def cyclic_components(q: int, n: int) -> list[tuple[int, int]]:
    """F_q[C_n] as a sum of chain rings F_{q^d}[y]/(y^L), as (d, L) pairs.

    n = p^a * m with gcd(m, p) = 1 gives L = p^a and, for each divisor l of
    m, phi(l)/d copies with d the order of q mod l.
    """
    p, _ = prime_power(q)
    length, m = 1, n
    while m % p == 0:
        m //= p
        length *= p
    comps = []
    for l in divisors(m):
        d = multiplicative_order(q, l)
        comps += [(d, length)] * (euler_phi(l) // d)
    return comps


def cyclic_counts(q: int, n: int) -> list[int]:
    """Census of F_q[C_n] (commutative, so every side agrees)."""
    poly = [1]
    for d, length in cyclic_components(q, n):
        comp = [0] * (d * length + 1)
        for j, c in enumerate(chain_counts(q**d, length)):
            comp[d * j] = c
        poly = poly_mul(poly, comp)
    return poly


def s3_counts(q: int, side: str) -> list[int]:
    """F_q[S3] = F_q + F_q + M_2(F_q) for gcd(q, 6) = 1."""
    if math.gcd(q, 6) != 1:
        raise ValueError("S3 decomposition needs gcd(q, 6) = 1")
    return poly_mul(poly_mul(field_counts(q), field_counts(q)), m2_counts(q, side))


def q8_counts(q: int, side: str) -> list[int]:
    """F_q[Q8] = four copies of F_q + M_2(F_q) for odd q."""
    if q % 2 == 0:
        raise ValueError("Q8 decomposition needs odd q")
    poly = [1]
    for _ in range(4):
        poly = poly_mul(poly, field_counts(q))
    return poly_mul(poly, m2_counts(q, side))


def galois_cyclic_pairs(p: int, n: int) -> int:
    """Zero pairs of Z_{p^2}[C_n], gcd(n, p) = 1.

    The ring is a sum of Galois rings GR(p^2, d), one chain ring of length
    two with residue field size r = p^d per cyclotomic factor; each has
    3r^2 - 2r zero pairs.
    """
    if n % p == 0:
        raise ValueError("Galois-ring sum needs gcd(n, p) = 1")
    out = 1
    for l in divisors(n):
        d = multiplicative_order(p, l)
        r = p**d
        out *= (3 * r * r - 2 * r) ** (euler_phi(l) // d)
    return out


def char2_polynomial(q: int, target: str) -> Fraction:
    """The published characteristic-2 polynomials for S3 and Q8."""
    if target == "s3_left":
        return Fraction(3 * q**5 + 7 * q**4 - 12 * q**3 - 2 * q**2 + 7 * q - 2, q**10)
    if target == "s3_twosided":
        return Fraction(9 * q**3 - 6 * q**2 - 6 * q + 4, q**9)
    if target == "q8_twosided":
        return Fraction(3 * q**2 + 3 * q - 5, q**9)
    raise ValueError(target)


# --- rings and groups for the brute force -----------------------------

class Ring:
    """A coefficient ring from a spec, elements 0..size-1, table arithmetic."""

    def __init__(self, spec: str):
        head, _, tail = spec.partition(":")
        if head == "Z":
            n = int(tail)
            self.size = n
            self.add = [[(a + b) % n for b in range(n)] for a in range(n)]
            self.mul = [[a * b % n for b in range(n)] for a in range(n)]
            return
        if "^" in tail:
            p, m = (int(v) for v in tail.split("^"))
        else:
            p, m = prime_power(int(tail))
        q = p**m
        self.size = q
        digits = [[a // p**i % p for i in range(m)] for a in range(q)]
        enc = {tuple(d): a for a, d in enumerate(digits)}
        modulus = _lex_smallest_irreducible(p, m)
        self.add = [[enc[tuple((x + y) % p for x, y in zip(da, db))]
                     for db in digits] for da in digits]
        self.mul = [[enc[tuple(_poly_mod(poly_mul(da, db), modulus, p))]
                     for db in digits] for da in digits]


def _poly_mod(num: list[int], monic: list[int], p: int) -> list[int]:
    """num mod monic over F_p, as exactly len(monic) - 1 coefficients."""
    r = [c % p for c in num]
    m = len(monic) - 1
    for i in range(len(r) - 1, m - 1, -1):
        c = r[i]
        if c:
            for j in range(m + 1):
                r[i - m + j] = (r[i - m + j] - c * monic[j]) % p
    return (r + [0] * m)[:m]


def _lex_smallest_irreducible(p: int, m: int) -> list[int]:
    """x^m + a_{m-1} x^{m-1} + ... + a0, the first irreducible in order of
    (a_{m-1}, ..., a0); returned little-endian with the leading 1."""
    if m == 1:
        return [0, 1]
    for c in range(p**m):
        cand = [c // p**i % p for i in range(m)] + [1]
        if not any(_divides(div, cand, p)
                   for d in range(1, m // 2 + 1)
                   for div in _monic_polys(p, d)):
            return cand
    raise ValueError("no irreducible found")


def _monic_polys(p: int, d: int):
    for c in range(p**d):
        yield [c // p**i % p for i in range(d)] + [1]


def _divides(div: list[int], num: list[int], p: int) -> bool:
    return not any(_poly_mod(num, div, p))


def _s3_table() -> list[list[int]]:
    # images of (1, 2, 3), 0-based; composition applies the right factor first
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[tuple(s[t[k]] for k in range(3))] for t in perms] for s in perms]


# quaternion units as (sign, axis) with axis 0..3 = 1, i, j, k
_QMUL = {(0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
         (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
         (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
         (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0)}


def _q8_table() -> list[list[int]]:
    # a = i, b = j; a^i b^j sits at index 4j + i
    a_pow = [(1, 0), (1, 1), (-1, 0), (-1, 1)]
    units = []
    for j in range(2):
        for s, ax in a_pow:
            t, bx = _QMUL[(ax, 2)] if j else (1, ax)
            units.append((s * t, bx))
    idx = {u: k for k, u in enumerate(units)}

    def mul(u, v):
        s, ax = _QMUL[(u[1], v[1])]
        return (u[0] * v[0] * s, ax)

    return [[idx[mul(u, v)] for v in units] for u in units]


def group_table(spec: str) -> list[list[int]]:
    """Cayley table of "C:n", "S3", "Q8", or x-joined products."""
    tables = []
    for atom in spec.replace(" ", "").replace("X", "x").split("x"):
        a = atom.upper()
        if a == "S3":
            tables.append(_s3_table())
        elif a == "Q8":
            tables.append(_q8_table())
        elif a.startswith("C"):
            n = int(a[1:].lstrip(":"))
            tables.append([[(i + j) % n for j in range(n)] for i in range(n)])
        else:
            raise ValueError(f"unknown group atom {atom!r}")
    table = tables[0]
    for t2 in tables[1:]:
        n2 = len(t2)
        table = [[table[i // n2][j // n2] * n2 + t2[i % n2][j % n2]
                  for j in range(len(table) * n2)]
                 for i in range(len(table) * n2)]
    return table


def group_order(spec: str) -> int:
    return len(group_table(spec))


def _product(R: Ring, T: list[list[int]], a, b) -> list[int]:
    out = [0] * len(T)
    for g, ag in enumerate(a):
        if ag:
            row = T[g]
            for h, bh in enumerate(b):
                if bh:
                    k = row[h]
                    out[k] = R.add[out[k]][R.mul[ag][bh]]
    return out


@lru_cache(maxsize=None)
def _ring_and_table(coeff: str, group: str) -> tuple[Ring, list[list[int]]]:
    return Ring(coeff), group_table(group)


@lru_cache(maxsize=None)
def brute_pair_count(coeff: str, group: str, relation: str) -> int:
    """#{(a, b) : ab = 0} (and ba = 0 for "ab=0&ba=0"), every pair multiplied."""
    R, T = _ring_and_table(coeff, group)
    total = R.size**len(T)
    if total * total > BRUTE_LIMIT:
        raise ValueError(f"{coeff} {group}: {total * total} pairs exceed {BRUTE_LIMIT}")
    elems = list(itertools.product(range(R.size), repeat=len(T)))
    count = 0
    for a in elems:
        for b in elems:
            if any(_product(R, T, a, b)):
                continue
            if relation == "ab=0&ba=0" and any(_product(R, T, b, a)):
                continue
            count += 1
    return count


def brute_annihilator_size(coeff: str, group: str, x: tuple[int, ...],
                           side: str) -> int:
    """|Ann_side(x)|: left is {a : ax = 0}, right is {a : xa = 0}."""
    R, T = _ring_and_table(coeff, group)
    count = 0
    for a in itertools.product(range(R.size), repeat=len(T)):
        if side != "right" and any(_product(R, T, a, x)):
            continue
        if side != "left" and any(_product(R, T, x, a)):
            continue
        count += 1
    return count


# --- dispatch ---------------------------------------------------------

def census_counts(coeff: str, group: str, side: str) -> list[int] | None:
    """Exact census histogram from a decomposition, or None if none applies."""
    head, _, tail = coeff.partition(":")
    if head != "F":
        return None
    q = _field_size(tail)
    g = group.upper()
    if g.startswith("C") and "X" not in g:
        return cyclic_counts(q, int(g[1:].lstrip(":")))
    if g == "S3" and math.gcd(q, 6) == 1:
        return s3_counts(q, side)
    if g == "Q8" and q % 2:
        return q8_counts(q, side)
    return None


def zero_pairs(coeff: str, group: str, side: str) -> int:
    """sum over x of |Ann_side(x)|, the zero-pair count of the relation the
    side stands for (ab = 0 one-sided, ab = 0 and ba = 0 twosided).

    Decomposition values come first; rings that none covers fall back to
    the brute force.
    """
    q = ring_size(coeff)
    n = group_order(group)
    counts = census_counts(coeff, group, side)
    if counts is not None:
        return weighted_sum(counts, q)
    head, _, tail = coeff.partition(":")
    g = group.upper()
    if head == "Z":
        p = math.isqrt(q)
        is_prime = p > 1 and all(p % d for d in range(2, p))
        if p * p == q and is_prime and g.startswith("C") and "X" not in g and n % p:
            return galois_cyclic_pairs(p, n)
    elif q % 2 == 0 and g in ("S3", "Q8"):
        target = {("S3", False): "s3_left", ("S3", True): "s3_twosided",
                  ("Q8", True): "q8_twosided"}.get((g, side == "twosided"))
        if target is not None:
            value = char2_polynomial(q, target) * q ** (2 * n)
            if value.denominator != 1:
                raise ValueError(f"{target} at q={q} is not a pair count")
            return value.numerator
    relation = "ab=0&ba=0" if side == "twosided" else "ab=0"
    return brute_pair_count(coeff, group, relation)


def probability(coeff: str, group: str, side: str) -> Fraction:
    total = ring_size(coeff) ** group_order(group)
    return Fraction(zero_pairs(coeff, group, side), total * total)


def ring_size(coeff: str) -> int:
    head, _, tail = coeff.partition(":")
    return int(tail) if head == "Z" else _field_size(tail)


def _field_size(tail: str) -> int:
    if "^" in tail:
        p, m = (int(v) for v in tail.split("^"))
        return p**m
    return int(tail)
