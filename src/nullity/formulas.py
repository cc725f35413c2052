"""Closed-form zero-product probabilities and the structure data behind
them, and the threshold classifier over instance catalogs.

Every derived value comes from one engine over a component list: (d, L, m)
stands for M_m(F_{q^d}[y]/(y^L)), L = 1 or m = 1.  The histogram is the
product of the component polynomials and P the product of the component
values.  `cyclic_components` lists F_q[C_n] for any n; S3 (gcd(q, 6) = 1)
and Q8 (q odd) are fields plus one M_2(F_q).

Every probability is an exact Fraction.  Results carry a `variant` tag:
"printed" evaluates a published polynomial exactly as typeset, "derived"
evaluates the value the underlying ring decomposition forces.  The two
agree except where a printed result names its entry of the errata manifest
in `erratum`; the census is the arbiter either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import mul

from . import oracle
from .coeffring import CoeffRing, prime_power_decomposition, ring_from_spec
from .groupring import CapExceeded, _check_side
from .groups import CayleyGroup, group_from_spec

PRINTED = "printed"
DERIVED = "derived"


@dataclass(frozen=True)
class FormulaResult:
    value: Fraction
    variant: str
    provenance: str
    erratum: str | None = None  # errata key when the printed value is wrong


def _as_prime_power(q: int) -> tuple[int, int]:
    pm = prime_power_decomposition(q)
    if pm is None:
        raise ValueError(f"{q} is not a prime power")
    return pm


def _p_part(q: int, n: int) -> tuple[int, int]:
    """(L, m) with n = L*m and L the largest power of char(q) dividing n."""
    p, _ = _as_prime_power(q)
    if n < 1:
        raise ValueError(f"group order must be >= 1, got {n}")
    L, m = 1, n
    while m % p == 0:
        L, m = L * p, m // p
    return L, m


def cyclic_components(q: int, n: int) -> list[tuple[int, int, int]]:
    """F_q[C_n] as a sum of chain rings F_{q^d}[y]/(y^L), one (d, L, 1)
    component per summand, sorted.

    With n = L*m and L the p-part of n, the summands are the orbits of
    x -> q*x on Z/m (the q-cyclotomic cosets), d the size of the orbit.
    L = 1 is the semisimple case (every summand a field), m = 1 the single
    chain ring.
    """
    L, m = _p_part(q, n)
    seen = bytearray(m)
    out = []
    for x in range(m):
        d = 0
        while not seen[x]:
            seen[x] = 1
            x = x * q % m
            d += 1
        if d:
            out.append((d, L, 1))
    return sorted(out)


# --- the component-list engine ----------------------------------------

def _component_counts(r: int, L: int, m: int, side: str) -> list[int]:
    """Census polynomial of M_m(F_r[y]/(y^L)) (L = 1 or m = 1) over F_r:
    counts[k] elements whose annihilator on `side` has r^k elements.

    Chain ring: an element of valuation v < L has annihilator (y^(L-v)),
    so counts[k] = r^(L-1-k) (r-1) for k < L and counts[L] = 1.  M_m(F_r):
    a rank-k matrix has one-sided annihilators of dimension m(m-k) and a
    twosided one of dimension (m-k)^2.
    """
    _check_side(side)
    if m == 1:
        return [*accumulate([r - 1] + [r] * (L - 1), mul)][::-1] + [1]
    counts = [0] * (m * m + 1)
    for k in range(m + 1):
        rank_k = math.prod((r**m - r**i)**2 for i in range(k))
        rank_k //= math.prod(r**k - r**i for i in range(k))
        counts[(m - k)**2 if side == "twosided" else m * (m - k)] = rank_k
    return counts


def _histogram_counts(q: int, comps, side: str) -> list[int]:
    """Predicted census counts of the direct sum of (d, L, m) components
    over F_q.  An element annihilates component by component, so the
    counts are the product of the component polynomials, the one over
    F_{q^d} with its indices scaled by d."""
    poly = [1]
    for d, L, m in comps:
        nxt = [0] * (len(poly) + d * L * m * m)
        for j, c in enumerate(_component_counts(q**d, L, m, side)):
            for k, a in enumerate(poly):
                nxt[k + d * j] += a * c
        poly = nxt
    return poly


def _probability(q: int, comps, side: str) -> Fraction:
    """P of the direct sum of (d, L, m) components over F_q: the product
    of the components' sums over x of |Ann(x)| (by Horner), over |A|^2."""
    weighted = 1
    for d, L, m in comps:
        r = q**d
        weighted *= reduce(lambda w, c: w * r + c,
                           reversed(_component_counts(r, L, m, side)), 0)
    return Fraction(weighted, q**(2 * sum(d * L * m * m for d, L, m in comps)))


def p_cyclic(q: int, n: int) -> FormulaResult:
    """P(F_q[C_n]) for any n; only the coprime product is printed."""
    L, m = _p_part(q, n)
    variant, label = ((PRINTED, "cyclic coprime product") if L == 1 else
                      (DERIVED, "chain-ring count") if m == 1 else
                      (DERIVED, "cyclic decomposition"))
    return FormulaResult(_probability(q, cyclic_components(q, n), "left"),
                         variant, f"{label}, q={q}, n={n}")


def cyclic_histogram_counts(q: int, n: int) -> list[int]:
    """Predicted census counts for F_q[C_n], any n."""
    return _histogram_counts(q, cyclic_components(q, n), "left")


def unit_count_cyclic(q: int, n: int) -> int:
    """|U(F_q[C_n])|: the elements with a trivial annihilator."""
    return cyclic_histogram_counts(q, n)[0]


# --- the five-element cyclic group, all four printed cases ------------

def _c5_case(q: int) -> int:
    p, _ = _as_prime_power(q)
    if p == 5:
        return 1
    r = q % 5
    return {2: 2, 3: 2, 4: 3, 1: 4}[r]


_C5_CASE_LABEL = {
    1: "characteristic 5",
    2: "q = 2, 3 mod 5",
    3: "q = 4 mod 5",
    4: "q = 1 mod 5",
}

# errata keys of the printed cases; case 2 is typeset correctly
_C5_ERRATUM = {1: "c5-case1", 3: "c5-case3", 4: "c5-case4"}


def _c5_printed_value(q: int, case: int) -> Fraction:
    if case == 1:
        return Fraction(q**7 - q**6 + q**5 + q**4 - q**2 + q - 1, q**9)
    if case == 2:
        return Fraction(4 * q**5 - 2 * q**4 - 2 * q + 1, q**10)
    if case == 3:
        return Fraction(q**6 - 2 * q**3 + 5 * q**2 - 2 * q - 1, q**8)
    return Fraction(2 * q**6 + 5 * q**5 - 21 * q**4 + 35 * q**3
                    - 29 * q**2 + 10 * q - 1, q**10)


def p_c5(q: int, variant: str = DERIVED) -> FormulaResult:
    """P(F_q[C_5]) by the published four-case split.

    variant="printed" evaluates the polynomial exactly as typeset for the
    case q falls in; variant="derived" evaluates the decomposition value
    (chain ring in case 1, field product otherwise).
    """
    case = _c5_case(q)
    label = f"five-cycle case {case} ({_C5_CASE_LABEL[case]})"
    if variant == PRINTED:
        return FormulaResult(_c5_printed_value(q, case), PRINTED,
                             label + ", as typeset", _C5_ERRATUM.get(case))
    if variant != DERIVED:
        raise ValueError(f"variant must be 'printed' or 'derived', got {variant!r}")
    return FormulaResult(p_cyclic(q, 5).value, DERIVED,
                         label + ", decomposition value")


# --- 2x2 matrix rings, S3, Q8 -----------------------------------------

def p_matrix2(q: int, side: str = "left") -> FormulaResult:
    """P of the full 2x2 matrix ring over F_q.

    side="left"/"right": (q^4 + 3q^3 - 2q^2 - 2q + 1)/q^7; side="twosided":
    (3q^2 - 2)/q^6.
    """
    _as_prime_power(q)
    _check_side(side)
    if side == "twosided":
        value = Fraction(3 * q**2 - 2, q**6)
    else:
        value = Fraction(q**4 + 3 * q**3 - 2 * q**2 - 2 * q + 1, q**7)
    return FormulaResult(value, PRINTED, f"2x2 matrix ring over F_{q}, {side}")


def p_q8_odd(q: int, side: str = "left") -> FormulaResult:
    """P(F_q[Q8]) for odd q: four field factors and one 2x2 matrix factor.

    The split needs -1 = x^2 + y^2 in F_q, which always holds for odd q:
    {x^2} and {-1 - y^2} each have (q + 1)/2 elements, so they meet.
    """
    p, _ = _as_prime_power(q)
    if p == 2:
        raise ValueError(
            "quaternion decomposition needs odd characteristic; "
            "see p_char2_family for q = 2^m")
    value = _probability(q, [(1, 1, 1)] * 4 + [(1, 1, 2)], side)
    return FormulaResult(value, PRINTED, f"quaternion decomposition, q={q}, {side}")


def p_s3_coprime6(q: int, side: str = "left") -> FormulaResult:
    """P(F_q[S3]) for gcd(q, 6) = 1: two field factors and one 2x2 matrix
    factor."""
    _as_prime_power(q)
    if math.gcd(q, 6) != 1:
        raise ValueError(
            f"this decomposition needs gcd(q, 6) = 1, got q={q}; "
            "char 2 is covered by p_char2_family")
    value = _probability(q, [(1, 1, 1)] * 2 + [(1, 1, 2)], side)
    return FormulaResult(value, PRINTED,
                         f"symmetric-group decomposition, q={q}, {side}")


CHAR2_TARGETS = ("s3_left", "s3_twosided", "q8_twosided")


def p_char2_family(q: int, target: str) -> FormulaResult:
    """Published characteristic-2 polynomials for S3 and Q8 group rings."""
    p, _ = _as_prime_power(q)
    if p != 2:
        raise ValueError(f"characteristic-2 family needs q = 2^m, got {q}")
    if target == "s3_left":
        value = Fraction(3 * q**5 + 7 * q**4 - 12 * q**3 - 2 * q**2 + 7 * q - 2,
                         q**10)
    elif target == "s3_twosided":
        value = Fraction(9 * q**3 - 6 * q**2 - 6 * q + 4, q**9)
    elif target == "q8_twosided":
        value = Fraction(3 * q**2 + 3 * q - 5, q**9)
    else:
        raise ValueError(f"target must be one of {CHAR2_TARGETS}, got {target!r}")
    return FormulaResult(value, PRINTED, f"characteristic-2 family, {target}, q={q}")


# --- dispatch ---------------------------------------------------------

def closed_forms(K: CoeffRing, G: CayleyGroup, side: str = "left") -> list[FormulaResult]:
    """Every closed form covering K[G] on the given side.

    Returns printed and derived variants when both exist; raises ValueError
    when no published form applies (the census still does).
    """
    _check_side(side)
    if not K.is_field:
        raise ValueError(f"no closed form for {K.spec} coefficients; run the census")
    q = K.size
    if G.structure == "cyclic":
        if G.order == 5:
            return [p_c5(q, PRINTED), p_c5(q, DERIVED)]
        return [p_cyclic(q, G.order)]
    if G.structure == "s3":
        if math.gcd(q, 6) == 1:
            return [p_s3_coprime6(q, side)]
        if K.p == 2:
            if side in ("left", "right"):
                return [p_char2_family(q, "s3_left")]
            return [p_char2_family(q, "s3_twosided")]
        raise ValueError(
            f"no closed form for F_{q}[S3] in characteristic 3; run the census")
    if G.structure == "q8":
        if K.p != 2:
            return [p_q8_odd(q, side)]
        if side == "twosided":
            return [p_char2_family(q, "q8_twosided")]
        raise ValueError(
            "no closed form for one-sided F_2^m[Q8]; run the census")
    raise ValueError(
        f"no closed form for group spec {G.spec!r}; run the census")


# --- catalogs and classification --------------------------------------

@dataclass
class CatalogEntry:
    coeff: str
    group: str
    p_pair: Fraction | None = None
    p_twosided: Fraction | None = None
    skipped: str | None = None


@dataclass
class ClassifyReport:
    threshold: Fraction
    entries: list[CatalogEntry]

    @property
    def selected(self) -> list[CatalogEntry]:
        return [e for e in self.entries
                if e.p_pair is not None and e.p_pair >= self.threshold]

    @property
    def skipped(self) -> list[CatalogEntry]:
        return [e for e in self.entries if e.skipped is not None]


def default_sweep_instances(bound: int = 1024) -> list[tuple[str, str]]:
    """Cyclic field instances F_q[C_n] with q^n <= bound and n >= 2, plus
    the four published non-field / nonabelian extras."""
    out = []
    q = 2
    while q * q <= bound:
        if prime_power_decomposition(q) is not None:
            n = 2
            while q**n <= bound:
                out.append((f"F:{q}", f"C:{n}"))
                n += 1
        q += 1
    out += [("Z:4", "C:2"), ("Z:6", "C:2"), ("F:2", "S3"), ("F:2", "Q8")]
    return out


def sweep_catalog(instances, *, max_elements: int = oracle.DEFAULT_MAX_ELEMENTS,
                  max_pairs: int = oracle.DEFAULT_MAX_PAIRS,
                  workers: int = 1) -> list[CatalogEntry]:
    """Exact P for each (coeff spec, group spec) instance, both conventions.

    This is the one loop that evaluates a list of instances; an abelian
    entry's twosided value is its pair value, with no second census.  Cap
    overruns mark the entry skipped rather than dropping it.
    """
    entries = []
    for coeff_spec, group_spec in instances:
        entry = CatalogEntry(coeff_spec, group_spec)
        try:
            K = ring_from_spec(coeff_spec)
            G = group_from_spec(group_spec)
            entry.p_pair = oracle.nullity_probability(
                K, G, "left", max_elements=max_elements, max_pairs=max_pairs,
                workers=workers)
            # ab = 0 iff ba = 0 in a commutative ring
            entry.p_twosided = entry.p_pair if G.is_abelian else (
                oracle.nullity_probability(
                    K, G, "twosided", max_elements=max_elements,
                    max_pairs=max_pairs, workers=workers))
        except CapExceeded as exc:
            entry.skipped = str(exc)
        entries.append(entry)
    return entries


def classify_threshold(instances, threshold, *,
                       max_elements: int = oracle.DEFAULT_MAX_ELEMENTS,
                       max_pairs: int = oracle.DEFAULT_MAX_PAIRS,
                       workers: int = 1) -> ClassifyReport:
    """Instances whose zero-pair probability Pr[ab = 0] meets the threshold.

    The pair convention is the headline definition of P and the one the
    published >= 0.1 table is consistent with; every entry carries the
    twosided value too (see :func:`sweep_catalog`).
    """
    threshold = Fraction(threshold)
    entries = sweep_catalog(instances, max_elements=max_elements,
                            max_pairs=max_pairs, workers=workers)
    return ClassifyReport(threshold, entries)


def gap_check(values, low, high) -> list:
    """Values lying strictly inside (low, high)."""
    low = Fraction(low)
    high = Fraction(high)
    return [v for v in values if low < Fraction(v) < high]
