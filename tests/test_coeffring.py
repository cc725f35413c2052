"""Coefficient ring arithmetic: prime fields, extension fields, Z/n."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nullity.coeffring
from int64_ranks import field_inverse
from nullity.coeffring import (MAX_EXTENSION_DEGREE, NotInvertibleError,
                               field, integers_mod, is_prime,
                               lex_smallest_irreducible,
                               prime_power_decomposition, ring_from_spec)

ROOT = Path(__file__).resolve().parents[1]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _monic_polys(p, d):
    for c in range(p**d):
        yield tuple((c // p**i) % p for i in range(d)) + (1,)


def _irreducible_by_brute_force(low, p, m):
    """Independent check: no monic factorization into smaller degrees."""
    target = tuple(low) + (1,)
    for d in range(1, m // 2 + 1):
        for g in _monic_polys(p, d):
            for h in _monic_polys(p, m - d):
                if _poly_mul(g, h, p) == target:
                    return False
    return True


def test_prime_field_matches_integer_arithmetic():
    K = field(7)
    assert K.size == 7 and K.is_field and K.characteristic == 7
    for a in range(7):
        for b in range(7):
            assert K.add(a, b) == (a + b) % 7
            assert K.mul(a, b) == (a * b) % 7
            assert K.sub(a, b) == (a - b) % 7
        assert K.neg(a) == (-a) % 7
        if a:
            assert K.mul(a, K.inv(a)) == 1


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_default_modulus_is_first_irreducible(p, m):
    got = lex_smallest_irreducible(p, m)
    assert _irreducible_by_brute_force(got, p, m)
    # nothing earlier in the digit order is irreducible
    for c in range(sum(d * p**i for i, d in enumerate(got))):
        low = tuple((c // p**i) % p for i in range(m))
        assert not _irreducible_by_brute_force(low, p, m)
    assert lex_smallest_irreducible(2, 2) == (1, 1)
    assert lex_smallest_irreducible(3, 2) == (1, 0)


def test_gf4_multiplication():
    # indices: 0, 1, t = 2, t + 1 = 3 with t^2 = t + 1
    K = field(2, 2)
    assert K.modulus_poly == (1, 1)
    assert K.mul(2, 2) == 3
    assert K.mul(2, 3) == 1
    assert K.add(2, 3) == 1
    for a in range(1, 4):
        assert K.pow(a, 3) == 1


def test_gf9_with_default_modulus():
    # t^2 + 1 is the first irreducible over F_3, so t * t = -1 = 2
    K = field(3, 2)
    assert K.modulus_poly == (1, 0)
    assert K.mul(3, 3) == 2
    for a in range(1, 9):
        assert K.pow(a, 8) == 1
        assert K.mul(a, K.inv(a)) == 1


def test_explicit_modulus_accepted_and_checked():
    K = field(2, 3, modulus=(1, 1, 0))
    assert K.size == 8
    assert K.mul(2, 2) == 4  # t * t = t^2
    assert K.mul(4, 2) == 3  # t^3 = t + 1
    with pytest.raises(ValueError, match="reducible"):
        field(2, 2, modulus=(0, 0))  # t^2
    with pytest.raises(ValueError, match="coefficients"):
        field(2, 3, modulus=(1, 1))


@pytest.mark.parametrize("spec,size,char", [
    ("F:7", 7, 7), ("F:4", 4, 2), ("F:2^2", 4, 2), ("F:27", 27, 3),
    ("Z:12", 12, 12),
])
def test_ring_spec_roundtrip(spec, size, char):
    K = ring_from_spec(spec)
    assert K.size == size
    assert K.characteristic == char
    K2 = ring_from_spec(K.spec)
    assert K2 == K


@pytest.mark.parametrize("bad", ["F:6", "F:1", "F:0", "Z:1", "Z:x", "Q:5",
                                 "F:2^0", "77", "F:abc"])
def test_ring_spec_rejects_garbage(bad):
    with pytest.raises(ValueError):
        ring_from_spec(bad)


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(27) == (3, 3)
    assert prime_power_decomposition(7) == (7, 1)
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(1) is None
    assert is_prime(97) and not is_prime(91)


def test_extension_degree_cap():
    assert field(2, 8).size == 256
    with pytest.raises(ValueError, match="degree"):
        field(2, MAX_EXTENSION_DEGREE + 1)
    with pytest.raises(ValueError, match="max_size"):
        field(2, 8, max_size=100)
    with pytest.raises(ValueError, match=">= 2"):
        integers_mod(1)


def test_size_cap_applies_before_factoring(monkeypatch):
    def refuse(_):
        raise AssertionError("factored a ring larger than max_size")

    monkeypatch.setattr(nullity.coeffring, "prime_power_decomposition", refuse)
    monkeypatch.setattr(nullity.coeffring, "is_prime", refuse)
    with pytest.raises(ValueError, match="ring size 100000000000031 exceeds max_size"):
        ring_from_spec("F:100000000000031")
    with pytest.raises(ValueError, match="ring size 100000000000031 exceeds max_size"):
        field(100000000000031)
    with pytest.raises(ValueError, match="ring size 14 exceeds max_size=10"):
        ring_from_spec("F:14", max_size=10)


def _exhaustive_ring_axioms(K):
    n = K.size
    for a in range(n):
        assert K.add(a, 0) == a and K.mul(a, 1) == a
        assert K.add(a, K.neg(a)) == 0
        for b in range(n):
            assert K.add(a, b) == K.add(b, a)
            assert K.mul(a, b) == K.mul(b, a)
            for c in range(n):
                assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
                assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
                assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))


@pytest.mark.parametrize("K", [field(2, 3), field(3, 2), integers_mod(6)],
                         ids=["F8", "F9", "Z6"])
def test_ring_axioms_exhaustive_small(K):
    _exhaustive_ring_axioms(K)


@pytest.mark.parametrize("K", [field(3, 5), field(2, 7), integers_mod(360)],
                         ids=["F243", "F128", "Z360"])
def test_ring_axioms_sampled_large(K):
    rng = random.Random(20240521)
    for _ in range(300):
        a, b, c = (rng.randrange(K.size) for _ in range(3))
        assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
        assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        assert K.mul(a, b) == K.mul(b, a)
    if K.is_field:
        for _ in range(50):
            a = rng.randrange(1, K.size)
            assert K.pow(a, K.size - 1) == 1


def test_inverse_failures_raise():
    K = field(5)
    with pytest.raises(NotInvertibleError, match="not invertible"):
        K.inv(0)
    Z6 = integers_mod(6)
    assert Z6.inv(5) == 5
    for bad in (0, 2, 3, 4):
        with pytest.raises(NotInvertibleError):
            Z6.inv(bad)
    assert issubclass(NotInvertibleError, ValueError)


def test_inverse_is_fermat_power_for_every_field():
    # inv(a) = a**(q-2) runs on the field's own product, so check it
    # against that product, and over F_p against Python's modular inverse
    for K in (field(2, 2), field(2, 3), field(3, 2), field(2, 8), field(3, 6)):
        assert all(K.mul(a, K.inv(a)) == 1 for a in range(1, K.size))
    for K in (field(3, 8), field(43, 2), field(2039, 2)):
        for a in random.Random(K.size).sample(range(1, K.size), 500):
            assert K.mul(a, K.inv(a)) == 1
    for p in (2, 3, 5, 7, 11, 65521):
        for a in random.Random(p).sample(range(1, p), min(p - 1, 500)):
            assert field(p).inv(a) == pow(a, -1, p)


_NEGATIVE_POWERS = """
import random
from nullity.coeffring import field, integers_mod
assert field(2, 2).pow(2, -1) == 3
Z9 = integers_mod(9)
cases = [(field(7), range(1, 7)), (field(2, 2), range(1, 4)),
         (field(3, 8), random.Random(38).sample(range(1, 3**8), 200)),
         (Z9, (1, 2, 4, 5, 7, 8))]
for K, units in cases:
    for a in units:
        for k in (1, 2, 3, 7):
            assert K.pow(a, -k) == K.pow(K.inv(a), k), (K, a, k)
            if K.m == 1:
                assert K.pow(a, -k) == pow(a, -k, K.size), (K, a, k)
"""


def test_negative_powers_are_powers_of_the_inverse():
    # in a child process with a timeout: a square-and-multiply loop that
    # shifts a negative exponent right never ends, and should fail here
    # rather than hang the suite
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, "-c", _NEGATIVE_POWERS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    Z9 = integers_mod(9)
    for bad in (3, 6):
        with pytest.raises(NotInvertibleError):
            Z9.pow(bad, -1)


def test_array_ops_agree_with_scalar_route():
    # residue arithmetic mod the characteristic: an extension field's
    # array ops are those of its prime field, over which it is ranked
    rng = np.random.default_rng(7)
    for K, F in ((field(7), field(7)), (field(2, 3), field(2)),
                 (field(3, 8), field(3)), (integers_mod(12), integers_mod(12))):
        ops = K.array_ops()
        x, f, y = rng.integers(0, F.size, size=(3, 200))
        assert all(int(v) == F.mul(int(a), int(b))
                   for v, a, b in zip(ops.mul(x, y), x, y))
        assert all(int(v) == F.sub(int(a), F.mul(int(c), int(b)))
                   for v, a, c, b in zip(ops.submul(x, f, y), x, f, y))


def test_prime_field_inverse_is_fermat_power():
    # the int64 reference's F_p pivot inverse is the Fermat power
    # a**(p-2) mod p, taken on the array and checked against Python's
    # modular inverse
    for p in (2, 3, 5, 7, 11, 13):
        a = np.arange(1, p)
        assert field_inverse(field(p).array_ops(), a, p).tolist() == [
            pow(int(v), -1, p) for v in a]
    p = 65521
    a = np.random.default_rng(p).integers(1, p, size=2000)
    assert field_inverse(field(p).array_ops(), a, p).tolist() == [
        pow(int(v), -1, p) for v in a]


def test_decode_encode_roundtrip():
    K = field(3, 3)
    for a in range(K.size):
        digits = K.decode(a)
        assert len(digits) == 3
        assert K.encode(digits) == a
    assert field(7).decode(5) == (5,)
    # F:p and Z:n are one digit in base the characteristic, t**0 = 1 its
    # only power: the layout the structure constants read for every ring
    for K in (field(7), integers_mod(6)):
        assert K.m == 1 and K._tpow == [(1,)]
    Z6 = integers_mod(6)
    assert [Z6.decode(a) for a in range(6)] == [(a,) for a in range(6)]
    assert all(Z6.encode(Z6.decode(a)) == a for a in range(6))

