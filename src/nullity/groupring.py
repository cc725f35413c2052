"""Group-ring arithmetic: products, regular-representation matrices, and
per-element annihilator sizes.

An element of K[G] is a coefficient vector indexed by group position: the
tuple (x_0, ..., x_{n-1}) stands for sum x_g * g.  Whole-ring elements are
also addressable by a single index with base-|K| digits, little-endian in
the group position (see :func:`element_vector`).

This module owns the basis table that :mod:`nullity.oracle` reads too:
table[i, j] is the index of b_i * b_j, or n for a zero product.  On it run
the gather index, element decoding, the rank kernel, and, apart from it,
the literal products.  One bit-sliced kernel, 64 elements a word in binary
planes of each coordinate over F_p, ranks every census and
:func:`matrix_rank` over every field.  It ranks a matrix over F_{p^m} as
its restriction of scalars to F_p, each entry an m x m block built by
multiplication by t from the modulus, and reads no field arithmetic.  A
column step is XOR over F_2.  Over F_3, F_5 and F_7 it takes the pivot's
multiples by plane doublings, a permutation of the planes or a few boolean
operations in the binary encoding, and every row's multiplier mask in one
broadcast, so a column runs one plane addition on its rows.  Over larger p
it scales the pivot row by the Fermat inverse of each lane's lead and adds
e_r times it to every row r by double-and-add, e_r's own planes the lane
masks: w = bit_length(p - 1) plane additions a column whatever p is
(Boothby and Bradshaw, arXiv:0901.1413).  The literal products are
structure constants over the prime ring and a zero-product mask that
tests rows against every element by split-half product codes, from exact
float matmuls and residues, with one exact comparison per pair; it reads
no rank helper.

Side convention: the LEFT annihilator Ann_l(x) = {a : a*x = 0} is the
kernel of the right-multiplication map v -> v*x, so side="left" sizes are
computed from the side="right" regular matrix, and vice versa.
:func:`regular_matrix` returns that matrix as an int64 ndarray.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

import numpy as np

from .coeffring import CoeffRing
from .groups import CayleyGroup

SIDES = ("left", "right", "twosided")

DEFAULT_MAX_ENUMERATION = 1 << 16

_BLAS_THREADS_LOCK = threading.RLock()


class CapExceeded(RuntimeError):
    """A requested exhaustive sweep is larger than its cap allows."""


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_vector(K: CoeffRing, G: CayleyGroup, x) -> None:
    if len(x) != G.order:
        raise ValueError(f"coefficient vector has length {len(x)}, group order is {G.order}")
    for i, c in enumerate(x):
        if not _is_int(c) or not 0 <= c < K.size:
            raise ValueError(f"coefficient {i} is {c!r}, expected an integer "
                             f"in [0, {K.size})")


def ring_size(K: CoeffRing, G: CayleyGroup) -> int:
    return K.size**G.order


def element_vector(K: CoeffRing, G: CayleyGroup, e: int) -> tuple[int, ...]:
    """Coefficient vector of the ring element with index e."""
    total = ring_size(K, G)
    if not _is_int(e) or not 0 <= int(e) < total:
        raise ValueError(f"element index is {e!r}, expected an integer "
                         f"in [0, {total})")
    s = K.size
    return tuple((int(e) // s**i) % s for i in range(G.order))


def element_index(K: CoeffRing, G: CayleyGroup, x) -> int:
    _check_vector(K, G, x)
    s = K.size
    return sum(int(c) * s**i for i, c in enumerate(x))


def gr_multiply(K: CoeffRing, G: CayleyGroup, a, b) -> tuple[int, ...]:
    """Convolution product of two coefficient vectors in K[G]."""
    _check_vector(K, G, a)
    _check_vector(K, G, b)
    out = [0] * G.order
    table = G.table
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        row = table[i]
        for j, bj in enumerate(b):
            if bj:
                h = row[j]
                out[h] = K.add(out[h], K.mul(ai, bj))
    return tuple(out)


def _ann_gather_indices(table: np.ndarray, side: str) -> np.ndarray:
    """Index matrix P such that mats = X[:, P] stacks, per element x with
    coefficient rows X (and a trailing zero column), the matrix whose
    kernel is Ann_side(x).

    table[a, b] is the index of b_a * b_b, or n for zero; P points at the
    zero column wherever no basis product lands.  Each row and each column
    of the table must repeat no entry other than n, as in groups and
    matrix units, so that every P entry is one basis element.
    """
    n = table.shape[0]
    a, b = np.nonzero(table < n)
    c = table[a, b]
    right_mult = np.full((n, n), n, dtype=np.int64)
    left_mult = np.full((n, n), n, dtype=np.int64)
    right_mult[c, a] = b  # b_a * b_b = b_c; kernel of v->v*x is Ann_l
    left_mult[c, b] = a  # kernel of v->x*v is Ann_r
    if side == "left":
        return right_mult
    if side == "right":
        return left_mult
    return np.vstack([right_mult, left_mult])


def _decode_elements(size: int, n: int, lo: int, hi: int) -> np.ndarray:
    e = np.arange(lo, hi, dtype=np.int64)
    pows = size ** np.arange(n, dtype=np.int64)
    return (e[:, None] // pows[None, :]) % size


def _exact_float(D: int, N: int):
    """Float dtype in which :func:`_zero_product_mask` is exact over D
    coordinates mod N: every product sum is an integer of at most
    D*(N-1)**2 in absolute value, and its residue (:func:`_residues`) is
    exact while that plus N stays inside the dtype's integers."""
    bound = D * (N - 1) ** 2 + N
    if bound < 1 << 24:
        return np.float32
    if bound < 1 << 53:
        return np.float64
    raise ValueError(f"literal products over D = {D} coordinates mod N = {N} "
                     f"reach {bound}, past the exact float64 range 2**53")


def _structure_constants(K: CoeffRing, table: np.ndarray) -> tuple[np.ndarray, int]:
    """(T, N): the structure constants of K[table] over its prime ring Z/N.

    N is p for fields and n for Z:n.  With m = [K : F_p] (1 for Z:n),
    coordinate g*m + i stands for t**i * b_g, so the base-N digits of an
    element index are its coordinates (:func:`_decode_elements` with
    D = n*m).  T[(g, i), (h, j), (c, k)] is the t**k digit of t**(i+j)
    wherever table[g, h] = c < n; a zero product (entry n) adds nothing.
    Raises ValueError before building anything if the products are past
    exact float64.
    """
    n = table.shape[0]
    N = K.characteristic
    m = K.m
    D = n * m
    _exact_float(D, N)
    T = np.zeros((D, D, D), dtype=np.int64)
    g, h = np.nonzero(table < n)
    c = table[g, h][:, None] * m + np.arange(m)
    for i in range(m):
        for j in range(m):
            T[(g * m + i)[:, None], (h * m + j)[:, None], c] = K._tpow[i + j]
    return T, N


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy links, or
    None under any other BLAS.  dlsym on numpy's core extension module
    also searches the libraries that module links."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the enclosed float matmuls on the calling thread alone.  The
    literal products are small (D inner coordinates), a second OpenBLAS
    thread saves little on them, and OpenBLAS workers keep spinning on a
    CPU after each threaded call, slowing whatever the process runs next.
    The count is process-wide, so one scope at a time holds it: a scope
    that saved another's 1 and restored it last would leave it at 1."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    with _BLAS_THREADS_LOCK:
        before = get()
        set_(1)
        try:
            yield
        finally:
            set_(before)


@functools.cache
def _keep_freed_memory() -> None:
    """Let the heap keep what a census frees, once per process, where the
    C library has glibc's mallopt.  A bit-sliced chunk allocates and frees
    a few MiB of numpy temporaries; under the defaults the freed top of
    the heap goes back to the system after a census and the next census
    faults the same pages in again (about 3000 minor faults, 7 of 55 ms,
    in twelve censuses at n <= 16 on a 2-vCPU VM).  Blocks up to 32 MiB are
    taken from the heap (M_MMAP_THRESHOLD = -3) and 16 MiB stay on top of
    it when it shrinks (M_TOP_PAD = -2)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)
    mallopt(-2, 16 << 20)


def _residues(S: np.ndarray, N: int) -> np.ndarray:
    """S mod N in place, for integer-valued floats S with |S| + N inside
    the dtype's exact integers (below 2**24 in float32, 2**53 in float64).

    S - N*floor(S/N) is exact there.  With S = k*N + r, 0 <= r < N, the
    quotient S/N = k + r/N is correctly rounded: it is k when r = 0, and
    otherwise it stays below k + 1, since the gap (N - r)/N >= 1/N is more
    than half the float spacing next to k and k + 1, at most
    max(|k|, |k + 1|) * 2**-p for a p-bit significand, and
    max(|k|, |k + 1|) * N <= |S| + N < 2**p.  So floor gives k, and k*N
    and S - k*N are integers inside the exact range."""
    Q = S / N
    np.floor(Q, out=Q)
    Q *= N
    S -= Q
    return S


def _half_codes(M: np.ndarray, N: int, dt) -> np.ndarray:
    """codes[r, i] = sum_w c_w * N**w, where c holds the E coordinates
    mod N of sum_v d_v * M[r, v] and d the k base-N digits of i < N**k,
    for the (rows, k, E) stack M: one matmul of all digit rows against M,
    the residues, then the fold.  k = 0 leaves the zero vector alone, code
    0.  Codes are integers below N**E, which :func:`_zero_product_mask`
    keeps below 2**53, so float64 holds them exactly."""
    rows, k, E = M.shape
    digits = _decode_elements(N, k, 0, N**k).astype(dt)
    C = _residues(digits @ M.transpose(1, 0, 2).reshape(k, rows * E), N)
    return (C.reshape(-1, rows, E) @ float(N) ** np.arange(E)).T


def _zero_product_mask(T: np.ndarray, N: int, A: np.ndarray) -> np.ndarray:
    """Z[r, e] = (a_r * b_e == 0) for coordinate rows A (base-N digits, see
    :func:`_structure_constants`) against every element index e, in order,
    for a bilinear (D, D, E) map T over Z/N: the structure constants, or the
    twosided b -> (ab, ba), np.concatenate([T, T.transpose(1, 0, 2)], 2).

    Literal products, split in half: b -> a*b is linear over Z/N, so with
    h = D // 2 and e = lo + N**h * hi, b_e = b_lo + b_hi over the low and
    high h and D - h coordinates, and a*b_e = 0 exactly when a*b_lo and
    -a*b_hi agree mod N.  M = (A @ T) mod N holds in row v the coordinates
    of a*e_v; the N**h low and N**(D - h) high halves each take one float
    matmul of their digits against M's rows, and each coordinate vector
    mod N folds into one code below N**E < 2**53, checked first
    (:func:`_half_codes`).  Every pair then gets one exact comparison of
    codes.  All sums are integers of at most D*(N-1)**2 and exact in
    :func:`_exact_float`'s dtype.  No ranks, no kernels.
    """
    D, _, E = T.shape
    if N**E >= 1 << 53:
        raise ValueError(f"literal product codes over E = {E} coordinates mod N = {N} "
                         f"reach N**E = {N**E}, past the exact float64 range 2**53")
    dt = _exact_float(D, N)
    h = D // 2
    with _one_blas_thread():
        M = _residues(A.astype(dt) @ T.reshape(D, D * E).astype(dt), N)
        M = M.reshape(-1, D, E)
        lo = _half_codes(M[:, :h], N, dt)
        hi = _half_codes(-M[:, h:], N, dt)
    return (hi[:, :, None] == lo[:, None, :]).reshape(A.shape[0], -1)


def regular_matrix(K: CoeffRing, G: CayleyGroup, x, side: str) -> np.ndarray:
    """Matrix of multiplication by x acting on coefficient columns.

    For side="right", entry [i][j] is the coefficient of g_i in g_j * x,
    so the kernel is Ann_l(x); side="left" mirrors this with kernel
    Ann_r(x).  This is the census gather for the kernel's side.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    _check_vector(K, G, x)
    P = _ann_gather_indices(G.table, "left" if side == "right" else "right")
    return np.array([*x, 0], dtype=np.int64)[P]


def _cycle(p: int, first: int, count: int, dt) -> np.ndarray:
    """first, first + 1, ... mod p, count values in dtype dt: the tail of
    the period from first % p, whole periods, and the head of one more,
    no array longer than count."""
    head = np.arange(first % p, min(p, first % p + count), dtype=dt)
    rest = count - head.size
    return np.concatenate([head, np.tile(np.arange(min(p, rest), dtype=dt), rest // p),
                           np.arange(rest % p, dtype=dt)])


def _index_digits(p: int, D: int, lo: int, hi: int) -> np.ndarray:
    """(D, hi - lo) base-p digits of lo..hi-1, digit-major and C-contiguous
    (packing along a strided axis is several times slower), in the smallest
    unsigned dtype that holds p - 1.  For p = 2 they are the index bits,
    unpacked from its bytes; otherwise digit j runs through the values
    lo // p**j .. (hi - 1) // p**j mod p (:func:`_cycle`), each held for
    p**j consecutive indices: one ``np.repeat`` of those runs, trimmed to
    the window, or one or two fills once a run spans it.  No division runs
    per element, and nothing built grows with p."""
    B = hi - lo
    if p == 2:
        e = np.arange(lo, hi, dtype="<u8").view(np.uint8).reshape(B, 8)
        return np.ascontiguousarray(np.unpackbits(e, axis=1, count=D, bitorder="little").T)
    digits = np.empty((D, B), dtype=np.min_scalar_type(p - 1))
    for j in range(D):
        s = p**j
        first = lo // s
        if s < B:
            runs = _cycle(p, first, (hi - 1) // s + 1 - first, digits.dtype)
            digits[j] = np.repeat(runs, s)[lo - first * s:][:B] if s > 1 else runs
        else:  # one run, or two
            cut = min((first + 1) * s - lo, B)
            digits[j, :cut] = first % p
            digits[j, cut:] = (first + 1) % p
    return digits


def _digit_planes(X: np.ndarray, w: int) -> np.ndarray:
    """(..., w, L) uint64 planes of the nonnegative integers X, (..., B),
    one per bit lane along the last axis, L = ceil(B/64): bit l of word k
    of plane b is bit b of X[..., 64k + l].  Lanes past B are zero."""
    B = X.shape[-1]
    L = -(-B // 64)
    bits = (X[..., None, :] >> np.arange(w, dtype=X.dtype)[:, None]) & 1
    bits = bits.astype(np.uint8, copy=False)
    out = np.zeros(bits.shape[:-1] + (8 * L,), dtype=np.uint8)
    out[..., :-(-B // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view(np.uint64)


def _lane_values(planes: np.ndarray) -> np.ndarray:
    """(..., 64L) int64 values in the bit lanes of the (..., w, L) planes,
    the inverse of :func:`_digit_planes`."""
    bits = np.unpackbits(planes.view(np.uint8), axis=-1, bitorder="little")
    return (1 << np.arange(planes.shape[-2])) @ bits


def _lane_counts(words: np.ndarray) -> np.ndarray:
    """Per bit lane, how many of the (k, L) words have it set."""
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return bits.sum(axis=0, dtype=np.int64)


def _times_t(A: np.ndarray, K: CoeffRing) -> np.ndarray:
    """Planes of t*x over F_{p^m} from the (ncoef, m, w, L) planes of x: the
    coordinates shift up one place and t**m = -(a_0 + ... + a_{m-1}
    t**(m-1)) folds the top one back in, -a_i times it added at place i
    (:func:`_plane_axpy`)."""
    p = K.p
    out = np.zeros_like(A)
    out[:, 1:] = A[:, :-1]
    for i, a in enumerate(K.modulus_poly):
        c = -a % p
        _plane_axpy(p, out[:, i], [bool(c >> b & 1) for b in range(c.bit_length())],
                    A[:, -1])
    return out


def _plane_double(p: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """2x over odd F_p on planes along axis 1, into out (which must not
    overlap x).  Over F_3, F_5 and F_7 doubling is no addition: over F_3 it
    swaps the planes [v = 1] and [v = 2]; over F_7 it rotates them,
    2(b0 + 2b1 + 4b2) = b2 + 2b0 + 4b1 mod 7; over F_5, where 4 is b2
    alone, it is (b0 & b1) | b2, (b0 & ~b1) | b2 and b1 & ~b0, computed as
    t = b0 & b1, t | b2, (t | b2) ^ b0 and b1 ^ t.  Above 7 the planes
    shift up one place, 2x < 2p, and p is subtracted where 2x >= p
    (:func:`_plane_reduce`)."""
    if p > 7:
        s = [np.zeros_like(x[:, 0])] + [x[:, b] for b in range(x.shape[1])]
        return _plane_reduce(p, s, out)
    if p != 5:
        return np.take(x, (1, 0) if p == 3 else (2, 0, 1), axis=1, out=out)
    b0, b1, b2 = x[:, 0], x[:, 1], x[:, 2]
    t = np.bitwise_and(b0, b1, out=out[:, 2])
    np.bitwise_or(t, b2, out=out[:, 0])
    np.bitwise_xor(out[:, 0], b0, out=out[:, 1])
    np.bitwise_xor(t, b1, out=out[:, 2])
    return out


def _plane_multiples(p: int, x: np.ndarray) -> np.ndarray:
    """(p - 1, ...) planes of a*x over F_p, p <= 7, at index a - 1, from the
    planes of x (along axis 1) by doubling (:func:`_plane_double`) along
    1 -> 2 -> 4 -> ...  Over F_3 and F_5 that reaches every a; over F_7 it
    stops at {1, 2, 4}, and 3x = x + 2x is the one addition, whose
    doublings are 6x and 5x."""
    M = np.empty((p - 1,) + x.shape, dtype=x.dtype)
    M[0] = x
    a = 1
    for _ in range(p - 2):
        b = 2 * a % p
        if b == 1:  # over F_7, where 2 has order 3
            b = 3
            _plane_add(p, x, M[1], out=M[2])
        else:
            _plane_double(p, M[a - 1], M[b - 1])
        a = b
    return M


def _plane_add(p: int, x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """x + y over F_p on planes along axis 1, a value stored as its w
    binary digits.  Over F_2 that is XOR.  Over F_3, with planes
    [v = 1] and [v = 2], it is seven boolean operations (Kawahara, Aoki
    and Takagi, Pairing 2008).  Otherwise it is a ripple-carry sum s in
    w + 1 bits, reduced mod p (:func:`_plane_reduce`), about 25 numpy calls
    at w = 3; x + x needs none of it (:func:`_plane_double`).  out may be
    x."""
    if p == 2:
        return np.bitwise_xor(x, y, out=out)
    if p == 3:
        x1, x2, y1, y2 = x[:, 0], x[:, 1], y[:, 0], y[:, 1]
        t = (x1 | y2) ^ (x2 | y1)
        ones, twos = (x2 | y2) ^ t, (x1 | y1) ^ t
        out = np.empty_like(x) if out is None else out
        out[:, 0], out[:, 1] = ones, twos
        return out
    s, carry = [], None
    for b in range(x.shape[1]):
        xb, yb = x[:, b], y[:, b]
        t = xb ^ yb
        if carry is None:
            carry = xb & yb
        else:  # t ^ carry, and the majority of xb, yb and carry
            both = xb & yb
            sb = t ^ carry
            t &= carry
            carry = both | t
            t = sb
        s.append(t)
    s.append(carry)
    return _plane_reduce(p, s, np.empty_like(x) if out is None else out)


def _plane_reduce(p: int, s: list, out: np.ndarray) -> np.ndarray:
    """s mod p into the w planes of out (along axis 1), for odd p and the
    w + 1 bit planes s of values below 2p: 2**w - p is added mod 2**w
    wherever s >= p.  out must not overlap s[1:]."""
    w = len(s) - 1
    ge = s[0].copy()  # s >= p on bits 0..b, from the low bit up; p is odd
    for b in range(1, w + 1):
        if (p >> b) & 1:
            ge &= s[b]
        else:
            ge |= s[b]
    k, carry = (1 << w) - p, None
    for b in range(w):
        if (k >> b) & 1 and carry is None:
            np.bitwise_xor(s[b], ge, out=out[:, b])
            carry = s[b] & ge
        elif (k >> b) & 1:
            kb = ge ^ carry
            carry &= ge
            carry |= s[b] & kb
            np.bitwise_xor(s[b], kb, out=out[:, b])
        elif carry is None:
            out[:, b] = s[b]
        else:
            np.bitwise_xor(s[b], carry, out=out[:, b])
            carry &= s[b]
    return out


def _plane_axpy(p: int, y: np.ndarray, bits, x: np.ndarray) -> np.ndarray:
    """y + f*x over F_p on planes along axis 1, into y, by double-and-add
    (Boothby and Bradshaw, arXiv:0901.1413): f's binary digit b is
    bits[b], lane masks that broadcast against x's planes, or a bool for an
    f shared by every lane, and the term 2**b * x comes from doubling x
    (odd p; over F_2 f has one digit), so a w-bit f costs at most w plane
    additions, none for an all-zero mask."""
    for b, mask in enumerate(bits):
        if b:
            x = _plane_double(p, x, np.empty_like(x))
        if mask is True:
            _plane_add(p, y, x, out=y)
        elif mask is not False and mask.any():
            _plane_add(p, y, x & mask, out=y)
    return y


def _fermat_inverse(x: np.ndarray, p: int) -> np.ndarray:
    """x**(p-2) mod p for int64 x in [0, p), p odd: the inverse of every
    nonzero x (Fermat) and 0 for 0, by square-and-multiply; exact in int64
    while p*p is."""
    inv, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            inv = inv * x % p
        x, e = x * x % p, e >> 1
    return inv


def _plane_ranks(W: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of the bit-sliced (ncols, w, R, L) stack W, one
    matrix per bit lane, entry values in w binary planes; W is
    overwritten.

    Per column, the first row with a nonzero entry is each lane's pivot
    (``bitwise_or.accumulate`` down the rows), and every row r, the pivot
    row included, gets e_r - (e_r/lead)*pivot, so the column clears and the
    rank goes up by one in every lane where any row had the column.  Over
    F_2 that is adding the pivot row (XOR) to every row with the bit.  The
    step for other p is picked from p:

    * p = 3, 5, 7: the multiples a*pivot, a in 1..p-1, come from plane
      doublings (:func:`_plane_multiples`), the masks [e_r = a*lead] for
      every a and row at once from one broadcast XOR against the lead's
      multiples, and row r adds -a*pivot = (p-a)*pivot where its mask is
      set, gathered in one step buffer through one temporary, both
      allocated once per call, so the only plane addition on the rows is
      the step itself;
    * p > 7: each lane's lead is unpacked to an integer, the pivot row is
      scaled by -lead**(p-2) (:func:`_fermat_inverse`) by double-and-add
      on its planes, and every row adds e_r times it the same way, with
      e_r's own planes as the lane masks (:func:`_plane_axpy`): w plane
      additions on the rows whatever p is."""
    ncols, w, R, L = W.shape
    pivots = np.empty((ncols, L), dtype=np.uint64)
    if 2 < p <= 7:
        step = np.empty((ncols - 1, w, R, L), dtype=np.uint64)
        term = np.empty_like(step)
    for c in range(ncols):
        E = W[c]
        nz = np.bitwise_or.reduce(E, axis=0)
        seen = np.bitwise_or.accumulate(nz, axis=0)
        pivots[c] = seen[-1]
        first = nz.copy()
        first[1:] &= ~seen[:-1]
        if p == 2:
            rest = W[c + 1:]
            rest ^= nz & np.bitwise_or.reduce(rest & first, axis=2)[:, :, None, :]
            continue
        k = ncols - 1 - c
        if k == 0:
            break
        if p > 7:
            lead = _lane_values(np.bitwise_or.reduce(E & first, axis=1))
            scale = _digit_planes(-_fermat_inverse(lead, p) % p, w)
            pivot = np.bitwise_or.reduce(W[c + 1:] & first, axis=2)
            pivot = _plane_axpy(p, np.zeros_like(pivot), scale, pivot)
            _plane_axpy(p, W[c + 1:], E, pivot[:, :, None, :])
            continue
        mult = _plane_multiples(p, np.bitwise_or.reduce(W[c:] & first, axis=2))
        # eq[a - 1] = [e_r = a*lead], every plane of e_r XNOR a*lead; a zero
        # e_r matches only a lane with no pivot, whose multiples are all zero
        eq = np.bitwise_and.reduce(E ^ ~mult[:, 0, :, None, :], axis=1)
        # the masks are disjoint, so the step ORs eq[a - 1] & (p - a)*pivot
        np.bitwise_and(eq[0, None, None], mult[-1, 1:, :, None, :], out=step[:k])
        for i in range(1, p - 1):
            np.bitwise_and(eq[i, None, None], mult[-1 - i, 1:, :, None, :], out=term[:k])
            np.bitwise_or(step[:k], term[:k], out=step[:k])
        _plane_add(p, W[c + 1:], step[:k], out=W[c + 1:])
    return _lane_counts(pivots)


def _bitsliced_ranks(K: CoeffRing, A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Per-lane ranks over the field K of the stack gathered by P from A,
    the (ncoef, m, w, L) planes of each coefficient's coordinates over F_p
    (:func:`_digit_planes`), one element per bit lane.

    Every field is ranked over its prime field: multiplication by x is an
    nm x nm matrix over F_p whose (r, c) block holds the t**i coordinate of
    x_P[r, c] * t**s at (i, s), built by multiplication by t from the
    modulus (:func:`_times_t`), and its rank is m times the rank over K.
    F_p is the case m = 1."""
    R, n = P.shape
    m = K.m
    planes = [A]
    for _ in range(1, m):
        planes.append(_times_t(planes[-1], K))
    W = np.stack(planes, axis=1)[P.T]  # (n, R, s, i, w, L)
    w, L = A.shape[2:]
    W = W.transpose(0, 2, 4, 1, 3, 5).reshape(n * m, w, R * m, L)
    return _plane_ranks(W, K.p) // m


def _chunk_ranks(K: CoeffRing, A: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, supports) per bit lane of the census planes A, (ncoef, m, w,
    L) as :func:`nullity.oracle._census_rows` builds them: the rank over
    the field K of each matrix gathered by P, and the number of nonzero
    coefficients, a coefficient being in the support wherever any of its
    planes has the lane."""
    support = _lane_counts(np.bitwise_or.reduce(A, axis=(1, 2)))
    return _bitsliced_ranks(K, A, P), support


def matrix_rank(K: CoeffRing, rows) -> int:
    """Rank over a field: the bit-sliced kernel on a batch of one, each
    entry's m coordinates over F_p the base-p digits of its index."""
    if not K.is_field:
        raise ValueError(f"matrix rank needs field coefficients, got {K.spec}")
    M = np.array(rows, dtype=np.int64)
    if M.size == 0:
        return 0
    R, n = M.shape
    X = M.reshape(R * n, 1, 1) // K.p ** np.arange(K.m)[:, None] % K.p
    A = _digit_planes(X, (K.p - 1).bit_length())
    return int(_bitsliced_ranks(K, A, np.arange(R * n).reshape(R, n))[0])


def annihilator_size(K: CoeffRing, G: CayleyGroup, x, side: str = "left") -> int:
    """|Ann_side(x)| for a single element.

    Fields go through matrix rank; Z:n coefficients fall back to direct
    enumeration of all |K|**n candidates (cap-guarded).
    """
    _check_side(side)
    _check_vector(K, G, x)
    if not K.is_field:
        return annihilator_size_by_enumeration(K, G, x, side)
    M = np.array([*x, 0], dtype=np.int64)[_ann_gather_indices(G.table, side)]
    return K.size ** (G.order - matrix_rank(K, M))


def annihilator_size_by_enumeration(K: CoeffRing, G: CayleyGroup, x,
                                    side: str = "left", *,
                                    cap: int = DEFAULT_MAX_ENUMERATION) -> int:
    """|Ann_side(x)| by testing every candidate annihilator directly.

    Works over any coefficient ring; used as the rank-free cross-check.
    Each candidate a is one literal product from the structure constants
    (:func:`_zero_product_mask`), with x as the one-row block on the left:
    x*a for the right side, and for the left a*x, which is x*a in the
    opposite algebra, whose structure constants are T.transpose(1, 0, 2);
    twosided stacks the two maps, a -> (x*a, a*x).
    """
    _check_side(side)
    _check_vector(K, G, x)
    total = ring_size(K, G)
    if total > cap:
        raise CapExceeded(
            f"enumeration over |K|^n = {total} candidates exceeds cap {cap}")
    T, N = _structure_constants(K, G.table)
    e = element_index(K, G, x)
    xr = _decode_elements(N, T.shape[0], e, e + 1)
    if side == "left":
        T = T.transpose(1, 0, 2)
    elif side == "twosided":
        T = np.concatenate([T, T.transpose(1, 0, 2)], axis=2)
    return int(np.count_nonzero(_zero_product_mask(T, N, xr)))
