"""Finite groups as validated Cayley tables with a fixed element order.

Index 0 is always the identity.  Canonical element orders:

* cyclic ``C:n``   -- e, a, a^2, ..., a^(n-1)
* product ``AxB``  -- lexicographic, first factor major: (i, j) -> i*|B| + j
* ``S3``           -- e, (12), (13), (23), (123), (132); permutations act on
  {1,2,3} and compose right to left (apply the right factor first)
* ``Q8``           -- 1, a, a^2, a^3, b, ab, a^2b, a^3b with a^4 = 1,
  b^2 = a^2, ba = a^3 b
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Callable

import numpy as np

# largest group order built: a dense int64 Cayley table of 4096^2 entries is 128 MiB
MAX_GROUP_ORDER = 4096


class CayleyGroup:
    """A finite group given by its multiplication table.

    table[i][j] is the index of the product g_i * g_j.  `structure` records
    which constructor built the group ("cyclic", "product", "s3", "q8",
    "table") so closed-form dispatch can recognize the shapes it covers.
    """

    def __init__(self, table: np.ndarray, spec: str, structure: str):
        self.table = np.asarray(table, dtype=np.int64)
        self.table.flags.writeable = False
        self.order = self.table.shape[0]
        self.spec = spec
        self.structure = structure
        self._inverses: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"CayleyGroup({self.spec!r}, order={self.order})"

    @property
    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            rows, cols = np.nonzero(self.table == 0)
            inv = np.empty(self.order, dtype=np.int64)
            inv[rows] = cols
            inv.flags.writeable = False
            self._inverses = inv
        return self._inverses

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))


def validate_group(table: np.ndarray) -> str | None:
    """First violated group axiom with witness indices, or None if a group.

    Checks, in order: squareness, value range, identity at index 0, the
    Latin-square property, and associativity (exhaustive, O(n^3)).
    """
    t = np.asarray(table)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        return f"table must be square and nonempty, got shape {t.shape}"
    n = t.shape[0]
    if t.min() < 0 or t.max() >= n:
        bad = np.argwhere((t < 0) | (t >= n))[0]
        return f"entry out of range at (i, j) = ({bad[0]}, {bad[1]})"
    idx = np.arange(n)
    for j in range(n):
        if t[0, j] != j:
            return f"identity axiom violated at j={j}"
        if t[j, 0] != j:
            return f"identity axiom violated at i={j}"
    for i in range(n):
        if not np.array_equal(np.sort(t[i]), idx):
            return f"row {i} is not a permutation"
        if not np.array_equal(np.sort(t[:, i]), idx):
            return f"column {i} is not a permutation"
    # (i*j)*k vs i*(j*k), row-chunked to bound memory
    step = max(1, (1 << 24) // (n * n))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        lhs = t[t[lo:hi], :]
        rhs = t[lo:hi][:, t]
        if not np.array_equal(lhs, rhs):
            i, j, k = np.argwhere(lhs != rhs)[0]
            return f"associativity violated at (i, j, k) = ({lo + i}, {j}, {k})"
    return None


def _check_order(n: int) -> None:
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"group order {n} exceeds the bound {MAX_GROUP_ORDER}")


def cyclic(n: int) -> CayleyGroup:
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    _check_order(n)
    # a circulant: a read-only n x n view of 2n - 1 integers, [i, j] = (i + j) % n
    table = np.lib.stride_tricks.sliding_window_view(np.arange(2 * n - 1) % n, n)
    return CayleyGroup(table, f"C:{n}", "cyclic")


def product(g1: CayleyGroup, g2: CayleyGroup) -> CayleyGroup:
    n2 = g2.order
    _check_order(g1.order * n2)
    table = (g1.table[:, None, :, None] * n2 + g2.table[None, :, None, :])
    table = table.reshape(g1.order * n2, g1.order * n2)
    return CayleyGroup(table, f"{g1.spec}x{g2.spec}", "product")


_S3_PERMS = (
    (0, 1, 2),  # e
    (1, 0, 2),  # (12)
    (2, 1, 0),  # (13)
    (0, 2, 1),  # (23)
    (1, 2, 0),  # (123)
    (2, 0, 1),  # (132)
)


def s3() -> CayleyGroup:
    perms = _S3_PERMS
    lookup = {p: i for i, p in enumerate(perms)}
    table = np.empty((6, 6), dtype=np.int64)
    for i, s in enumerate(perms):
        for j, t in enumerate(perms):
            table[i, j] = lookup[tuple(s[t[k]] for k in range(3))]
    return CayleyGroup(table, "S3", "s3")


def q8() -> CayleyGroup:
    # element index 4*j + i encodes a^i b^j, i mod 4, j in {0, 1}
    def mul(x: int, y: int) -> int:
        i, j = x % 4, x // 4
        k, l = y % 4, y // 4
        # move b^j past a^k: b a^k = a^(-k) b
        i = (i + (k if j == 0 else -k)) % 4
        j += l
        if j == 2:  # b^2 = a^2
            i = (i + 2) % 4
            j = 0
        return 4 * j + i

    table = np.array([[mul(x, y) for y in range(8)] for x in range(8)], dtype=np.int64)
    return CayleyGroup(table, "Q8", "q8")


def from_table(rows, *, spec: str = "table") -> CayleyGroup:
    """Build a group from a raw table, validating every axiom.

    Entries must be integers; floats and bools are rejected, not truncated.
    """
    if hasattr(rows, "__len__"):
        _check_order(len(rows))
    cells = np.asarray(rows, dtype=object)
    if cells.ndim == 1:  # ragged or bare-scalar rows stay Python objects
        for i, row in enumerate(cells):
            if not hasattr(row, "__len__"):
                raise ValueError(f"bad group table: row {i} is not a sequence")
            if len(row) != len(cells):
                raise ValueError(f"bad group table: row {i} has {len(row)} "
                                 f"entries, expected {len(cells)}")
    if cells.ndim == 2:
        for (i, j), v in np.ndenumerate(cells):
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
                raise ValueError(
                    f"bad group table: entry [{i}][{j}] = {v!r} is not an integer")
    table = np.array(rows, dtype=np.int64)  # a copy: the caller's stays writeable
    problem = validate_group(table)
    if problem is not None:
        raise ValueError(f"bad group table: {problem}")
    return CayleyGroup(table, spec, "table")


def group_from_table_file(path: str | Path) -> CayleyGroup:
    """Load a JSON array-of-arrays Cayley table."""
    p = Path(path)
    rows = json.loads(p.read_text())
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"{p}: expected a JSON array of arrays")
    return from_table(rows, spec=f"@{p.stem}")


_ATOM = re.compile(r"^(?:C:?(\d+)|S3|Q8)$", re.IGNORECASE)


def _parse_atom(atom: str, text: str) -> tuple[Callable[[], CayleyGroup], int]:
    """Constructor for one atom of a spec, and the order it builds."""
    m = _ATOM.match(atom)
    if m is None:
        raise ValueError(
            f"bad group spec {text!r}: expected C:n, S3, Q8, or products AxB")
    if m.group(1) is not None:
        n = int(m.group(1))
        return (lambda: cyclic(n)), n
    return (s3, 6) if atom.upper() == "S3" else (q8, 8)


def group_from_spec(text: str) -> CayleyGroup:
    """Parse "C:n", "S3", "Q8", or x-joined products like "C2xC2".

    Every atom is parsed, and the order of the whole product checked
    against the bound, before any table is built.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty group spec")
    # atoms never contain the letter x, so a plain split is safe
    atoms = [_parse_atom(p, text) for p in re.split(r"[xX]", s)]
    _check_order(math.prod(n for _, n in atoms))
    groups = [build() for build, _ in atoms]
    g = groups[0]
    for h in groups[1:]:
        g = product(g, h)
    return g
