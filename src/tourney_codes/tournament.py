"""Tournaments stored as upper-triangle arc bits.

One bit per unordered pair {i, j} with i < j, in row-major pair order
(0,1), (0,2), ..., (0,n-1), (1,2), ...  Bit 1 means the arc i -> j, bit 0
the arc j -> i.  Text form is "<n>:<bitstring>", so the directed 3-cycle
is "3:101".  Tournament values are immutable; every operation returns a
fresh object.

Bulk reads and writes of the pair order go through one codec: upper_pairs(n)
(row and column of each pair, in bit order), pair_bits(T) (the bits as a 0/1
array) and its inverse from_pair_bits(n, upper).  adjacency indexes by the
strict upper triangle as a mask, which takes the same pairs in the same
order.  Only arc()/pair_index() (single arcs) and canonical_form's
relabelling place bits by hand.

This module holds what analyze and embed use.  The named constructions,
the transforms and the isomorphism classes are in _constructions, which
the package loads on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import InputError

_LINE_RE = re.compile(r"^([0-9]+):([01]*)$")
_NOT_A_BIT = re.compile(r"[^01]")


def pair_index(i: int, j: int, n: int) -> int:
    """Position of the pair (i, j), i < j, in row-major order."""
    return i * n - i * (i + 1) // 2 + (j - i - 1)


@dataclass(frozen=True, order=True)
class Tournament:
    """An orientation of the complete graph on n vertices."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError(f"a tournament needs at least one vertex, got n={self.n}")
        if self.bits < 0 or self.bits >> (self.n * (self.n - 1) // 2):
            raise InputError(f"arc bits out of range for n={self.n}")

    @property
    def num_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    def arc(self, u: int, v: int) -> bool:
        """True iff the arc u -> v is present."""
        if u == v or not (0 <= u < self.n) or not (0 <= v < self.n):
            raise InputError(f"invalid vertex pair ({u}, {v}) for n={self.n}")
        if u < v:
            return (self.bits >> pair_index(u, v, self.n)) & 1 == 1
        return (self.bits >> pair_index(v, u, self.n)) & 1 == 0

    def out_degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise InputError(f"invalid vertex {v} for n={self.n}")
        return int(adjacency(self)[v].sum())

    def bitstring(self) -> str:
        return (pair_bits(self) + ord("0")).tobytes().decode("ascii")

    def line(self) -> str:
        """Text form accepted by parse_line."""
        return f"{self.n}:{self.bitstring()}"


def build(n: int, arc_bits: str) -> Tournament:
    """Build a tournament from its upper-triangle bit string: one '0'/'1'
    character per vertex pair, in row-major order."""
    if not isinstance(arc_bits, str):
        raise InputError(f"arc bits must be a string of 0 and 1, got {type(arc_bits).__name__}")
    bad = _NOT_A_BIT.search(arc_bits)
    if bad is not None:
        raise InputError(f"arc bit string may contain only 0 and 1, got {bad.group()!r}")
    upper = np.frombuffer(arc_bits.encode("ascii"), np.uint8) - ord("0")
    if n < 1:
        raise InputError(f"a tournament needs at least one vertex, got n={n}")
    want = n * (n - 1) // 2
    if len(upper) != want:
        raise InputError(f"n={n} needs {want} arc bits, got {len(upper)}")
    return from_pair_bits(n, upper)


def parse_line(line: str) -> Tournament:
    """Parse the "<n>:<bitstring>" text form."""
    m = _LINE_RE.match(line.strip())
    if m is None:
        raise InputError(f"malformed tournament line: {line.strip()!r}")
    return build(int(m.group(1)), m.group(2))


def parse_catalog(lines: Iterable[str], *, numbered: bool = False) -> list:
    """Parse a stream of tournament lines, skipping blanks and '#' comments.

    With numbered=True each entry is a (line number, tournament) pair,
    counting lines from 1 and including the skipped ones.
    """
    out = []
    for k, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            T = parse_line(text)
        except InputError as exc:
            raise InputError(f"line {k}: {exc}") from None
        out.append((k, T) if numbered else T)
    return out


def _read_ascii(path: str, what: str) -> str:
    """The text of the ASCII file at path; what names it in the InputError
    raised when it cannot be opened or decoded."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except (OSError, UnicodeError) as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}")


@lru_cache(maxsize=32)
def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int32 row and column indices of the pairs u < v, in bit order."""
    # np.triu_indices walks the pairs in row-major order, the bit order.
    rows, cols = (a.astype(np.int32) for a in np.triu_indices(n, 1))
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _unpack(value: int, count: int) -> np.ndarray:
    """The low count bits of value as a 0/1 uint8 array, lowest bit first."""
    raw = value.to_bytes((count + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count, bitorder="little")


def pair_bits(T: Tournament) -> np.ndarray:
    """0/1 array of the arc bits, in bit order: 1 iff u -> v for the pair u < v."""
    return _unpack(T.bits, T.num_pairs)


def from_pair_bits(n: int, upper: np.ndarray) -> Tournament:
    """Tournament on n vertices from its 0/1 arc bits in bit order.

    The inverse of pair_bits; upper holds one entry per pair u < v.
    """
    packed = np.packbits(upper, bitorder="little")
    return Tournament(n, int.from_bytes(packed.tobytes(), "little"))


def adjacency(T: Tournament) -> np.ndarray:
    """0/1 adjacency matrix, A[u][v] = 1 iff the arc u -> v is present."""
    upper = pair_bits(T)
    k = np.arange(T.n)
    # A mask takes its entries in row-major order, so the strict upper
    # triangle takes them in bit order; it indexes faster than upper_pairs.
    above = k[:, None] < k
    A = np.zeros((T.n, T.n), dtype=np.int64)
    A[above] = upper
    A.T[above] = 1 - upper
    return A


def seidel_squared(T: Tournament) -> np.ndarray:
    """Integer matrix -(A - A^T)^2, the square of the Seidel matrix.

    Symmetric, with every diagonal entry equal to n - 1.
    """
    A = adjacency(T)
    K = (A - A.T).astype(np.float64)
    # The float product is exact: every entry of K is -1, 0 or 1, so each
    # product and partial sum is an integer of size at most n.
    return (-(K @ K)).astype(np.int64)


def _with_vertex(A: np.ndarray, column) -> Tournament:
    """The tournament of adjacency matrix A with one new vertex n = len(A);
    column[v] = 1 means the arc v -> n, 0 the arc n -> v."""
    n = len(A)
    B = np.zeros((n + 1, n + 1), dtype=np.uint8)
    B[:n, :n] = A
    B[:n, n] = column
    return from_pair_bits(n + 1, B[upper_pairs(n + 1)])


def add_vertex(T: Tournament, in_pattern: int) -> Tournament:
    """T with one new vertex n = T.n added.

    Bit v of in_pattern set means the arc v -> n, clear means n -> v.
    """
    n = T.n
    if not 0 <= in_pattern < 1 << n:
        raise InputError(f"in-pattern must have at most {n} bits, got {in_pattern}")
    return _with_vertex(adjacency(T), _unpack(in_pattern, n))
