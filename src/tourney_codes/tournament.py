"""Tournaments stored as upper-triangle arc bits.

One bit per unordered pair {i, j} with i < j, in row-major pair order
(0,1), (0,2), ..., (0,n-1), (1,2), ...  Bit 1 means the arc i -> j, bit 0
the arc j -> i.  Text form is "<n>:<bitstring>", so the directed 3-cycle
is "3:101".  Tournament values are immutable; every operation returns a
fresh object.

Bulk reads and writes of the pair order go through one codec: upper_pairs(n)
(row and column of each pair, in bit order), pair_bits(T) (the bits as a 0/1
array) and its inverse from_pair_bits(n, upper).  Only arc()/pair_index()
(single arcs), add_vertex and canonical_form's relabelling place bits by hand.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

ENUMERATION_LIMIT = 7   # exhaustive isomorphism-class generation cap
SWITCHING_LIMIT = 12    # switching orbits walk 2^(n-1) subsets

_LINE_RE = re.compile(r"^(\d+):([01]*)$")
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


def build(n: int, arc_bits) -> Tournament:
    """Build a tournament from its upper-triangle bit pattern.

    arc_bits may be a string of '0'/'1' characters or any sequence of
    values equal to 0 or 1, one per vertex pair in row-major order.
    """
    if isinstance(arc_bits, str):
        bad = _NOT_A_BIT.search(arc_bits)
        if bad is not None:
            raise InputError(f"arc bit string may contain only 0 and 1, got {bad.group()!r}")
        upper = np.frombuffer(arc_bits.encode("ascii"), np.uint8) - ord("0")
    else:
        seq = list(arc_bits)
        if any(b not in (0, 1) for b in seq):
            raise InputError("arc bits must all be 0 or 1")
        upper = np.array(seq, dtype=np.uint8)
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


def from_adjacency(matrix) -> Tournament:
    """Build a tournament from a 0/1 adjacency matrix with A + A^T = J - I."""
    A = np.asarray(matrix, dtype=np.int64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("adjacency matrix must be square")
    n = A.shape[0]
    if not np.isin(A, (0, 1)).all():
        raise InputError("adjacency entries must be 0 or 1")
    if not np.array_equal(A + A.T, np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)):
        raise InputError("matrix is not a tournament adjacency matrix")
    return from_pair_bits(n, A[upper_pairs(n)])


@lru_cache(maxsize=32)
def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the pairs u < v, in bit order."""
    # np.triu_indices walks the pairs in row-major order, the bit order.
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def pair_bits(T: Tournament) -> np.ndarray:
    """0/1 array of the arc bits, in bit order: 1 iff u -> v for the pair u < v."""
    raw = T.bits.to_bytes((T.num_pairs + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=T.num_pairs,
                         bitorder="little")


def from_pair_bits(n: int, upper: np.ndarray) -> Tournament:
    """Tournament on n vertices from its 0/1 arc bits in bit order.

    The inverse of pair_bits; upper holds one entry per pair u < v.
    """
    packed = np.packbits(upper, bitorder="little")
    return Tournament(n, int.from_bytes(packed.tobytes(), "little"))


def adjacency(T: Tournament) -> np.ndarray:
    """0/1 adjacency matrix, A[u][v] = 1 iff the arc u -> v is present."""
    upper = pair_bits(T).astype(np.int64)
    rows, cols = upper_pairs(T.n)
    A = np.zeros((T.n, T.n), dtype=np.int64)
    A[rows, cols] = upper
    A[cols, rows] = 1 - upper
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


def relabel(T: Tournament, perm: Sequence[int]) -> Tournament:
    """Relabel vertices; perm[v] is the new label of vertex v."""
    n = T.n
    if sorted(perm) != list(range(n)):
        raise InputError(f"perm must be a permutation of 0..{n - 1}")
    # Vertex perm[v] of the result is vertex v of T.
    inv = np.argsort(perm)
    return from_pair_bits(n, adjacency(T)[np.ix_(inv, inv)][upper_pairs(n)])


def switch(T: Tournament, subset: Iterable[int]) -> Tournament:
    """Reverse every arc between the subset and its complement."""
    chosen = frozenset(subset)
    for v in chosen:
        if v not in range(T.n):
            raise InputError(f"switching set contains invalid vertex {v}")
    side = np.array([v in chosen for v in range(T.n)])
    rows, cols = upper_pairs(T.n)
    return from_pair_bits(T.n, pair_bits(T) ^ (side[rows] != side[cols]))


def delete_vertex(T: Tournament, v: int) -> Tournament:
    """Induced sub-tournament on the other n - 1 vertices."""
    if T.n < 2:
        raise InputError("cannot delete the only vertex")
    if v not in range(T.n):
        raise InputError(f"invalid vertex {v} for n={T.n}")
    keep = [u for u in range(T.n) if u != v]
    return from_pair_bits(T.n - 1, adjacency(T)[np.ix_(keep, keep)][upper_pairs(T.n - 1)])


def add_vertex(T: Tournament, in_pattern: int) -> Tournament:
    """T with one new vertex n = T.n added.

    Bit v of in_pattern set means the arc v -> n, clear means n -> v.
    """
    n = T.n
    if not 0 <= in_pattern < 1 << n:
        raise InputError(f"in-pattern must have at most {n} bits, got {in_pattern}")
    # Row u of the new pair order is row u of T followed by the pair (u, n).
    bits = pos = src = 0
    for u in range(n):
        width = n - 1 - u
        bits |= ((T.bits >> src) & ((1 << width) - 1)) << pos
        bits |= ((in_pattern >> u) & 1) << (pos + width)
        src += width
        pos += width + 1
    return Tournament(n + 1, bits)


def dominated_extension(T: Tournament) -> Tournament:
    """Add one vertex with every arc pointing into it."""
    return add_vertex(T, (1 << T.n) - 1)


def paley_tournament(q: int) -> Tournament:
    """Quadratic-residue tournament on a prime q with q = 4k + 3.

    Arc i -> j iff (j - i) mod q is a nonzero square.
    """
    if q < 3 or not _is_prime(q):
        raise InputError(f"paley tournament needs a prime modulus, got {q}")
    if q % 4 != 3:
        raise InputError(f"paley tournament needs q = 3 (mod 4), got {q}")
    residue = np.zeros(q, dtype=bool)
    residue[np.arange(1, q) ** 2 % q] = True
    rows, cols = upper_pairs(q)
    return from_pair_bits(q, residue[(cols - rows) % q])


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def d_optimal_block(T1: Tournament, T2: Tournament) -> Tournament:
    """Stack two doubly regular tournaments of the same order d as
    [[A1, J], [0, A2]]: every vertex of the first copy beats every
    vertex of the second copy.
    """
    from .codes import is_doubly_regular

    if T1.n != T2.n:
        raise InputError(f"block construction needs equal orders, got {T1.n} and {T2.n}")
    if is_doubly_regular(T1) is None or is_doubly_regular(T2) is None:
        raise InputError("block construction needs two doubly regular tournaments")
    A1, A2 = adjacency(T1), adjacency(T2)
    A = np.block([[A1, np.ones_like(A1)], [np.zeros_like(A2), A2]])
    return from_pair_bits(2 * T1.n, A[upper_pairs(2 * T1.n)])


def random_tournament(n: int, rng: random.Random) -> Tournament:
    """Uniformly random orientation of the complete graph."""
    if n < 1:
        raise InputError(f"a tournament needs at least one vertex, got n={n}")
    return Tournament(n, rng.getrandbits(n * (n - 1) // 2) if n > 1 else 0)


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Permutation-invariant key; equal keys iff isomorphic tournaments."""

    key: bytes

    def tournament(self) -> Tournament:
        """The canonical representative encoded by the key."""
        return parse_line(self.key.decode("ascii"))


def _out_masks(T: Tournament) -> list[int]:
    # Bit v of masks[u] is set iff u -> v.
    rows = np.packbits(adjacency(T), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _refine(masks: list[int], n: int, colors: list[int]) -> list[int]:
    # Iterated degree refinement: recolor by (color, out-degree per color)
    # until stable.  New ids follow sorted signature order, which keeps the
    # refinement isomorphism-invariant.
    while True:
        ncol = max(colors) + 1
        sigs = []
        for v in range(n):
            cnt = [0] * ncol
            m = masks[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                cnt[colors[w]] += 1
            sigs.append((colors[v], tuple(cnt)))
        ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ids[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _relabelled_bits(masks: list[int], n: int, pos: list[int]) -> int:
    bits = 0
    for u in range(n):
        pu = pos[u]
        m = masks[u]
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            pv = pos[v]
            if pu < pv:
                bits |= 1 << (pu * n - pu * (pu + 1) // 2 + (pv - pu - 1))
    return bits


def canonical_form(T: Tournament) -> CanonicalForm:
    """Canonical key of the isomorphism class.

    Backtracking over vertex orderings restricted by iterated degree
    refinement; among all orderings reachable this way the maximal
    relabelled bit pattern is taken.  Exact for every n, intended for
    n up to about 14.
    """
    n = T.n
    masks = _out_masks(T)
    best = -1
    stack = [_refine(masks, n, [0] * n)]
    while stack:
        colors = stack.pop()
        ncol = max(colors) + 1
        if ncol == n:
            bits = _relabelled_bits(masks, n, colors)
            if bits > best:
                best = bits
            continue
        counts = [0] * ncol
        for c in colors:
            counts[c] += 1
        target = next(c for c in range(ncol) if counts[c] > 1)
        for v in range(n):
            if colors[v] == target:
                child = list(colors)
                child[v] = ncol
                stack.append(_refine(masks, n, child))
    return CanonicalForm(Tournament(n, best).line().encode("ascii"))


def canonical_representative(T: Tournament) -> Tournament:
    return canonical_form(T).tournament()


def enumerate_tournaments(n: int) -> list[Tournament]:
    """One canonical representative per isomorphism class, sorted by key."""
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise InputError(
            f"exhaustive enumeration supports 1 <= n <= {ENUMERATION_LIMIT}, got {n}")
    return list(_classes(n))


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Tournament, ...]:
    if n == 1:
        return (Tournament(1, 0),)
    reps: dict[CanonicalForm, None] = {}
    for T in _classes(n - 1):
        for pattern in range(1 << (n - 1)):
            reps.setdefault(canonical_form(add_vertex(T, pattern)))
    return tuple(key.tournament() for key in sorted(reps))


def switching_class(T: Tournament) -> set[CanonicalForm]:
    """Isomorphism classes reachable by switching.

    Since switching at a subset and at its complement agree, only the
    2^(n-1) subsets avoiding vertex 0 are walked.
    """
    if T.n > SWITCHING_LIMIT:
        raise InputError(f"switching class enumeration supports n <= {SWITCHING_LIMIT}, got {T.n}")
    classes: set[CanonicalForm] = set()
    for mask in range(1 << (T.n - 1)):
        subset = [v + 1 for v in range(T.n - 1) if (mask >> v) & 1]
        classes.add(canonical_form(switch(T, subset)))
    return classes
