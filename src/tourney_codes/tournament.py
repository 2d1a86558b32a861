"""Tournaments stored as upper-triangle arc bits.

One bit per unordered pair {i, j} with i < j, in row-major pair order
(0,1), (0,2), ..., (0,n-1), (1,2), ...  Bit 1 means the arc i -> j, bit 0
the arc j -> i.  Text form is "<n>:<bitstring>", so the directed 3-cycle
is "3:101".  Tournament values are immutable; every operation returns a
fresh object.
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
        return "".join("1" if (self.bits >> k) & 1 else "0" for k in range(self.num_pairs))

    def line(self) -> str:
        """Text form accepted by parse_line."""
        return f"{self.n}:{self.bitstring()}"


def build(n: int, arc_bits) -> Tournament:
    """Build a tournament from its upper-triangle bit pattern.

    arc_bits may be a string of '0'/'1' characters or any sequence of
    0/1 integers, one per vertex pair in row-major order.
    """
    if isinstance(arc_bits, str):
        seq = []
        for ch in arc_bits:
            if ch not in "01":
                raise InputError(f"arc bit string may contain only 0 and 1, got {ch!r}")
            seq.append(ord(ch) - ord("0"))
    else:
        seq = [int(b) for b in arc_bits]
        if any(b not in (0, 1) for b in seq):
            raise InputError("arc bits must all be 0 or 1")
    if n < 1:
        raise InputError(f"a tournament needs at least one vertex, got n={n}")
    want = n * (n - 1) // 2
    if len(seq) != want:
        raise InputError(f"n={n} needs {want} arc bits, got {len(seq)}")
    bits = 0
    for k, b in enumerate(seq):
        if b:
            bits |= 1 << k
    return Tournament(n, bits)


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
    bits = [int(A[i, j]) for i in range(n) for j in range(i + 1, n)]
    return build(n, bits)


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
    bits = 0
    for u in range(n):
        for v in range(u + 1, n):
            x, y = (u, v) if T.arc(u, v) else (v, u)
            px, py = perm[x], perm[y]
            if px < py:
                bits |= 1 << pair_index(px, py, n)
    return Tournament(n, bits)


def switch(T: Tournament, subset: Iterable[int]) -> Tournament:
    """Reverse every arc between the subset and its complement."""
    chosen = frozenset(subset)
    for v in chosen:
        if not (0 <= v < T.n):
            raise InputError(f"switching set contains invalid vertex {v}")
    bits = T.bits
    for u in range(T.n):
        for v in range(u + 1, T.n):
            if (u in chosen) != (v in chosen):
                bits ^= 1 << pair_index(u, v, T.n)
    return Tournament(T.n, bits)


def delete_vertex(T: Tournament, v: int) -> Tournament:
    """Induced sub-tournament on the other n - 1 vertices."""
    if T.n < 2:
        raise InputError("cannot delete the only vertex")
    if not (0 <= v < T.n):
        raise InputError(f"invalid vertex {v} for n={T.n}")
    keep = [u for u in range(T.n) if u != v]
    bits = [1 if T.arc(keep[i], keep[j]) else 0
            for i in range(len(keep)) for j in range(i + 1, len(keep))]
    return build(T.n - 1, bits)


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
    residues = {(x * x) % q for x in range(1, q)}
    bits = [1 if (j - i) % q in residues else 0
            for i in range(q) for j in range(i + 1, q)]
    return build(q, bits)


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
    d = T1.n
    n = 2 * d
    bits = 0
    for u in range(d):
        for v in range(u + 1, d):
            if T1.arc(u, v):
                bits |= 1 << pair_index(u, v, n)
            if T2.arc(u, v):
                bits |= 1 << pair_index(d + u, d + v, n)
        for v in range(d):
            bits |= 1 << pair_index(u, d + v, n)
    return Tournament(n, bits)


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
    masks = [0] * T.n
    for u in range(T.n):
        for v in range(u + 1, T.n):
            if (T.bits >> pair_index(u, v, T.n)) & 1:
                masks[u] |= 1 << v
            else:
                masks[v] |= 1 << u
    return masks


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
    if n == 1:
        return CanonicalForm(b"1:")
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
    text = "".join("1" if (best >> k) & 1 else "0" for k in range(n * (n - 1) // 2))
    return CanonicalForm(f"{n}:{text}".encode("ascii"))


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
