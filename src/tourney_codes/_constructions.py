"""Tournament constructions, transforms and isomorphism classes.

The named constructions (Paley, dominated extension, block form, random),
the transforms (relabel, switch, vertex deletion), canonical forms, and
the enumeration of isomorphism and switching classes.  analyze and embed
use none of it, so the package loads this module on first use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .codes import is_doubly_regular
from .errors import InputError
from .tournament import (Tournament, add_vertex, adjacency, from_pair_bits, pair_bits,
                         parse_line, upper_pairs)

ENUMERATION_LIMIT = 7   # exhaustive isomorphism-class generation cap
SWITCHING_LIMIT = 12    # switching orbits walk 2^(n-1) subsets


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

    The result has S^2 = diag(dI + (d - 1)J, dI + (d - 1)J), the block
    form with (k, l) = (d, d - 1).  Only at d = 3 is that the Ehlich form
    diag((n - 2)I + 2J, (n - 2)I + 2J) of a skew D-optimal design.
    """
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
