"""Hermitian eigenanalysis and main angles.

The Seidel matrix of a tournament is S = sqrt(-1) (A - A^T).  Everything
here works on Hermitian matrices in general, and main angles are always
taken against the all-ones vector j, as in the paper.  One extra is
tournament-specific: for Seidel matrices the square S^2 is an integer
matrix, which supports an exact-arithmetic cross-check of borderline
main-angle zeros.
The rank-one shift identities are in _shifts, which the package loads on
first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalConsistencyError
from .tournament import Tournament, adjacency, seidel_squared

HERMITIAN_TOL = 1e-12
EIG_RESIDUAL_FACTOR = 1e-9
CLUSTER_GAP_FACTOR = 1e-7
BETA_ZERO_TOL = 1e-6
BETA_EXACT_BAND = (1e-9, 1e-3)
SUM_BETA_SQ_TOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """The band of floating main angles that group_spectrum settles by
    exact integer arithmetic.  The clustering gap and the main-angle zero
    threshold are the constants CLUSTER_GAP_FACTOR and BETA_ZERO_TOL.
    """

    beta_exact_lo: float = BETA_EXACT_BAND[0]
    beta_exact_hi: float = BETA_EXACT_BAND[1]


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class SpectralLine:
    """One distinct eigenvalue: value, multiplicity, main angle."""

    tau: float
    mult: int
    beta: float
    main: bool


@dataclass(frozen=True)
class MainSpectrum:
    """The main eigenvalues (beta > 0) in ascending order."""

    taus: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.taus:
            raise InternalConsistencyError("a main spectrum cannot be empty")


@dataclass(frozen=True)
class Spectrum:
    n: int
    lines: tuple[SpectralLine, ...]
    cluster_tol: float
    warnings: tuple[str, ...] = ()

    def taus(self) -> tuple[float, ...]:
        return tuple(line.tau for line in self.lines)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(line.mult for line in self.lines)

    def main_lines(self) -> tuple[SpectralLine, ...]:
        return tuple(line for line in self.lines if line.main)

    def main_spectrum(self) -> MainSpectrum:
        main = self.main_lines()
        return MainSpectrum(tuple(l.tau for l in main), tuple(l.beta for l in main))


def seidel_matrix(T: Tournament) -> np.ndarray:
    """Hermitian matrix sqrt(-1) (A - A^T); entry (u, v) is +i iff u -> v."""
    A = adjacency(T)
    return 1j * (A - A.T).astype(np.complex128)


def eigensystem(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and an orthonormal eigenbasis of a Hermitian matrix.

    Returns (w, V) with H V = V diag(w).  The decomposition is validated:
    residual within 1e-9 * n * max|H| and orthonormality within 1e-9.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] == 0:
        raise InputError("eigensystem needs a nonempty square matrix")
    n = H.shape[0]
    peak = float(np.abs(H).max())
    if not math.isfinite(peak):  # NaN would pass every check below
        raise InputError("eigensystem needs a finite matrix")
    scale = max(1.0, peak)
    if float(np.abs(H - H.conj().T).max()) > HERMITIAN_TOL * scale:
        raise InputError("matrix is not Hermitian within tolerance")
    w, V = np.linalg.eigh(H)
    residual = float(np.abs(H @ V - V * w).max())
    if residual > EIG_RESIDUAL_FACTOR * n * scale:
        raise InternalConsistencyError(
            f"eigendecomposition residual {residual:g} exceeds contract")
    ortho = float(np.abs(V.conj().T @ V - np.eye(n)).max())
    if ortho > 1e-9:
        raise InternalConsistencyError("eigenbasis is not orthonormal within contract")
    return w, V


def cluster(w: list[float], gap_tol: float) -> list[list[int]]:
    """Indices of ascending w in chains whose consecutive gaps are below gap_tol."""
    clusters = [[0]]
    for k in range(1, len(w)):
        if w[k] - w[k - 1] < gap_tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


def _integer_rows(matrix) -> list[list[int]]:
    """The rows of a square integer matrix as Python ints, or InputError."""
    try:
        M = np.asarray(matrix)
        values = M.tolist()
        rows = [[int(x) for x in row] for row in values] if M.ndim == 2 else None
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is None or rows != values or M.shape[0] != M.shape[1]:
        raise InputError("exact arithmetic needs a square matrix of integers")
    return rows


def _first_dependency(vectors, width: int) -> list[int] | None:
    """Integers c_0..c_m, c_m != 0, with sum c_i v_i = 0 for the first v_m
    that depends on the vectors before it, or None: fraction-free (Bareiss)
    elimination with width coefficient columns, each division exact.  With
    width 0 a dependency gives [], so only whether one exists is known."""
    echelon: list[tuple[int, list[int]]] = []
    for m, v in enumerate(vectors):
        n = len(v)
        row = list(v) + [0] * width
        if width:
            row[n + m] = 1
        prev = 1
        for col, pivot in echelon:
            d, c = pivot[col], row[col]
            row = [(d * a - c * b) // prev for a, b in zip(row, pivot)]
            prev = d
        col = next((i for i in range(n) if row[i]), None)
        if col is None:
            return row[n:n + m + 1]
        echelon.append((col, row))
    return None


def _krylov_minimal_polynomial(matrix) -> tuple[list[int], list[int]]:
    """Minimal polynomial, up to a nonzero integer factor, of an integer
    matrix M on the cyclic space of the all-ones vector j: (c, s) with c[k]
    the coefficient of x^k and s[k] = j^T M^k j for k = 0..deg."""
    rows = _integer_rows(matrix)
    moments = []

    def powers():
        v = [1] * len(rows)
        while True:
            moments.append(sum(v))
            yield v
            v = [sum(a * b for a, b in zip(row, v)) for row in rows]

    return _first_dependency(powers(), len(rows) + 1), moments


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def exact_integer_eigenvalue(matrix, value: int) -> bool:
    """Whether an integer is exactly an eigenvalue of an integer matrix."""
    rows = _integer_rows(matrix)
    if value != int(value):
        return False  # every rational eigenvalue of an integer matrix is an integer
    for i, row in enumerate(rows):
        row[i] -= int(value)
    return _first_dependency(rows, 0) is not None


def exact_ones_resolvent(matrix, shift: int) -> Fraction | None:
    """j^T (M - shift I)^(-1) j on the cyclic subspace of the all-ones
    vector j, exactly over the rationals, for an integer matrix M.

    Well defined whenever the shift is not an eigenvalue seen by j, even
    if it is an eigenvalue of M on the orthogonal complement; returns
    None at a pole (shift seen by j).
    """
    from fractions import Fraction

    p, moments = _krylov_minimal_polynomial(matrix)
    k = Fraction(shift)
    pk = _horner(p, k)
    if pk == 0:
        return None
    # Synthetic division q(t) = (p(t) - p(k)) / (t - k); then
    # r(t) = -q(t)/p(k) satisfies (t - k) r(t) = 1 modulo p(t), so the
    # wanted value is sum_m q_m (j^T M^m j) scaled by -1/p(k).
    q = [Fraction(0)] * (len(p) - 1)
    acc = Fraction(0)
    for idx in range(len(p) - 1, 0, -1):
        acc = acc * k + p[idx]
        q[idx - 1] = acc
    return -sum(c * m for c, m in zip(q, moments)) / pk


def _resolve_mainness(taus, betas, s2, tol: Tolerances, cluster_tol: float) -> list[bool]:
    # Floating main angles decide directly outside the ambiguous band;
    # inside it the exact minimal polynomial p of j under the integer
    # matrix S^2 decides: tau is main exactly when tau^2 is a root of p.
    ambiguous = [tol.beta_exact_lo <= b <= tol.beta_exact_hi for b in betas]
    if s2 is None or not any(ambiguous):
        return [b > BETA_ZERO_TOL for b in betas]
    from fractions import Fraction

    p, _ = _krylov_minimal_polynomial(s2)
    # Each line gets the bracket [tau^2 - h, tau^2 + h]: clustering takes a
    # float tau to be within cluster_tol of its true value, and squaring
    # moves that error by at most h in tau^2.  S^2 is symmetric, so the
    # roots of p are real and simple, and a bracket over which p changes
    # sign holds an odd number of them, so at least one.  When deg p
    # disjoint brackets change sign, each holds exactly one root and every
    # other bracket holds none, so a poor h is refused, not misread.
    h = Fraction(cluster_tol * (2 * max(abs(t) for t in taus) + cluster_tol))
    sq = [Fraction(t) ** 2 for t in taus]
    brackets: list[list[int]] = []
    for i in sorted(range(len(taus)), key=sq.__getitem__):
        if not brackets or sq[i] - sq[brackets[-1][-1]] > 2 * h:
            brackets.append([i])
            continue
        # Only the lines +-tau of one eigenvalue tau^2 of S^2 may share one.
        t = taus[brackets[-1][0]]
        if len(brackets[-1]) > 1 or t * taus[i] >= 0 or abs(t + taus[i]) > cluster_tol:
            raise InternalConsistencyError(
                f"tau={t:g} and tau={taus[i]:g} are too close to settle their "
                f"main angles exactly")
        brackets[-1].append(i)
    roots = [m for m in brackets if _horner(p, sq[m[0]] - h) * _horner(p, sq[m[-1]] + h) < 0]
    if len(roots) != len(p) - 1:
        raise InternalConsistencyError(
            f"{len(roots)} brackets hold a root of the exact main-angle polynomial "
            f"of degree {len(p) - 1}, so the exact route cannot settle them")
    hit = {i for m in roots for i in m}
    flags = []
    for i, (t, b, amb) in enumerate(zip(taus, betas, ambiguous)):
        if amb:
            flags.append(i in hit)
        else:
            clear = b > tol.beta_exact_hi
            if clear != (i in hit):
                raise InternalConsistencyError(
                    f"floating main angle {b:g} at tau={t:g} contradicts the "
                    f"exact integer spectrum")
            flags.append(clear)
    return flags


def group_spectrum(eigenvalues, eigenvectors, *, exact_s2=None,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> Spectrum:
    """Cluster floating eigenvalues and attach main angles.

    Consecutive eigenvalues closer than CLUSTER_GAP_FACTOR * max(1, radius)
    share a cluster.  For cluster i with projector E_i, the main angle is
    beta_i = |E_i j| / sqrt(n), always against the all-ones vector j, so the
    squares sum to one.  Gaps inside [tol, 10 tol) are flagged as
    ambiguous-clustering warnings.  exact_s2, when given, must be the
    integer square of the analyzed Seidel matrix and is used to settle
    main angles in the ambiguous floating band.
    """
    w = np.asarray(eigenvalues, dtype=np.float64)
    V = np.asarray(eigenvectors, dtype=np.complex128)
    n = len(w)
    if n == 0 or V.shape != (n, n):
        raise InputError("eigenvalues and eigenvectors have mismatched shapes")
    if not (np.isfinite(w).all() and np.isfinite(V).all()):
        raise InputError("group_spectrum needs finite eigenvalues and eigenvectors")
    order = np.argsort(w, kind="stable")
    w = w[order]
    V = V[:, order]

    radius = max(1.0, float(np.abs(w).max()))
    gap_tol = CLUSTER_GAP_FACTOR * radius
    wl = w.tolist()
    clusters = cluster(wl, gap_tol)

    warnings = []
    for a, b in zip(clusters, clusters[1:]):
        gap = wl[b[0]] - wl[a[-1]]
        if gap < 10 * gap_tol:
            warnings.append(
                f"ambiguous clustering: gap {gap:.3e} near tau={wl[a[-1]]:.6f} "
                f"is within a factor 10 of the tolerance {gap_tol:.3e}")

    # The bits of a numpy-scalar loop: np.mean of one point is 0.0 + point, and
    # squares add in order (builtin sum is compensated from Python 3.12 on).
    proj = (V.conj().T @ np.ones(n)).tolist()
    taus, betas = [], []
    for idx in clusters:
        taus.append(0.0 + wl[idx[0]] if len(idx) == 1 else float(np.mean(w[idx])))
        acc = 0.0
        for k in idx:
            acc += abs(proj[k]) ** 2
        betas.append(math.sqrt(acc / n))

    if abs(sum(b * b for b in betas) - 1.0) > SUM_BETA_SQ_TOL:
        raise InternalConsistencyError("main angle squares do not sum to |j|^2 / n")

    flags = _resolve_mainness(taus, betas, exact_s2, tol, gap_tol)
    lines = tuple(SpectralLine(t, len(idx), b, f)
                  for t, idx, b, f in zip(taus, clusters, betas, flags))
    return Spectrum(n, lines, gap_tol, tuple(warnings))


def spectrum_of(T: Tournament, tol: Tolerances = DEFAULT_TOLERANCES) -> Spectrum:
    """Grouped Seidel spectrum of a tournament, with the exact cross-check wired in."""
    w, V = eigensystem(seidel_matrix(T))
    return group_spectrum(w, V, exact_s2=seidel_squared(T), tol=tol)
