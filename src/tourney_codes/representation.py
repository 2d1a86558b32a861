"""Minimum embedding dimension for unit-vector models of tournaments.

A tournament on n vertices is modelled by n unit vectors in C^d whose
Hermitian inner product equals one fixed angle alpha (Im alpha > 0) along
every arc.  The least such d is determined by the Seidel spectrum and the
main angles alone, through a four-way case split on the smallest
eigenvalue tau_1, its multiplicity m_1, and the main angles beta_1,
beta_2.  The witness matrix is the Gram matrix G = I + alpha A +
conj(alpha) A^T, which at the optimal alpha is positive semidefinite of
rank exactly the embedding dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import InputError, InternalConsistencyError
from .spectral import (DEFAULT_TOLERANCES, Spectrum, Tolerances, eigensystem,
                       exact_integer_eigenvalue, exact_ones_resolvent, group_spectrum,
                       seidel_matrix)
from .tournament import Tournament, adjacency, pair_bits, seidel_squared, upper_pairs

GRAM_PSD_FLOOR = 1e-8      # scaled by n
GRAM_RANK_CUT = 1e-7       # scaled by the largest Gram eigenvalue
EMBED_TOL = 1e-7
C2_BOUNDARY_FACTOR = 1e-10  # relative to the absolute term sum of c2


class TypeVariant(IntEnum):
    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3
    TYPE4 = 4


@dataclass(frozen=True)
class TypeClass:
    """Case split of a tournament Seidel spectrum.

    TYPE1: beta_1 = 0.
    TYPE2: beta_1 > 0 and m_1 > 1.
    TYPE3: m_1 = 1, beta_2 = 0 and c_2 < 0.
    TYPE4: everything else.
    c1 is set for TYPE1 only, c2 for TYPE3 only.
    """

    variant: TypeVariant
    tau1: float
    m1: int
    tau2: float
    m2: int
    c1: float | None = None
    c2: float | None = None


@dataclass(frozen=True)
class RepReport:
    """What analyze finds; tournament is the tournament it was found for."""

    n: int
    type_class: TypeClass
    rep_dim: int
    alpha: complex
    spectrum: Spectrum
    tournament: Tournament = field(compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class Embedding:
    """Unit vectors, one per vertex, as rows of an (n, d) complex array.

    report is the analysis the embedding was built from, and max_deviation
    the worst deviation embed's verification measured; both are None on
    an embedding built by hand.
    """

    dimension: int
    vectors: np.ndarray
    alpha: complex
    report: RepReport | None = None
    max_deviation: float | None = None


@dataclass(frozen=True)
class EmbeddingVerdict:
    passed: bool
    max_deviation: float


def _boundary_c2(tau2: float, exact_s2: np.ndarray) -> float:
    """Settle the sign of c2 when its floating terms cancel to noise.

    c2 equals tau2 times the resolvent of the squared Seidel matrix at
    tau2^2 against the all-ones vector, so an integer tau2^2 admits an
    exact rational verdict.  Other boundary cases cannot be decided in
    floating point and are reported as inconsistencies rather than
    silently classified.
    """
    sigma = tau2 * tau2
    k = round(sigma)
    if abs(sigma - k) > 1e-6 * max(1.0, sigma):
        raise InternalConsistencyError(
            f"c2 cancels to floating noise and tau2^2 = {sigma:.12g} is not "
            "an integer, so its sign cannot be settled exactly")
    if k == 0:
        return 0.0
    if not exact_integer_eigenvalue(exact_s2, k):
        raise InternalConsistencyError(
            f"tau2^2 rounds to {k}, which is not an exact eigenvalue of the "
            "squared Seidel matrix")
    resolvent = exact_ones_resolvent(exact_s2, k)
    if resolvent is None:
        raise InternalConsistencyError(
            f"the all-ones vector sees tau2^2 = {k}, contradicting beta_2 = 0")
    return tau2 * float(resolvent)


def classify_type(spectrum: Spectrum, exact_s2: np.ndarray) -> TypeClass:
    """Assign the four-way type from a grouped Seidel spectrum.

    The cases are checked in order 1, 2, 3, 4; they are mutually
    exclusive and exhaustive.  exact_s2 is the integer square of the
    underlying Seidel matrix; it settles the sign of c2 exactly when the
    floating sum lands on the zero boundary.
    """
    if spectrum.n < 2:
        raise InputError("type classification needs at least two vertices")
    lines = spectrum.lines
    if len(lines) < 2:
        raise InternalConsistencyError("a tournament Seidel spectrum has at least two eigenvalues")
    n = spectrum.n
    tau1, m1 = lines[0].tau, lines[0].mult
    tau2, m2 = lines[1].tau, lines[1].mult

    if not lines[0].main:
        c1 = sum(n * l.beta ** 2 / (l.tau - tau1) for l in lines[1:])
        if c1 <= 0:
            raise InternalConsistencyError(f"c1 = {c1:g} must be positive when beta_1 = 0")
        return TypeClass(TypeVariant.TYPE1, tau1, m1, tau2, m2, c1=c1)
    if m1 > 1:
        return TypeClass(TypeVariant.TYPE2, tau1, m1, tau2, m2)
    if not lines[1].main:
        terms = [n * lines[0].beta ** 2 / (tau1 - tau2)]
        terms += [n * l.beta ** 2 / (l.tau - tau2) for l in lines[2:]]
        c2 = sum(terms)
        if abs(c2) <= C2_BOUNDARY_FACTOR * max(1.0, sum(abs(t) for t in terms)):
            c2 = _boundary_c2(tau2, exact_s2)
        if c2 < 0:
            return TypeClass(TypeVariant.TYPE3, tau1, m1, tau2, m2, c2=c2)
    return TypeClass(TypeVariant.TYPE4, tau1, m1, tau2, m2)


def _rep_dim(n: int, tc: TypeClass) -> int:
    if tc.variant is TypeVariant.TYPE1:
        return n - tc.m1 - 1
    if tc.variant is TypeVariant.TYPE2:
        return n - tc.m1
    if tc.variant is TypeVariant.TYPE3:
        return n - tc.m2 - 1
    return n - 1


def _optimal_angle(tc: TypeClass) -> complex:
    if tc.variant is TypeVariant.TYPE1:
        alpha = (1.0 - 1j * tc.c1) / (1.0 + tc.c1 * tc.tau1)
    elif tc.variant is TypeVariant.TYPE3:
        alpha = (1.0 - 1j * tc.c2) / (1.0 + tc.c2 * tc.tau2)
    else:
        alpha = complex(0.0, -1.0 / tc.tau1)
    if alpha.imag < 0:
        # The angle set {alpha, conj(alpha)} is conjugation symmetric, so
        # the representative is normalized to the upper half plane.
        alpha = alpha.conjugate()
    # normalize away negative zeros so reports serialize identically
    return complex(alpha.real + 0.0, alpha.imag + 0.0)


def analyze(T: Tournament, tol: Tolerances = DEFAULT_TOLERANCES) -> RepReport:
    """Type, minimum embedding dimension, and optimal angle of a tournament."""
    if T.n < 2:
        raise InputError("a single point has no angle set; n >= 2 required")
    s2 = seidel_squared(T)
    w, V = eigensystem(seidel_matrix(T))
    spectrum = group_spectrum(w, V, exact_s2=s2, tol=tol)
    tc = classify_type(spectrum, s2)
    rep = _rep_dim(T.n, tc)
    if not 1 <= rep <= T.n - 1:
        raise InternalConsistencyError(f"embedding dimension {rep} out of range for n={T.n}")
    alpha = _optimal_angle(tc)
    if not alpha.imag > 0:
        raise InternalConsistencyError(
            f"optimal angle {alpha} is real; a two-value angle set needs a "
            "nonreal angle")
    return RepReport(T.n, tc, rep, alpha, spectrum, T)


def gram_matrix(T: Tournament, alpha: complex) -> np.ndarray:
    """G = I + alpha A + conj(alpha) A^T."""
    A = adjacency(T)
    return np.eye(T.n, dtype=np.complex128) + alpha * A + np.conj(alpha) * A.T


def _rank_cutoff(w: np.ndarray, expected_rank: int) -> float:
    # w: the ascending eigenvalues of a Gram matrix.  Returns the cutoff
    # below which an eigenvalue counts as zero, after checking that the
    # matrix is positive semidefinite with exactly expected_rank above it.
    n = len(w)
    if w[0] < -GRAM_PSD_FLOOR * n:
        raise InternalConsistencyError(
            f"Gram matrix has negative eigenvalue {w[0]:g} at the optimal angle")
    cutoff = GRAM_RANK_CUT * max(float(w[-1]), GRAM_RANK_CUT)
    zeros = int(np.count_nonzero(w < cutoff))
    if zeros != n - expected_rank:
        raise InternalConsistencyError(
            f"Gram rank {n - zeros} disagrees with predicted dimension {expected_rank}")
    return cutoff


def embed(T: Tournament) -> Embedding:
    """Explicit unit vectors realizing the minimum dimension.

    The Gram matrix at the optimal angle is factorized through its
    eigendecomposition; the embedding is verified before being returned,
    and carries the deviation its verification measured.
    """
    report = analyze(T)
    w, U = np.linalg.eigh(gram_matrix(T, report.alpha))
    keep = w >= _rank_cutoff(w, report.rep_dim)
    vectors = U[:, keep].conj() * np.sqrt(w[keep])
    emb = Embedding(report.rep_dim, vectors, report.alpha, report)
    verdict = verify_embedding(emb, T)
    if not verdict.passed:
        raise InternalConsistencyError(
            f"embedding verification failed with deviation {verdict.max_deviation:g}")
    return Embedding(report.rep_dim, vectors, report.alpha, report, verdict.max_deviation)


def verify_embedding(emb: Embedding, T: Tournament) -> EmbeddingVerdict:
    """Check unit norms and that every arc u -> v has <u, v> = alpha.

    The inner product is conjugate-linear in the first argument.  Returns
    the worst deviation over norms and angles, which passes within EMBED_TOL.
    """
    X = np.asarray(emb.vectors, dtype=np.complex128)
    if X.ndim != 2 or X.shape[0] != T.n:
        raise InputError(f"embedding has {X.shape[0] if X.ndim == 2 else '?'} vectors, "
                         f"tournament has {T.n} vertices")
    # A huge or infinite coordinate overflows or makes inf - inf in the
    # products; the NaN or inf it leaves fails the verdict, so numpy need
    # not warn of it.
    with np.errstate(invalid="ignore", over="ignore"):
        inner = X.conj() @ X.T
        worst = [np.abs(np.diag(inner).real - 1.0).max(), np.abs(np.diag(inner).imag).max()]
        if T.n > 1:
            rows, cols = upper_pairs(T.n)
            arcs = pair_bits(T) == 1
            d = inner[rows, cols] - np.where(arcs, emb.alpha, np.conj(emb.alpha))
            # hypot rounds exactly as the scalar abs() of one complex value
            # does; np.abs on an array can differ from it in the last bit.
            worst.append(np.hypot(d.real, d.imag).max())
    # np.max keeps a NaN, which fails the verdict; builtin max may drop it.
    deviation = float(np.max(worst))
    return EmbeddingVerdict(deviation <= EMBED_TOL, deviation)
