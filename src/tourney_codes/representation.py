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
                       exact_integer_eigenvalue, exact_ones_resolvent,
                       seidel_matrix, spectrum_of)
from .tournament import Tournament, TournamentMatrices, adjacency, pair_bits, upper_pairs

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
    """What analyze finds; matrices are the tournament's shared matrices."""

    n: int
    type_class: TypeClass
    rep_dim: int
    alpha: complex
    spectrum: Spectrum
    matrices: TournamentMatrices | None = field(default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "type": int(self.type_class.variant),
            "rep_dim": self.rep_dim,
            "alpha": {"re": float(self.alpha.real), "im": float(self.alpha.imag)},
            "spectrum": self.spectrum.to_json_dict()["eigenvalues"],
        }
        if self.type_class.c1 is not None:
            out["c1"] = float(self.type_class.c1)
        if self.type_class.c2 is not None:
            out["c2"] = float(self.type_class.c2)
        return out


@dataclass(frozen=True, eq=False)
class Embedding:
    """Unit vectors, one per vertex, as rows of an (n, d) complex array.

    report is the analysis the embedding was built from, when known.
    """

    dimension: int
    vectors: np.ndarray
    alpha: complex
    report: RepReport | None = None


@dataclass(frozen=True)
class EmbeddingVerdict:
    passed: bool
    max_deviation: float


def _boundary_c2(tau2: float, exact_s2) -> float:
    """Settle the sign of c2 when its floating terms cancel to noise.

    c2 equals tau2 times the resolvent of the squared Seidel matrix at
    tau2^2 against the all-ones vector, so an integer tau2^2 admits an
    exact rational verdict.  Other boundary cases cannot be decided in
    floating point and are reported as inconsistencies rather than
    silently classified.
    """
    if exact_s2 is None:
        raise InternalConsistencyError(
            "c2 cancels to floating noise and no integer matrix is available "
            "to settle its sign")
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


def classify_type(spectrum: Spectrum, *, exact_s2=None) -> TypeClass:
    """Assign the four-way type from a grouped Seidel spectrum.

    The cases are checked in order 1, 2, 3, 4; they are mutually
    exclusive and exhaustive.  exact_s2, when given, must be the integer
    square of the underlying Seidel matrix; it settles the sign of c2
    exactly when the floating sum lands on the zero boundary.
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
    matrices = TournamentMatrices(T)
    spectrum = spectrum_of(T, tol, matrices=matrices)
    tc = classify_type(spectrum, exact_s2=matrices.seidel_squared)
    rep = _rep_dim(T.n, tc)
    if not 1 <= rep <= T.n - 1:
        raise InternalConsistencyError(f"embedding dimension {rep} out of range for n={T.n}")
    alpha = _optimal_angle(tc)
    if not alpha.imag > 0:
        raise InternalConsistencyError(
            f"optimal angle {alpha} is real; a two-value angle set needs a "
            "nonreal angle")
    return RepReport(T.n, tc, rep, alpha, spectrum, matrices)


def rep_dimension(T: Tournament, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    return analyze(T, tol).rep_dim


def optimal_alpha(T: Tournament, tol: Tolerances = DEFAULT_TOLERANCES) -> complex:
    return analyze(T, tol).alpha


def gram_matrix(T: Tournament, alpha: complex, expected_rank: int | None = None) -> np.ndarray:
    """G = I + alpha A + conj(alpha) A^T.

    With expected_rank given, G is verified positive semidefinite with
    exactly n - expected_rank eigenvalues below the rank cutoff; any
    disagreement raises InternalConsistencyError.
    """
    A = adjacency(T)
    G = np.eye(T.n, dtype=np.complex128) + alpha * A + np.conj(alpha) * A.T
    if expected_rank is not None:
        w = np.linalg.eigvalsh(G)
        if w[0] < -GRAM_PSD_FLOOR * T.n:
            raise InternalConsistencyError(
                f"Gram matrix has negative eigenvalue {w[0]:g} at the optimal angle")
        cutoff = GRAM_RANK_CUT * max(float(w[-1]), GRAM_RANK_CUT)
        zeros = int(np.count_nonzero(w < cutoff))
        if zeros != T.n - expected_rank:
            raise InternalConsistencyError(
                f"Gram rank {T.n - zeros} disagrees with predicted dimension {expected_rank}")
    return G


def embed(T: Tournament, tol: Tolerances = DEFAULT_TOLERANCES) -> Embedding:
    """Explicit unit vectors realizing the minimum dimension.

    The Gram matrix at the optimal angle is factorized through its
    eigendecomposition; the embedding is verified before being returned.
    """
    report = analyze(T, tol)
    G = gram_matrix(T, report.alpha, expected_rank=report.rep_dim)
    w, U = np.linalg.eigh(G)
    cutoff = GRAM_RANK_CUT * max(float(w[-1]), GRAM_RANK_CUT)
    keep = w >= cutoff
    vectors = U[:, keep].conj() * np.sqrt(w[keep])
    emb = Embedding(int(keep.sum()), vectors, report.alpha, report)
    verdict = verify_embedding(emb, T)
    if not verdict.passed:
        raise InternalConsistencyError(
            f"embedding verification failed with deviation {verdict.max_deviation:g}")
    return emb


def verify_embedding(emb: Embedding, T: Tournament, tol: float = EMBED_TOL) -> EmbeddingVerdict:
    """Check unit norms and that every arc u -> v has <u, v> = alpha.

    The inner product is conjugate-linear in the first argument.  Returns
    the worst deviation over norms and angles.
    """
    X = np.asarray(emb.vectors, dtype=np.complex128)
    if X.ndim != 2 or X.shape[0] != T.n:
        raise InputError(f"embedding has {X.shape[0] if X.ndim == 2 else '?'} vectors, "
                         f"tournament has {T.n} vertices")
    inner = X.conj() @ X.T
    deviation = float(np.abs(np.diag(inner).real - 1.0).max())
    deviation = max(deviation, float(np.abs(np.diag(inner).imag).max()))
    if T.n > 1:
        rows, cols = upper_pairs(T.n)
        arcs = pair_bits(T) == 1
        d = inner[rows, cols] - np.where(arcs, emb.alpha, np.conj(emb.alpha))
        # hypot rounds exactly as the scalar abs() of one complex value does;
        # np.abs on an array can differ from it in the last bit.
        deviation = max(deviation, float(np.hypot(d.real, d.imag).max()))
    return EmbeddingVerdict(deviation <= tol, deviation)


def multiplicity_profile(T: Tournament, a_values,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> list[tuple[float, int]]:
    """Multiplicity of the smallest eigenvalue of aJ + S for each shift a."""
    S = seidel_matrix(T)
    J = np.ones((T.n, T.n))
    out = []
    for a in a_values:
        a = float(a)
        w = np.linalg.eigvalsh(a * J + S)
        gap_tol = tol.cluster_gap_factor * max(1.0, float(np.abs(w).max()))
        mult = 1
        while mult < len(w) and w[mult] - w[mult - 1] < gap_tol:
            mult += 1
        out.append((a, mult))
    return out


def witness_shift(report: RepReport) -> float:
    """The shift a at which aJ + S attains the maximum smallest-eigenvalue
    multiplicity n - rep_dim."""
    tc = report.type_class
    if tc.variant is TypeVariant.TYPE1:
        return -1.0 / tc.c1
    if tc.variant is TypeVariant.TYPE3:
        return -1.0 / tc.c2
    return 0.0
