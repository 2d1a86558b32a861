"""Rank-one shifts M = H + aJ of a Hermitian matrix.

The characteristic identity det(M - xI) = det(H - xI)(1 + a sum_i
n beta_i^2 / (tau_i - x)), the interlacing of main spectra under a shift,
the smallest-eigenvalue multiplicity of aJ + S along a list of shifts, and
the shift that attains n - rep_dim.  analyze and embed use none of it, so
the package loads this module on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .representation import RepReport, TypeVariant
from .spectral import (CLUSTER_GAP_FACTOR, MainSpectrum, cluster, eigensystem,
                       group_spectrum, seidel_matrix)
from .tournament import Tournament

INTERLACING_SLACK = 1e-7


@dataclass(frozen=True)
class CharIdentityResult:
    """Worst relative defect of the rank-one-shift characteristic identity."""

    max_residual: float
    evaluated: int
    skipped: tuple[float, ...]


def char_identity_residual(H, a: float, x_samples) -> CharIdentityResult:
    """Check det(M - xI) = det(H - xI) (1 + a sum_i n beta_i^2 / (tau_i - x))
    for M = H + aJ at the given sample points.

    Both characteristic polynomials are evaluated as products over
    independently computed eigenvalues.  Samples closer to an eigenvalue
    of H than the skip tolerance are skipped and reported.
    """
    w_h, V = eigensystem(H)
    n = len(w_h)
    spec = group_spectrum(w_h, V)
    M = np.asarray(H, dtype=np.complex128) + a * np.ones((n, n))
    w_m, _ = eigensystem(M)

    radius = max(1.0, float(np.abs(w_h).max()))
    skip_tol = 1e-6 * radius
    max_residual = 0.0
    evaluated = 0
    skipped = []
    for x in x_samples:
        x = float(x)
        if float(np.abs(w_h - x).min()) <= skip_tol:
            skipped.append(x)
            continue
        p_h = float(np.prod(w_h - x))
        p_m = float(np.prod(w_m - x))
        correction = 1.0 + a * sum(
            n * line.beta ** 2 / (line.tau - x) for line in spec.lines)
        residual = abs(p_m - p_h * correction) / (1.0 + abs(p_h))
        max_residual = max(max_residual, residual)
        evaluated += 1
    return CharIdentityResult(max_residual, evaluated, tuple(skipped))


@dataclass(frozen=True)
class InterlacingVerdict:
    """Main-eigenvalue count comparison and strict interlacing check."""

    main_count_h: int
    main_count_m: int
    ok: bool
    violations: tuple[str, ...]


def shifted_main_spectrum(H, a: float) -> tuple[MainSpectrum, InterlacingVerdict]:
    """Main spectrum of M = H + aJ and its interlacing verdict against H.

    For a > 0 the main eigenvalues must satisfy tau_1 < mu_1 < tau_2 < ...
    < tau_r < mu_r; for a < 0 the mu come first.  A pair that should read
    lo < hi is recorded as a violation only when lo exceeds hi by more than
    INTERLACING_SLACK, so lo == hi passes.  Demanding a gap instead would
    flag true strict interlacing: a main eigenvalue whose beta is near
    BETA_ZERO_TOL moves by only about n |a| beta^2 under the shift, below 1e-7.
    """
    if a == 0:
        raise InputError("the shift a must be nonzero")
    w_h, V_h = eigensystem(H)
    n = len(w_h)
    main_h = group_spectrum(w_h, V_h).main_spectrum()
    M = np.asarray(H, dtype=np.complex128) + a * np.ones((n, n))
    w_m, V_m = eigensystem(M)
    main_m = group_spectrum(w_m, V_m).main_spectrum()

    violations = []
    if len(main_h.taus) != len(main_m.taus):
        violations.append(
            f"main eigenvalue counts differ: {len(main_h.taus)} for H, "
            f"{len(main_m.taus)} for the shift")
    else:
        if a > 0:
            pairs = list(zip(main_h.taus, main_m.taus))       # tau_k < mu_k
            shifted = list(zip(main_m.taus, main_h.taus[1:]))  # mu_k < tau_(k+1)
        else:
            pairs = list(zip(main_m.taus, main_h.taus))       # mu_k < tau_k
            shifted = list(zip(main_h.taus, main_m.taus[1:]))  # tau_k < mu_(k+1)
        for lo, hi in pairs + shifted:
            if lo - hi > INTERLACING_SLACK:
                violations.append(f"interlacing violated: expected {lo:.9f} < {hi:.9f}")
    verdict = InterlacingVerdict(len(main_h.taus), len(main_m.taus),
                                 not violations, tuple(violations))
    return main_m, verdict


def multiplicity_profile(T: Tournament, a_values) -> list[tuple[float, int]]:
    """Multiplicity of the smallest eigenvalue of aJ + S for each shift a."""
    S = seidel_matrix(T)
    J = np.ones((T.n, T.n))
    out = []
    for a in a_values:
        a = float(a)
        w = np.linalg.eigvalsh(a * J + S)
        gap_tol = CLUSTER_GAP_FACTOR * max(1.0, float(np.abs(w).max()))
        out.append((a, len(cluster(w.tolist(), gap_tol)[0])))
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
