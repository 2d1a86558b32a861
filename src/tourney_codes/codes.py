"""Tightness certificates for tournament angle sets.

A tournament embedded in dimension d gives n unit vectors with one mutual
angle; n is bounded by 2d + 1 for odd d and by 2d for even d.  Equality
in the odd case happens exactly for doubly regular tournaments, in the
even case exactly when I + A - A^T is a skew Hadamard matrix.  One short
of the odd bound (n = 2d, d odd) splits into two mutually exclusive
shapes: a doubly regular tournament with one vertex deleted, or a
tournament whose squared Seidel matrix is diag(kI + lJ, kI + lJ).

Each certificate is one comparison of the integer matrix
S^2 = KK^T, K = A - A^T, with a closed form:

- DRT: S^2 = nI - J;
- SkewHadamard: S^2 = (n - 1)I;
- DrtMinusVertex: S'^2 = (n + 1)I - J for the degree-forced one-vertex
  extension, that is, the extension is a DRT;
- BlockForm: S^2 = diag(kI + lJ, kI + lJ) after relabelling, k, l > 0.

Catalogs of doubly regular tournaments and the counts of tight codes are
in _catalog, which the package loads on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalConsistencyError
from .representation import RepReport, TypeVariant
from .tournament import Tournament, _with_vertex, adjacency, seidel_squared


@dataclass(frozen=True)
class DrtParams:
    """Order, common out-degree, and common out-neighbor count."""

    n: int
    out_degree: int
    common_out_neighbors: int


@dataclass(frozen=True)
class BlockFormCert:
    """Witness that S^2 = diag(kI + lJ, kI + lJ) for positive k, l."""

    k: int
    l: int
    partition: tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class TightnessReport:
    n: int
    rep_dim: int
    bound: int
    is_tight: bool
    certificate_kind: str     # DRT | SkewHadamard | DrtMinusVertex | BlockForm | None
    drt_params: DrtParams | None = None
    block_form: BlockFormCert | None = None


def _square_is(T: Tournament, k: int, l: int) -> bool:
    """True iff S^2 = kI + lJ."""
    return bool(np.array_equal(seidel_squared(T), k * np.eye(T.n, dtype=np.int64) + l))


def is_doubly_regular(T: Tournament) -> DrtParams | None:
    """Parameters of a doubly regular tournament, or None.

    Doubly regular means every vertex has the same out-degree and every
    ordered vertex pair has the same number of common out-neighbors.
    """
    # S^2 = nI - J gives S^2 j = 0, so |K^T j|^2 = 0 and T is regular.  A
    # regular tournament has S^2 = 4AA^T + (n - 4k)J - I, so S^2 = nI - J
    # exactly when AA^T = ((n + 1)/4)I + ((n - 3)/4)J, which needs n = 3
    # mod 4 and fixes both parameters.
    if T.n % 4 != 3 or not _square_is(T, T.n, -1):
        return None
    return DrtParams(T.n, (T.n - 1) // 2, (T.n - 3) // 4)


def skew_hadamard_check(T: Tournament) -> bool:
    """True iff H = I + A - A^T satisfies H H^T = nI (and H + H^T = 2I).

    With K = A - A^T skew, H H^T = (I + K)(I - K) = I - K^2 = I + S^2, so
    the test reads S^2 = (n - 1)I.
    """
    return _square_is(T, T.n - 1, 0)


def block_form_check(T: Tournament) -> BlockFormCert | None:
    """Certificate that S^2 = diag(kI + lJ, kI + lJ) with k, l > 0, or None.

    The two diagonal blocks must cover n/2 vertices each and share the
    same off-diagonal value l; k = n - 1 - l follows from the diagonal.
    """
    if T.n % 2:
        raise InputError(f"block form check needs an even vertex count, got n={T.n}")
    n = T.n
    if n < 4:
        # Halves of one vertex have no off-diagonal entry to carry l.
        return None
    S2 = seidel_squared(T)
    # In a block form, row 0 of S^2 is nonzero exactly on vertex 0's block,
    # and l is its entry at any other member of that block.
    block = S2[0] != 0
    first = np.flatnonzero(block).tolist()
    if len(first) != n // 2:
        return None
    l = int(S2[0, first[1]])
    k = n - 1 - l
    if l <= 0 or k <= 0 or not np.array_equal(
            S2, k * np.eye(n, dtype=np.int64) + l * np.equal.outer(block, block)):
        return None
    second = np.flatnonzero(~block).tolist()
    # A block form forces each half to induce a regular subtournament of
    # odd order; a violation here is a bug, not a property of the input.
    d = n // 2
    if d % 2 == 0:
        raise InternalConsistencyError(
            f"block form found with even half size {d}")
    A = adjacency(T)
    for comp in (first, second):
        degrees = set(A[np.ix_(comp, comp)].sum(axis=1).tolist())
        if degrees != {(d - 1) // 2}:
            raise InternalConsistencyError(
                f"block {comp} does not induce a regular subtournament")
    return BlockFormCert(k, l, (tuple(first), tuple(second)))


def _forced_extension(T: Tournament) -> Tournament | None:
    # In a doubly regular tournament of order n + 1 every out-degree is
    # n/2, so the orientation of each arc at the new vertex is forced.
    A = adjacency(T)
    degrees = A.sum(axis=1)
    target = T.n // 2
    if not ((degrees == target) | (degrees == target - 1)).all():
        return None
    return _with_vertex(A, degrees == target - 1)


def _deleted_drt_spectrum(report: RepReport) -> bool:
    # The spectral signature of a doubly regular tournament with one vertex
    # deleted: eigenvalues -theta, -1, 1, theta with theta^2 = n + 1,
    # multiplicities d-1, 1, 1, d-1, and a zero bottom main angle.
    n = report.n
    d = n // 2
    lines = report.spectrum.lines
    if len(lines) != 4:
        return False
    if [l.mult for l in lines] != [d - 1, 1, 1, d - 1]:
        return False
    theta_sq = lines[3].tau ** 2
    phi_sq = lines[2].tau ** 2
    if abs(theta_sq - (n + 1)) > 1e-6 * (n + 1) or abs(phi_sq - 1.0) > 1e-6:
        return False
    return report.type_class.variant is TypeVariant.TYPE1


def drt_minus_vertex_check(T: Tournament) -> bool:
    """True iff some one-vertex extension of T is doubly regular.

    The extension is degree-forced, so the search is exact and cheap.
    """
    if T.n % 2:
        raise InputError(f"deleted-vertex check needs an even vertex count, got n={T.n}")
    if (T.n + 1) % 4 != 3:
        return False
    ext = _forced_extension(T)
    return ext is not None and is_doubly_regular(ext) is not None


def _expect_shape(report: RepReport, mults: list[int], variant: TypeVariant,
                  context: str) -> None:
    spectrum_mults = list(report.spectrum.multiplicities())
    if spectrum_mults != mults or report.type_class.variant is not variant:
        raise InternalConsistencyError(
            f"{context}: spectrum multiplicities {spectrum_mults} with type "
            f"{int(report.type_class.variant)} do not match the required shape "
            f"{mults} with type {int(variant)}")


def classify_code(report: RepReport) -> TightnessReport:
    """Tightness report with a structural certificate for report.tournament.

    Tight odd-dimension codes must be doubly regular; tight even-dimension
    codes must pass the skew Hadamard check; one short of the odd bound
    exactly one of the deleted-vertex and block-form certificates applies.
    report is what analyze returns.  Each certificate is checked once
    against its spectrum shape; the deleted-vertex one must hold exactly
    when the spectrum has its signature.  Any disagreement raises
    InternalConsistencyError.
    """
    T = report.tournament
    if T.n < 3:
        raise InputError(f"tightness classification needs n >= 3, got n={T.n}")
    d = report.rep_dim
    n = T.n
    bound = 2 * d + 1 if d % 2 else 2 * d
    is_tight = n == bound
    kind = "None"
    drt = None
    block = None
    if is_tight and d % 2:
        drt = is_doubly_regular(T)
        if drt is None:
            raise InternalConsistencyError(
                f"tight code in odd dimension {d} without double regularity")
        kind = "DRT"
        _expect_shape(report, [d, 1, d], TypeVariant.TYPE1, "tight odd dimension")
    elif is_tight:
        if not skew_hadamard_check(T):
            raise InternalConsistencyError(
                f"tight code in even dimension {d} without a skew Hadamard matrix")
        kind = "SkewHadamard"
        _expect_shape(report, [d, d], TypeVariant.TYPE2, "tight even dimension")
    elif n == 2 * d and d % 2:
        deleted = drt_minus_vertex_check(T)
        if _deleted_drt_spectrum(report) != deleted:
            raise InternalConsistencyError(
                "spectral signature and forced-extension search disagree on "
                f"the deleted-vertex check for n={n}")
        block = block_form_check(T)
        if deleted == (block is not None):
            raise InternalConsistencyError(
                f"n = 2d with odd d = {d}: exactly one of the deleted-vertex and "
                "block-form certificates must apply")
        if deleted:
            kind = "DrtMinusVertex"
        else:
            kind = "BlockForm"
            _expect_shape(report, [1, d - 1, d - 1, 1], TypeVariant.TYPE3,
                          "block-form certificate")
    return TightnessReport(n, d, bound, is_tight, kind, drt, block)
