"""Spectral layer: eigensystems, main angle grouping, the exact rational
cross-checks, the rank-one-shift characteristic identity, and interlacing."""

import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from tourney_codes import spectral
from tourney_codes import (DEFAULT_TOLERANCES, CharIdentityResult, InputError,
                           InternalConsistencyError, Tolerances, Tournament, analyze,
                           char_identity_residual, d_optimal_block, delete_vertex,
                           dominated_extension, eigensystem,
                           exact_integer_eigenvalue, exact_ones_resolvent,
                           group_spectrum, paley_tournament, parse_line,
                           random_tournament, seidel_matrix, seidel_squared,
                           shifted_main_spectrum, spectrum_of)

SQRT3 = math.sqrt(3.0)

# Both tournaments sit exactly on the c2 = 0 boundary: six O(1) terms of
# the c2 sum cancel, and only the exact resolvent settles the sign.
BOUNDARY_LINES = ("7:000000000000001000011", "7:000001000000001001011")

# The whole [0, 0.99] band is ambiguous, so every main angle below 0.99
# is settled by the exact route alone.
WIDE_BAND = Tolerances(beta_exact_lo=0.0, beta_exact_hi=0.99)


# ---------------------------------------------------------------- matrices


def test_seidel_matrix_two_vertices(two_vertex):
    S = seidel_matrix(two_vertex)
    assert np.allclose(S, [[0, 1j], [-1j, 0]])


def test_seidel_matrix_is_hermitian_random():
    rng = random.Random(41)
    for _ in range(10):
        S = seidel_matrix(random_tournament(rng.randrange(2, 9), rng))
        assert np.abs(S - S.conj().T).max() == 0


def test_seidel_matrix_square_matches_integer_square(cycle3, paley7):
    for T in (cycle3, paley7):
        S = seidel_matrix(T)
        assert np.allclose((S @ S).real, seidel_squared(T))
        assert np.abs((S @ S).imag).max() < 1e-15


# ------------------------------------------------------------- eigensystem


def test_eigensystem_zero_matrix():
    w, V = eigensystem(np.zeros((3, 3)))
    assert np.allclose(w, 0)
    assert np.allclose(V.conj().T @ V, np.eye(3))


def test_eigensystem_two_vertex(two_vertex):
    w, _ = eigensystem(seidel_matrix(two_vertex))
    assert np.allclose(w, [-1, 1])


def test_eigensystem_cycle(cycle3):
    w, V = eigensystem(seidel_matrix(cycle3))
    assert np.allclose(w, [-SQRT3, 0, SQRT3], atol=1e-12)
    H = seidel_matrix(cycle3)
    assert np.abs(H @ V - V @ np.diag(w)).max() < 1e-12


def test_eigensystem_paley_seven(paley7):
    w, _ = eigensystem(seidel_matrix(paley7))
    root7 = math.sqrt(7.0)
    assert np.allclose(w, [-root7] * 3 + [0] + [root7] * 3, atol=1e-9)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(InputError, match="Hermitian"):
        eigensystem([[0, 1], [0, 0]])


def test_eigensystem_rejects_non_square():
    with pytest.raises(InputError):
        eigensystem(np.zeros((2, 3)))
    with pytest.raises(InputError):
        eigensystem(np.zeros((0, 0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_eigensystem_rejects_non_finite_entries(bad):
    # Every comparison with NaN is False, so NaN would pass the Hermitian,
    # residual and orthonormality checks unnoticed.
    with pytest.raises(InputError, match="finite"):
        eigensystem([[bad, 0], [0, 1]])


# ---------------------------------------------------------- main angles


def test_cycle_main_angles(cycle3):
    spec = spectrum_of(cycle3)
    assert spec.multiplicities() == (1, 1, 1)
    mains = {round(l.tau, 9): l.main for l in spec.lines}
    assert mains == {round(-SQRT3, 9): False, 0.0: True, round(SQRT3, 9): False}
    ms = spec.main_spectrum()
    assert ms.taus == pytest.approx((0.0,), abs=1e-12)
    assert ms.betas == pytest.approx((1.0,), abs=1e-12)


def test_transitive_main_angles(transitive3):
    # Frozen from the analytic eigenbasis: the kernel direction is
    # (1, -1, 1)/sqrt(3), so beta(0) = |1 - 1 + 1| / 3 = 1/3 and the
    # remaining weight 8/9 splits evenly over the pair +-sqrt(3).
    spec = spectrum_of(transitive3)
    by_tau = {round(l.tau, 6): l for l in spec.lines}
    assert by_tau[0.0].beta == pytest.approx(1 / 3, abs=1e-12)
    assert by_tau[round(SQRT3, 6)].beta ** 2 == pytest.approx(4 / 9, abs=1e-12)
    assert by_tau[round(-SQRT3, 6)].beta ** 2 == pytest.approx(4 / 9, abs=1e-12)
    assert all(l.main for l in spec.lines)


def test_two_vertex_main_angles(two_vertex):
    spec = spectrum_of(two_vertex)
    assert [l.beta for l in spec.lines] == pytest.approx([2 ** -0.5] * 2)
    assert all(l.main for l in spec.lines)


def test_paley_seven_main_angles(paley7):
    spec = spectrum_of(paley7)
    assert spec.multiplicities() == (3, 1, 3)
    assert [l.main for l in spec.lines] == [False, True, False]
    assert spec.lines[1].beta == pytest.approx(1.0, abs=1e-12)


def test_group_spectrum_rejects_bad_shapes():
    with pytest.raises(InputError):
        group_spectrum([0.0, 1.0], np.eye(3))


@pytest.mark.parametrize("where", ["eigenvalue", "eigenvector"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_group_spectrum_rejects_non_finite_input(where, bad):
    w, V = np.array([-1.0, 1.0]), np.eye(2, dtype=complex)
    {"eigenvalue": w, "eigenvector": V}[where][0] = bad
    with pytest.raises(InputError, match="finite"):
        group_spectrum(w, V)


def test_grouping_stable_under_tiny_perturbation(cycle3):
    rng = np.random.default_rng(99)
    noise = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    noise = (noise + noise.conj().T) * 5e-13
    w, V = eigensystem(seidel_matrix(cycle3) + noise)
    spec = group_spectrum(w, V)
    assert spec.multiplicities() == (1, 1, 1)
    assert [l.main for l in spec.lines] == [False, True, False]
    assert spec.lines[1].beta == pytest.approx(1.0, abs=1e-5)


def test_ambiguous_gap_is_flagged():
    # A gap inside [tol, 10 tol) separates the clusters but is close
    # enough to the threshold that the grouping must carry a warning.
    w, V = eigensystem(np.diag([0.0, 5e-7, 1.0]))
    spec = group_spectrum(w, V)
    assert spec.multiplicities() == (1, 1, 1)
    assert len(spec.warnings) == 1
    assert "ambiguous clustering" in spec.warnings[0]


def test_sub_tolerance_gap_merges():
    w, V = eigensystem(np.diag([0.0, 5e-8, 1.0]))
    spec = group_spectrum(w, V)
    assert spec.multiplicities() == (2, 1)
    assert spec.lines[0].tau == pytest.approx(2.5e-8, abs=1e-12)
    assert not spec.warnings


# ------------------------------------ the scalar loop against numpy scalars


def _group_spectrum_reference(eigenvalues, eigenvectors, *, exact_s2=None,
                              tol=DEFAULT_TOLERANCES):
    """group_spectrum as a loop over numpy scalars, kept as the reference."""
    w = np.asarray(eigenvalues, dtype=np.float64)
    V = np.asarray(eigenvectors, dtype=np.complex128)
    n = len(w)
    if n == 0 or V.shape != (n, n):
        raise InputError("eigenvalues and eigenvectors have mismatched shapes")
    order = np.argsort(w, kind="stable")
    w = w[order]
    V = V[:, order]

    radius = max(1.0, float(np.abs(w).max()))
    gap_tol = spectral.CLUSTER_GAP_FACTOR * radius
    clusters = spectral.cluster(w, gap_tol)

    warnings = []
    for a, b in zip(clusters, clusters[1:]):
        gap = w[b[0]] - w[a[-1]]
        if gap < 10 * gap_tol:
            warnings.append(
                f"ambiguous clustering: gap {gap:.3e} near tau={w[a[-1]]:.6f} "
                f"is within a factor 10 of the tolerance {gap_tol:.3e}")

    proj = V.conj().T @ np.ones(n)
    taus, mults, betas = [], [], []
    for idx in clusters:
        taus.append(float(np.mean(w[idx])))
        mults.append(len(idx))
        betas.append(float(np.sqrt(sum(abs(proj[k]) ** 2 for k in idx) / n)))

    if abs(sum(b * b for b in betas) - 1.0) > spectral.SUM_BETA_SQ_TOL:
        raise InternalConsistencyError("main angle squares do not sum to |j|^2 / n")

    flags = spectral._resolve_mainness(taus, betas, exact_s2, tol, gap_tol)
    lines = tuple(spectral.SpectralLine(t, m, b, f)
                  for t, m, b, f in zip(taus, mults, betas, flags))
    return spectral.Spectrum(n, lines, gap_tol, tuple(warnings))


def _spectrum_bits(spec):
    floats = [x for l in spec.lines for x in (l.tau, l.beta)] + [spec.cluster_tol]
    return (spec.n, struct.pack(f"<{len(floats)}d", *floats), spec.multiplicities(),
            tuple(l.main for l in spec.lines), spec.warnings)


def _assert_same_bits(w, V, s2=None):
    want = _group_spectrum_reference(w, V, exact_s2=s2)
    got = group_spectrum(w, V, exact_s2=s2)
    assert _spectrum_bits(got) == _spectrum_bits(want)
    # The CLI writer prints these with %r and %d, so they must be Python scalars.
    assert all(type(l.tau) is float and type(l.beta) is float and type(l.mult) is int
               for l in got.lines)


def _tournament_cases(classes_by_order):
    cases = [T for n in sorted(classes_by_order) for T in classes_by_order[n]]
    rng = random.Random(20261018)
    for n in list(range(2, 41)) + [50, 60, 75, 94, 100, 120]:
        cases += [random_tournament(n, rng) for _ in range(12)]
    for q in (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83):
        P = paley_tournament(q)
        cases += [P, dominated_extension(P), delete_vertex(P, 0)]
        if q <= 47:
            cases.append(d_optimal_block(P, P))
    return cases


def test_group_spectrum_matches_numpy_scalar_loop_on_tournaments(classes_by_order):
    for T in _tournament_cases(classes_by_order):
        w, V = eigensystem(seidel_matrix(T))
        _assert_same_bits(w, V, s2=seidel_squared(T))


def test_group_spectrum_matches_numpy_scalar_loop_on_hermitian_matrices():
    rng = np.random.default_rng(20261018)
    for k in range(400):
        n = int(rng.integers(1, 30))
        H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H = H + H.conj().T
        if k % 3 == 0:
            H = np.round(H)
        elif k % 3 == 1:  # few distinct eigenvalues, each repeated
            Q, _ = np.linalg.qr(H)
            H = (Q * rng.integers(-2, 3, size=n)) @ Q.conj().T
        w, V = np.linalg.eigh(H)
        _assert_same_bits(w, V)


def test_group_spectrum_matches_numpy_scalar_loop_at_edges():
    # np.mean of one point adds it to 0.0, which turns -0.0 into 0.0.
    for x in (-0.0, 0.0, 5e-324, -5e-324, 1.0):
        _assert_same_bits(np.array([x]), np.eye(1))
    _assert_same_bits(np.array([-0.0, -0.0, 1.0]), np.eye(3))
    assert math.copysign(1.0, group_spectrum([-0.0], np.eye(1)).lines[0].tau) == 1.0
    # a gap that draws a warning, and one that merges two eigenvalues
    for gap in (5e-7, 5e-8):
        w, V = eigensystem(np.diag([0.0, gap, 1.0]))
        _assert_same_bits(w, V)


def test_group_spectrum_matches_numpy_scalar_loop_on_random_bits():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def tournaments(draw):
        n = draw(st.integers(2, 64))
        return Tournament(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(tournaments())
    def check(T):
        w, V = eigensystem(seidel_matrix(T))
        _assert_same_bits(w, V, s2=seidel_squared(T))

    check()


# ------------------------------------------------------ exact cross-checks


def test_wide_ambiguity_band_resolved_exactly(cycle3, transitive3):
    spec = spectrum_of(cycle3, tol=WIDE_BAND)
    assert [l.main for l in spec.lines] == [False, True, False]
    spec = spectrum_of(transitive3, tol=WIDE_BAND)
    assert [l.main for l in spec.lines] == [True, True, True]


def test_clear_float_contradicting_exact_spectrum_raises(cycle3):
    # beta = 1 at tau = 0 is clearly main, but 3I sees only sigma = 3 on
    # its ones-vector cycle, so the two routes disagree and neither may
    # be silently preferred.
    w, V = eigensystem(seidel_matrix(cycle3))
    with pytest.raises(InternalConsistencyError, match="contradicts"):
        group_spectrum(w, V, exact_s2=3 * np.eye(3, dtype=int), tol=WIDE_BAND)


def _verdicts(report):
    return (tuple(l.main for l in report.spectrum.lines), report.type_class.variant,
            report.rep_dim)


def test_wide_band_agrees_with_default_tolerances_at_larger_orders():
    # Floating root matching at a relative 1e-4 misread main angles here.
    rng = random.Random(64)
    for n in (56, 64, 64):
        T = random_tournament(n, rng)
        assert _verdicts(analyze(T, WIDE_BAND)) == _verdicts(analyze(T)), T.line()


def test_wide_band_agrees_with_default_tolerances_on_random_bits():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def tournaments(draw):
        n = draw(st.integers(2, 48))
        return Tournament(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(tournaments())
    def check(T):
        assert _verdicts(analyze(T, WIDE_BAND)) == _verdicts(analyze(T))

    check()


def test_non_partners_sharing_a_bracket_are_refused():
    # Two clusters 1.5e-7 apart: their tau^2 brackets overlap, but they are
    # not the two signs of one eigenvalue of S^2.
    w = np.array([1.0, 1.0 + 1.5e-7])
    with pytest.raises(InternalConsistencyError, match="too close"):
        group_spectrum(w, np.eye(2), exact_s2=np.eye(2, dtype=int), tol=WIDE_BAND)


def test_root_outside_every_bracket_is_refused(transitive3):
    # The all-ones vector sees 0, 3 and 5 under diag(0, 3, 5), but the
    # floating spectrum only brackets tau^2 = 0 and 3.
    w, V = eigensystem(seidel_matrix(transitive3))
    with pytest.raises(InternalConsistencyError, match="2 brackets hold a root"):
        group_spectrum(w, V, exact_s2=np.diag([0, 3, 5]), tol=WIDE_BAND)


def test_exact_polynomial_beyond_float_range_is_evaluated_exactly(monkeypatch):
    # A positive scale leaves every sign, and so every verdict, unchanged.
    T = random_tournament(12, random.Random(12))
    want = spectrum_of(T, WIDE_BAND)
    krylov = spectral._krylov_minimal_polynomial
    calls = []

    def scaled(matrix):
        p, moments = krylov(matrix)
        calls.append(p)
        return [c * 10 ** 400 for c in p], moments

    monkeypatch.setattr(spectral, "_krylov_minimal_polynomial", scaled)
    got = spectrum_of(T, WIDE_BAND)
    assert len(calls) == 1 and len(calls[0]) > 2
    assert [l.main for l in got.lines] == [l.main for l in want.lines]


def test_exact_integer_eigenvalue_paley(paley7):
    s2 = seidel_squared(paley7)
    assert [k for k in range(8) if exact_integer_eigenvalue(s2, k)] == [0, 7]


def test_exact_integer_eigenvalue_transitive(transitive3):
    s2 = seidel_squared(transitive3)
    assert [k for k in range(5) if exact_integer_eigenvalue(s2, k)] == [0, 3]


def test_exact_integer_eigenvalue_rejects_non_square():
    with pytest.raises(InputError):
        exact_integer_eigenvalue([[1, 2, 3], [4, 5, 6]], 1)


def test_exact_resolvent_cycle(cycle3):
    # S^2 = 3I - J kills j, so the minimal polynomial on the ones-vector
    # cycle is x and the resolvent is -n / k away from the pole at 0.
    s2 = seidel_squared(cycle3)
    assert exact_ones_resolvent(s2, 0) is None
    assert exact_ones_resolvent(s2, 1) == Fraction(-3)
    assert exact_ones_resolvent(s2, 3) == Fraction(-1)


def test_exact_resolvent_transitive(transitive3):
    s2 = seidel_squared(transitive3)
    assert exact_ones_resolvent(s2, 0) is None
    assert exact_ones_resolvent(s2, 3) is None
    assert exact_ones_resolvent(s2, 1) == Fraction(1)


def test_exact_resolvent_paley_seven(paley7):
    s2 = seidel_squared(paley7)
    assert exact_ones_resolvent(s2, 0) is None
    assert exact_ones_resolvent(s2, 7) == Fraction(-1)
    assert exact_ones_resolvent(s2, 2) == Fraction(-7, 2)


def test_exact_resolvent_matches_float_solve():
    rng = random.Random(7311)
    for _ in range(8):
        T = random_tournament(rng.randrange(3, 8), rng)
        s2 = seidel_squared(T)
        k = rng.choice([1, 2, 5, -1])
        got = exact_ones_resolvent(s2, k)
        if got is None:
            continue
        j = np.ones(len(s2))
        want = j @ np.linalg.solve(np.asarray(s2, float) - k * np.eye(len(s2)), j)
        assert float(got) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("line", BOUNDARY_LINES)
def test_boundary_tournaments_have_exact_zero_resolvent(line):
    # tau_2 = -sqrt(3) for both, so sigma = 3; the resolvent vanishing
    # there is what pins c2 to exactly zero.
    s2 = seidel_squared(parse_line(line))
    assert exact_ones_resolvent(s2, 3) == Fraction(0)


@pytest.mark.parametrize("matrix", [
    [[1, 2, 3], [4, 5, 6]],   # not square
    [[1, 2], [3, 4], [5, 6]],
    [[1, 2], [3]],            # ragged
    [1, 2],                   # not 2-D
    [[0.5, 1], [1, 0]],       # non-integral, not to be truncated to a pole
    [[1, "2"], [3, 4]],
])
def test_exact_helpers_refuse_malformed_matrices(matrix):
    with pytest.raises(InputError, match="square matrix of integers"):
        exact_ones_resolvent(matrix, 1)
    with pytest.raises(InputError, match="square matrix of integers"):
        exact_integer_eigenvalue(matrix, 1)
    with pytest.raises(InputError, match="square matrix of integers"):
        group_spectrum([-1.0, 1.0], np.eye(2), exact_s2=matrix, tol=WIDE_BAND)


def test_exact_helpers_keep_square_integer_answers():
    empty = np.zeros((0, 0), dtype=int)
    assert exact_ones_resolvent(empty, 1) == 0
    assert not exact_integer_eigenvalue(empty, 0)
    assert exact_ones_resolvent([[1, 2], [3, 4]], 1.5) == Fraction(12, 29)
    assert exact_ones_resolvent([[2.0, 0], [0, 2]], 1) == Fraction(2)
    big = np.array([[10 ** 30]], dtype=object)
    assert exact_ones_resolvent(big, 0) == Fraction(1, 10 ** 30)
    assert not exact_integer_eigenvalue([[1, 0], [0, 2]], 1.5)
    assert type(exact_ones_resolvent([[3]], 1)) is Fraction


def _krylov_by_fractions(matrix):
    """The Krylov polynomial by elimination over Fraction, kept as the reference."""
    rows = [[int(x) for x in row] for row in np.asarray(matrix)]
    n = len(rows)
    v = [1] * n
    moments = []
    echelon = []
    k = 0
    while True:
        moments.append(sum(v))
        vec = [Fraction(x) for x in v]
        expr = [Fraction(0)] * (k + 1)
        expr[k] = Fraction(1)
        for pivot, rvec, rexpr in echelon:
            c = vec[pivot]
            if c:
                vec = [a - c * b for a, b in zip(vec, rvec)]
                expr = [a - c * (rexpr[i] if i < len(rexpr) else Fraction(0))
                        for i, a in enumerate(expr)]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            return expr, moments
        inv = Fraction(1) / vec[pivot]
        echelon.append((pivot, [x * inv for x in vec], [x * inv for x in expr]))
        v = [sum(rows[i][t] * v[t] for t in range(n)) for i in range(n)]
        k += 1


def _eigenvalue_by_fractions(matrix, value):
    """exact_integer_eigenvalue by elimination over Fraction, kept as the reference."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(matrix)]
    n = len(rows)
    for i in range(n):
        rows[i][i] -= value
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return True
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, n):
            c = rows[r][col] * inv
            if c:
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[col])]
    return False


def _integer_matrices():
    """Seeded integer matrices with n <= 10: symmetric and not, each with and
    without a row forced dependent, and the zero, 1x1 and 0x0 matrices."""
    rng = random.Random(10)
    out = [np.zeros((0, 0), dtype=int), np.zeros((4, 4), dtype=int),
           np.array([[0]]), np.array([[5]]), np.array([[-3]])]
    for n in range(1, 11):
        for symmetric in (False, True):
            for singular in (False, True):
                M = np.array([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                if symmetric:
                    M = np.triu(M) + np.triu(M, 1).T
                if singular and n > 1:
                    # E's last row combines the rows before it, so E M and
                    # the symmetric E M E^T are singular.
                    E = np.eye(n, dtype=int)
                    E[-1] = 0
                    E[-1, 0] = rng.choice((-2, -1, 1, 2))
                    E[-1, (n - 1) // 2] += rng.choice((-1, 1))
                    M = E @ M @ E.T if symmetric else E @ M
                out.append(M)
    return out


def _tournament_squares(classes_by_order):
    """S^2 of every class with n <= 7, of Paley q <= 23 with its dominated
    extension and one deleted vertex, and of random tournaments up to n=32."""
    cases = [T for n in range(2, 8) for T in classes_by_order[n]]
    for q in (3, 7, 11, 19, 23):
        P = paley_tournament(q)
        cases += [P, dominated_extension(P), delete_vertex(P, 0)]
    rng = random.Random(1968)
    cases += [random_tournament(n, rng) for n in (8, 16, 24, 32)]
    return [seidel_squared(T) for T in cases]


def test_krylov_polynomial_and_resolvents_match_fraction_reference(classes_by_order,
                                                                   monkeypatch):
    shifts = [-1, 0, 1, 2, 3, 7, Fraction(3, 2)]
    poles = 0
    for M in _integer_matrices() + _tournament_squares(classes_by_order):
        p, moments = spectral._krylov_minimal_polynomial(M)
        want, want_moments = _krylov_by_fractions(M)
        assert all(type(c) is int for c in p) and p[-1] != 0
        assert [Fraction(c, p[-1]) for c in p] == want
        assert moments == want_moments
        got = [exact_ones_resolvent(M, k) for k in shifts]
        with monkeypatch.context() as patched:
            patched.setattr(spectral, "_krylov_minimal_polynomial",
                            lambda _: (want, want_moments))
            assert got == [exact_ones_resolvent(M, k) for k in shifts]
        poles += got.count(None)
    assert poles > 100


def test_eigenvalue_verdicts_match_fraction_reference():
    hits = 0
    for M in _integer_matrices():
        # Every eigenvalue lies within the largest absolute row sum.
        r = int(np.abs(M).sum(axis=1).max(initial=0))
        for k in range(-r - 1, r + 2):
            got = exact_integer_eigenvalue(M, k)
            assert got == _eigenvalue_by_fractions(M, k), (M, k)
            hits += got
    assert hits > 20


def test_eigenvalue_verdicts_on_tournament_squares_match_fraction_reference(
        classes_by_order):
    # S^2 is symmetric with spectrum in [0, w[-1]].  Only an integer within
    # 1/2 of a floating eigenvalue can be one, so the slow reference runs
    # there, and every other integer of the range must be refused.
    hits = 0
    for M in _tournament_squares(classes_by_order):
        w = np.linalg.eigvalsh(M.astype(float))
        near = {round(x) for x in w.tolist()}
        for k in range(-1, math.ceil(w[-1]) + 2):
            got = exact_integer_eigenvalue(M, k)
            assert got == (_eigenvalue_by_fractions(M, k) if k in near else False), (M, k)
            hits += got
    assert hits > 500


# ------------------------------------------------- characteristic identity


def test_char_identity_zero_shift_collapses(cycle3):
    res = char_identity_residual(seidel_matrix(cycle3), 0.0, [5.0, -2.5])
    assert res.max_residual <= 1e-12
    assert res.evaluated == 2


def test_char_identity_cycle_point(cycle3):
    res = char_identity_residual(seidel_matrix(cycle3), 1.0, [5.0])
    assert isinstance(res, CharIdentityResult)
    assert res.max_residual <= 1e-9
    assert res.evaluated == 1 and not res.skipped


def test_char_identity_skips_samples_at_eigenvalues(cycle3):
    res = char_identity_residual(seidel_matrix(cycle3), 1.0, [0.0, 4.0])
    assert res.skipped == (0.0,)
    assert res.evaluated == 1


def test_char_identity_random_suite():
    rng = random.Random(260819)
    worst = 0.0
    for _ in range(30):
        T = random_tournament(rng.randrange(2, 9), rng)
        a = rng.choice([-1, 1]) * rng.uniform(0.2, 3.0)
        xs = [rng.uniform(-12, 12) for _ in range(20)]
        res = char_identity_residual(seidel_matrix(T), a, xs)
        worst = max(worst, res.max_residual)
    assert worst <= 1e-8


def test_char_identity_rejects_non_hermitian():
    with pytest.raises(InputError, match="Hermitian"):
        char_identity_residual([[0, 1], [0, 0]], 1.0, [2.0])


# --------------------------------------------------------------- shifts


def test_shift_two_vertex_analytic(two_vertex):
    # S + J = [[1, 1+i], [1-i, 1]] has eigenvalues 1 +- sqrt(2), both
    # main, strictly interlacing the mains -1, 1 of S from the right.
    ms, verdict = shifted_main_spectrum(seidel_matrix(two_vertex), 1.0)
    assert ms.taus == pytest.approx((1 - math.sqrt(2), 1 + math.sqrt(2)), abs=1e-9)
    assert verdict.ok
    assert (verdict.main_count_h, verdict.main_count_m) == (2, 2)


def test_shift_two_vertex_negative_direction(two_vertex):
    ms, verdict = shifted_main_spectrum(seidel_matrix(two_vertex), -1.0)
    assert ms.taus == pytest.approx((-1 - math.sqrt(2), -1 + math.sqrt(2)), abs=1e-9)
    assert verdict.ok


def test_shift_zero_rejected(two_vertex):
    with pytest.raises(InputError, match="nonzero"):
        shifted_main_spectrum(seidel_matrix(two_vertex), 0.0)


def test_shift_cycle_frozen_values(cycle3):
    # The lone main root moves from 0 to 3 (where 1 + 3/(0 - x) vanishes)
    # and keeps the full weight, since j stays an eigenvector.
    ms, verdict = shifted_main_spectrum(seidel_matrix(cycle3), 1.0)
    assert ms.taus == pytest.approx((3.0,), abs=1e-9)
    assert ms.betas == pytest.approx((1.0,), abs=1e-9)
    assert verdict.ok and verdict.main_count_m == 1


def test_shift_preserves_non_main_eigenvalues(cycle3):
    w, _ = eigensystem(seidel_matrix(cycle3) + 0.7 * np.ones((3, 3)))
    assert sorted(abs(abs(x) - SQRT3) < 1e-9 for x in w) == [False, True, True]


def test_shift_random_suite():
    rng = random.Random(8312)
    for _ in range(30):
        T = random_tournament(rng.randrange(2, 8), rng)
        a = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        ms, verdict = shifted_main_spectrum(seidel_matrix(T), a)
        assert verdict.ok, verdict.violations
        assert verdict.main_count_h == verdict.main_count_m
        assert list(ms.taus) == sorted(ms.taus)


# ------------------------------------------------------------- invariants


def test_spectrum_invariants_all_small_orders(classes_by_order):
    for n in range(2, 7):
        for T in classes_by_order[n]:
            spec = spectrum_of(T)
            taus = spec.taus()
            assert sum(spec.multiplicities()) == n
            # the spectrum is symmetric about zero, with matching angles
            betas = {round(-t, 6): l.beta for t, l in zip(taus, spec.lines)}
            for t, line in zip(taus, spec.lines):
                assert -t in [pytest.approx(x, abs=1e-7) for x in taus]
                assert betas[round(t, 6)] == pytest.approx(line.beta, abs=1e-6)
            total = sum(l.beta ** 2 for l in spec.lines)
            assert total == pytest.approx(1.0, abs=1e-8)
            energy = sum(l.mult * l.tau ** 2 for l in spec.lines)
            assert energy == pytest.approx(n * (n - 1), abs=1e-6 * n * n)
            if n % 2:
                assert min(abs(t) for t in taus) <= 1e-7
            else:
                assert min(abs(t) for t in taus) > 1e-3
