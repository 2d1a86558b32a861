"""Spectral layer: eigensystems, main angle grouping, the exact rational
cross-checks, the rank-one-shift characteristic identity, and interlacing."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tourney_codes import spectral
from tourney_codes import (CharIdentityResult, InputError,
                           InternalConsistencyError, Tolerances,
                           char_identity_residual, eigensystem,
                           exact_integer_eigenvalue, exact_ones_resolvent,
                           group_spectrum, paley_tournament, parse_line,
                           random_tournament, seidel_matrix, seidel_squared,
                           shifted_main_spectrum, spectrum_of)

SQRT3 = math.sqrt(3.0)

# Both tournaments sit exactly on the c2 = 0 boundary: six O(1) terms of
# the c2 sum cancel, and only the exact resolvent settles the sign.
BOUNDARY_LINES = ("7:000000000000001000011", "7:000001000000001001011")


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


def test_spectrum_json_shape(cycle3):
    d = spectrum_of(cycle3).to_json_dict()
    assert set(d) == {"eigenvalues"}
    assert [e["mult"] for e in d["eigenvalues"]] == [1, 1, 1]
    assert all(set(e) == {"tau", "mult", "beta"} for e in d["eigenvalues"])


def test_group_spectrum_rejects_bad_shapes():
    with pytest.raises(InputError):
        group_spectrum([0.0, 1.0], np.eye(3))
    with pytest.raises(InputError):
        group_spectrum([0.0, 1.0], np.eye(2), j_vector=[1.0, 1.0, 1.0])


def test_group_spectrum_custom_j_vector(cycle3):
    # Projecting onto an eigenvector concentrates the whole (rescaled)
    # weight |j|^2 / n on its own line.
    w, V = eigensystem(seidel_matrix(cycle3))
    spec = group_spectrum(w, V, j_vector=V[:, 0])
    betas = [l.beta for l in spec.lines]
    assert betas[0] == pytest.approx(3 ** -0.5, abs=1e-12)
    assert betas[1] == pytest.approx(0.0, abs=1e-9)
    assert betas[2] == pytest.approx(0.0, abs=1e-9)


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


# ------------------------------------------------------ exact cross-checks


def test_wide_ambiguity_band_resolved_exactly(cycle3, transitive3):
    # With the whole [0, 0.99] band declared ambiguous, main angles are
    # settled by the rational spectrum of the integer matrix S^2 alone.
    wide = Tolerances(beta_exact_lo=0.0, beta_exact_hi=0.99)
    spec = spectrum_of(cycle3, tol=wide)
    assert [l.main for l in spec.lines] == [False, True, False]
    spec = spectrum_of(transitive3, tol=wide)
    assert [l.main for l in spec.lines] == [True, True, True]


def test_clear_float_contradicting_exact_spectrum_raises(cycle3):
    # beta = 1 at tau = 0 is clearly main, but 3I sees only sigma = 3 on
    # its ones-vector cycle, so the two routes disagree and neither may
    # be silently preferred.
    w, V = eigensystem(seidel_matrix(cycle3))
    wide = Tolerances(beta_exact_lo=0.0, beta_exact_hi=0.99)
    with pytest.raises(InternalConsistencyError, match="contradicts"):
        group_spectrum(w, V, exact_s2=3 * np.eye(3, dtype=int), tol=wide)


def test_oversized_exact_polynomial_is_consistency_error(monkeypatch, paley7):
    # Near n = 300 the exact coefficients leave floating range; that must
    # surface as an internal consistency error, not an OverflowError.
    monkeypatch.setattr(spectral, "_krylov_minimal_polynomial",
                        lambda rows: [Fraction(10 ** 400), Fraction(1)])
    wide = Tolerances(beta_exact_lo=0.0, beta_exact_hi=0.99)
    with pytest.raises(InternalConsistencyError, match="floating range"):
        spectrum_of(paley7, wide)


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
