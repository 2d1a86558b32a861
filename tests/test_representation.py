"""Dimension layer: the four-way type split, optimal angles, Gram witnesses,
explicit embeddings, and the shift that exposes the dimension."""

import cmath
import math
import random

import numpy as np
import pytest

from tourney_codes import codes, representation, spectral, tournament
from tourney_codes import (Embedding, InputError, InternalConsistencyError,
                           TypeVariant, analyze, classify_type, d_optimal_block,
                           embed, gram_matrix, multiplicity_profile,
                           optimal_alpha, paley_tournament, parse_line,
                           random_tournament, relabel, rep_dimension,
                           spectrum_of, switch, verify_embedding, witness_shift)

SQRT3 = math.sqrt(3.0)
SQRT7 = math.sqrt(7.0)

BOUNDARY_LINES = ("7:000000000000001000011", "7:000001000000001001011")


@pytest.fixture(scope="module")
def block6():
    p3 = paley_tournament(3)
    return d_optimal_block(p3, p3)


# --------------------------------------------------------------- type split


def test_cycle_is_type_one(cycle3):
    r = analyze(cycle3)
    assert r.type_class.variant is TypeVariant.TYPE1
    assert r.rep_dim == 1
    assert r.type_class.c1 == pytest.approx(SQRT3, abs=1e-9)
    assert r.alpha == pytest.approx((-1 + SQRT3 * 1j) / 2, abs=1e-9)


def test_paley_seven_is_type_one(paley7):
    r = analyze(paley7)
    assert r.type_class.variant is TypeVariant.TYPE1
    assert r.rep_dim == 3
    assert r.type_class.c1 == pytest.approx(SQRT7, abs=1e-9)
    assert r.alpha == pytest.approx((-1 + SQRT7 * 1j) / 6, abs=1e-9)


def test_order_four_skew_class_is_type_two():
    r = analyze(parse_line("4:111010"))
    assert r.type_class.variant is TypeVariant.TYPE2
    assert r.type_class.m1 == 2
    assert r.rep_dim == 2
    assert r.alpha == pytest.approx(1j / SQRT3, abs=1e-9)


def test_block_construction_is_type_three(block6):
    r = analyze(block6)
    assert r.type_class.variant is TypeVariant.TYPE3
    assert r.rep_dim == 3
    assert r.type_class.c2 == pytest.approx(-SQRT3, abs=1e-9)
    assert r.alpha == pytest.approx((1 + SQRT3 * 1j) / 4, abs=1e-9)


def test_transitive_three_is_type_four(transitive3):
    r = analyze(transitive3)
    assert r.type_class.variant is TypeVariant.TYPE4
    assert r.rep_dim == 2
    # alpha = -i / tau_1 with tau_1 = -sqrt(3)
    assert r.alpha == pytest.approx(1j / SQRT3, abs=1e-9)


def test_two_vertex_report(two_vertex):
    r = analyze(two_vertex)
    assert r.type_class.variant is TypeVariant.TYPE4
    assert r.rep_dim == 1
    assert r.alpha == pytest.approx(1j, abs=1e-12)


def test_single_vertex_rejected():
    with pytest.raises(InputError):
        analyze(parse_line("1:"))


def test_helper_accessors_match_analyze(paley7):
    r = analyze(paley7)
    assert rep_dimension(paley7) == r.rep_dim
    assert optimal_alpha(paley7) == r.alpha


def test_report_json_fields(cycle3, block6):
    d = analyze(cycle3).to_json_dict()
    assert d["n"] == 3 and d["type"] == 1 and d["rep_dim"] == 1
    assert set(d["alpha"]) == {"re", "im"}
    assert "c1" in d and "c2" not in d
    d = analyze(block6).to_json_dict()
    assert d["type"] == 3 and "c2" in d and "c1" not in d


def test_type_conditions_are_disjoint_and_ordered(classes_by_order):
    # The three defining predicates are recomputed here straight from the
    # grouped spectrum, independent of classify_type's own branching, and
    # must be pairwise exclusive with the assigned type matching the
    # first that holds.
    for n in range(3, 7):
        for T in classes_by_order[n]:
            spec = spectrum_of(T)
            lines = spec.lines
            r = analyze(T)
            p1 = not lines[0].main
            p2 = lines[0].main and lines[0].mult > 1
            p3 = False
            if lines[0].mult == 1 and not lines[1].main:
                tau2 = lines[1].tau
                c2 = n * lines[0].beta ** 2 / (lines[0].tau - tau2)
                c2 += sum(n * l.beta ** 2 / (l.tau - tau2) for l in lines[2:])
                p3 = c2 < 0
            assert p1 + p2 + p3 <= 1
            expected = 1 if p1 else 2 if p2 else 3 if p3 else 4
            assert int(r.type_class.variant) == expected


def test_alpha_always_upper_half_plane(classes_by_order):
    for n in range(2, 7):
        for T in classes_by_order[n]:
            assert analyze(T).alpha.imag > 0


def test_absolute_bound_all_small_orders(classes_by_order):
    for n in range(2, 7):
        for T in classes_by_order[n]:
            d = rep_dimension(T)
            assert n <= (2 * d + 1 if d % 2 else 2 * d)


# ------------------------------------------------------------ Gram witness


def test_gram_eigenvalues_cycle(cycle3):
    G = gram_matrix(cycle3, optimal_alpha(cycle3), expected_rank=1)
    assert np.linalg.eigvalsh(G) == pytest.approx([0, 0, 3], abs=1e-9)


def test_gram_eigenvalues_skew_class():
    T = parse_line("4:111010")
    G = gram_matrix(T, optimal_alpha(T), expected_rank=2)
    assert np.linalg.eigvalsh(G) == pytest.approx([0, 0, 2, 2], abs=1e-9)


def test_gram_eigenvalues_paley_seven(paley7):
    G = gram_matrix(paley7, optimal_alpha(paley7), expected_rank=3)
    assert np.linalg.eigvalsh(G) == pytest.approx([0] * 4 + [7 / 3] * 3, abs=1e-9)


def test_gram_eigenvalues_block(block6):
    G = gram_matrix(block6, optimal_alpha(block6), expected_rank=3)
    assert np.linalg.eigvalsh(G) == pytest.approx([0, 0, 0, 1.5, 1.5, 3], abs=1e-9)


def test_gram_rank_mismatch_raises(cycle3):
    with pytest.raises(InternalConsistencyError, match="rank"):
        gram_matrix(cycle3, optimal_alpha(cycle3), expected_rank=2)


def test_gram_rejects_non_psd_angle(cycle3):
    # far from the optimal angle the witness matrix picks up a negative
    # eigenvalue, which the rank check must refuse to certify
    with pytest.raises(InternalConsistencyError, match="negative"):
        gram_matrix(cycle3, -0.9j, expected_rank=1)


# -------------------------------------------------------------- embeddings


def test_embed_fixtures(cycle3, transitive3, two_vertex, paley7, block6):
    for T in (cycle3, transitive3, two_vertex, paley7, block6):
        emb = embed(T)
        assert emb.dimension == rep_dimension(T)
        assert emb.vectors.shape == (T.n, emb.dimension)
        norms = np.linalg.norm(emb.vectors, axis=1)
        assert norms == pytest.approx(np.ones(T.n), abs=1e-9)
        verdict = verify_embedding(emb, T)
        assert verdict.passed and verdict.max_deviation < 1e-9


def test_embed_all_small_orders(classes_by_order):
    for n in range(2, 6):
        for T in classes_by_order[n]:
            emb = embed(T)
            assert emb.dimension == rep_dimension(T)


def test_verify_embedding_flags_perturbation(paley7):
    emb = embed(paley7)
    rng = np.random.default_rng(4242)
    noise = rng.normal(size=emb.vectors.shape) * 1e-3
    bent = Embedding(emb.dimension, emb.vectors + noise, emb.alpha)
    verdict = verify_embedding(bent, paley7)
    assert not verdict.passed
    assert 1e-4 < verdict.max_deviation < 1e-2


def _max_deviation_by_pairs(emb, T):
    """The scalar per-pair loop, kept as the reference for verify_embedding."""
    X = np.asarray(emb.vectors, dtype=np.complex128)
    inner = X.conj() @ X.T
    deviation = float(np.abs(np.diag(inner).real - 1.0).max())
    deviation = max(deviation, float(np.abs(np.diag(inner).imag).max()))
    for u in range(T.n):
        for v in range(u + 1, T.n):
            want = emb.alpha if T.arc(u, v) else np.conj(emb.alpha)
            deviation = max(deviation, abs(inner[u, v] - want))
    return deviation


def test_verify_embedding_deviation_is_bit_equal_to_pair_loop(classes_by_order, paley7):
    rng = random.Random(31)
    tournaments = [T for n in range(2, 6) for T in classes_by_order[n]]
    tournaments += [paley7] + [random_tournament(n, rng) for n in (20, 20, 33)]
    noise = np.random.default_rng(9)
    for T in tournaments:
        emb = embed(T)
        for scale in (0.0, 1e-12, 1e-6, 1e-2):
            shape = emb.vectors.shape
            bent = Embedding(emb.dimension, emb.vectors + scale * (
                noise.normal(size=shape) + 1j * noise.normal(size=shape)), emb.alpha)
            got = verify_embedding(bent, T).max_deviation
            assert got == _max_deviation_by_pairs(bent, T), (T.line(), scale)


def test_embedding_carries_its_analysis(paley7):
    emb = embed(paley7)
    assert emb.report == analyze(paley7)
    assert emb.report.matrices.tournament == paley7


def test_verify_embedding_builds_no_adjacency_matrix(monkeypatch, paley7):
    emb = embed(paley7)
    calls = []
    real = tournament.adjacency

    def counted(T):
        calls.append(T)
        return real(T)

    for module in (tournament, spectral, representation, codes):
        if vars(module).get("adjacency") is real:
            monkeypatch.setattr(module, "adjacency", counted)
    assert verify_embedding(emb, paley7).passed
    assert calls == []


def test_verify_embedding_wrong_vertex_count(cycle3, paley7):
    with pytest.raises(InputError, match="vectors"):
        verify_embedding(embed(cycle3), paley7)


def test_negating_a_vector_is_switching():
    # flipping the sign of one vector conjugates its inner products; for
    # a purely imaginary angle that is exactly arc reversal at the vertex
    T = parse_line("4:111010")
    emb = embed(T)
    flipped = emb.vectors.copy()
    flipped[2] = -flipped[2]
    bent = Embedding(emb.dimension, flipped, emb.alpha)
    assert not verify_embedding(bent, T).passed
    assert verify_embedding(bent, switch(T, [2])).passed


def test_isomorphic_tournaments_agree(block6, paley7):
    rng = random.Random(31415)
    for T in (block6, paley7):
        perm = list(range(T.n))
        rng.shuffle(perm)
        other = relabel(T, perm)
        a, b = analyze(T), analyze(other)
        assert a.rep_dim == b.rep_dim
        assert int(a.type_class.variant) == int(b.type_class.variant)
        assert a.alpha == pytest.approx(b.alpha, abs=1e-9)


# ------------------------------------------------------- boundary handling


@pytest.mark.parametrize("line", BOUNDARY_LINES)
def test_c2_boundary_classified_type_four(line):
    # c2 sums to exactly zero here, so the strict c2 < 0 gate must fail
    # and the class falls through to the default case.
    T = parse_line(line)
    r = analyze(T)
    assert r.type_class.variant is TypeVariant.TYPE4
    assert r.rep_dim == 6
    assert r.type_class.c2 is None
    emb = embed(T)
    assert emb.dimension == 6
    assert verify_embedding(emb, T).passed


@pytest.mark.parametrize("line", BOUNDARY_LINES)
def test_c2_boundary_needs_exact_matrix(line):
    spec = spectrum_of(parse_line(line))
    with pytest.raises(InternalConsistencyError, match="floating noise"):
        classify_type(spec)


# ---------------------------------------------------------------- witness


def test_witness_shift_values(cycle3, paley7, block6, transitive3):
    assert witness_shift(analyze(cycle3)) == pytest.approx(-1 / SQRT3, abs=1e-9)
    assert witness_shift(analyze(paley7)) == pytest.approx(-1 / SQRT7, abs=1e-9)
    assert witness_shift(analyze(block6)) == pytest.approx(1 / SQRT3, abs=1e-9)
    assert witness_shift(analyze(transitive3)) == 0.0


def test_witness_shift_attains_codimension(cycle3, transitive3, two_vertex,
                                           paley7, block6):
    for T in (cycle3, transitive3, two_vertex, paley7, block6):
        r = analyze(T)
        ((_, mult),) = multiplicity_profile(T, [witness_shift(r)])
        assert mult == T.n - r.rep_dim


def test_multiplicity_profile_cycle(cycle3):
    prof = multiplicity_profile(cycle3, [0.0, -1 / SQRT3])
    assert [m for _, m in prof] == [1, 2]
    assert prof[1][0] == pytest.approx(-1 / SQRT3)


def test_shift_multiplicity_never_exceeds_codimension(classes_by_order):
    rng = random.Random(555)
    for n in range(3, 6):
        for T in classes_by_order[n]:
            r = analyze(T)
            shifts = [rng.uniform(-3, 3) for _ in range(20)]
            for _, mult in multiplicity_profile(T, shifts):
                assert mult <= T.n - r.rep_dim
