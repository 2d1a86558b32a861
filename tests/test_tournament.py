"""Combinatorial layer: construction, matrices, isomorphism, enumeration,
switching, and the fixture constructions."""

import itertools
import math
import random

import numpy as np
import pytest

from conftest import ORDER4_LINES
from tourney_codes import (InputError, Tournament, add_vertex, adjacency, build,
                           canonical_form, canonical_representative, d_optimal_block,
                           delete_vertex, dominated_extension, enumerate_tournaments,
                           from_adjacency, paley_tournament, parse_catalog, parse_line,
                           random_tournament, relabel, seidel_matrix, seidel_squared,
                           switch, switching_class)
from tourney_codes._constructions import _out_masks
from tourney_codes.tournament import pair_index, upper_pairs

# Adjacency matrices of the four order-4 classes, written out in full.
ORDER4_MATRICES = [
    [[0, 1, 1, 1],
     [0, 0, 1, 1],
     [0, 0, 0, 1],
     [0, 0, 0, 0]],
    [[0, 1, 1, 1],
     [0, 0, 0, 1],
     [0, 1, 0, 0],
     [0, 0, 1, 0]],
    [[0, 0, 1, 1],
     [1, 0, 1, 0],
     [0, 0, 0, 1],
     [0, 1, 0, 0]],
    [[0, 0, 1, 1],
     [1, 0, 0, 1],
     [0, 1, 0, 1],
     [0, 0, 0, 0]],
]


def test_build_three_cycle_arcs(cycle3):
    assert cycle3.arc(0, 1) and cycle3.arc(1, 2) and cycle3.arc(2, 0)
    assert not cycle3.arc(1, 0)
    assert [cycle3.out_degree(v) for v in range(3)] == [1, 1, 1]


def test_build_transitive_three(transitive3):
    assert transitive3.arc(0, 1) and transitive3.arc(0, 2) and transitive3.arc(1, 2)
    assert [transitive3.out_degree(v) for v in range(3)] == [2, 1, 0]


def test_build_rejects_wrong_bit_count():
    with pytest.raises(InputError):
        build(3, "10")
    with pytest.raises(InputError):
        build(3, "1011")


def test_build_rejects_nonpositive_n():
    with pytest.raises(InputError):
        build(0, "")


def test_single_vertex_tournament():
    T = build(1, "")
    assert T.n == 1
    assert T.line() == "1:"


def test_parse_line_roundtrip():
    for line in ORDER4_LINES + ("1:", "2:1", "3:101"):
        assert parse_line(line).line() == line
    assert Tournament(1, 0).line() == "1:"
    # 19900 bits at n = 200, more digits than Python's decimal int/str limit of 4300
    rng = random.Random(200)
    for n in (1, 2, 100, 200):
        full = (1 << (n * (n - 1) // 2)) - 1
        for T in (random_tournament(n, rng), Tournament(n, 0), Tournament(n, full)):
            assert parse_line(T.line()) == T
            assert len(T.line()) == len(str(n)) + 1 + n * (n - 1) // 2


def test_build_error_messages_in_check_order():
    cases = [
        ((3, "1x1"), "arc bit string may contain only 0 and 1, got 'x'"),
        ((3, "1\u00e91"), "arc bit string may contain only 0 and 1, got '\u00e9'"),
        ((0, "x"), "arc bit string may contain only 0 and 1, got 'x'"),
        ((3, "1x"), "arc bit string may contain only 0 and 1, got 'x'"),
        ((0, ""), "a tournament needs at least one vertex, got n=0"),
        ((0, "1"), "a tournament needs at least one vertex, got n=0"),
        ((3, "10"), "n=3 needs 3 arc bits, got 2"),
    ]
    for args, message in cases:
        with pytest.raises(InputError) as info:
            build(*args)
        assert str(info.value) == message, args


def test_build_refuses_anything_but_a_bit_string():
    # the type is checked first, before the order
    cases = [(3, [1, 0, 1], "list"), (3, (1, 0, 1), "tuple"), (3, b"101", "bytes"),
             (3, np.array([1, 0, 1]), "ndarray"), (3, None, "NoneType"), (0, [2], "list")]
    for n, bits, kind in cases:
        with pytest.raises(InputError) as info:
            build(n, bits)
        assert str(info.value) == f"arc bits must be a string of 0 and 1, got {kind}", bits


def test_parse_line_errors():
    with pytest.raises(InputError):
        parse_line("3:10")
    with pytest.raises(InputError):
        parse_line("x:101")
    with pytest.raises(InputError):
        parse_line("3-101")
    # int() reads the fullwidth and Arabic-Indic digits 3 as 3
    for line in ("\uff13:101", "\u0663:101", "3\u0663:101"):
        with pytest.raises(InputError, match="malformed tournament line"):
            parse_line(line)


def test_parse_catalog_skips_comments_and_blanks():
    lines = ["# a catalog", "", "3:101", "  ", "# more", "2:1"]
    out = parse_catalog(lines)
    assert [T.line() for T in out] == ["3:101", "2:1"]
    assert parse_catalog(lines, numbered=True) == [(3, out[0]), (6, out[1])]


def test_parse_catalog_reports_line_number():
    with pytest.raises(InputError, match="line 3"):
        parse_catalog(["# ok", "3:101", "3:10"])


def test_from_adjacency_matches_fixture_lines():
    """The four printed matrices correspond to the fixture line strings."""
    for matrix, line in zip(ORDER4_MATRICES, ORDER4_LINES):
        assert from_adjacency(matrix).line() == line


def test_from_adjacency_rejects_non_tournament():
    with pytest.raises(InputError):
        from_adjacency([[0, 1], [1, 0]])
    with pytest.raises(InputError):
        from_adjacency([[0, 0], [0, 0]])


def test_adjacency_three_cycle(cycle3):
    expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert np.array_equal(adjacency(cycle3), expected)


def test_adjacency_axiom_random():
    rng = random.Random(4)
    for _ in range(25):
        T = random_tournament(rng.randint(1, 9), rng)
        A = adjacency(T)
        J = np.ones((T.n, T.n), dtype=np.int64)
        assert np.array_equal(A + A.T, J - np.eye(T.n, dtype=np.int64))


def _adjacency_by_arcs(T):
    """The per-arc definition of the adjacency matrix, kept as the reference."""
    A = np.zeros((T.n, T.n), dtype=np.int64)
    for u in range(T.n):
        for v in range(u + 1, T.n):
            if T.arc(u, v):
                A[u, v] = 1
            else:
                A[v, u] = 1
    return A


def test_adjacency_matches_arc_definition(classes_by_order):
    tournaments = [Tournament(1, 0)]
    tournaments += [T for n in range(2, 8) for T in classes_by_order[n]]
    rng = random.Random(2015)
    for n in (1, 2, 3, 4, 8, 9, 17, 64, 100):
        full = (1 << (n * (n - 1) // 2)) - 1
        tournaments += [Tournament(n, 0), Tournament(n, full)]
        tournaments += [random_tournament(n, rng) for _ in range(5)]
    for T in tournaments:
        A = adjacency(T)
        assert A.dtype == np.int64
        assert np.array_equal(A, _adjacency_by_arcs(T)), T.line()


def _codec_cases(classes_by_order):
    """Every class with n <= 7 and random tournaments up to n = 100."""
    cases = [Tournament(1, 0)] + [T for n in range(2, 8) for T in classes_by_order[n]]
    rng = random.Random(1015)
    cases += [random_tournament(n, rng) for n in (1, 2, 3, 8, 17, 64, 100) for _ in range(3)]
    return cases


def _build_by_arcs(n, arc_bits):
    """The per-bit definition of build, kept as the reference."""
    bits = 0
    for k, b in enumerate(arc_bits):
        if int(b):
            bits |= 1 << k
    return Tournament(n, bits)


def _bitstring_by_arcs(T):
    """The per-bit definition of Tournament.bitstring, kept as the reference."""
    return "".join("1" if (T.bits >> k) & 1 else "0" for k in range(T.num_pairs))


def _from_adjacency_by_arcs(A):
    """The per-pair definition of from_adjacency, kept as the reference."""
    n = len(A)
    return _build_by_arcs(n, [int(A[i][j]) for i in range(n) for j in range(i + 1, n)])


def _relabel_by_arcs(T, perm):
    """The per-arc definition of relabel, kept as the reference."""
    bits = 0
    for u in range(T.n):
        for v in range(u + 1, T.n):
            x, y = (u, v) if T.arc(u, v) else (v, u)
            if perm[x] < perm[y]:
                bits |= 1 << pair_index(perm[x], perm[y], T.n)
    return Tournament(T.n, bits)


def _switch_by_arcs(T, subset):
    """The per-pair definition of switch, kept as the reference."""
    bits = T.bits
    for u in range(T.n):
        for v in range(u + 1, T.n):
            if (u in subset) != (v in subset):
                bits ^= 1 << pair_index(u, v, T.n)
    return Tournament(T.n, bits)


def _delete_vertex_by_arcs(T, v):
    """The per-arc definition of delete_vertex, kept as the reference."""
    keep = [u for u in range(T.n) if u != v]
    return _build_by_arcs(T.n - 1, [1 if T.arc(keep[i], keep[j]) else 0
                                    for i in range(len(keep))
                                    for j in range(i + 1, len(keep))])


def _paley_by_arcs(q):
    """The per-pair definition of paley_tournament, kept as the reference."""
    residues = {(x * x) % q for x in range(1, q)}
    return _build_by_arcs(q, [1 if (j - i) % q in residues else 0
                              for i in range(q) for j in range(i + 1, q)])


def _d_optimal_block_by_arcs(T1, T2):
    """The per-arc definition of d_optimal_block, kept as the reference."""
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


def _out_masks_by_arcs(T):
    """The per-pair definition of the out-neighbour masks, kept as the reference."""
    masks = [0] * T.n
    for u in range(T.n):
        for v in range(u + 1, T.n):
            if T.arc(u, v):
                masks[u] |= 1 << v
            else:
                masks[v] |= 1 << u
    return masks


def test_build_and_bitstring_match_bit_loops(classes_by_order):
    for T in _codec_cases(classes_by_order):
        text = _bitstring_by_arcs(T)
        assert T.bitstring() == text
        assert build(T.n, text) == _build_by_arcs(T.n, text) == T


def test_from_adjacency_matches_pair_loop(classes_by_order):
    for T in _codec_cases(classes_by_order):
        A = _adjacency_by_arcs(T)
        assert from_adjacency(A) == _from_adjacency_by_arcs(A) == T
        assert from_adjacency(A.tolist()) == T


def test_relabel_matches_arc_loop(classes_by_order):
    rng = random.Random(31)
    for T in _codec_cases(classes_by_order):
        shuffled = list(range(T.n))
        rng.shuffle(shuffled)
        for perm in (list(range(T.n)), list(range(T.n))[::-1], shuffled):
            assert relabel(T, perm) == _relabel_by_arcs(T, perm), (T.line(), perm)


def test_switch_matches_pair_loop(classes_by_order):
    rng = random.Random(37)
    for T in _codec_cases(classes_by_order):
        chosen = {v for v in range(T.n) if rng.random() < 0.5}
        rest = set(range(T.n)) - chosen
        for subset in (set(), set(range(T.n)), chosen, rest):
            assert switch(T, subset) == _switch_by_arcs(T, subset), (T.line(), subset)


def test_delete_vertex_matches_arc_loop(classes_by_order):
    for T in _codec_cases(classes_by_order):
        for v in {0, T.n - 1} if T.n > 1 else ():
            assert delete_vertex(T, v) == _delete_vertex_by_arcs(T, v), (T.line(), v)


def test_paley_tournament_matches_residue_loop():
    for q in (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83):
        assert paley_tournament(q) == _paley_by_arcs(q), q


def test_d_optimal_block_matches_arc_loop():
    rng = random.Random(41)
    for q in (3, 7, 11, 19, 23, 31, 43, 47):
        P = paley_tournament(q)
        perm = list(range(q))
        rng.shuffle(perm)
        for T1, T2 in ((P, P), (P, relabel(P, perm)), (relabel(P, perm), P)):
            assert d_optimal_block(T1, T2) == _d_optimal_block_by_arcs(T1, T2), q


def test_out_masks_match_pair_loop(classes_by_order):
    for T in _codec_cases(classes_by_order):
        assert _out_masks(T) == _out_masks_by_arcs(T), T.line()


def test_out_degree_rejects_invalid_vertex(cycle3):
    for v in (-1, 3):
        with pytest.raises(InputError):
            cycle3.out_degree(v)
    assert Tournament(1, 0).out_degree(0) == 0


def test_seidel_squared_three_cycle_direct_product(cycle3):
    """S^2 of the 3-cycle equals the explicit product -(A - A^T)^2."""
    A = adjacency(cycle3)
    K = A - A.T
    direct = -(K @ K)
    assert np.array_equal(seidel_squared(cycle3), direct)
    assert np.array_equal(direct, 3 * np.eye(3, dtype=np.int64) - np.ones((3, 3), dtype=np.int64))


def test_seidel_squared_paley7(paley7):
    n = 7
    expected = n * np.eye(n, dtype=np.int64) - np.ones((n, n), dtype=np.int64)
    assert np.array_equal(seidel_squared(paley7), expected)


def test_seidel_squared_two_vertices(two_vertex):
    assert np.array_equal(seidel_squared(two_vertex), np.eye(2, dtype=np.int64))


def test_seidel_squared_shape_random():
    rng = random.Random(11)
    tournaments = [random_tournament(rng.randint(2, 10), rng) for _ in range(20)]
    tournaments += [random_tournament(n, rng) for n in (50, 100, 200)]
    # every arc backwards, and every arc forwards
    tournaments += [Tournament(n, bits) for n in (50, 200)
                    for bits in (0, (1 << n * (n - 1) // 2) - 1)]
    for T in tournaments:
        S2 = seidel_squared(T)
        assert S2.dtype == np.int64 and S2.flags.writeable
        assert np.array_equal(S2, S2.T)
        assert np.array_equal(np.diag(S2), np.full(T.n, T.n - 1))
        A = adjacency(T)
        K = A - A.T
        assert np.array_equal(S2, -(K @ K))


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(7)
    for _ in range(30):
        T = random_tournament(rng.randint(2, 7), rng)
        perm = list(range(T.n))
        rng.shuffle(perm)
        assert canonical_form(T) == canonical_form(relabel(T, perm))


def test_canonical_form_separates_three_classes(cycle3, transitive3):
    assert canonical_form(cycle3) != canonical_form(transitive3)


def test_canonical_form_all_relabelings_of_one_class():
    T = parse_line(ORDER4_LINES[2])
    keys = {canonical_form(relabel(T, list(p))) for p in itertools.permutations(range(4))}
    assert len(keys) == 1


def _orbit_minimum(n: int, bits: int) -> int:
    """Smallest bit pattern in the relabeling orbit, by explicit search.

    Independent of canonical_form: relabeling is done directly on pairs.
    """
    best = None
    for perm in itertools.permutations(range(n)):
        out = 0
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                if bits >> k & 1:
                    a, b = perm[i], perm[j]
                else:
                    a, b = perm[j], perm[i]
                if a < b:
                    out |= 1 << (a * n - a * (a + 1) // 2 + (b - a - 1))
                k += 1
        if best is None or out < best:
            best = out
    return best


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 4), (5, 12)])
def test_enumeration_against_orbit_dedupe(n, count):
    """Brute-force orbit dedupe over all bit patterns, no canonical forms."""
    pairs = n * (n - 1) // 2
    orbit_reps = {_orbit_minimum(n, bits) for bits in range(1 << pairs)}
    assert len(orbit_reps) == count
    assert len(enumerate_tournaments(n)) == count


def test_canonical_form_agrees_with_orbits():
    """Two patterns share a canonical key iff they share an orbit."""
    for n in (3, 4):
        pairs = n * (n - 1) // 2
        for bits in range(1 << pairs):
            T = Tournament(n, bits)
            same_orbit = _orbit_minimum(n, bits)
            same_key = canonical_form(T)
            other = Tournament(n, same_orbit)
            assert canonical_form(other) == same_key


def test_enumeration_counts():
    for n, count in zip(range(1, 8), (1, 1, 2, 4, 12, 56, 456)):
        assert len(enumerate_tournaments(n)) == count


def test_enumeration_n4_matches_fixture_classes(order4):
    enumerated = {canonical_form(T) for T in enumerate_tournaments(4)}
    fixtures = {canonical_form(T) for T in order4}
    assert enumerated == fixtures


def test_enumeration_rejects_out_of_range():
    with pytest.raises(InputError):
        enumerate_tournaments(0)
    with pytest.raises(InputError):
        enumerate_tournaments(8)


def test_enumeration_returns_canonical_representatives():
    for T in enumerate_tournaments(5):
        assert canonical_representative(T) == T


def test_switch_empty_set_is_identity(cycle3):
    assert switch(cycle3, set()) == cycle3


def test_switch_involution_and_complement():
    rng = random.Random(99)
    for _ in range(20):
        T = random_tournament(rng.randint(2, 8), rng)
        subset = {v for v in range(T.n) if rng.random() < 0.5}
        complement = set(range(T.n)) - subset
        assert switch(switch(T, subset), subset) == T
        assert switch(T, subset) == switch(T, complement)


def test_switch_rejects_bad_vertex(cycle3):
    for v in (-1, 3, 1.5, math.nan):
        with pytest.raises(InputError):
            switch(cycle3, [v])
    assert switch(cycle3, [np.int64(0), True]) == switch(cycle3, {0, 1})


def test_switch_single_vertex_reverses_its_arcs(cycle3):
    switched = switch(cycle3, {0})
    assert switched.arc(1, 0) and switched.arc(0, 2)
    assert switched.arc(1, 2)  # arcs inside the complement are untouched


def test_switch_cycle_gives_transitive(cycle3, transitive3):
    assert canonical_form(switch(cycle3, {0})) == canonical_form(transitive3)


def test_switch_preserves_seidel_spectrum():
    rng = random.Random(3)
    for _ in range(15):
        T = random_tournament(rng.randint(2, 8), rng)
        subset = {v for v in range(T.n) if rng.random() < 0.5}
        before = np.linalg.eigvalsh(seidel_matrix(T))
        after = np.linalg.eigvalsh(seidel_matrix(switch(T, subset)))
        assert np.max(np.abs(before - after)) <= 1e-9


def test_switching_class_single_vertex():
    T = build(1, "")
    assert len(switching_class(T)) == 1


def test_switching_class_table_counts(paley3, paley7):
    assert len(switching_class(dominated_extension(paley3))) == 2
    assert len(switching_class(dominated_extension(paley7))) == 4


def test_switching_class_closed_under_switching(cycle3):
    classes = switching_class(cycle3)
    for cf in classes:
        T = cf.tournament()
        for v in range(T.n):
            assert canonical_form(switch(T, {v})) in classes


def test_switching_class_rejects_large_order():
    rng = random.Random(0)
    with pytest.raises(InputError):
        switching_class(random_tournament(13, rng))


def _extend_by_arcs(T, in_pattern):
    """The per-arc definition of add_vertex, kept as the reference."""
    n = T.n + 1
    bits = 0
    for u in range(T.n):
        for v in range(u + 1, T.n):
            if T.arc(u, v):
                bits |= 1 << pair_index(u, v, n)
        if (in_pattern >> u) & 1:
            bits |= 1 << pair_index(u, T.n, n)
    return Tournament(n, bits)


def test_add_vertex_matches_arc_definition(classes_by_order):
    cases = [(Tournament(1, 0), p) for p in (0, 1)]
    cases += [(T, p) for n in range(2, 6) for T in classes_by_order[n]
              for p in range(1 << n)]
    rng = random.Random(77)
    # at n = 70 the patterns exceed 2^63
    for n in (8, 17, 40, 70):
        T = random_tournament(n, rng)
        cases += [(T, 0), (T, (1 << n) - 1), (T, rng.getrandbits(n))]
    assert sum(pattern >= 2 ** 63 for _, pattern in cases) == 2
    for T, pattern in cases:
        assert add_vertex(T, pattern) == _extend_by_arcs(T, pattern)


def test_upper_pairs_caches_read_only_int32_indices():
    for n in (1, 2, 5, 94):
        rows, cols = upper_pairs(n)
        assert upper_pairs(n)[0] is rows and upper_pairs(n)[1] is cols
        assert rows.dtype == cols.dtype == np.int32
        assert not rows.flags.writeable and not cols.flags.writeable
        assert [(u, v) for u, v in zip(rows.tolist(), cols.tolist())] == [
            (u, v) for u in range(n) for v in range(u + 1, n)]
    with pytest.raises(ValueError):
        rows[0] = 1


def test_add_vertex_arcs(cycle3):
    ext = add_vertex(cycle3, 0b101)
    assert ext.n == 4
    assert ext.arc(0, 3) and ext.arc(3, 1) and ext.arc(2, 3)
    assert delete_vertex(ext, 3) == cycle3
    for pattern in (-1, 8):
        with pytest.raises(InputError):
            add_vertex(cycle3, pattern)


def test_dominated_extension_degrees(paley3):
    ext = dominated_extension(paley3)
    assert ext.n == 4
    assert ext.out_degree(3) == 0
    assert sum(1 for v in range(3) if ext.arc(v, 3)) == 3


def test_dominated_extension_of_point():
    assert dominated_extension(build(1, "")).line() == "2:1"


def test_delete_vertex_of_pair(two_vertex):
    assert delete_vertex(two_vertex, 0).n == 1
    assert delete_vertex(two_vertex, 1).n == 1


def test_delete_vertex_inverts_dominated_extension(paley7):
    ext = dominated_extension(paley7)
    assert delete_vertex(ext, 7) == paley7


def test_delete_vertex_transitivity_of_paley7(paley7):
    keys = {canonical_form(delete_vertex(paley7, v)) for v in range(7)}
    assert len(keys) == 1


def test_delete_vertex_rejects_bad_vertex(cycle3):
    for v in (-1, 3, 1.5):
        with pytest.raises(InputError):
            delete_vertex(cycle3, v)
    with pytest.raises(InputError):
        delete_vertex(build(1, ""), 0)


def test_paley3_is_the_cycle(cycle3):
    assert paley_tournament(3) == cycle3


def test_paley7_regularity(paley7):
    assert [paley7.out_degree(v) for v in range(7)] == [3] * 7
    A = adjacency(paley7)
    common = A @ A.T
    off = common[~np.eye(7, dtype=bool)]
    assert set(off.tolist()) == {1}


def test_paley11_regularity(paley11):
    assert [paley11.out_degree(v) for v in range(11)] == [5] * 11
    A = adjacency(paley11)
    common = A @ A.T
    off = common[~np.eye(11, dtype=bool)]
    assert set(off.tolist()) == {2}


@pytest.mark.parametrize("q", [1, 4, 5, 9, 13, 15])
def test_paley_rejects_bad_modulus(q):
    with pytest.raises(InputError):
        paley_tournament(q)


def test_d_optimal_block_structure(paley3):
    T = d_optimal_block(paley3, paley3)
    assert T.n == 6
    for u in range(3):
        for v in range(3, 6):
            assert T.arc(u, v)
    for u in range(3):
        for v in range(u + 1, 3):
            assert T.arc(u, v) == paley3.arc(u, v)
            assert T.arc(u + 3, v + 3) == paley3.arc(u, v)


def test_d_optimal_block_rejects_bad_inputs(paley3, paley7, transitive3):
    with pytest.raises(InputError):
        d_optimal_block(paley3, paley7)
    with pytest.raises(InputError):
        d_optimal_block(transitive3, transitive3)


def test_relabel_rejects_non_permutation(cycle3):
    with pytest.raises(InputError):
        relabel(cycle3, [0, 0, 1])
    with pytest.raises(InputError):
        relabel(cycle3, [0, 1])
