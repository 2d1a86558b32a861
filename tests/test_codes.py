"""Tightness layer: structural certificates, the exhaustive sweeps, and
counting tight configurations through the catalogs."""

import collections
import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tourney_codes
from tourney_codes import codes, representation, spectral, tournament
from tourney_codes import (BlockFormCert, DrtParams, InputError, InternalConsistencyError,
                           TightnessReport, Tournament, TypeVariant, adjacency, analyze,
                           block_form_check, canonical_form, classify_code,
                           count_tight_codes, d_optimal_block, delete_vertex, drt_catalog,
                           drt_minus_vertex_check, dominated_extension, from_adjacency,
                           is_doubly_regular, paley_tournament, parse_line, random_tournament,
                           relabel, seidel_squared, skew_hadamard_check, switch,
                           verify_no_double_zero_spectrum)

ROTATIONAL5 = "5:1100110111"   # out-degree 2 everywhere, order not 3 mod 4


@pytest.fixture(scope="module")
def block6():
    p3 = paley_tournament(3)
    return d_optimal_block(p3, p3)


@pytest.fixture(scope="module")
def deleted7(paley7):
    return delete_vertex(paley7, 0)


# ------------------------------------------------------------ certificates


def test_doubly_regular_parameters(cycle3, paley7, paley11):
    assert is_doubly_regular(cycle3) == DrtParams(3, 1, 0)
    assert is_doubly_regular(paley7) == DrtParams(7, 3, 1)
    assert is_doubly_regular(paley11) == DrtParams(11, 5, 2)


def test_doubly_regular_rejections(two_vertex, transitive3):
    assert is_doubly_regular(two_vertex) is None
    assert is_doubly_regular(transitive3) is None
    assert is_doubly_regular(parse_line("4:111111")) is None
    # regular but of order 1 mod 4, so the pair counts cannot be constant
    assert is_doubly_regular(parse_line(ROTATIONAL5)) is None


def test_skew_hadamard_order_four(order4):
    assert [skew_hadamard_check(T) for T in order4] == [False, True, False, True]


def test_skew_hadamard_odd_orders(cycle3, paley7):
    assert not skew_hadamard_check(cycle3)
    assert not skew_hadamard_check(paley7)


def _is_doubly_regular_int64(T):
    """Double regularity over int64 products, kept as the reference."""
    if T.n < 3:
        return None
    A = adjacency(T)
    degrees = A.sum(axis=1)
    off = (A @ A.T)[~np.eye(T.n, dtype=bool)]
    if not (np.all(degrees == degrees[0]) and np.all(off == off[0])):
        return None
    return DrtParams(T.n, int(degrees[0]), int(off[0]))


def _skew_hadamard_int64(T):
    """H H^T = nI for H = I + A - A^T over int64, kept as the reference."""
    A = adjacency(T)
    H = np.eye(T.n, dtype=np.int64) + A - A.T
    return bool(np.array_equal(H @ H.T, T.n * np.eye(T.n, dtype=np.int64)))


def _circulant(n):
    """The regular tournament on Z_n with out-set {1, ..., (n - 1)/2}."""
    return from_adjacency([[int(0 < (v - u) % n <= n // 2) for v in range(n)]
                           for u in range(n)])


def _near_misses():
    """Tournaments that miss the S^2 identities narrowly: regular circulants
    that are not doubly regular, switched Paley tournaments, and the block
    [[P7, J], [0, C7]], whose S^2 has the block support but whose second
    block carries other values."""
    circulants = [_circulant(n) for n in (7, 11, 19, 23, 43)]
    switched = [switch(paley_tournament(q), part) for q in (7, 11, 19, 23, 43)
                for part in ([0], range(q // 2))]
    P7, C7 = adjacency(paley_tournament(7)), adjacency(circulants[0])
    block = from_adjacency(np.block([[P7, np.ones_like(P7)], [np.zeros_like(C7), C7]]))
    return circulants + switched + [block]


def test_certificate_products_match_int64_definitions(classes_by_order):
    paley = [paley_tournament(q) for q in (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83)]
    extended = [dominated_extension(P) for P in paley]
    assert all(is_doubly_regular(P) for P in paley)
    assert all(skew_hadamard_check(T) for T in extended)
    cases = [Tournament(1, 0)] + [T for n in range(2, 8) for T in classes_by_order[n]]
    cases += paley + extended + [d_optimal_block(P, P) for P in paley]
    rng = random.Random(83)
    cases += [random_tournament(n, rng) for n in (8, 16, 64) for _ in range(5)]
    near = _near_misses()
    cases += near + [dominated_extension(T) for T in near if T.n % 2]
    for T in cases:
        assert is_doubly_regular(T) == _is_doubly_regular_int64(T), T.line()
        assert skew_hadamard_check(T) == _skew_hadamard_int64(T), T.line()


def test_block_form_of_the_block_construction(block6):
    cert = block_form_check(block6)
    assert (cert.k, cert.l) == (3, 2)
    assert cert.partition == ((0, 1, 2), (3, 4, 5))


def test_block_form_large(paley7):
    cert = block_form_check(d_optimal_block(paley7, paley7))
    assert (cert.k, cert.l) == (7, 6)
    assert len(cert.partition[0]) == 7


@pytest.mark.parametrize("q", [3, 7, 11, 19])
def test_d_optimal_block_has_l_one_less_than_its_half(q):
    # S^2 = diag(qI + (q - 1)J, qI + (q - 1)J), whatever the order q
    P = paley_tournament(q)
    block = d_optimal_block(P, P)
    cert = block_form_check(block)
    assert (cert.k, cert.l) == (q, q - 1)
    rep = classify_code(analyze(block))
    assert (rep.certificate_kind, rep.rep_dim) == ("BlockForm", q)


def test_block_form_rejects_deleted_vertex(deleted7):
    assert block_form_check(deleted7) is None


def test_block_form_rejects_scalar_square():
    # skew Hadamard classes have S^2 = (n-1)I, which is the l = 0 case
    assert block_form_check(parse_line("4:111010")) is None


def test_block_form_needs_even_order(cycle3):
    with pytest.raises(InputError, match="even"):
        block_form_check(cycle3)


def test_deleted_vertex_check(paley7, deleted7):
    assert drt_minus_vertex_check(deleted7)
    assert drt_minus_vertex_check(delete_vertex(paley7, 4))


def test_deleted_vertex_certificate_builds_each_adjacency_once(paley11, monkeypatch):
    # The forced extension reads its out-degrees from the adjacency matrix
    # it extends; the S^2 of the extension and of the line need one each.
    report = analyze(delete_vertex(paley11, 4))
    orders = []

    def counted(T):
        orders.append(T.n)
        return adjacency(T)

    monkeypatch.setattr(tournament, "adjacency", counted)
    monkeypatch.setattr(codes, "adjacency", counted)
    assert classify_code(report).certificate_kind == "DrtMinusVertex"
    assert orders == [10, 11, 10]


def test_deleted_vertex_smallest_case(two_vertex):
    # the forced extension of the single arc is the 3-cycle
    assert drt_minus_vertex_check(two_vertex)


def test_deleted_vertex_rejections(block6):
    assert not drt_minus_vertex_check(block6)
    assert not drt_minus_vertex_check(parse_line("4:111010"))  # wrong parity


def test_deleted_vertex_needs_even_order(cycle3):
    with pytest.raises(InputError, match="even"):
        drt_minus_vertex_check(cycle3)


# ----------------------------------------------------------- tightness


def test_classify_tight_odd(cycle3, paley7):
    rep = classify_code(analyze(cycle3))
    assert rep == TightnessReport(3, 1, 3, True, "DRT", is_doubly_regular(cycle3))
    rep = classify_code(analyze(paley7))
    assert (rep.rep_dim, rep.bound, rep.is_tight) == (3, 7, True)
    assert rep.certificate_kind == "DRT"
    assert rep.drt_params == DrtParams(7, 3, 1)


def test_classify_tight_even(order4):
    for T, tight in zip(order4, (False, True, False, True)):
        rep = classify_code(analyze(T))
        assert rep.is_tight == tight
        if tight:
            assert (rep.rep_dim, rep.bound) == (2, 4)
            assert rep.certificate_kind == "SkewHadamard"
        else:
            assert (rep.rep_dim, rep.bound) == (3, 7)
            assert rep.certificate_kind == "None"


def test_classify_one_short_of_odd_bound(block6, deleted7):
    rep = classify_code(analyze(block6))
    assert not rep.is_tight and rep.certificate_kind == "BlockForm"
    assert rep.block_form == block_form_check(block6)
    assert rep.drt_params is None
    rep = classify_code(analyze(deleted7))
    assert not rep.is_tight and rep.certificate_kind == "DrtMinusVertex"
    assert rep.block_form is None


def test_classify_plain_tournament(transitive3):
    rep = classify_code(analyze(transitive3))
    assert rep == TightnessReport(3, 2, 4, False, "None")


def test_classify_needs_three_vertices(two_vertex):
    with pytest.raises(InputError):
        classify_code(analyze(two_vertex))


def _planted(paley7, paley11):
    # one tournament of each certificate kind, at two sizes each
    return [paley11, paley_tournament(19),
            dominated_extension(paley7), dominated_extension(paley11),
            delete_vertex(paley11, 4), delete_vertex(paley_tournament(19), 0),
            d_optimal_block(paley7, paley7), d_optimal_block(paley11, paley11)]


def _verdicts(report):
    T = report.tournament
    out = [classify_code(report), is_doubly_regular(T), skew_hadamard_check(T)]
    if T.n % 2 == 0:
        out += [drt_minus_vertex_check(T), block_form_check(T)]
    return out


def test_certificates_run_no_second_analysis(classes_by_order, paley7, paley11,
                                             monkeypatch):
    # classify_code reads the spectrum from the report it is given, and the
    # four predicates are exact integer checks, so none of them analyzes.
    tournaments = [T for n in range(3, 7) for T in classes_by_order[n]]
    reports = [analyze(T) for T in tournaments + _planted(paley7, paley11)]
    want = [_verdicts(report) for report in reports]

    def refuse(*args, **kwargs):
        raise AssertionError("a certificate check ran a second analysis")

    monkeypatch.setattr(representation, "analyze", refuse)
    monkeypatch.setattr(representation, "eigensystem", refuse)
    monkeypatch.setattr(spectral, "eigensystem", refuse)
    assert [_verdicts(report) for report in reports] == want


def _moved(report, k, delta):
    """report with the k-th eigenvalue of its spectrum moved by delta."""
    lines = list(report.spectrum.lines)
    lines[k] = dataclasses.replace(lines[k], tau=lines[k].tau + delta)
    return dataclasses.replace(
        report, spectrum=dataclasses.replace(report.spectrum, lines=tuple(lines)))


def test_shared_analysis_is_still_cross_checked(paley7, deleted7, block6):
    # A report whose type contradicts the structure must still be refused.
    bent = dataclasses.replace(analyze(paley7),
                               spectrum=analyze(parse_line("7:" + "1" * 21)).spectrum)
    with pytest.raises(InternalConsistencyError, match="tight odd dimension"):
        classify_code(bent)
    report = analyze(deleted7)
    bent = dataclasses.replace(
        report, type_class=dataclasses.replace(report.type_class, variant=TypeVariant.TYPE4))
    with pytest.raises(InternalConsistencyError, match="disagree"):
        classify_code(bent)
    # The spectral signature must hold exactly when the forced extension is
    # doubly regular.  theta^2 = n + 1 and the eigenvalue 1 are held to
    # about 1e-6: a move far inside that keeps the certificate, and one past
    # it takes the signature from a deleted DRT.
    for k in (2, 3):
        assert classify_code(_moved(report, k, 1e-8)).certificate_kind == "DrtMinusVertex"
        with pytest.raises(InternalConsistencyError, match="disagree"):
            classify_code(_moved(report, k, 1e-5))
    signed = dataclasses.replace(analyze(block6), spectrum=report.spectrum,
                                 type_class=report.type_class)
    with pytest.raises(InternalConsistencyError, match="disagree"):
        classify_code(signed)
    bent = dataclasses.replace(analyze(block6), spectrum=report.spectrum)
    with pytest.raises(InternalConsistencyError, match="block-form certificate"):
        classify_code(bent)


def _components_by_search(mask):
    """Connected components of a symmetric boolean matrix by a per-vertex
    search, each sorted, ordered by their smallest vertex."""
    n = mask.shape[0]
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            u = queue.pop()
            comp.append(u)
            for v in range(n):
                if not seen[v] and mask[u, v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def _block_form_by_components(T):
    """block_form_check by a component search of the off-diagonal support
    of S^2, kept as the reference."""
    n = T.n
    S2 = seidel_squared(T)
    support = (S2 != 0) & ~np.eye(n, dtype=bool)
    if not support.any():
        return None
    comps = _components_by_search(support)
    if len(comps) != 2 or any(len(comp) != n // 2 for comp in comps):
        return None
    values = {int(S2[u, v]) for comp in comps for u in comp for v in comp if u != v}
    if len(values) != 1:
        return None
    l = values.pop()
    if l <= 0 or n - 1 - l <= 0:
        return None
    return BlockFormCert(n - 1 - l, l, (tuple(comps[0]), tuple(comps[1])))


def test_block_form_matches_component_search(classes_by_order):
    # Row 0 decides the halves, so every vertex of each small class takes
    # a turn as vertex 0.
    cases = [relabel(T, [v if u == 0 else 0 if u == v else u for u in range(T.n)])
             for n in (2, 4, 6) for T in classes_by_order[n] for v in range(n)]
    rng = random.Random(94)
    for q in (3, 7, 11, 19, 23, 31, 43, 47):
        P = paley_tournament(q)
        block = d_optimal_block(P, P)
        perm = list(range(2 * q))
        rng.shuffle(perm)
        cases += [relabel(block, perm), switch(block, [0]), switch(block, range(q)),
                  delete_vertex(P, 0)]
    cases += [random_tournament(2 * rng.randint(1, 40), rng) for _ in range(200)]
    block = _near_misses()[-1]
    cases += [block, relabel(block, list(range(7, 14)) + list(range(7)))]
    certified = 0
    for T in cases:
        cert = block_form_check(T)
        assert cert == _block_form_by_components(T), T.line()
        certified += cert is not None
    assert certified >= 17


def test_certificate_census_small_orders(classes_by_order):
    kinds = collections.Counter()
    for n in range(3, 7):
        for T in classes_by_order[n]:
            kinds[classify_code(analyze(T)).certificate_kind] += 1
    assert kinds == {"DRT": 1, "SkewHadamard": 2, "DrtMinusVertex": 1,
                     "BlockForm": 1, "None": 69}


def test_six_vertex_dichotomy(classes_by_order):
    # at n = 2d with d = 3 exactly one of the two certificates applies,
    # and every such class carries one
    for T in classes_by_order[6]:
        rep = classify_code(analyze(T))
        if rep.rep_dim == 3:
            assert rep.certificate_kind in ("DrtMinusVertex", "BlockForm")
            assert drt_minus_vertex_check(T) != (block_form_check(T) is not None)


def test_skew_equivalence_random_eight():
    # on 8 vertices tightness in dimension 4 and the skew Hadamard
    # property must coincide; classify_code also cross-checks internally
    rng = random.Random(2024)
    seen_skew = 0
    for _ in range(200):
        T = random_tournament(8, rng)
        rep = classify_code(analyze(T))
        skew = skew_hadamard_check(T)
        assert rep.is_tight == skew
        assert skew == (analyze(T).rep_dim == 4)
        seen_skew += skew
    assert seen_skew > 0


def test_no_double_zero_sweep():
    assert verify_no_double_zero_spectrum(2)
    assert verify_no_double_zero_spectrum(4)
    assert verify_no_double_zero_spectrum(6)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_double_zero_sweep_range(n):
    with pytest.raises(InputError):
        verify_no_double_zero_spectrum(n)


# -------------------------------------------------------------- catalogs


def test_builtin_catalog_exhaustive_orders(paley7):
    cat = drt_catalog(3)
    assert len(cat.tournaments) == 1 and not cat.trusted
    cat = drt_catalog(7)
    assert len(cat.tournaments) == 1 and not cat.trusted
    assert canonical_form(cat.tournaments[0]) == canonical_form(paley7)


def test_builtin_catalog_trusted_eleven():
    cat = drt_catalog(11)
    assert len(cat.tournaments) == 1 and cat.trusted
    assert is_doubly_regular(cat.tournaments[0]) == DrtParams(11, 5, 2)


def test_builtin_catalog_impossible_orders():
    for order in (4, 5, 9, 13):
        cat = drt_catalog(order)
        assert cat.tournaments == () and not cat.trusted


def test_builtin_catalog_missing_order():
    with pytest.raises(InputError, match="15"):
        drt_catalog(15)
    with pytest.raises(InputError, match="positive"):
        drt_catalog(0)


def test_catalog_file_dedupes_isomorphs(tmp_path, paley7):
    path = tmp_path / "drt7.txt"
    other = relabel(paley7, [3, 0, 6, 2, 5, 1, 4])
    path.write_text(f"# seven vertices\n{paley7.line()}\n{other.line()}\n")
    cat = drt_catalog(7, str(path))
    assert len(cat.tournaments) == 1 and cat.trusted


def test_catalog_file_rejects_wrong_order(tmp_path, cycle3, paley7):
    # Line numbers count the comment and the blank line too.
    path = tmp_path / "bad.txt"
    path.write_text(f"# drt7\n{paley7.line()}\n\n{cycle3.line()}\n")
    with pytest.raises(InputError, match="^line 4: catalog entry has order 3, expected 7$"):
        drt_catalog(7, str(path))


def test_catalog_file_rejects_non_drt(tmp_path, cycle3, transitive3):
    path = tmp_path / "bad.txt"
    path.write_text(f"{cycle3.line()}\n# not doubly regular\n{transitive3.line()}\n")
    with pytest.raises(InputError, match=f"^line 3: catalog entry {transitive3.line()} "
                                         "is not doubly regular$"):
        drt_catalog(3, str(path))


# -------------------------------------------------------------- counting


@pytest.mark.parametrize("d,count", [(1, 1), (2, 2), (3, 1), (4, 4)])
def test_count_tight_small(d, count):
    res = count_tight_codes(d)
    assert (res.d, res.count, res.catalog_trusted) == (d, count, False)


@pytest.mark.parametrize("d,count", [(5, 1), (6, 8)])
def test_count_tight_from_trusted_catalog(d, count):
    res = count_tight_codes(d)
    assert (res.count, res.catalog_trusted) == (count, True)


def test_count_tight_rejects_nonpositive():
    with pytest.raises(InputError):
        count_tight_codes(0)


def test_count_tight_with_catalog_file(tmp_path, paley7):
    path = tmp_path / "drt7.txt"
    path.write_text(paley7.line() + "\n")
    res = count_tight_codes(3, str(path))
    assert (res.count, res.catalog_trusted) == (1, True)


def test_checks_leave_logging_unloaded():
    # Nothing in the package configures logging, so nothing may load it:
    # not the scalar-S^2 rejection of block_form_check, nor a skipped
    # sample of char_identity_residual.
    code = ("import sys\n"
            "from tourney_codes import (block_form_check, char_identity_residual,\n"
            "    dominated_extension, paley_tournament, seidel_matrix)\n"
            "assert block_form_check(dominated_extension(paley_tournament(7))) is None\n"
            "result = char_identity_residual(seidel_matrix(paley_tournament(3)), 1.0, [0.0, 5.0])\n"
            "assert result.skipped == (0.0,) and result.evaluated == 1\n"
            "print('logging' in sys.modules)\n")
    src = str(Path(tourney_codes.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True, timeout=120).stdout
    assert out == "False\n"
