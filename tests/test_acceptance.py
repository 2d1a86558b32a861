"""Acceptance gate: one test per headline claim, each printing a single
[PASS]/[FAIL] line (visible with -s, mirrored by the -v test status)."""

import math
import random
import time
from fractions import Fraction

import pytest

from tourney_codes import (DrtParams, analyze, char_identity_residual,
                           classify_code, count_tight_codes, d_optimal_block,
                           delete_vertex, dominated_extension, embed,
                           exact_ones_resolvent, is_doubly_regular,
                           multiplicity_profile, paley_tournament, parse_line,
                           random_tournament, seidel_matrix,
                           seidel_squared, shifted_main_spectrum,
                           skew_hadamard_check, spectrum_of, switching_class,
                           verify_embedding, verify_no_double_zero_spectrum)

from conftest import ORDER4_LINES


def _line(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_order_four_dimensions():
    start = time.perf_counter()
    dims = [analyze(parse_line(line)).rep_dim for line in ORDER4_LINES]
    elapsed = time.perf_counter() - start
    ok = dims == [3, 2, 3, 2] and elapsed < 1.0
    _line(ok, "order-4 dimensions", f"{dims} in {elapsed:.2f}s")


def test_tight_configuration_counts():
    start = time.perf_counter()
    small = [count_tight_codes(d).count for d in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - start
    large = [count_tight_codes(d).count for d in (5, 6)]
    ok = small == [1, 2, 1, 4] and elapsed < 10.0 and large == [1, 8]
    _line(ok, "tight configuration counts",
          f"d=1..6 -> {small + large}, d<=4 in {elapsed:.2f}s")


def test_seven_vertex_scan(classes_by_order):
    start = time.perf_counter()
    hits = [T for T in classes_by_order[7] if analyze(T).rep_dim == 3]
    elapsed = time.perf_counter() - start
    ok = (len(classes_by_order[7]) == 456 and len(hits) == 1
          and is_doubly_regular(hits[0]) == DrtParams(7, 3, 1)
          and elapsed < 60.0)
    _line(ok, "seven-vertex scan",
          f"{len(hits)} class(es) of dimension 3 among 456 in {elapsed:.1f}s")


def test_tightness_equivalences(classes_by_order):
    bad = []
    for n in (3, 5, 7):
        d = (n - 1) // 2
        for T in classes_by_order[n]:
            tight = d % 2 == 1 and analyze(T).rep_dim == d
            if tight != (is_doubly_regular(T) is not None):
                bad.append(T.line())
    members = switching_class(dominated_extension(paley_tournament(7)))
    for form in members:
        T = form.tournament()
        if analyze(T).rep_dim != 4 or not skew_hadamard_check(T):
            bad.append(T.line())
    ok = not bad and len(members) == 4
    _line(ok, "tightness equivalences",
          f"odd n <= 7 exhausted, {len(members)} switching classes on 8 "
          f"vertices, counterexamples {bad}")


def test_half_bound_dichotomy():
    deleted = delete_vertex(paley_tournament(7), 0)
    rep = classify_code(analyze(deleted))
    spec = spectrum_of(deleted)
    root7 = math.sqrt(7.0)
    spectrum_ok = (
        list(spec.multiplicities()) == [2, 1, 1, 2]
        and abs(spec.lines[0].tau + root7) < 1e-7
        and abs(spec.lines[1].tau + 1) < 1e-7
        and abs(spec.lines[2].tau - 1) < 1e-7
        and abs(spec.lines[3].tau - root7) < 1e-7)
    deleted_ok = (rep.certificate_kind == "DrtMinusVertex" and spectrum_ok
                  and deleted.n == 2 * rep.rep_dim)

    block = d_optimal_block(paley_tournament(3), paley_tournament(3))
    brep = classify_code(analyze(block))
    block_ok = (brep.certificate_kind == "BlockForm"
                and (brep.block_form.k, brep.block_form.l) == (3, 2)
                and brep.rep_dim == 3 and block.n == 2 * brep.rep_dim)
    _line(deleted_ok and block_ok, "half-bound dichotomy",
          f"deleted-vertex cert {rep.certificate_kind}, "
          f"block cert ({brep.block_form.k},{brep.block_form.l})")


def test_embed_every_small_class(classes_by_order):
    worst = 0.0
    checked = 0
    for n in range(2, 8):
        for T in classes_by_order[n]:
            emb = embed(T)
            verdict = verify_embedding(emb, T)
            worst = max(worst, verdict.max_deviation)
            ok = emb.dimension == analyze(T).rep_dim and verdict.max_deviation <= 1e-7
            if not ok:
                _line(False, "embedding sweep", f"failed at {T.line()}")
            checked += 1
    _line(True, "embedding sweep",
          f"{checked} classes embedded, worst deviation {worst:.2e}")


def test_identity_and_interlacing_suites():
    rng = random.Random(1007)
    worst = 0.0
    for _ in range(100):
        T = random_tournament(rng.randrange(2, 9), rng)
        a = rng.choice([-1, 1]) * rng.uniform(0.05, 3.0)
        xs = [rng.uniform(-12, 12) for _ in range(20)]
        worst = max(worst, char_identity_residual(seidel_matrix(T), a, xs).max_residual)
    identity_ok = worst <= 1e-8

    violations = 0
    for _ in range(100):
        T = random_tournament(rng.randrange(2, 9), rng)
        a = rng.choice([-1, 1]) * rng.uniform(0.05, 3.0)
        _, verdict = shifted_main_spectrum(seidel_matrix(T), a)
        violations += not verdict.ok
    _line(identity_ok and violations == 0, "identity and interlacing suites",
          f"worst residual {worst:.2e}, interlacing violations {violations}")


def test_shift_multiplicity_sweep():
    rng = random.Random(1008)
    worst_excess = 0
    for _ in range(50):
        T = random_tournament(rng.randrange(2, 8), rng)
        allowed = T.n - analyze(T).rep_dim
        shifts = [rng.uniform(-4, 4) for _ in range(1000)]
        top = max(mult for _, mult in multiplicity_profile(T, shifts))
        worst_excess = max(worst_excess, top - allowed)
    _line(worst_excess <= 0, "shift multiplicity sweep",
          f"50 tournaments x 1000 shifts, worst excess {worst_excess}")


def test_double_zero_exclusion():
    results = {n: verify_no_double_zero_spectrum(n) for n in (4, 6)}
    _line(all(results.values()), "double-zero exclusion",
          f"exhaustive sweeps {results}")


def _c2_sign(spec) -> int:
    """Sign of c2 from the grouped spectrum, exact on the noise boundary."""
    n = spec.n
    lines = spec.lines
    tau2 = lines[1].tau
    terms = [n * lines[0].beta ** 2 / (lines[0].tau - tau2)]
    terms += [n * l.beta ** 2 / (l.tau - tau2) for l in lines[2:]]
    c2 = sum(terms)
    if abs(c2) > 1e-10 * sum(abs(t) for t in terms):
        return (c2 > 0) - (c2 < 0)
    return 0


def test_invariant_suites(classes_by_order):
    checked = 0
    for n in range(2, 8):
        for T in classes_by_order[n]:
            spec = spectrum_of(T)
            lines = spec.lines
            taus = spec.taus()
            assert sum(spec.multiplicities()) == n

            # +-symmetry with matching main angles
            for l in lines:
                match = [m for m in lines if abs(m.tau + l.tau) <= 1e-7]
                assert len(match) == 1
                assert abs(match[0].beta - l.beta) <= 1e-6
                assert match[0].main == l.main

            assert sum(l.beta ** 2 for l in lines) == pytest.approx(1.0, abs=1e-8)
            energy = sum(l.mult * l.tau ** 2 for l in lines)
            assert energy == pytest.approx(n * (n - 1), abs=1e-6 * n * n)

            report = analyze(T)
            d = report.rep_dim
            assert n <= (2 * d + 1 if d % 2 else 2 * d)

            # type conditions recomputed independently: pairwise disjoint,
            # and the assigned type is the first that holds
            p1 = not lines[0].main
            p2 = lines[0].main and lines[0].mult > 1
            p3 = False
            if lines[0].mult == 1 and not lines[1].main:
                sign = _c2_sign(spec)
                if sign == 0:
                    tau2 = lines[1].tau
                    res = exact_ones_resolvent(seidel_squared(T), round(tau2 * tau2))
                    sign = 0 if res == Fraction(0) else (1 if tau2 * res > 0 else -1)
                p3 = sign < 0
            assert p1 + p2 + p3 <= 1
            assert int(report.type_class.variant) == (
                1 if p1 else 2 if p2 else 3 if p3 else 4)
            checked += 1
    _line(True, "invariant suites", f"all {checked} classes with n <= 7 pass")
