"""The checks that verify-paper runs.

Each check recomputes one claim of the paper from the library and
returns whether it held, with a one-line detail.  This module is loaded
by verify-paper alone.  It must not import the cli module: under
python -m tourney_codes.cli that module runs as __main__, and the import
would compile and run a second copy of it.
"""

from __future__ import annotations

import random

from ._catalog import count_tight_codes, verify_no_double_zero_spectrum
from ._constructions import (dominated_extension, enumerate_tournaments, paley_tournament,
                             random_tournament, switching_class)
from ._shifts import (char_identity_residual, multiplicity_profile, shifted_main_spectrum,
                      witness_shift)
from .codes import classify_code, is_doubly_regular, skew_hadamard_check
from .representation import analyze, embed
from .spectral import seidel_matrix, spectrum_of
from .tournament import parse_line

# The four isomorphism classes of 4-vertex tournaments, in the fixed order
# whose embedding dimensions are 3, 2, 3, 2.
ORDER4_LINES = ("4:111111", "4:111010", "4:011101", "4:011011")
ORDER4_REP_DIMS = (3, 2, 3, 2)


def _check_order4() -> tuple[bool, str]:
    dims = [analyze(parse_line(line)).rep_dim for line in ORDER4_LINES]
    return dims == list(ORDER4_REP_DIMS), f"rep dims {dims}, expected {list(ORDER4_REP_DIMS)}"


def _check_tight_count(d: int, want: int) -> tuple[bool, str]:
    got = count_tight_codes(d).count
    return got == want, f"count_tight_codes({d}) = {got}, expected {want}"


def _check_double_zero(n: int) -> tuple[bool, str]:
    ok = verify_no_double_zero_spectrum(n)
    return ok, "no excluded spectrum found" if ok else "counterexample spectrum found"


def _check_tight_equivalences(n_max: int) -> tuple[bool, str]:
    bad = []
    for n in range(3, n_max + 1):
        for T in enumerate_tournaments(n):
            d = analyze(T).rep_dim
            if (d % 2 == 1 and n == 2 * d + 1) != (is_doubly_regular(T) is not None):
                bad.append(f"odd-bound equivalence fails for {T.line()}")
            if (d % 2 == 0 and n == 2 * d) != skew_hadamard_check(T):
                bad.append(f"even-bound equivalence fails for {T.line()}")
    return not bad, bad[0] if bad else f"both equivalences hold for all n <= {n_max}"


def _check_certificates(n_max: int) -> tuple[bool, str]:
    kinds: dict[str, int] = {}
    for n in range(3, n_max + 1):
        for T in enumerate_tournaments(n):
            report = classify_code(analyze(T))
            kinds[report.certificate_kind] = kinds.get(report.certificate_kind, 0) + 1
    detail = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    return True, f"certificates consistent: {detail}"


def _check_char_identity(cases: int) -> tuple[bool, str]:
    rng = random.Random(20260819)
    worst = 0.0
    for _ in range(cases):
        T = random_tournament(rng.randint(2, 8), rng)
        a = rng.uniform(-3.0, 3.0)
        samples = [rng.uniform(-12.0, 12.0) for _ in range(20)]
        result = char_identity_residual(seidel_matrix(T), a, samples)
        worst = max(worst, result.max_residual)
    return worst <= 1e-8, f"worst residual {worst:.3e} over {cases} cases"


def _check_interlacing(cases: int) -> tuple[bool, str]:
    rng = random.Random(8312)
    for _ in range(cases):
        T = random_tournament(rng.randint(2, 8), rng)
        a = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        _, verdict = shifted_main_spectrum(seidel_matrix(T), a)
        if not verdict.ok:
            return False, f"violation for {T.line()} at a={a:.4f}: {verdict.violations[0]}"
    return True, f"{cases} random shifts interlace strictly"


def _check_spectral_invariants(n_max: int) -> tuple[bool, str]:
    for n in range(2, n_max + 1):
        for T in enumerate_tournaments(n):
            spectrum = spectrum_of(T)
            lines = spectrum.lines
            for low, high in zip(lines, reversed(lines)):
                if abs(low.tau + high.tau) > 1e-7 or low.mult != high.mult \
                        or abs(low.beta - high.beta) > 1e-7:
                    return False, f"spectrum of {T.line()} is not symmetric"
            if abs(sum(l.beta ** 2 for l in lines) - 1.0) > 1e-8:
                return False, f"main angles of {T.line()} do not sum to one"
            trace = sum(l.mult * l.tau ** 2 for l in lines)
            if abs(trace - n * (n - 1)) > 1e-6 * n * n:
                return False, f"squared-eigenvalue sum of {T.line()} is off"
            if n % 2 and min(abs(l.tau) for l in lines) > 1e-7:
                return False, f"odd order {T.line()} lacks a zero eigenvalue"
    return True, f"symmetry, angle sums, and traces hold for all n <= {n_max}"


def _check_witness_multiplicity(n_max: int) -> tuple[bool, str]:
    for n in range(2, n_max + 1):
        for T in enumerate_tournaments(n):
            report = analyze(T)
            a = witness_shift(report)
            mult = multiplicity_profile(T, [a])[0][1]
            if mult != n - report.rep_dim:
                return False, (f"witness multiplicity {mult} for {T.line()} does not "
                               f"give dimension {report.rep_dim}")
    return True, f"witness shifts reach n - rep_dim for all n <= {n_max}"


def _check_seven_vertex_scan() -> tuple[bool, str]:
    hits = [T for T in enumerate_tournaments(7) if analyze(T).rep_dim == 3]
    if len(hits) != 1:
        return False, f"{len(hits)} classes with rep_dim 3 at n=7, expected 1"
    params = is_doubly_regular(hits[0])
    ok = params is not None and (params.n, params.out_degree, params.common_out_neighbors) == (7, 3, 1)
    return ok, f"unique class {hits[0].line()} with parameters {params}"


def _check_switching_skew() -> tuple[bool, str]:
    classes = switching_class(dominated_extension(paley_tournament(7)))
    if len(classes) != 4:
        return False, f"{len(classes)} switching classes at n=8, expected 4"
    for cf in sorted(classes):
        T = cf.tournament()
        if analyze(T).rep_dim != 4 or not skew_hadamard_check(T):
            return False, f"member {T.line()} is not a tight 4-dimensional code"
    return True, "all 4 members have rep_dim 4 and pass the skew Hadamard check"


def _check_shift_sweep() -> tuple[bool, str]:
    rng = random.Random(555)
    for _ in range(50):
        T = random_tournament(rng.randint(2, 7), rng)
        cap = T.n - analyze(T).rep_dim
        shifts = [rng.uniform(-10.0, 10.0) for _ in range(1000)]
        worst = max(mult for _, mult in multiplicity_profile(T, shifts))
        if worst > cap:
            return False, f"shift sweep beats the bound on {T.line()}"
    return True, "50 tournaments times 1000 shifts never beat n - rep_dim"


def _check_embed_all(n_max: int) -> tuple[bool, str]:
    worst = 0.0
    for n in range(2, n_max + 1):
        for T in enumerate_tournaments(n):
            emb = embed(T)
            worst = max(worst, emb.max_deviation)
            if emb.dimension != emb.report.rep_dim:
                return False, f"embedding failed for {T.line()}"
    return True, f"all embeddings verified, worst deviation {worst:.3e}"


def paper_checks(level: str) -> list[tuple[str, bool, str]]:
    """(id, passed, detail) of every check of the level, in report order."""
    checks: list[tuple[str, bool, str]] = []

    def run(name: str, fn, *fn_args) -> None:
        try:
            ok, detail = fn(*fn_args)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, ok, detail))

    run("order4-rep-dims", _check_order4)
    for d, want in ((1, 1), (2, 2), (3, 1), (4, 4)):
        run(f"tight-count-d{d}", _check_tight_count, d, want)
    for n in (4, 6):
        run(f"double-zero-exclusion-n{n}", _check_double_zero, n)
    run("tight-equivalences-n6", _check_tight_equivalences, 6)
    run("certificates-n6", _check_certificates, 6)
    run("char-identity-25", _check_char_identity, 25)
    run("interlacing-25", _check_interlacing, 25)
    run("spectral-invariants-n5", _check_spectral_invariants, 5)
    run("witness-multiplicity-n5", _check_witness_multiplicity, 5)
    if level == "full":
        for d, want in ((5, 1), (6, 8)):
            run(f"tight-count-d{d}", _check_tight_count, d, want)
        run("seven-vertex-scan", _check_seven_vertex_scan)
        run("tight-equivalences-n7", _check_tight_equivalences, 7)
        run("certificates-n7", _check_certificates, 7)
        run("switching-class-skew-n8", _check_switching_skew)
        run("char-identity-100", _check_char_identity, 100)
        run("interlacing-100", _check_interlacing, 100)
        run("spectral-invariants-n7", _check_spectral_invariants, 7)
        run("witness-multiplicity-n6", _check_witness_multiplicity, 6)
        run("shift-sweep", _check_shift_sweep)
        run("embed-all-n7", _check_embed_all, 7)
    return checks
