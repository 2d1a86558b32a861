"""Command line front end.

Streaming text commands over the library: analyze and embed read one
tournament per line, enumerate and count-tight generate, verify-paper
runs the built-in cross-validation suite.  Reports are emitted as
deterministic JSON (sorted keys) or as tab-separated rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from functools import partial
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .codes import (classify_code, count_tight_codes, is_doubly_regular,
                    skew_hadamard_check, verify_no_double_zero_spectrum)
from .errors import InputError, InternalConsistencyError
from .representation import (analyze, embed, multiplicity_profile, verify_embedding,
                             witness_shift)
from .spectral import (BETA_ZERO_TOL, CLUSTER_GAP_FACTOR, Tolerances,
                       char_identity_residual, seidel_matrix, shifted_main_spectrum,
                       spectrum_of)
from .tournament import (Tournament, dominated_extension, enumerate_tournaments,
                         parse_catalog, parse_line, paley_tournament,
                         random_tournament, switching_class)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# The four isomorphism classes of 4-vertex tournaments, in the fixed order
# whose embedding dimensions are 3, 2, 3, 2.
ORDER4_LINES = ("4:111111", "4:111010", "4:011101", "4:011011")
ORDER4_REP_DIMS = (3, 2, 3, 2)


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"environment variable {name} must be a number, got {raw!r}")


def _env_threads() -> int:
    raw = os.environ.get("TOURNEY_CODES_THREADS")
    if raw is None:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        raise InputError(f"TOURNEY_CODES_THREADS must be an integer, got {raw!r}")
    return max(1, threads)


def _tolerances(args: argparse.Namespace) -> Tolerances:
    eig = args.eig_tol if args.eig_tol is not None else _env_float(
        "TOURNEY_CODES_EIG_TOL", CLUSTER_GAP_FACTOR)
    beta = args.beta_tol if args.beta_tol is not None else _env_float(
        "TOURNEY_CODES_BETA_TOL", BETA_ZERO_TOL)
    if eig <= 0 or beta <= 0:
        raise InputError("tolerances must be positive")
    return Tolerances(cluster_gap_factor=eig, beta_zero=beta)


def _read_input(spec: str) -> str:
    """Input is a literal tournament line, '-' for stdin, or a file path."""
    if spec == "-":
        return sys.stdin.read()
    if ":" in spec and not os.path.exists(spec):
        return spec + "\n"
    try:
        with open(spec, "r", encoding="ascii") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read input {spec!r}: {exc}")


def _digest(*chunks: str) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


def _report(command: str, digest: str, tol: Tolerances, results: list) -> dict:
    return {
        "command": command,
        "version": __version__,
        "inputs_digest": digest,
        "tolerances": {"eig_tol": tol.cluster_gap_factor, "beta_tol": tol.beta_zero},
        "results": results,
    }


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if abs(x) == float("inf"):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


class _IndentedEncoder(json.JSONEncoder):
    """The text of json.dumps(o, sort_keys=True, indent=2), built with str.join.

    With an indent, json falls back from its C encoder to a slower
    pure-Python one; this writes the same bytes faster.  Dict keys must
    be strings, and circular references are not detected.  An (n, d)
    complex128 array, the embed command's vectors, is written as the list
    of n rows of {"im", "re"} objects it stands for, with one %-template
    while every entry is finite.
    """

    def encode(self, o) -> str:
        return self._encode(o, "\n")

    def _encode(self, o, nl: str) -> str:
        # nl: the newline and indentation that go before o's closing bracket
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return _float_text(o)
        inner = nl + "  "
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [self._encode(v, inner) for v in o]
            return "[" + inner + ("," + inner).join(items) + nl + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [encode_basestring_ascii(k) + ": " + self._encode(v, inner)
                     for k, v in sorted(o.items())]
            return "{" + inner + ("," + inner).join(items) + nl + "}"
        if isinstance(o, np.ndarray) and o.dtype == np.complex128 and o.ndim == 2:
            return self._complex_rows(o, nl)
        return self._encode(self.default(o), nl)

    def _complex_rows(self, X: np.ndarray, nl: str) -> str:
        if not np.isfinite(X).all():
            return self._encode([[{"im": z.imag, "re": z.real} for z in row]
                                 for row in X.tolist()], nl)
        n, d = X.shape
        row_nl, entry_nl, key_nl = nl + "  ", nl + "    ", nl + "      "
        entry = "{" + key_nl + '"im": %r,' + key_nl + '"re": %r' + entry_nl + "}"
        row = "[" + entry_nl + ("," + entry_nl).join([entry] * d) + row_nl + "]" if d else "[]"
        table = "[" + row_nl + ("," + row_nl).join([row] * n) + nl + "]" if n else "[]"
        return table % tuple(np.stack([X.imag, X.real], -1).ravel().tolist())


def _emit(report: dict, fmt: str, tsv_rows: list[list]) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2, cls=_IndentedEncoder)
                         + "\n")
    else:
        for row in tsv_rows:
            sys.stdout.write("\t".join(str(cell) for cell in row) + "\n")


def _per_line(worker, tol: Tolerances, entry: tuple[int, Tournament]) -> dict:
    # Errors name the input line; the exception type keeps the exit code.
    k, T = entry
    try:
        return worker(T, tol)
    except (InputError, InternalConsistencyError) as exc:
        raise type(exc)(f"line {k}: {T.line()}: {exc}") from None


def _map_lines(worker, entries: list[tuple[int, Tournament]], tol: Tolerances) -> list:
    """worker(T, tol) for every numbered entry, in input order."""
    run = partial(_per_line, worker, tol)
    threads = _env_threads()
    if threads > 1 and len(entries) > 1:
        # imported here: multiprocessing would add to every CLI start
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, entries))
    return [run(entry) for entry in entries]


def _analyze_worker(T: Tournament, tol: Tolerances) -> dict:
    report = analyze(T, tol)
    out = {"line": T.line()}
    out.update(report.to_json_dict())
    if T.n >= 3:
        out["tightness"] = classify_code(T, tol, report=report).to_json_dict()
    return out


def _embed_worker(T: Tournament, tol: Tolerances) -> dict:
    emb = embed(T, tol)
    verdict = verify_embedding(emb, T)
    report = emb.report if emb.report is not None else analyze(T, tol)
    out = {"line": T.line()}
    out.update(report.to_json_dict())
    out["dimension"] = emb.dimension
    out["vectors"] = np.asarray(emb.vectors, dtype=np.complex128)
    out["max_deviation"] = float(verdict.max_deviation)
    out["check_passed"] = bool(verdict.passed)
    return out


def cmd_analyze(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    text = _read_input(args.input)
    entries = parse_catalog(text.splitlines(), numbered=True)
    results = _map_lines(_analyze_worker, entries, tol)
    rows = [[r["line"], r["type"], r["rep_dim"], r["alpha"]["re"], r["alpha"]["im"],
             r.get("tightness", {}).get("certificate", {}).get("kind", "")]
            for r in results]
    _emit(_report("analyze", _digest(text), tol, results), args.format, rows)
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    text = _read_input(args.input)
    entries = parse_catalog(text.splitlines(), numbered=True)
    results = _map_lines(_embed_worker, entries, tol)
    rows = [[r["line"], r["dimension"], f"{r['max_deviation']:.3e}", r["check_passed"]]
            for r in results]
    _emit(_report("embed", _digest(text), tol, results), args.format, rows)
    if args.check and not all(r["check_passed"] for r in results):
        sys.stderr.write("embedding verification failed\n")
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    lines = [T.line() for T in enumerate_tournaments(args.n)]
    _emit(_report("enumerate", _digest(f"n={args.n}"), tol, lines),
          args.format, [[line] for line in lines])
    return EXIT_OK


def cmd_switching_class(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    text = _read_input(args.input)
    tournaments = parse_catalog(text.splitlines())
    results = []
    rows = []
    for T in tournaments:
        classes = sorted(switching_class(T))
        members = [c.key.decode("ascii") for c in classes]
        results.append({"line": T.line(), "count": len(members), "classes": members})
        rows.append([T.line(), len(members), " ".join(members)])
    _emit(_report("switching-class", _digest(text), tol, results), args.format, rows)
    return EXIT_OK


def cmd_count_tight(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    count = count_tight_codes(args.d, args.catalog)
    digest_parts = [f"d={args.d}"]
    if args.catalog:
        with open(args.catalog, "r", encoding="ascii") as handle:
            digest_parts.append(handle.read())
    result = count.to_json_dict()
    _emit(_report("count-tight", _digest(*digest_parts), tol, [result]),
          args.format, [[count.d, count.count, count.catalog_trusted]])
    return EXIT_OK


def _check_order4(tol: Tolerances) -> tuple[bool, str]:
    dims = [analyze(parse_line(line), tol).rep_dim for line in ORDER4_LINES]
    return dims == list(ORDER4_REP_DIMS), f"rep dims {dims}, expected {list(ORDER4_REP_DIMS)}"


def _check_tight_count(d: int, want: int) -> tuple[bool, str]:
    got = count_tight_codes(d).count
    return got == want, f"count_tight_codes({d}) = {got}, expected {want}"


def _check_double_zero(n: int, tol: Tolerances) -> tuple[bool, str]:
    ok = verify_no_double_zero_spectrum(n, tol)
    return ok, "no excluded spectrum found" if ok else "counterexample spectrum found"


def _check_tight_equivalences(n_max: int, tol: Tolerances) -> tuple[bool, str]:
    bad = []
    for n in range(3, n_max + 1):
        for T in enumerate_tournaments(n):
            d = analyze(T, tol).rep_dim
            if (d % 2 == 1 and n == 2 * d + 1) != (is_doubly_regular(T) is not None):
                bad.append(f"odd-bound equivalence fails for {T.line()}")
            if (d % 2 == 0 and n == 2 * d) != skew_hadamard_check(T):
                bad.append(f"even-bound equivalence fails for {T.line()}")
    return not bad, bad[0] if bad else f"both equivalences hold for all n <= {n_max}"


def _check_certificates(n_max: int, tol: Tolerances) -> tuple[bool, str]:
    kinds: dict[str, int] = {}
    for n in range(3, n_max + 1):
        for T in enumerate_tournaments(n):
            report = classify_code(T, tol)
            kinds[report.certificate_kind] = kinds.get(report.certificate_kind, 0) + 1
    detail = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    return True, f"certificates consistent: {detail}"


def _check_char_identity(cases: int, tol: Tolerances) -> tuple[bool, str]:
    rng = random.Random(20260819)
    worst = 0.0
    for _ in range(cases):
        T = random_tournament(rng.randint(2, 8), rng)
        a = rng.uniform(-3.0, 3.0)
        samples = [rng.uniform(-12.0, 12.0) for _ in range(20)]
        result = char_identity_residual(seidel_matrix(T), a, samples, tol)
        worst = max(worst, result.max_residual)
    return worst <= 1e-8, f"worst residual {worst:.3e} over {cases} cases"


def _check_interlacing(cases: int, tol: Tolerances) -> tuple[bool, str]:
    rng = random.Random(8312)
    for _ in range(cases):
        T = random_tournament(rng.randint(2, 8), rng)
        a = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        _, verdict = shifted_main_spectrum(seidel_matrix(T), a, tol)
        if not verdict.ok:
            return False, f"violation for {T.line()} at a={a:.4f}: {verdict.violations[0]}"
    return True, f"{cases} random shifts interlace strictly"


def _check_spectral_invariants(n_max: int, tol: Tolerances) -> tuple[bool, str]:
    for n in range(2, n_max + 1):
        for T in enumerate_tournaments(n):
            spectrum = spectrum_of(T, tol)
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


def _check_witness_multiplicity(n_max: int, tol: Tolerances) -> tuple[bool, str]:
    for n in range(2, n_max + 1):
        for T in enumerate_tournaments(n):
            report = analyze(T, tol)
            a = witness_shift(report)
            mult = multiplicity_profile(T, [a], tol)[0][1]
            if mult != n - report.rep_dim:
                return False, (f"witness multiplicity {mult} for {T.line()} does not "
                               f"give dimension {report.rep_dim}")
    return True, f"witness shifts reach n - rep_dim for all n <= {n_max}"


def _check_seven_vertex_scan(tol: Tolerances) -> tuple[bool, str]:
    hits = [T for T in enumerate_tournaments(7) if analyze(T, tol).rep_dim == 3]
    if len(hits) != 1:
        return False, f"{len(hits)} classes with rep_dim 3 at n=7, expected 1"
    params = is_doubly_regular(hits[0])
    ok = params is not None and (params.n, params.out_degree, params.common_out_neighbors) == (7, 3, 1)
    return ok, f"unique class {hits[0].line()} with parameters {params}"


def _check_switching_skew(tol: Tolerances) -> tuple[bool, str]:
    classes = switching_class(dominated_extension(paley_tournament(7)))
    if len(classes) != 4:
        return False, f"{len(classes)} switching classes at n=8, expected 4"
    for cf in sorted(classes):
        T = cf.tournament()
        if analyze(T, tol).rep_dim != 4 or not skew_hadamard_check(T):
            return False, f"member {T.line()} is not a tight 4-dimensional code"
    return True, "all 4 members have rep_dim 4 and pass the skew Hadamard check"


def _check_shift_sweep(tol: Tolerances) -> tuple[bool, str]:
    rng = random.Random(555)
    for _ in range(50):
        T = random_tournament(rng.randint(2, 7), rng)
        cap = T.n - analyze(T, tol).rep_dim
        shifts = [rng.uniform(-10.0, 10.0) for _ in range(1000)]
        worst = max(mult for _, mult in multiplicity_profile(T, shifts, tol))
        if worst > cap:
            return False, f"shift sweep beats the bound on {T.line()}"
    return True, "50 tournaments times 1000 shifts never beat n - rep_dim"


def _check_embed_all(n_max: int, tol: Tolerances) -> tuple[bool, str]:
    worst = 0.0
    for n in range(2, n_max + 1):
        for T in enumerate_tournaments(n):
            emb = embed(T, tol)
            verdict = verify_embedding(emb, T)
            worst = max(worst, verdict.max_deviation)
            if not verdict.passed or emb.dimension != emb.report.rep_dim:
                return False, f"embedding failed for {T.line()}"
    return True, f"all embeddings verified, worst deviation {worst:.3e}"


def _paper_checks(level: str, tol: Tolerances) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def run(name: str, fn, *fn_args) -> None:
        try:
            ok, detail = fn(*fn_args)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, ok, detail))

    run("order4-rep-dims", _check_order4, tol)
    for d, want in ((1, 1), (2, 2), (3, 1), (4, 4)):
        run(f"tight-count-d{d}", _check_tight_count, d, want)
    for n in (4, 6):
        run(f"double-zero-exclusion-n{n}", _check_double_zero, n, tol)
    run("tight-equivalences-n6", _check_tight_equivalences, 6, tol)
    run("certificates-n6", _check_certificates, 6, tol)
    run("char-identity-25", _check_char_identity, 25, tol)
    run("interlacing-25", _check_interlacing, 25, tol)
    run("spectral-invariants-n5", _check_spectral_invariants, 5, tol)
    run("witness-multiplicity-n5", _check_witness_multiplicity, 5, tol)
    if level == "full":
        for d, want in ((5, 1), (6, 8)):
            run(f"tight-count-d{d}", _check_tight_count, d, want)
        run("seven-vertex-scan", _check_seven_vertex_scan, tol)
        run("tight-equivalences-n7", _check_tight_equivalences, 7, tol)
        run("certificates-n7", _check_certificates, 7, tol)
        run("switching-class-skew-n8", _check_switching_skew, tol)
        run("char-identity-100", _check_char_identity, 100, tol)
        run("interlacing-100", _check_interlacing, 100, tol)
        run("spectral-invariants-n7", _check_spectral_invariants, 7, tol)
        run("witness-multiplicity-n6", _check_witness_multiplicity, 6, tol)
        run("shift-sweep", _check_shift_sweep, tol)
        run("embed-all-n7", _check_embed_all, 7, tol)
    return checks


def cmd_verify_paper(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    checks = _paper_checks(args.level, tol)
    results = [{"id": name, "pass": ok, "detail": detail} for name, ok, detail in checks]
    all_pass = all(ok for _, ok, _ in checks)
    report = _report("verify-paper", _digest(f"level={args.level}"), tol, results)
    report["all_pass"] = all_pass
    rows = [[("PASS" if ok else "FAIL"), name, detail] for name, ok, detail in checks]
    _emit(report, args.format, rows)
    return EXIT_OK if all_pass else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourney-codes",
        description="Minimum-dimension unit-vector models of tournaments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "tsv"), default="json",
                       help="output format (default json)")
        p.add_argument("--eig-tol", type=float, default=None,
                       help="eigenvalue clustering tolerance factor")
        p.add_argument("--beta-tol", type=float, default=None,
                       help="main angle zero threshold")

    p = sub.add_parser("analyze", help="type, dimension, and angle per tournament")
    p.add_argument("input", nargs="?", default="-",
                   help="tournament line, file of lines, or - for stdin")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("embed", help="explicit verified unit-vector embeddings")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--check", action="store_true",
                   help="fail with exit code 3 when verification deviates")
    common(p)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("enumerate", help="one representative per isomorphism class")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("switching-class", help="isomorphism classes under switching")
    p.add_argument("input", nargs="?", default="-")
    common(p)
    p.set_defaults(fn=cmd_switching_class)

    p = sub.add_parser("count-tight", help="tight configurations in dimension d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--catalog", default=None,
                   help="catalog file of doubly regular tournaments")
    common(p)
    p.set_defaults(fn=cmd_count_tight)

    p = sub.add_parser("verify-paper", help="run the built-in cross-validation suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    common(p)
    p.set_defaults(fn=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency error: {exc}\n")
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
