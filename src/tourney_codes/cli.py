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
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .codes import classify_code
from .errors import InputError, InternalConsistencyError
from .representation import analyze, embed
from .spectral import BETA_ZERO_TOL, CLUSTER_GAP_FACTOR, Tolerances, Spectrum
from .tournament import Tournament, parse_catalog

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
    if ":" in spec and not os.path.exists(spec):
        return spec + "\n"
    try:
        if spec == "-":
            return sys.stdin.read()
        with open(spec, "r", encoding="ascii") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
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
    complex128 array (embed's vectors) and a Spectrum are written as the
    lists of row objects they stand for, with one %-template while finite.
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
        if isinstance(o, Spectrum):
            return self._spectrum_rows(o, nl)
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

    def _spectrum_rows(self, spec: Spectrum, nl: str) -> str:
        # %r writes float.__repr__ for the Python floats group_spectrum makes
        values = [x for l in spec.lines for x in (l.beta, l.mult, l.tau)]
        if not values or not np.isfinite(values).all():
            return self._encode(spec.to_json_dict()["eigenvalues"], nl)
        row_nl, key_nl = nl + "  ", nl + "    "
        row = ("{" + key_nl + '"beta": %r,' + key_nl + '"mult": %d,' + key_nl
               + '"tau": %r' + row_nl + "}")
        table = "[" + row_nl + ("," + row_nl).join([row] * len(spec.lines)) + nl + "]"
        return table % tuple(values)


def _emit(report: dict, fmt: str, tsv_rows: list[list]) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2, cls=_IndentedEncoder)
                         + "\n")
    else:
        for row in tsv_rows:
            sys.stdout.write("\t".join(str(cell) for cell in row) + "\n")


def _map_lines(worker, entries: list[tuple[int, Tournament]], tol: Tolerances) -> list:
    """worker(T, tol) for every numbered entry, in input order."""
    results = []
    for k, T in entries:
        try:
            results.append(worker(T, tol))
        except (InputError, InternalConsistencyError) as exc:
            # Errors name the input line; the exception type keeps the exit code.
            raise type(exc)(f"line {k}: {T.line()}: {exc}") from None
    return results


def _analyze_worker(T: Tournament, tol: Tolerances) -> dict:
    report = analyze(T, tol)
    out = {"line": T.line()}
    out.update(report.to_json_dict(spectrum=report.spectrum))
    if T.n >= 3:
        out["tightness"] = classify_code(T, tol, report=report).to_json_dict()
    return out


def _embed_worker(T: Tournament, tol: Tolerances) -> dict:
    emb = embed(T, tol)
    report = emb.report
    out = {"line": T.line()}
    out.update(report.to_json_dict(spectrum=report.spectrum))
    out["dimension"] = emb.dimension
    out["vectors"] = emb.vectors
    out["max_deviation"] = emb.max_deviation
    # embed raises InternalConsistencyError on an embedding that fails its check
    out["check_passed"] = True
    return out


# The fewest input lines that earn a share, and so a process, of their
# own: a fork costs a few ms (copy-on-write faults, first-call setup run
# again in the child), which a smaller share does not win back.
_MIN_SHARE_LINES = 16
# Holds the place of the results list's items while the report around
# them is encoded; no other string of a report contains a NUL.
_RESULTS_SLOT = "\0"


def _share_count(lines: int) -> int:
    """One share per CPU this process may run on, of _MIN_SHARE_LINES lines or more."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        return 1
    return max(1, min(cpus, lines // _MIN_SHARE_LINES))


def _split(entries: list, count: int) -> list[list]:
    """count contiguous shares of entries, whose sizes differ by at most one;
    never more shares than entries, and never none."""
    n = len(entries)
    count = max(1, min(count, n))
    return [entries[k * n // count:(k + 1) * n // count] for k in range(count)]


def _fork_share(worker, encode, entries: list, tol: Tolerances):
    """Run one share in a child process; returns the child's pid and its pipe.

    The child writes one JSON status line, null or [error class name,
    message], then its text, and ends in os._exit, so it never
    returns into the caller.
    """
    import warnings

    read_fd, write_fd = os.pipe()
    # Python 3.12+ warns on stderr when a process with threads forks, as
    # this one has when OpenBLAS runs its own thread pool.  OpenBLAS stops
    # that pool around a fork and starts it again when the child needs it.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, encoding="utf-8")
    code = 1
    try:
        os.close(read_fd)
        text, status = "", None
        try:
            text = encode(_map_lines(worker, entries, tol))
        except (InputError, InternalConsistencyError) as exc:
            status = [type(exc).__name__, str(exc)]
        except Exception as exc:  # reported by the parent, which exits 3
            status = [InternalConsistencyError.__name__,
                      f"lines {entries[0][0]}-{entries[-1][0]}: a worker process "
                      f"raised {type(exc).__name__}: {exc}"]
        with open(write_fd, "w", encoding="utf-8") as pipe:
            pipe.write(json.dumps(status) + "\n")
            pipe.write(text)
        code = 0
    finally:
        os._exit(code)


def _read_status(pipe) -> None:
    """Read a child's status line and raise the error it names, if any."""
    try:
        status = json.loads(pipe.readline())
    except ValueError:
        raise InternalConsistencyError("a worker process ended without a report") from None
    if status is not None:
        error, detail = status
        raise (InputError if error == InputError.__name__ else InternalConsistencyError)(detail)


def _write_shares(worker, encode, shares: list[list], tol: Tolerances,
                  head: str, sep: str, tail: str) -> None:
    """Write head, the text of every share joined by sep, then tail.

    The first share runs in this process and every other one in a child
    of its own.  Nothing is written before every share has succeeded; a
    failure raises the error of the earliest failing share, so of the
    earliest failing line.
    """
    children = []
    try:
        for entries in shares[1:]:
            children.append(_fork_share(worker, encode, entries, tol))
        text = encode(_map_lines(worker, shares[0], tol))
        for _, pipe in children:
            _read_status(pipe)
        sys.stdout.write(head)
        sys.stdout.write(text)
        del text
        while children:
            pid, pipe = children[0]
            sys.stdout.write(sep)
            while block := pipe.read(1 << 16):
                sys.stdout.write(block)
            pipe.close()
            del children[0]
            if os.waitpid(pid, 0)[1]:
                raise InternalConsistencyError(f"worker process {pid} failed while writing")
        sys.stdout.write(tail)
    finally:
        for pid, pipe in children:  # still running only when a share failed
            import signal

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_batch(args: argparse.Namespace, command: str, worker, tsv_row) -> None:
    """Run worker on every input line and write the report.  The lines are
    cut into contiguous shares, one per usable CPU, each run and encoded in
    a process of its own."""
    tol = _tolerances(args)
    text = _read_input(args.input)
    entries = parse_catalog(text.splitlines(), numbered=True)
    shares = _split(entries, args.shares or _share_count(len(entries)))
    if args.format == "json":
        report = _report(command, _digest(text), tol, [_RESULTS_SLOT] if entries else [])
        doc = json.dumps(report, sort_keys=True, indent=2, cls=_IndentedEncoder) + "\n"
        head, _, tail = doc.partition(encode_basestring_ascii(_RESULTS_SLOT))
        # The results list is a value of the top-level object, so its
        # items sit at an indent of four spaces.
        nl = "\n    "
        sep = "," + nl
        encoder = _IndentedEncoder()

        def encode(results: list) -> str:
            return sep.join([encoder._encode(r, nl) for r in results])
    else:
        head = sep = tail = ""

        def encode(results: list) -> str:
            return "".join(["\t".join([str(cell) for cell in tsv_row(r)]) + "\n"
                            for r in results])
    _write_shares(worker, encode, shares, tol, head, sep, tail)


def cmd_analyze(args: argparse.Namespace) -> int:
    _run_batch(args, "analyze", _analyze_worker, lambda r: [
        r["line"], r["type"], r["rep_dim"], r["alpha"]["re"], r["alpha"]["im"],
        r.get("tightness", {}).get("certificate", {}).get("kind", "")])
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    _run_batch(args, "embed", _embed_worker, lambda r: [
        r["line"], r["dimension"], f"{r['max_deviation']:.3e}", r["check_passed"]])
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    from ._constructions import enumerate_tournaments

    tol = _tolerances(args)
    lines = [T.line() for T in enumerate_tournaments(args.n)]
    _emit(_report("enumerate", _digest(f"n={args.n}"), tol, lines),
          args.format, [[line] for line in lines])
    return EXIT_OK


def cmd_switching_class(args: argparse.Namespace) -> int:
    from ._constructions import switching_class

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
    from ._catalog import count_tight_codes

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


def cmd_verify_paper(args: argparse.Namespace) -> int:
    from ._paper import paper_checks

    tol = _tolerances(args)
    checks = paper_checks(args.level, tol, (ORDER4_LINES, ORDER4_REP_DIMS))
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
                   help="kept for compatibility: every embedding is verified, "
                   "and one that fails exits with code 3")
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


def main(argv=None, *, _shares: int | None = None) -> int:
    """Run the command line argv; returns the exit code.

    _shares, when given, is how many processes analyze and embed split
    their lines over, in place of one per usable CPU.
    """
    parser = _build_parser()
    args = parser.parse_args(argv, argparse.Namespace(shares=_shares))
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency error: {exc}\n")
        return EXIT_INTERNAL


def entry() -> None:
    """Run main on sys.argv, flush stdout and stderr, and end the process.

    os._exit skips interpreter teardown, a fixed cost of every call; main
    has reaped every share it forked before it returns.  A flush that
    fails falls back to sys.exit, so the interpreter reports the failure.
    A reader that closes stdout early, as head does, gets exit 1 and one
    line on stderr.
    """
    try:
        code = main()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except BrokenPipeError:
            raise
        except Exception:
            sys.exit(code)
    except BrokenPipeError as exc:
        # What stdout still buffers can never be written; os._exit drops it
        # where teardown would try, fail and print once more.
        sys.stderr.write(f"output error: {exc}\n")
        sys.stderr.flush()
        code = 1
    os._exit(code)


if __name__ == "__main__":
    entry()
