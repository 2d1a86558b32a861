"""Command line front end.

Streaming text commands over the library: analyze, embed and
switching-class read one tournament per line, enumerate and count-tight
generate, verify-paper runs the built-in cross-validation suite.
Reports are emitted as deterministic JSON (sorted keys) or as
tab-separated rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
    # NaN fails both comparisons, so it is refused with infinity.
    if not (0 < eig < math.inf and 0 < beta < math.inf):
        raise InputError("tolerances must be positive and finite")
    return Tolerances(cluster_gap_factor=eig, beta_zero=beta)


def _read_input(spec: str) -> str:
    """Input is a literal tournament line, '-' for stdin, or a file path."""
    if ":" in spec and not os.path.exists(spec):
        return spec + "\n"
    try:
        if spec == "-":
            text = sys.stdin.read()
            if not text.isascii():
                # stdin is decoded by the locale, not as ASCII like a file;
                # this raises, naming the first character that is not ASCII.
                text.encode("ascii")
            return text
        with open(spec, "r", encoding="ascii") as handle:
            return handle.read()
    except (OSError, UnicodeError) as exc:
        raise InputError(f"cannot read input {spec!r}: {exc}")


def _digest(*chunks: str) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


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


# The least work, counted in analyze lines, that earns a share, and so a
# process, of its own: a fork costs a few ms (copy-on-write faults,
# first-call setup run again in the child), which a smaller share does
# not win back.
_MIN_SHARE_LINES = 16
# Holds the place of the results list's items while the report around
# them is encoded; no other string of a report contains a NUL.
_RESULTS_SLOT = "\0"


def _share_count(work: int) -> int:
    """One share per CPU this process may run on, of _MIN_SHARE_LINES work or more."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        return 1
    return max(1, min(cpus, work // _MIN_SHARE_LINES))


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


def _frame(args: argparse.Namespace, tol: Tolerances, command: str, digest: str, tsv_row,
           empty: bool, **fields):
    """How a report is written: head, sep, tail and encode(results).  The
    report is head, then encode's texts of consecutive runs of its results
    joined by sep, then tail.  A JSON report carries fields beside the
    envelope's keys; a TSV report is one tsv_row(result) per line."""
    if args.format == "tsv":
        def encode(results: list) -> str:
            return "".join(["\t".join([str(cell) for cell in tsv_row(r)]) + "\n"
                            for r in results])

        return "", "", "", encode
    report = {"command": command, "version": __version__, "inputs_digest": digest,
              "tolerances": {"eig_tol": tol.cluster_gap_factor, "beta_tol": tol.beta_zero},
              "results": [] if empty else [_RESULTS_SLOT], **fields}
    doc = json.dumps(report, sort_keys=True, indent=2, cls=_IndentedEncoder) + "\n"
    head, _, tail = doc.partition(encode_basestring_ascii(_RESULTS_SLOT))
    # The results list is a value of the top-level object, so its items
    # sit at an indent of four spaces.
    nl = "\n    "
    sep = "," + nl
    encoder = _IndentedEncoder()

    def encode(results: list) -> str:
        return sep.join([encoder._encode(r, nl) for r in results])

    return head, sep, tail, encode


def _emit(args: argparse.Namespace, tol: Tolerances, command: str, digest: str, tsv_row,
          results: list, **fields) -> None:
    """Write the report of results computed in this process."""
    head, _, tail, encode = _frame(args, tol, command, digest, tsv_row, not results, **fields)
    sys.stdout.write(head + encode(results) + tail)


def _run_batch(args: argparse.Namespace, tol: Tolerances, command: str, worker,
               tsv_row, cost=None) -> None:
    """Run worker on every input line and write the report.  The lines are
    cut into contiguous shares, one per usable CPU, each run and encoded in
    a process of its own.  cost(T) is the work of one line counted in
    analyze lines; without it every line counts as one."""
    text = _read_input(args.input)
    entries = parse_catalog(text.splitlines(), numbered=True)
    head, sep, tail, encode = _frame(args, tol, command, _digest(text), tsv_row, not entries)
    work = len(entries) if cost is None else sum([cost(T) for _, T in entries])
    shares = _split(entries, _share_count(work))
    _write_shares(worker, encode, shares, tol, head, sep, tail)


def cmd_analyze(args: argparse.Namespace, tol: Tolerances) -> int:
    _run_batch(args, tol, "analyze", _analyze_worker, lambda r: [
        r["line"], r["type"], r["rep_dim"], r["alpha"]["re"], r["alpha"]["im"],
        r.get("tightness", {}).get("certificate", {}).get("kind", "")])
    return EXIT_OK


def cmd_embed(args: argparse.Namespace, tol: Tolerances) -> int:
    _run_batch(args, tol, "embed", _embed_worker, lambda r: [
        r["line"], r["dimension"], f"{r['max_deviation']:.3e}", r["check_passed"]])
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace, tol: Tolerances) -> int:
    from ._constructions import enumerate_tournaments

    lines = [T.line() for T in enumerate_tournaments(args.n)]
    _emit(args, tol, "enumerate", _digest(f"n={args.n}"), lambda line: [line], lines)
    return EXIT_OK


def cmd_switching_class(args: argparse.Namespace, tol: Tolerances) -> int:
    # Loaded here, before any share forks, so no child imports it again.
    from ._constructions import switching_class

    def worker(T: Tournament, tol: Tolerances) -> dict:
        members = [c.key.decode("ascii") for c in sorted(switching_class(T))]
        return {"line": T.line(), "count": len(members), "classes": members}

    # A line costs 2^(n-1) switchings.  Timed on two CPUs, a share wins back
    # its fork from about 256 switchings of small orders, so 16 switchings
    # count as one analyze line, and a batch of orders 4 or less never splits.
    _run_batch(args, tol, "switching-class", worker, lambda r: [
        r["line"], r["count"], " ".join(r["classes"])], cost=lambda T: 2 ** T.n // 32)
    return EXIT_OK


def cmd_count_tight(args: argparse.Namespace, tol: Tolerances) -> int:
    from ._catalog import _count_tight, _read_catalog

    text = _read_catalog(args.catalog) if args.d >= 1 else None
    count = _count_tight(args.d, text)
    _emit(args, tol, "count-tight", _digest(f"d={args.d}", text or ""), lambda r: [
        r["d"], r["count"], r["catalog_trusted"]], [count.to_json_dict()])
    return EXIT_OK


def cmd_verify_paper(args: argparse.Namespace, tol: Tolerances) -> int:
    from ._paper import paper_checks

    checks = paper_checks(args.level, tol, (ORDER4_LINES, ORDER4_REP_DIMS))
    results = [{"id": name, "pass": ok, "detail": detail} for name, ok, detail in checks]
    all_pass = all(r["pass"] for r in results)
    _emit(args, tol, "verify-paper", _digest(f"level={args.level}"), lambda r: [
        "PASS" if r["pass"] else "FAIL", r["id"], r["detail"]], results, all_pass=all_pass)
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


def main(argv=None) -> int:
    """Run the command line argv; returns the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args, _tolerances(args))
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
