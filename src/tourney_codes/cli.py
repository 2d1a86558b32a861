"""Command line front end.

Streaming text commands over the library: analyze, embed and
switching-class read one tournament per line, enumerate and count-tight
generate, verify-paper runs the built-in cross-validation suite.
Reports are emitted as deterministic JSON (sorted keys) or as
tab-separated rows.  This module alone knows the report's schema: the
library's records carry no JSON form.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .codes import TightnessReport, classify_code
from .errors import InputError, InternalConsistencyError
from .representation import RepReport, analyze, embed
from .spectral import BETA_ZERO_TOL, CLUSTER_GAP_FACTOR, Spectrum
from .tournament import Tournament, _read_ascii, parse_catalog

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read_input(spec: str) -> str:
    """Input is a literal tournament line, '-' for stdin, or a file path."""
    if ":" in spec and not os.path.exists(spec):
        return spec + "\n"
    if spec != "-":
        return _read_ascii(spec, "input")
    try:
        text = sys.stdin.read()
        if not text.isascii():
            # stdin is decoded by the locale, not as ASCII like a file;
            # this raises, naming the first character that is not ASCII.
            text.encode("ascii")
        return text
    except (OSError, UnicodeError) as exc:
        raise InputError(f"cannot read input {spec!r}: {exc}")


def _digest(*chunks: str) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


# Floats per call of the formatter: a call runs a fixed few dozen numpy
# operations, and its temporaries take a few hundred bytes a float.
_REPR_BLOCK = 2048
# Holds the place of a value while json writes the text around it: of the
# results list in a report, and of each table in a result.  No other
# string of a report contains a NUL.
_SLOT = "\0"
_SLOT_TEXT = json.dumps(_SLOT)


def _table(o):
    """The keys, shape and floats of o if o is a table, else None: a Spectrum
    has a {"beta", "mult", "tau"} object per line, embed's (n, d) complex128
    vectors an {"im", "re"} object per entry.  The floats are in template
    order; a line's multiplicity is an int, not among them."""
    if isinstance(o, Spectrum):
        return ("beta", "mult", "tau"), (len(o.lines),), np.array(
            [x for l in o.lines for x in (l.beta, l.tau)], dtype=np.float64)
    if isinstance(o, np.ndarray) and o.dtype == np.complex128 and o.ndim == 2:
        # a view: each entry's re and im, read backwards
        return ("im", "re"), o.shape, np.ascontiguousarray(o).view(np.float64).reshape(
            *o.shape, 2)[..., ::-1]
    return None


def _block_reprs(tables: list):
    """For each table (keys, shape, floats), the float.__repr__ texts of its
    floats as a tuple.  The floats of all tables are formatted together,
    _REPR_BLOCK a call."""
    from ._floatrepr import float_reprs

    floats = np.concatenate([f for *_, f in tables], axis=None)
    blocks = (floats[k:k + _REPR_BLOCK] for k in range(0, floats.size, _REPR_BLOCK))
    texts = itertools.chain.from_iterable(map(float_reprs, blocks))
    for *_, f in tables:
        yield tuple(itertools.islice(texts, f.size))


def _template(keys: tuple, shape: tuple, nl: str) -> str:
    """json.dumps(indent=2) of nested lists of the given shape whose items
    are objects with keys, each value a %s slot; nl is the newline and
    indentation that go before the closing bracket."""
    inner = nl + "  "
    if not shape:
        return "{" + inner + ("," + inner).join([f'"{k}": %s' for k in keys]) + nl + "}"
    if not shape[0]:
        return "[]"
    item = _template(keys, shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + nl + "]"


def _encode_items(results: list, nl: str) -> list[str]:
    """The text of json.dumps(r, sort_keys=True, indent=2) for each result
    r, with nl for each newline.  The tables among a result dict's values
    are written by template into the slots json writes in their place;
    they are always finite, as embed() and group_spectrum make them.  The
    floats of all the tables are formatted together."""
    found = [[(k, t) for k in sorted(r) if (t := _table(r[k]))] if isinstance(r, dict) else []
             for r in results]
    made = _block_reprs([t for tables in found for _, t in tables])
    inner = nl + "  "
    texts = []
    for r, tables in zip(results, found):
        rows = []
        for k, (keys, shape, _) in tables:
            values = next(made)
            if isinstance(r[k], Spectrum):  # each line's mult goes between beta and tau
                it = iter(values)
                values = tuple(itertools.chain.from_iterable(
                    zip(it, [l.mult for l in r[k].lines], it)))
            rows.append(_template(keys, shape, inner) % values)
        if tables:
            r = {**r, **{k: _SLOT for k, _ in tables}}
        # JSON text holds no raw newline, so every newline is json's indent.
        parts = json.dumps(r, sort_keys=True, indent=2).replace("\n", nl).split(_SLOT_TEXT)
        texts.append("".join([p + t for p, t in zip(parts, rows + [""], strict=True)]))
    return texts


def _map_lines(worker, entries: list[tuple[int, Tournament]]) -> list:
    """worker(T) for every numbered entry, in input order.  An error
    names its line and keeps its exit code; any exception but InputError is
    a fault of the program, an InternalConsistencyError (exit 3)."""
    results = []
    for k, T in entries:
        try:
            results.append(worker(T))
        except (InputError, InternalConsistencyError) as exc:
            raise type(exc)(f"line {k}: {T.line()}: {exc}") from None
        except Exception as exc:
            raise InternalConsistencyError(
                f"line {k}: {T.line()}: {type(exc).__name__}: {exc}") from exc
    return results


def _analysis(T: Tournament, report: RepReport) -> dict:
    """The result of T's analysis report.  Its "spectrum" is the Spectrum
    itself, whose rows _encode_items writes by template."""
    tc = report.type_class
    out = {"line": T.line(), "n": report.n, "type": int(tc.variant),
           "rep_dim": report.rep_dim,
           "alpha": {"re": float(report.alpha.real), "im": float(report.alpha.imag)},
           "spectrum": report.spectrum}
    if tc.c1 is not None:
        out["c1"] = float(tc.c1)
    if tc.c2 is not None:
        out["c2"] = float(tc.c2)
    return out


def _tightness(t: TightnessReport) -> dict:
    cert: dict = {"kind": t.certificate_kind}
    if t.drt_params is not None:
        p = t.drt_params
        cert["params"] = [p.n, p.out_degree, p.common_out_neighbors]
    if t.block_form is not None:
        b = t.block_form
        cert.update(k=b.k, l=b.l, partition=[list(part) for part in b.partition])
    return {"n": t.n, "rep_dim": t.rep_dim, "bound": t.bound, "is_tight": t.is_tight,
            "certificate": cert}


def _analyze_worker(T: Tournament) -> dict:
    report = analyze(T)
    out = _analysis(T, report)
    if T.n >= 3:
        out["tightness"] = _tightness(classify_code(report))
    return out


def _embed_worker(T: Tournament) -> dict:
    emb = embed(T)
    out = _analysis(T, emb.report)
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
# What a forked share writes before its text once the whole share is encoded.
_SHARE_DONE = "+"


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


def _write_joined(stream, texts: list[str], sep: str) -> None:
    """Write texts joined by sep, one text at a time, so that the whole is
    never held as one string."""
    for k, text in enumerate(texts):
        if k:
            stream.write(sep)
        stream.write(text)


def _fork_share(worker, encode, sep: str, entries: list):
    """Run one share in a child process; returns the child's pid and its pipe.

    The child writes nothing until its whole share is encoded, then
    _SHARE_DONE and its texts joined by sep; a share that raises exits 1
    having written nothing.  The child ends in os._exit, so it never
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
        texts = encode(_map_lines(worker, entries))
        with open(write_fd, "w", encoding="utf-8") as pipe:
            pipe.write(_SHARE_DONE)
            _write_joined(pipe, texts, sep)
        code = 0
    finally:
        os._exit(code)


def _write_shares(worker, encode, shares: list[list], head: str, sep: str,
                  tail: str) -> None:
    """Write head, the texts of every share joined by sep, then tail.

    The first share runs in this process and every other one in a child
    of its own.  Nothing is written before every share has succeeded.  A
    child whose share fails leaves it to this process, which runs it again
    to raise its error, so a failure raises the error of the earliest
    failing line, as a run in one process does.
    """
    children = []
    try:
        for entries in shares[1:]:
            children.append(_fork_share(worker, encode, sep, entries))
        texts = encode(_map_lines(worker, shares[0]))
        for (_, pipe), entries in zip(children, shares[1:]):
            if pipe.read(1) != _SHARE_DONE:
                _map_lines(worker, entries)
                # The share ran here without error, so the child ended of a
                # cause of its own, such as a signal.
                raise InternalConsistencyError(
                    f"lines {entries[0][0]}-{entries[-1][0]}: a worker process ended "
                    f"without a report")
        sys.stdout.write(head)
        _write_joined(sys.stdout, texts, sep)
        del texts
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


def _frame(args: argparse.Namespace, command: str, digest: str, tsv_row, empty: bool,
           **fields):
    """How a report is written: head, sep, tail and encode(results), the
    list of the texts of results.  The report is head, then the texts of
    all its results joined by sep, then tail.  A JSON report carries fields
    beside the envelope's keys; a TSV report is one tsv_row(result) per
    line."""
    if args.format == "tsv":
        def encode(results: list) -> list[str]:
            return ["\t".join([str(cell) for cell in tsv_row(r)]) + "\n" for r in results]

        return "", "", "", encode
    report = {"command": command, "version": __version__, "inputs_digest": digest,
              "tolerances": {"eig_tol": CLUSTER_GAP_FACTOR, "beta_tol": BETA_ZERO_TOL},
              "results": [] if empty else [_SLOT], **fields}
    doc = json.dumps(report, sort_keys=True, indent=2) + "\n"
    head, _, tail = doc.partition(_SLOT_TEXT)
    # The results list is a value of the top-level object, so its items
    # sit at an indent of four spaces.
    nl = "\n    "
    sep = "," + nl

    def encode(results: list) -> list[str]:
        return _encode_items(results, nl)

    return head, sep, tail, encode


def _emit(args: argparse.Namespace, command: str, digest: str, tsv_row, results: list,
          **fields) -> None:
    """Write the report of results computed in this process."""
    head, sep, tail, encode = _frame(args, command, digest, tsv_row, not results, **fields)
    sys.stdout.write(head)
    _write_joined(sys.stdout, encode(results), sep)
    sys.stdout.write(tail)


def _run_batch(args: argparse.Namespace, command: str, worker, tsv_row,
               cost=None) -> None:
    """Run worker on every input line and write the report.  The lines are
    cut into contiguous shares, one per usable CPU, each run and encoded in
    a process of its own.  cost(T) is the work of one line counted in
    analyze lines; without it every line counts as one."""
    text = _read_input(args.input)
    entries = parse_catalog(text.splitlines(), numbered=True)
    head, sep, tail, encode = _frame(args, command, _digest(text), tsv_row, not entries)
    if args.format == "json":
        # Loaded here, before any share forks, so no child imports it again.
        from . import _floatrepr  # noqa: F401
    work = len(entries) if cost is None else sum([cost(T) for _, T in entries])
    shares = _split(entries, _share_count(work))
    _write_shares(worker, encode, shares, head, sep, tail)


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

    lines = [T.line() for T in enumerate_tournaments(args.n)]
    _emit(args, "enumerate", _digest(f"n={args.n}"), lambda line: [line], lines)
    return EXIT_OK


def cmd_switching_class(args: argparse.Namespace) -> int:
    # Loaded here, before any share forks, so no child imports it again.
    from ._constructions import switching_class

    def worker(T: Tournament) -> dict:
        members = [c.key.decode("ascii") for c in sorted(switching_class(T))]
        return {"line": T.line(), "count": len(members), "classes": members}

    # A line costs 2^(n-1) switchings.  Timed on two CPUs, a share wins back
    # its fork from about 256 switchings of small orders, so 16 switchings
    # count as one analyze line, and a batch of orders 4 or less never splits.
    _run_batch(args, "switching-class", worker, lambda r: [
        r["line"], r["count"], " ".join(r["classes"])], cost=lambda T: 2 ** T.n // 32)
    return EXIT_OK


def cmd_count_tight(args: argparse.Namespace) -> int:
    from ._catalog import _count_tight, _read_catalog

    text = _read_catalog(args.catalog) if args.d >= 1 else None
    count = _count_tight(args.d, text)
    result = {"d": count.d, "count": count.count, "catalog_trusted": count.catalog_trusted}
    _emit(args, "count-tight", _digest(f"d={args.d}", text or ""), lambda r: [
        r["d"], r["count"], r["catalog_trusted"]], [result])
    return EXIT_OK


def cmd_verify_paper(args: argparse.Namespace) -> int:
    from ._paper import paper_checks

    checks = paper_checks(args.level)
    results = [{"id": name, "pass": ok, "detail": detail} for name, ok, detail in checks]
    all_pass = all(r["pass"] for r in results)
    _emit(args, "verify-paper", _digest(f"level={args.level}"), lambda r: [
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
