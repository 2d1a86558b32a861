"""Command line behaviour: envelopes, formats, exit codes, determinism."""

import hashlib
import inspect
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tourney_codes
from tourney_codes import (EmbeddingVerdict, InputError, InternalConsistencyError,
                           TypeVariant, analyze, classify_code, d_optimal_block,
                           delete_vertex, dominated_extension, embed, paley_tournament,
                           parse_line, random_tournament, verify_embedding)
from tourney_codes.spectral import (BETA_ZERO_TOL, CLUSTER_GAP_FACTOR, SpectralLine,
                                    Spectrum)
from tourney_codes import _floatrepr, _paper, cli, representation
from tourney_codes._paper import _check_embed_all
from tourney_codes.cli import main
from conftest import ORDER4_LINES, analysis_dict, spectrum_rows, tightness_dict


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    return rc, json.loads(out), err


def test_analyze_literal_line(capsys):
    rc, report, _ = run_json(capsys, "analyze", "3:101")
    assert rc == 0
    assert set(report) == {"command", "version", "inputs_digest",
                           "tolerances", "results"}
    assert report["command"] == "analyze"
    assert set(report["tolerances"]) == {"eig_tol", "beta_tol"}
    (res,) = report["results"]
    assert res["line"] == "3:101"
    assert res["type"] == 1 and res["rep_dim"] == 1
    assert res["alpha"]["im"] == pytest.approx(math.sqrt(3) / 2)
    assert res["c1"] == pytest.approx(math.sqrt(3))
    assert len(res["spectrum"]) == 3
    assert res["tightness"]["certificate"]["kind"] == "DRT"


def test_analyze_below_three_vertices_has_no_tightness(capsys):
    rc, report, _ = run_json(capsys, "analyze", "2:1")
    assert rc == 0
    assert "tightness" not in report["results"][0]


def test_analyze_file_stdin_and_literal_agree(tmp_path, capsys, monkeypatch):
    text = "3:101\n"
    path = tmp_path / "one.txt"
    path.write_text(text)
    rc1, out1, _ = run_cli(capsys, "analyze", "3:101")
    rc2, out2, _ = run_cli(capsys, "analyze", str(path))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc3, out3, _ = run_cli(capsys, "analyze", "-")
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out2 == out3


def test_analyze_output_is_deterministic(tmp_path, capsys):
    path = tmp_path / "batch.txt"
    path.write_text("4:111111\n4:111010\n4:011101\n4:011011\n")
    _, first, _ = run_cli(capsys, "analyze", str(path))
    _, second, _ = run_cli(capsys, "analyze", str(path))
    assert first == second


def test_analyze_tsv_row(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "3:101", "--format", "tsv")
    assert rc == 0
    (row,) = out.splitlines()
    fields = row.split("\t")
    assert fields[0] == "3:101"
    assert fields[1] == "1" and fields[2] == "1"
    assert fields[5] == "DRT"


def test_empty_stdin_gives_empty_results(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    rc, report, _ = run_json(capsys, "analyze", "-")
    assert rc == 0
    assert report["results"] == []


def test_embed_check_passes(capsys):
    rc, report, _ = run_json(capsys, "embed", "4:111010", "--check")
    assert rc == 0
    (res,) = report["results"]
    assert res["dimension"] == 2
    assert len(res["vectors"]) == 4
    assert all(len(v) == 2 and set(v[0]) == {"re", "im"} for v in res["vectors"])
    assert res["check_passed"] and res["max_deviation"] < 1e-9


def fail_verification(monkeypatch, failing=lambda T: True):
    """Make embed's own check fail on every tournament failing(T) accepts."""
    real = representation.verify_embedding

    def verify(emb, T):
        verdict = real(emb, T)
        return EmbeddingVerdict(False, 0.25) if failing(T) else verdict

    monkeypatch.setattr(representation, "verify_embedding", verify)


def verification_error(k, line):
    return (f"internal consistency error: line {k}: {line}: "
            "embedding verification failed with deviation 0.25\n")


def test_embed_check_failure_exits_three(capsys, monkeypatch):
    fail_verification(monkeypatch)
    assert run_cli(capsys, "embed", "4:111010", "--check") == (
        3, "", verification_error(1, "4:111010"))
    text = "# header\n" + share_batch()
    want = (3, "", verification_error(2, text.splitlines()[1]))
    for shares in (1, 3):
        assert run_shares(capsys, monkeypatch, shares, text, "embed", "--check") == want
    assert no_child_left()


def test_embed_without_check_fails_the_same_way(capsys, monkeypatch):
    fail_verification(monkeypatch)
    text = share_batch()
    for shares in (1, 3):
        with_check = run_shares(capsys, monkeypatch, shares, text, "embed", "--check")
        assert with_check[0] == 3
        assert run_shares(capsys, monkeypatch, shares, text, "embed") == with_check
    assert run_cli(capsys, "embed", "4:111010") == (3, "", verification_error(1, "4:111010"))


def test_embed_verifies_each_line_once(capsys, monkeypatch, tmp_path):
    # Every module that binds verify_embedding is counted, so a second
    # check anywhere in the CLI shows; shares count through a shared file.
    real = representation.verify_embedding
    calls = tmp_path / "calls"

    def counted(*args, **kwargs):
        with open(calls, "a", encoding="ascii") as handle:
            handle.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("tourney_codes") and vars(module).get("verify_embedding") is real:
            monkeypatch.setattr(module, "verify_embedding", counted)
    text = share_batch()
    lines = len(text.splitlines())
    for shares in (1, 3):
        calls.write_text("")
        assert run_shares(capsys, monkeypatch, shares, text, "embed", "--check")[0] == 0
        pids = calls.read_text().split()
        assert len(pids) == lines and len(set(pids)) == shares


def test_enumerate_json_and_tsv(capsys):
    rc, report, _ = run_json(capsys, "enumerate", "--n", "4")
    assert rc == 0
    assert report["results"] == ["4:000000", "4:000010", "4:001001", "4:010001"]
    rc, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--format", "tsv")
    assert rc == 0
    assert out.splitlines() == ["4:000000", "4:000010", "4:001001", "4:010001"]
    rc, report, _ = run_json(capsys, "enumerate", "--n", "1")
    assert rc == 0 and report["results"] == ["1:"]
    rc, out, _ = run_cli(capsys, "enumerate", "--n", "1", "--format", "tsv")
    assert rc == 0 and out.splitlines() == ["1:"]


def test_switching_class_command(capsys):
    rc, report, _ = run_json(capsys, "switching-class", "3:101")
    assert rc == 0
    (res,) = report["results"]
    assert res["line"] == "3:101"
    assert res["count"] == 2
    assert res["classes"] == ["3:000", "3:010"]


# The four planted certificate lines of the CI's console script step:
# Paley 7, its dominated extension, Paley 7 minus a vertex and the block
# form of two Paley 3s.
GOLDEN_CERTIFICATES = {
    "7:110100110101101110111": {"kind": "DRT", "params": [7, 3, 1]},
    "8:1101001110101110111101111111": {"kind": "SkewHadamard"},
    "6:110101101110111": {"kind": "DrtMinusVertex"},
    "6:101111111111101": {"k": 3, "kind": "BlockForm", "l": 2,
                          "partition": [[0, 1, 2], [3, 4, 5]]},
}


def test_certificate_json_is_golden(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(GOLDEN_CERTIFICATES) + "\n"))
    rc, report, _ = run_json(capsys, "analyze", "-")
    assert rc == 0
    got = [(r["line"], r["tightness"]["certificate"]) for r in report["results"]]
    assert got == list(GOLDEN_CERTIFICATES.items())


def test_report_json_fields(capsys):
    _, report, _ = run_json(capsys, "analyze", "3:101")
    (d,) = report["results"]
    assert d["n"] == 3 and d["type"] == 1 and d["rep_dim"] == 1
    assert set(d["alpha"]) == {"re", "im"}
    assert "c1" in d and "c2" not in d
    _, report, _ = run_json(capsys, "analyze", "6:101111111111101")
    (d,) = report["results"]
    assert d["type"] == 3 and "c2" in d and "c1" not in d


def test_spectrum_json_shape(capsys):
    _, report, _ = run_json(capsys, "analyze", "3:101")
    rows = report["results"][0]["spectrum"]
    assert [e["mult"] for e in rows] == [1, 1, 1]
    assert all(set(e) == {"tau", "mult", "beta"} for e in rows)


def test_classify_json_shape(capsys):
    _, report, _ = run_json(capsys, "analyze", "6:101111111111101")
    d = report["results"][0]["tightness"]
    assert set(d) == {"n", "rep_dim", "bound", "is_tight", "certificate"}
    assert d["certificate"]["kind"] == "BlockForm"
    assert (d["certificate"]["k"], d["certificate"]["l"]) == (3, 2)
    assert d["certificate"]["partition"] == [[0, 1, 2], [3, 4, 5]]


def test_count_json_shape(capsys):
    _, report, _ = run_json(capsys, "count-tight", "--d", "1")
    assert report["results"] == [{"d": 1, "count": 1, "catalog_trusted": False}]


def test_count_tight_command(capsys):
    rc, report, _ = run_json(capsys, "count-tight", "--d", "2")
    assert rc == 0
    assert report["results"] == [{"d": 2, "count": 2, "catalog_trusted": False}]
    rc, out, _ = run_cli(capsys, "count-tight", "--d", "2", "--format", "tsv")
    assert out == "2\t2\tFalse\n"


def test_count_tight_reads_its_catalog_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "drt7.txt"
    text = "# seven vertices\n" + paley_tournament(7).line() + "\n"
    path.write_text(text)
    real_open, opened = open, []

    def counted_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted_open)
    rc, report, _ = run_json(capsys, "count-tight", "--d", "3", "--catalog", str(path))
    assert rc == 0 and len(opened) == 1
    assert report["results"] == [{"d": 3, "count": 1, "catalog_trusted": True}]
    assert report["inputs_digest"] == hashlib.sha256(f"d=3{text}".encode()).hexdigest()


def test_count_tight_without_catalog_is_input_error(capsys):
    rc, out, err = run_cli(capsys, "count-tight", "--d", "7")
    assert rc == 2
    assert "15" in err and "input error" in err
    assert out == ""


@pytest.mark.parametrize("content", [None, b"3:101\n\xff\n"], ids=["missing", "non-ascii"])
def test_unreadable_catalog_is_input_error(tmp_path, capsys, content):
    path = tmp_path / "catalog.txt"
    if content is not None:
        path.write_bytes(content)
    rc, out, err = run_cli(capsys, "count-tight", "--d", "1", "--catalog", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith(f"input error: cannot read catalog {str(path)!r}: ")
    assert err.count("\n") == 1


def test_unreadable_input_is_input_error(tmp_path, capsys, monkeypatch):
    data = b"3:101\n\xff\n"
    path = tmp_path / "batch.txt"
    path.write_bytes(data)
    for spec in (str(path), "-"):
        for command in ("analyze", "embed", "switching-class"):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            rc, out, err = run_cli(capsys, command, spec)
            assert (rc, out) == (2, "")
            assert err.startswith(f"input error: cannot read input {spec!r}: ")
            assert "can't decode byte 0xff" in err and err.count("\n") == 1


@pytest.mark.parametrize("text", ["# caf\u00e9\n3:101\n", "3:101\n\udcff\n"],
                         ids=["utf-8", "surrogate-escaped"])
def test_stdin_must_be_ascii_like_a_file(tmp_path, capsys, monkeypatch, text):
    # A C locale decodes stdin with surrogateescape, so a byte \xff reads
    # as '\udcff'; either way the text is refused as a file's would be.
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, err = run_cli(capsys, "analyze", "-")
    assert (rc, out) == (2, "")
    assert err.startswith("input error: cannot read input '-': 'ascii' codec can't encode")
    assert err.count("\n") == 1
    path = tmp_path / "batch.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert run_cli(capsys, "analyze", str(path))[:2] == (2, "")


def test_bad_line_is_input_error(capsys):
    rc, _, err = run_cli(capsys, "analyze", "3:10")
    assert rc == 2
    assert "input error" in err and "line 1" in err
    for line in ("\uff13:101", "\u0663:101"):  # non-ASCII digits 3
        assert run_cli(capsys, "analyze", line) == (
            2, "", f"input error: line 1: malformed tournament line: {line!r}\n")


@pytest.mark.parametrize("command", ["analyze", "embed"])
def test_batch_error_names_the_line(capsys, monkeypatch, command):
    monkeypatch.setattr("sys.stdin", io.StringIO("3:101\n1:\n"))
    rc, out, err = run_cli(capsys, command, "-")
    assert rc == 2 and out == ""
    assert err == ("input error: line 2: 1:: a single point has no angle set; "
                   "n >= 2 required\n")


@pytest.mark.parametrize("shares", [1, 2])
def test_switching_class_error_names_the_line(capsys, monkeypatch, shares):
    big = random_tournament(13, random.Random(13)).line()
    text = "# header\n3:101\n" + big + "\n4:111010\n"
    assert run_shares(capsys, monkeypatch, shares, text, "switching-class") == (
        2, "", f"input error: line 3: {big}: switching class enumeration supports "
        "n <= 12, got 13\n")


def test_internal_error_names_the_line(capsys, monkeypatch):
    def broken(T):
        raise InternalConsistencyError("routes disagree")

    monkeypatch.setattr("tourney_codes.cli.analyze", broken)
    monkeypatch.setattr("sys.stdin", io.StringIO("# header\n\n4:111010\n"))
    rc, out, err = run_cli(capsys, "analyze", "-")
    assert rc == 3 and out == ""
    assert err == "internal consistency error: line 3: 4:111010: routes disagree\n"


def test_analyze_matches_separate_library_calls(capsys, monkeypatch):
    P7, P11 = paley_tournament(7), paley_tournament(11)
    planted = {"DRT": P11, "SkewHadamard": dominated_extension(P7),
               "DrtMinusVertex": delete_vertex(P11, 4), "BlockForm": d_optimal_block(P7, P7)}
    text = "".join(T.line() + "\n" for T in planted.values())
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, report, _ = run_json(capsys, "analyze", "-")
    assert rc == 0
    for (kind, T), res in zip(planted.items(), report["results"]):
        rep = analyze(T)
        want = {**analysis_dict(rep), "tightness": tightness_dict(classify_code(rep))}
        assert res == json.loads(json.dumps(want))
        assert res["tightness"]["certificate"]["kind"] == kind


def test_missing_file_is_input_error(capsys):
    rc, _, err = run_cli(capsys, "analyze", "/nonexistent/tournaments.txt")
    assert rc == 2
    assert "cannot read input" in err


# Type 4 with d = 19.  A main-angle zero threshold of 0.3 once read it as
# type 1 with d = 18.
N20_LINE = ("20:101101001000101110101000101110110000100000010101000100000111011110101111"
            "0011001001110000110010110000000111001010100011100011001001100111110000000011"
            "111100100110110110010110000001101000000011")


@pytest.mark.parametrize("flag", [("--eig-tol", "0.05"), ("--beta-tol", "0.3")],
                         ids=["eig-tol", "beta-tol"])
@pytest.mark.parametrize("argv", [
    ("analyze", N20_LINE), ("embed", N20_LINE), ("enumerate", "--n", "3"),
    ("switching-class", "3:101"), ("count-tight", "--d", "1"), ("verify-paper",)],
    ids=lambda argv: argv[0])
def test_no_flag_sets_a_tolerance(capsys, argv, flag):
    rc, out, err = run_usage_error(capsys, *argv, *flag)
    assert rc == 2 and out == ""
    assert err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")


def run_usage_error(capsys, *argv):
    """main(argv) returns argparse's exit code in place of raising SystemExit."""
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# A tolerance value that once failed validation is still refused: the flags
# are gone, so any value is a usage error.
def test_nonpositive_tolerance_is_input_error(capsys):
    rc, out, err = run_usage_error(capsys, "analyze", "3:101", "--eig-tol", "0")
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --eig-tol 0" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", ["eig", "beta"])
def test_non_finite_tolerance_is_input_error(capsys, name, value):
    line = paley_tournament(7).line()
    rc, out, err = run_usage_error(capsys, "analyze", line, f"--{name}-tol", value)
    assert (rc, out) == (2, "")
    assert f"unrecognized arguments: --{name}-tol {value}" in err


def test_the_environment_sets_no_tolerance(capsys, monkeypatch):
    # The variables of earlier versions are not read.
    monkeypatch.setenv("TOURNEY_CODES_BETA_TOL", "1e-5")
    _, report, _ = run_json(capsys, "analyze", "3:101")
    assert report["tolerances"]["beta_tol"] == 1e-06


def test_verify_paper_quick(capsys):
    rc, report, _ = run_json(capsys, "verify-paper", "--level", "quick")
    assert rc == 0
    assert report["all_pass"] is True
    ids = [r["id"] for r in report["results"]]
    assert len(ids) == len(set(ids)) >= 12
    assert all(r["pass"] for r in report["results"])


def test_verify_paper_tsv_rows(capsys):
    rc, out, _ = run_cli(capsys, "verify-paper", "--level", "quick",
                         "--format", "tsv")
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert all(row[0] == "PASS" for row in rows)


@pytest.mark.parametrize("failure", ["false", "raise"])
def test_verify_paper_fails_loudly(capsys, monkeypatch, failure):
    # A check that crashes is a failed check, not an aborted run.
    detail = {"false": "counterexample spectrum found", "raise": "RuntimeError: check bug"}[
        failure]

    def broken(n):
        if failure == "raise":
            raise RuntimeError("check bug")
        return False, detail

    monkeypatch.setattr(_paper, "_check_double_zero", broken)
    rc, report, _ = run_json(capsys, "verify-paper", "--level", "quick")
    assert rc == 1 and report["all_pass"] is False
    rc, out, _ = run_cli(capsys, "verify-paper", "--level", "quick", "--format", "tsv")
    assert rc == 1 and out.count("FAIL\t") == 2
    assert f"FAIL\tdouble-zero-exclusion-n4\t{detail}\n" in out


def test_import_leaves_the_process_pool_unloaded():
    src = str(Path(tourney_codes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # logging, fractions and decimal cost every run several ms to import;
    # only the rarely taken paths that use them import them.
    # The modules of code that analyze and embed never run load on first use.
    code = ("import sys, tourney_codes.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing', "
            "'logging', 'fractions', 'decimal', 'tourney_codes._constructions', "
            "'tourney_codes._catalog', 'tourney_codes._shifts', 'tourney_codes._paper', "
            "'tourney_codes._floatrepr') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "[]\n"


def test_json_batches_load_the_float_formatter():
    src = str(Path(tourney_codes.__file__).resolve().parents[1])
    code = ("import sys; from tourney_codes import cli; "
            "rc = cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "sys.stderr.write(str('tourney_codes._floatrepr' in sys.modules))")
    for argv, loaded in (([], "False"),
                         (["analyze", "4:111010", "--format", "tsv"], "False"),
                         (["embed", "4:111010", "--format", "tsv"], "False"),
                         (["analyze", "4:111010"], "True"),
                         (["embed", "4:111010"], "True")):
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, loaded)


# Every name the package bound when all of its modules loaded with it.
PACKAGE_NAMES = (
    "BlockFormCert", "CanonicalForm", "CharIdentityResult", "DEFAULT_TOLERANCES",
    "DrtCatalog", "DrtParams", "Embedding", "EmbeddingVerdict", "InputError",
    "InterlacingVerdict", "InternalConsistencyError", "MainSpectrum", "RepReport",
    "SpectralLine", "Spectrum", "TightCodeCount", "TightnessReport", "Tolerances",
    "Tournament", "TypeClass", "TypeVariant", "add_vertex", "adjacency", "analyze",
    "block_form_check", "build", "canonical_form", "canonical_representative",
    "char_identity_residual", "classify_code", "classify_type", "codes",
    "count_tight_codes", "d_optimal_block", "delete_vertex", "dominated_extension",
    "drt_catalog", "drt_minus_vertex_check", "eigensystem", "embed",
    "enumerate_tournaments", "errors", "exact_integer_eigenvalue", "exact_ones_resolvent",
    "from_adjacency", "gram_matrix", "group_spectrum", "is_doubly_regular",
    "multiplicity_profile", "paley_tournament", "parse_catalog", "parse_line",
    "random_tournament", "relabel", "representation", "seidel_matrix", "seidel_squared",
    "shifted_main_spectrum", "skew_hadamard_check", "spectral", "spectrum_of", "switch",
    "switching_class", "tournament", "verify_embedding", "verify_no_double_zero_spectrum",
    "witness_shift")


def test_every_package_name_resolves_to_its_defining_object():
    # In a fresh interpreter, so that the modules loaded on first use are
    # not loaded yet.  Prints, per way of reaching a name, the names it misses.
    src = str(Path(tourney_codes.__file__).resolve().parents[1])
    code = """
import json, sys, types
names = json.loads(sys.argv[1])
import tourney_codes
listed = set(dir(tourney_codes))
star = {}
exec("from tourney_codes import *", star)
missed = {"import": [], "defining module": [], "dir": [], "star-import": []}
for name in names:
    ns = {}
    try:
        obj = getattr(tourney_codes, name)
        exec(f"from tourney_codes import {name}", ns)
    except (AttributeError, ImportError):
        missed["import"].append(name)
        continue
    home = (sys.modules["tourney_codes." + name] if isinstance(obj, types.ModuleType)
            else getattr(sys.modules[obj.__module__], name))
    for way, ok in (("import", ns[name] is obj), ("defining module", obj is home),
                    ("dir", name in listed), ("star-import", star.get(name) is obj)):
        if not ok:
            missed[way].append(name)
print(json.dumps(missed))
"""
    out = subprocess.run([sys.executable, "-c", code, json.dumps(PACKAGE_NAMES)],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert json.loads(out) == {"import": [], "defining module": [], "dir": [],
                               "star-import": []}


def test_exported_functions_are_plain_functions():
    # The benchmark tracer wraps exactly the objects inspect.isfunction
    # accepts; a cached or otherwise wrapped export would drop out of it.
    exported = {name: obj for name, obj in vars(tourney_codes).items()
                if callable(obj) and not isinstance(obj, type)}
    assert {"adjacency", "analyze", "embed", "spectrum_of"} <= set(exported)
    assert [name for name, obj in exported.items() if not inspect.isfunction(obj)] == []


def test_embed_all_uses_the_embedding_analysis(monkeypatch):
    def refuse(T):
        raise AssertionError("analyze called again")

    monkeypatch.setattr("tourney_codes._paper.analyze", refuse)
    ok, detail = _check_embed_all(5)
    assert ok, detail


# ----------------------------------------------------------- JSON encoding


STRINGS = ("", "plain", "caf\u00e9 \u00fc", "\x00\x1f\"\\/\n\t\x7f",
           "\u2028\u2603 \U0001d11e", "\ud800 lone surrogate")
FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1, -2.5, 1e16)


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(11 if depth < 4 else 7)
    if kind == 0:
        return rng.choice(STRINGS) + "".join(chr(rng.randrange(0x20, 0x300))
                                             for _ in range(rng.randrange(4)))
    if kind == 1:
        return rng.choice((None, True, False))
    if kind == 2:
        return rng.choice((0, -1, 7, rng.randrange(-10 ** 30, 10 ** 30)))
    if kind == 3:
        return rng.choice(FLOATS + (rng.uniform(-1e6, 1e6), rng.gauss(0.0, 1e-9)))
    if kind == 4:
        return rng.choice(list(TypeVariant))
    if kind == 5:
        return np.float64(rng.choice(FLOATS + (rng.uniform(-1.0, 1.0),)))
    if kind == 6:
        return rng.choice(([], {}, ()))
    items = [random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 7:
        return items
    if kind == 8:
        return tuple(items)
    return {rng.choice(STRINGS) + str(k): v for k, v in enumerate(items)}


def test_encoder_matches_json_on_random_values():
    rng = random.Random(20261018)
    for _ in range(400):
        items = [random_value(rng) for _ in range(rng.randrange(4))] + [random_value(rng)]
        assert items_report(items) == json.dumps({"results": items}, sort_keys=True, indent=2)
    for scalar in (True, False, None, 1, 2.5, math.nan, "x", TypeVariant.TYPE2, [], {}):
        assert items_report([scalar]) == json.dumps({"results": [scalar]}, sort_keys=True,
                                                    indent=2)


@pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3), np.zeros(3),
                                   np.zeros((2, 2), dtype=np.complex64)])
def test_encoder_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps({"a": [value]}, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        items_report([{"a": [value]}])


def envelope(command, text, results):
    return {"command": command, "version": tourney_codes.__version__,
            "inputs_digest": hashlib.sha256(text.encode()).hexdigest(),
            "tolerances": {"eig_tol": CLUSTER_GAP_FACTOR, "beta_tol": BETA_ZERO_TOL},
            "results": results}


def old_vectors(X):
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in X]


def items_report(items, nl="\n    "):
    """The report {"results": items} as _encode_items writes its items."""
    texts = cli._encode_items(items, nl)
    return '{\n  "results": [' + nl + ("," + nl).join(texts) + "\n  ]\n}"


# Zeros, powers of two and decade bounds, which take the formatter's fast
# path, beside values below 1e-3 or from 1 up, which it leaves to repr.
SPECIAL_FLOATS = (0.0, -0.0, -1.0, 0.5, -0.125, 1e-3, 0.1, 0.01, 5.551115123125783e-17,
                  -2.5e-4, 1.0000000000000002, 7.0, 0.7071067811865476, -0.3333333333333333)


# Spectrum lines (tau, mult, beta) whose floats the formatter leaves to
# repr (|x| >= 1, |x| < 1e-3) beside 2^-9, its smallest power of two.
SPECTRUM_ROWS = [(-7.697940666352725, 2, 2.0 ** -9), (-1.5, 1, 1e-4), (1.0, 3, 0.25),
                 (2.0 ** -9, 1, 1.0), (3.0, 1, 0.0)]


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (1, 1), (4, 1), (5, 3)])
def test_complex_rows_match_the_list_of_dicts_form(shape, monkeypatch):
    rng = np.random.default_rng(sum(shape))
    X = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mixed = rng.choice(SPECIAL_FLOATS, size=shape) + 1j * rng.choice(SPECIAL_FLOATS, size=shape)
    arrays = [X, -np.zeros(shape, dtype=np.complex128), mixed]
    for A in arrays:
        got = items_report([{"line": "x", "vectors": A}])
        assert got == json.dumps({"results": [{"line": "x", "vectors": old_vectors(A)}]},
                                 sort_keys=True, indent=2)
    # Tables are written in the order of their keys, not of insertion.
    spec = Spectrum(5, tuple(SpectralLine(t, m, b, b > 0) for t, m, b in SPECTRUM_ROWS), 1e-7)
    items = [{"line": str(k), "vectors": A} for k, A in enumerate(arrays)] + [{}, []]
    items += [{"b": X, "a": mixed, "spectrum": spec}, {"vectors": mixed, "spectrum": spec}]
    want = json.dumps({"results": [{"line": str(k), "vectors": old_vectors(A)}
                                   for k, A in enumerate(arrays)] + [{}, []]
                       + [{"b": old_vectors(X), "a": old_vectors(mixed),
                           "spectrum": spectrum_rows(spec)},
                          {"vectors": old_vectors(mixed), "spectrum": spectrum_rows(spec)}]},
                      sort_keys=True, indent=2)
    # Every table's floats formatted in blocks: with 2 * X.size floats a
    # block, blocks end between lines; with 7, inside them as well; and
    # one block ends after the third float of the first spectrum.
    real, sizes = _floatrepr.float_reprs, []

    def recorded(x):
        sizes.append(x.size)
        return real(x)

    monkeypatch.setattr(_floatrepr, "float_reprs", recorded)
    before_spectrum = 2 * (sum(A.size for A in arrays) + X.size + mixed.size)
    floats = before_spectrum + 2 * mixed.size + 2 * 2 * len(spec.lines)
    for block in {7, max(1, 2 * X.size), before_spectrum + 3, cli._REPR_BLOCK}:
        monkeypatch.setattr(cli, "_REPR_BLOCK", block)
        sizes.clear()
        assert items_report(items) == want
        # one call per full block, and one for the rest
        assert sizes == [block] * (floats // block) + [floats % block] * (floats % block > 0)


@pytest.mark.parametrize("shape", [(0,), (1,), (3,), (0, 2), (2, 0), (2, 3)])
def test_template_is_what_json_writes(shape):
    keys = ("a", "b", "c")
    values = [float(k) for k in range(len(keys) * math.prod(shape))]
    items = iter([dict(zip(keys, row)) for row in zip(*[iter(values)] * len(keys))])

    def nest(shape):
        return [nest(shape[1:]) for _ in range(shape[0])] if shape else next(items)

    # a table of the results list sits at an indent of six spaces
    nl = "\n      "
    want = json.dumps(nest(shape), sort_keys=True, indent=2).replace("\n", nl)
    assert cli._template(keys, shape, nl) % tuple(map(repr, values)) == want


def test_embed_output_matches_the_dict_form(capsys, monkeypatch):
    P7, P11 = paley_tournament(7), paley_tournament(11)
    tournaments = [parse_line(line) for line in ORDER4_LINES]
    tournaments += [P11, dominated_extension(P7), delete_vertex(P11, 4),
                    d_optimal_block(P7, P7)]
    # certified-large orders, up to n = 94
    P47 = paley_tournament(47)
    tournaments += [dominated_extension(paley_tournament(43)), delete_vertex(P47, 0),
                    d_optimal_block(P47, P47)]
    text = "".join(T.line() + "\n" for T in tournaments)
    results = []
    for T in tournaments:
        emb = embed(T)
        verdict = verify_embedding(emb, T)
        results.append({**analysis_dict(emb.report),
                        "dimension": emb.dimension, "vectors": old_vectors(emb.vectors),
                        "max_deviation": verdict.max_deviation,
                        "check_passed": verdict.passed})
    want = json.dumps(envelope("embed", text, results), sort_keys=True, indent=2) + "\n"
    # The first line has 8 spectrum floats, then 24 vector floats: blocks of
    # 24 end inside its vectors; blocks of the default size end inside the
    # n = 94 line.
    first = embed(tournaments[0])
    assert (2 * len(first.report.spectrum.lines), 2 * first.vectors.size) == (8, 24)
    for block in (24, cli._REPR_BLOCK):
        monkeypatch.setattr(cli, "_REPR_BLOCK", block)
        for shares in (1, 3):
            assert run_shares(capsys, monkeypatch, shares, text, "embed") == (0, want, "")
    assert no_child_left()


def test_analyze_output_matches_the_dict_form(capsys, monkeypatch):
    P7, P11 = paley_tournament(7), paley_tournament(11)
    tournaments = [parse_line(line) for line in ORDER4_LINES + ("2:1",)]
    tournaments += [P11, dominated_extension(P7), delete_vertex(P11, 4),
                    d_optimal_block(P7, P7)]
    rng = random.Random(2026)
    tournaments += [random_tournament(n, rng) for n in (20, 20, 20, 21, 21, 21)]
    text = "".join(T.line() + "\n" for T in tournaments)
    results = []
    for T in tournaments:
        result = analysis_dict(analyze(T))
        if T.n >= 3:
            result["tightness"] = tightness_dict(classify_code(analyze(T)))
        results.append(result)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, _ = run_cli(capsys, "analyze", "-")
    assert rc == 0
    assert out == json.dumps(envelope("analyze", text, results),
                             sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("rows", [
    [(2.5, 1, 0.125)],
    [(-0.0, 2, 0.0), (1e-300, 1, 5e-324), (-1.7320508075688772, 3, 0.5773502691896257)],
    SPECTRUM_ROWS,
])
def test_spectrum_rows_match_the_dict_form(rows):
    spec = Spectrum(len(rows), tuple(SpectralLine(t, m, b, b > 0) for t, m, b in rows), 1e-7)
    want = spectrum_rows(spec)
    assert items_report([{"line": "x", "spectrum": spec}]) == json.dumps(
        {"results": [{"line": "x", "spectrum": want}]}, sort_keys=True, indent=2)


# ------------------------------------------------- batches split over processes


def pin_shares(monkeypatch, shares):
    """Split every batch into shares processes, in place of one per usable CPU."""
    monkeypatch.setattr(cli, "_share_count", lambda lines: shares)


def run_shares(capsys, monkeypatch, shares, text, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    if shares is not None:
        pin_shares(monkeypatch, shares)
    rc = main([*argv, "-"])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def share_batch():
    rng = random.Random(77)
    P7 = paley_tournament(7)
    tournaments = [parse_line(line) for line in ORDER4_LINES + ("2:1",)]
    tournaments += [P7, dominated_extension(P7), delete_vertex(paley_tournament(11), 4)]
    tournaments += [random_tournament(n, rng) for n in (20, 20, 9)]
    return "".join(T.line() + "\n" for T in tournaments)


def switching_batch():
    """Lines of orders 2 to 8, each a few milliseconds of switching-class."""
    rng = random.Random(78)
    P7 = paley_tournament(7)
    tournaments = [parse_line(line) for line in ORDER4_LINES + ("2:1",)]
    tournaments += [P7, dominated_extension(P7)]
    tournaments += [random_tournament(n, rng) for n in (5, 6, 7, 8)]
    return "".join(T.line() + "\n" for T in tournaments)


@pytest.mark.parametrize("command", ["analyze", "embed", "switching-class"])
@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_shares_write_the_serial_bytes(capsys, monkeypatch, command, fmt):
    text = switching_batch() if command == "switching-class" else share_batch()
    serial = run_shares(capsys, monkeypatch, 1, text, command, "--format", fmt)
    assert serial[0] == 0 and serial[1] and serial[2] == ""
    real_fork, forks = os.fork, []

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    # 40 shares is more than the 11 lines: one line per process
    for shares in (2, 3, 40):
        assert run_shares(capsys, monkeypatch, shares, text, command, "--format", fmt) == serial
    assert len(forks) == 1 + 2 + (len(text.splitlines()) - 1)
    empty = run_shares(capsys, monkeypatch, 1, "", command, "--format", fmt)
    assert empty == run_shares(capsys, monkeypatch, 3, "", command, "--format", fmt)
    assert empty[1] == ("" if fmt == "tsv" else
                        json.dumps(envelope(command, "", []), sort_keys=True, indent=2) + "\n")
    assert no_child_left()


def test_embed_check_fails_when_only_a_later_share_fails(capsys, monkeypatch):
    text = share_batch()
    lines = text.splitlines()
    fail_verification(monkeypatch, lambda T: T.line() == lines[-1])
    want = (3, "", verification_error(len(lines), lines[-1]))
    for argv in (("embed", "--check"), ("embed",), ("embed", "--format", "tsv")):
        for shares in (3, 1):
            assert run_shares(capsys, monkeypatch, shares, text, *argv) == want
    assert no_child_left()


@pytest.mark.parametrize("bad", [(0,), (-1,), (4, -1), (0, 5, -1)],
                         ids=["first-share", "last-share", "two-shares", "three-shares"])
@pytest.mark.parametrize("error", ["input", "internal"])
def test_share_errors_match_the_serial_run(capsys, monkeypatch, bad, error):
    lines = share_batch().splitlines()
    bad_lines = {lines[k] for k in bad}
    if error == "input":
        for k in bad:
            lines[k] = "1:"
    else:
        def broken(T):
            if T.line() in bad_lines:
                raise InternalConsistencyError("routes disagree")
            return analyze(T)

        monkeypatch.setattr("tourney_codes.cli.analyze", broken)
    text = "\n".join(lines) + "\n"
    rc, out, err = run_shares(capsys, monkeypatch, 1, text, "analyze")
    assert rc == (2 if error == "input" else 3) and out == ""
    assert err.startswith(f"{error} ") and f"line {bad[0] % len(lines) + 1}: " in err
    assert run_shares(capsys, monkeypatch, 3, text, "analyze") == (rc, out, err)
    assert no_child_left()


@pytest.mark.parametrize("failure", ["raise", "die", "die-writing"])
def test_a_failing_child_share_writes_nothing(capsys, monkeypatch, failure):
    text = share_batch()
    last = text.splitlines()[-1]
    parent = os.getpid()
    write_joined = cli._write_joined

    def broken(T):
        if T.line() == last and os.getpid() != parent:
            if failure == "raise":
                raise RuntimeError("worker bug")
            os.kill(os.getpid(), signal.SIGKILL)
        return analyze(T)

    def write_half(stream, texts, sep):
        if os.getpid() != parent:  # the child writes half its texts, then dies
            write_joined(stream, texts[:len(texts) // 2], sep)
            stream.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        write_joined(stream, texts, sep)

    if failure == "die-writing":
        monkeypatch.setattr(cli, "_write_joined", write_half)
    else:
        monkeypatch.setattr("tourney_codes.cli.analyze", broken)
    # The 11 lines split 5 + 6, so the child runs lines 6-11.  Its share
    # succeeds when run again here, so the child's failure is its own.
    assert run_shares(capsys, monkeypatch, 2, text, "analyze") == (
        3, "", "internal consistency error: lines 6-11: a worker process ended without a "
        "report\n")
    assert no_child_left()


@pytest.mark.parametrize("error", ["input", "internal"])
def test_the_first_process_raises_the_error_of_a_failed_share(capsys, monkeypatch, tmp_path,
                                                             error):
    # Calls for the bad line are counted through a shared file, by process.
    text = share_batch()
    bad = text.splitlines()[-1]
    calls = tmp_path / "calls"

    def broken(T):
        if T.line() == bad:
            with open(calls, "a", encoding="ascii") as handle:
                handle.write(f"{os.getpid()}\n")
            raise (InputError if error == "input" else RuntimeError)("worker bug")
        return analyze(T)

    monkeypatch.setattr("tourney_codes.cli.analyze", broken)
    serial = run_shares(capsys, monkeypatch, 1, text, "analyze")
    assert serial[:2] == ((2 if error == "input" else 3), "")
    assert serial[2].endswith(f"line 11: {bad}: " + (
        "worker bug\n" if error == "input" else "RuntimeError: worker bug\n"))
    calls.write_text("")
    assert run_shares(capsys, monkeypatch, 2, text, "analyze") == serial
    pids = calls.read_text().split()
    assert len(pids) == 2 and str(os.getpid()) in pids
    assert no_child_left()


@pytest.mark.parametrize("where", [0, -1], ids=["first-line", "last-line"])
def test_an_unexpected_error_fails_alike_in_any_share(capsys, monkeypatch, where):
    text = share_batch()
    lines = text.splitlines()
    bad = lines[where]

    def broken(T):
        if T.line() == bad:
            raise RuntimeError("worker bug")
        return analyze(T)

    monkeypatch.setattr("tourney_codes.cli.analyze", broken)
    k = where % len(lines) + 1
    want = (3, "", f"internal consistency error: line {k}: {bad}: RuntimeError: worker bug\n")
    for shares in (1, 2, 3):
        assert run_shares(capsys, monkeypatch, shares, text, "analyze") == want
    assert no_child_left()


def test_small_batches_do_not_fork(capsys, monkeypatch):
    def refuse():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", refuse)
    rng = random.Random(5)
    text = "".join(random_tournament(8, rng).line() + "\n"
                   for _ in range(2 * cli._MIN_SHARE_LINES - 1))
    for command in ("analyze", "embed"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(capsys, command, "-")[0] == 0
        assert run_cli(capsys, command, "4:111010")[0] == 0


@pytest.mark.parametrize("missing", ["memfd_create", "sched_getaffinity"])
def test_batches_do_not_fork_outside_linux(capsys, monkeypatch, missing):
    def refuse():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, missing, raising=False)
    monkeypatch.setattr(os, "fork", refuse)
    # 33 lines make two shares wherever two CPUs are usable.
    rc, out, err = run_shares(capsys, monkeypatch, None, share_batch() * 3, "analyze")
    assert rc == 0 and out and err == ""


def test_switching_class_shares_follow_its_switchings(capsys, monkeypatch):
    # A line costs 2^(n-1) switchings: a long batch of small orders stays in
    # one process, while two lines of order 10 earn a share each.
    real_fork, forks = os.fork, []

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    rng = random.Random(9)
    small = "".join(random_tournament(2 + k % 3, rng).line() + "\n" for k in range(96))
    large = "".join(random_tournament(10, rng).line() + "\n" for _ in range(2))
    assert run_shares(capsys, monkeypatch, None, small, "switching-class")[0] == 0
    assert forks == []
    assert run_shares(capsys, monkeypatch, None, large, "switching-class")[0] == 0
    assert len(forks) == 1 and no_child_left()


def test_fork_warning_of_threaded_pythons_stays_off_stderr(capsys, monkeypatch):
    # Python 3.12+ warns in os.fork when the process has threads, as it
    # does with OpenBLAS's default thread pool; stand in for that warning.
    real_fork = os.fork

    def warning_fork():
        warnings.warn("This process is multi-threaded, use of fork() may lead to "
                      "deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return real_fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    text = share_batch()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_shares(capsys, monkeypatch, 2, text, "analyze")
    assert (rc, err, caught) == (0, "", [])
    monkeypatch.setattr(os, "fork", real_fork)
    assert run_shares(capsys, monkeypatch, 1, text, "analyze") == (rc, out, err)


def test_embed_forks_under_default_blas_threading(tmp_path):
    # No OPENBLAS_NUM_THREADS: the children start from a process whose BLAS
    # has its own threads, and a BLAS that does not survive fork hangs here.
    rng = random.Random(64)
    path = tmp_path / "batch.txt"
    path.write_text("".join(random_tournament(20, rng).line() + "\n" for _ in range(64)))
    src = str(Path(tourney_codes.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src
    code = ("import sys; from tourney_codes import cli; "
            "cli._share_count = lambda lines: int(sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))")
    outputs = [subprocess.run([sys.executable, "-c", code, str(shares), "embed", str(path)],
                              env=env, capture_output=True, timeout=120)
               for shares in (1, 2)]
    outputs.append(subprocess.run([sys.executable, "-m", "tourney_codes.cli", "embed",
                                   str(path)], env=env, capture_output=True, timeout=120))
    assert [(p.returncode, p.stderr) for p in outputs] == [(0, b"")] * 3
    assert outputs[0].stdout == outputs[1].stdout == outputs[2].stdout


def test_workers_leave_the_spectrum_rows_unbuilt(monkeypatch):
    made = []
    for name, real in (("analyze", analyze), ("embed", embed)):
        monkeypatch.setattr(cli, name, lambda *a, real=real: made.append(real(*a)) or made[-1])
    T = parse_line("3:101")
    results = [cli._analyze_worker(T), cli._embed_worker(T)]
    # the worker's result holds the report's own Spectrum, for the template
    for result, report in zip(results, [made[0], made[1].report], strict=True):
        assert result["spectrum"] is report.spectrum


@pytest.mark.parametrize("call", ["fork", "memfd_create"])
def test_a_failed_fork_leaks_no_file(capsys, monkeypatch, call):
    # Of 3 shares, fork fails for the first child; memfd_create fails for
    # the second, after the first child has forked.
    real, calls = getattr(os, call), []

    def refused(*args):
        calls.append(args)
        if call == "fork" or len(calls) == 2:
            raise BlockingIOError(f"{call} refused")
        return real(*args)

    monkeypatch.setattr(os, call, refused)
    monkeypatch.setattr("sys.stdin", io.StringIO(share_batch()))
    pin_shares(monkeypatch, 3)
    open_fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match=f"{call} refused"):
        main(["analyze", "-"])
    assert sorted(os.listdir("/proc/self/fd")) == open_fds
    assert capsys.readouterr().out == ""
    assert no_child_left()


# ------------------------------------------------------------- process exit


def cli_process(*argv, stdin: bytes = b""):
    """python -m tourney_codes.cli argv in a fresh interpreter."""
    src = str(Path(tourney_codes.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "tourney_codes.cli", *argv], input=stdin,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          timeout=120)


@pytest.mark.parametrize("argv,batch", [
    (("analyze",), "split"), (("analyze", "--format", "tsv"), "split"),
    (("embed",), "split"), (("embed", "--format", "tsv"), "split"),
    (("analyze",), "empty"), (("embed", "--format", "tsv"), "empty"),
    (("analyze",), "bad line"), (("embed", "--format", "tsv"), "bad line"),
])
def test_the_process_writes_and_exits_as_main_returns(capsys, monkeypatch, argv, batch):
    # 33 lines make two shares wherever two CPUs are usable.
    text = {"split": share_batch() * 3, "empty": "", "bad line": "3:101\n1:\n"}[batch]
    proc = cli_process(*argv, "-", stdin=text.encode("ascii"))
    rc, out, err = run_shares(capsys, monkeypatch, None, text, *argv)
    assert rc == {"bad line": 2}.get(batch, 0)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out.encode(), err.encode())


def test_entry_exits_with_the_code_of_main(capsys, monkeypatch):
    codes = []
    monkeypatch.setattr(os, "_exit", codes.append)
    monkeypatch.setattr("sys.argv", ["tourney-codes", "embed", "4:111010", "--check"])
    cli.entry()
    assert codes == [0] and capsys.readouterr().err == ""
    fail_verification(monkeypatch)
    cli.entry()
    assert codes == [0, 3]
    assert capsys.readouterr() == ("", verification_error(1, "4:111010"))


def test_a_closed_stdout_ends_with_one_line_and_exit_one(tmp_path):
    # The output is far larger than a pipe holds, so writing it must meet
    # the closed pipe; 64 lines make two shares wherever two CPUs are usable.
    rng = random.Random(12)
    path = tmp_path / "batch.txt"
    path.write_text("".join(random_tournament(20, rng).line() + "\n" for _ in range(64)))
    src = str(Path(tourney_codes.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "tourney_codes.cli", "analyze", str(path)],
                            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    assert proc.stdout.read(10) == b'{\n  "comma'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b"output error: [Errno 32] Broken pipe\n"
    # Every forked share was reaped: nothing is left of the process group.
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
