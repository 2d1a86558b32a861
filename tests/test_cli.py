"""Command line behaviour: envelopes, formats, exit codes, determinism."""

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tourney_codes
from tourney_codes import (DEFAULT_TOLERANCES, Embedding, InternalConsistencyError,
                           TypeVariant, analyze, classify_code, d_optimal_block,
                           delete_vertex, dominated_extension, embed, paley_tournament,
                           parse_line, verify_embedding)
from tourney_codes.cli import ORDER4_LINES, _check_embed_all, _IndentedEncoder, main


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


def test_analyze_output_is_deterministic(tmp_path, capsys, monkeypatch):
    path = tmp_path / "batch.txt"
    path.write_text("4:111111\n4:111010\n4:011101\n4:011011\n")
    _, first, _ = run_cli(capsys, "analyze", str(path))
    _, second, _ = run_cli(capsys, "analyze", str(path))
    assert first == second
    monkeypatch.setenv("TOURNEY_CODES_THREADS", "2")
    _, parallel, _ = run_cli(capsys, "analyze", str(path))
    assert parallel == first


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


def test_embed_check_failure_exits_three(capsys, monkeypatch):
    def corrupt(T, tol):
        return Embedding(2, np.zeros((T.n, 2), dtype=complex), 0.5j)

    monkeypatch.setattr("tourney_codes.cli.embed", corrupt)
    rc, out, err = run_cli(capsys, "embed", "4:111010", "--check")
    assert rc == 3
    assert "verification failed" in err
    assert not json.loads(out)["results"][0]["check_passed"]


def test_embed_without_check_reports_but_passes(capsys, monkeypatch):
    def corrupt(T, tol):
        return Embedding(2, np.zeros((T.n, 2), dtype=complex), 0.5j)

    monkeypatch.setattr("tourney_codes.cli.embed", corrupt)
    rc, _, _ = run_cli(capsys, "embed", "4:111010")
    assert rc == 0


def test_enumerate_json_and_tsv(capsys):
    rc, report, _ = run_json(capsys, "enumerate", "--n", "4")
    assert rc == 0
    assert report["results"] == ["4:000000", "4:000010", "4:001001", "4:010001"]
    rc, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--format", "tsv")
    assert rc == 0
    assert out.splitlines() == ["4:000000", "4:000010", "4:001001", "4:010001"]


def test_switching_class_command(capsys):
    rc, report, _ = run_json(capsys, "switching-class", "3:101")
    assert rc == 0
    (res,) = report["results"]
    assert res["line"] == "3:101"
    assert res["count"] == 2
    assert res["classes"] == ["3:000", "3:010"]


def test_count_tight_command(capsys):
    rc, report, _ = run_json(capsys, "count-tight", "--d", "2")
    assert rc == 0
    assert report["results"] == [{"d": 2, "count": 2, "catalog_trusted": False}]
    rc, out, _ = run_cli(capsys, "count-tight", "--d", "2", "--format", "tsv")
    assert out == "2\t2\tFalse\n"


def test_count_tight_without_catalog_is_input_error(capsys):
    rc, out, err = run_cli(capsys, "count-tight", "--d", "7")
    assert rc == 2
    assert "15" in err and "input error" in err
    assert out == ""


def test_bad_line_is_input_error(capsys):
    rc, _, err = run_cli(capsys, "analyze", "3:10")
    assert rc == 2
    assert "input error" in err and "line 1" in err


@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize("command", ["analyze", "embed"])
def test_batch_error_names_the_line(capsys, monkeypatch, command, threads):
    if threads is not None:
        monkeypatch.setenv("TOURNEY_CODES_THREADS", threads)
    monkeypatch.setattr("sys.stdin", io.StringIO("3:101\n1:\n"))
    rc, out, err = run_cli(capsys, command, "-")
    assert rc == 2 and out == ""
    assert err == ("input error: line 2: 1:: a single point has no angle set; "
                   "n >= 2 required\n")


def test_internal_error_names_the_line(capsys, monkeypatch):
    def broken(T, tol):
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
        want = {"line": T.line(), **analyze(T).to_json_dict(),
                "tightness": classify_code(T).to_json_dict()}
        assert res == json.loads(json.dumps(want))
        assert res["tightness"]["certificate"]["kind"] == kind


def test_missing_file_is_input_error(capsys):
    rc, _, err = run_cli(capsys, "analyze", "/nonexistent/tournaments.txt")
    assert rc == 2
    assert "cannot read input" in err


def test_nonpositive_tolerance_is_input_error(capsys):
    rc, _, err = run_cli(capsys, "analyze", "3:101", "--eig-tol", "0")
    assert rc == 2
    assert "positive" in err


def test_invalid_threads_env_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("TOURNEY_CODES_THREADS", "many")
    rc, _, err = run_cli(capsys, "analyze", "3:101")
    assert rc == 2
    assert "TOURNEY_CODES_THREADS" in err


def test_env_tolerances_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("TOURNEY_CODES_BETA_TOL", "1e-5")
    _, report, _ = run_json(capsys, "analyze", "3:101")
    assert report["tolerances"]["beta_tol"] == 1e-5
    _, report, _ = run_json(capsys, "analyze", "3:101", "--beta-tol", "2e-6")
    assert report["tolerances"]["beta_tol"] == 2e-6


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


def test_verify_paper_fails_under_absurd_tolerance(capsys):
    rc, report, _ = run_json(capsys, "verify-paper", "--level", "quick",
                             "--beta-tol", "1e-20")
    assert rc == 1
    assert report["all_pass"] is False


def test_import_leaves_the_process_pool_unloaded():
    src = str(Path(tourney_codes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, tourney_codes.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "False\n"


def test_embed_all_uses_the_embedding_analysis(monkeypatch):
    def refuse(T, tol):
        raise AssertionError("analyze called again")

    monkeypatch.setattr("tourney_codes.cli.analyze", refuse)
    ok, detail = _check_embed_all(5, DEFAULT_TOLERANCES)
    assert ok, detail


# ----------------------------------------------------------- JSON encoding


def indented(obj):
    return json.dumps(obj, sort_keys=True, indent=2, cls=_IndentedEncoder)


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
        obj = {"results": [random_value(rng) for _ in range(rng.randrange(4))],
               "value": random_value(rng)}
        assert indented(obj) == json.dumps(obj, sort_keys=True, indent=2)
    for scalar in (True, False, None, 1, 2.5, math.nan, "x", TypeVariant.TYPE2, [], {}):
        assert indented(scalar) == json.dumps(scalar, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3), np.zeros(3),
                                   np.zeros((2, 2), dtype=np.complex64)])
def test_encoder_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps({"a": [value]}, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        indented({"a": [value]})


def old_vectors(X):
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in X]


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (1, 1), (4, 1), (5, 3)])
def test_complex_rows_match_the_list_of_dicts_form(shape):
    rng = np.random.default_rng(sum(shape))
    X = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    arrays = [X, -np.zeros(shape, dtype=np.complex128)]
    if X.size:
        bad = X.copy()
        bad.flat[-1] = complex(math.nan, -math.inf)
        arrays.append(bad)
    for A in arrays:
        got = indented({"results": [{"line": "x", "vectors": A}]})
        assert got == json.dumps({"results": [{"line": "x", "vectors": old_vectors(A)}]},
                                 sort_keys=True, indent=2)


@pytest.mark.parametrize("threads", [None, "2"])
def test_embed_output_matches_the_dict_form(capsys, monkeypatch, threads):
    if threads is not None:
        monkeypatch.setenv("TOURNEY_CODES_THREADS", threads)
    P7, P11 = paley_tournament(7), paley_tournament(11)
    tournaments = [parse_line(line) for line in ORDER4_LINES]
    tournaments += [P11, dominated_extension(P7), delete_vertex(P11, 4),
                    d_optimal_block(P7, P7)]
    text = "".join(T.line() + "\n" for T in tournaments)
    results = []
    for T in tournaments:
        emb = embed(T)
        verdict = verify_embedding(emb, T)
        results.append({"line": T.line(), **emb.report.to_json_dict(),
                        "dimension": emb.dimension, "vectors": old_vectors(emb.vectors),
                        "max_deviation": verdict.max_deviation,
                        "check_passed": verdict.passed})
    want = {"command": "embed", "version": tourney_codes.__version__,
            "inputs_digest": hashlib.sha256(text.encode()).hexdigest(),
            "tolerances": {"eig_tol": DEFAULT_TOLERANCES.cluster_gap_factor,
                           "beta_tol": DEFAULT_TOLERANCES.beta_zero},
            "results": results}
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, _ = run_cli(capsys, "embed", "-")
    assert rc == 0
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"
