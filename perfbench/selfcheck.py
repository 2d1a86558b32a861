#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py

1. Each checker passes genuine program output and rejects a corrupted
   copy: a perturbed embedding vector, a wrong certificate kind, a wrong
   switching class count, a flipped main flag.
2. On one fixed n=20 line, the traced analyze run makes the known number
   of calls: tournament.adjacency 6, spectral.spectrum_of 2,
   tournament.parse_line 2.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import random
import sys

import run  # pins BLAS threads and puts the checkout's src first on sys.path
from checks import DISAGREES, check_exact, check_report
from tracing import Tracer, run_cli
from workloads import Item, build

from tourney_codes import (d_optimal_block, delete_vertex, dominated_extension,
                           paley_tournament, random_tournament)

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def report(command: str, items) -> dict:
    code, stdout, stderr, _ = run_cli([command, "-"], "".join(i.line + "\n" for i in items))
    if code != 0:
        raise SystemExit(f"{command} exited {code} on genuine input: {stderr}")
    return json.loads(stdout)


def rejects(command: str, items, corrupted: dict, index: int) -> bool:
    faults = check_report(command, items, json.dumps(corrupted).encode())
    return faults[index] is not None


def check_embed() -> None:
    items = build("embed-n20", 3).batches[0][:3]
    genuine = report("embed", items)
    expect(check_report("embed", items, json.dumps(genuine).encode()) == [None] * 3,
           "embed checker passes genuine output")
    bad = copy.deepcopy(genuine)
    bad["results"][1]["vectors"][0][0]["re"] += 1e-3
    expect(rejects("embed", items, bad, 1), "embed checker rejects a perturbed vector")


def check_certificates() -> None:
    P7, P11 = paley_tournament(7), paley_tournament(11)
    items = (Item(P11.line(), kind="DRT"),
             Item(dominated_extension(P7).line(), kind="SkewHadamard"),
             Item(delete_vertex(P11, 4).line(), kind="DrtMinusVertex"),
             Item(d_optimal_block(P7, P7).line(), kind="BlockForm"))
    genuine = report("analyze", items)
    expect(check_report("analyze", items, json.dumps(genuine).encode()) == [None] * 4,
           "analyze checker passes all four planted certificates")
    for index, wrong in ((0, "None"), (1, "DRT"), (2, "BlockForm"), (3, "DrtMinusVertex")):
        bad = copy.deepcopy(genuine)
        bad["results"][index]["tightness"]["certificate"]["kind"] = wrong
        expect(rejects("analyze", items, bad, index),
               f"analyze checker rejects {items[index].kind} reported as {wrong}")
    bad = copy.deepcopy(genuine)
    bad["results"][0]["tightness"]["certificate"]["params"][2] += 1
    expect(rejects("analyze", items, bad, 0), "analyze checker rejects wrong DRT params")


def check_switching() -> None:
    items = tuple(item for item in build("switching-n12", 5).batches[0]
                  if item.classes is not None)
    genuine = report("switching-class", items)
    expect(check_report("switching-class", items, json.dumps(genuine).encode()) == [None],
           "switching checker passes a genuine planted line")
    bad = copy.deepcopy(genuine)
    bad["results"][0]["classes"].pop()
    bad["results"][0]["count"] -= 1
    expect(rejects("switching-class", items, bad, 0),
           "switching checker rejects a wrong class count")


def check_exact_band() -> None:
    items = build("exact-band", 2).batches[0][:2]
    genuine = [dict(item.ref) for item in items]
    expect(check_exact(items, genuine) == [None, None], "exact-band check passes the reference")
    bad = copy.deepcopy(genuine)
    bad[0]["sig"][0][0] = not bad[0]["sig"][0][0]
    expect(check_exact(items, bad)[0] == DISAGREES, "exact-band check rejects a flipped main flag")


def check_traced_counts() -> None:
    line = random_tournament(20, random.Random(20)).line()
    tracer = Tracer()
    with tracer.installed():
        code, *_ = run_cli(["analyze", "-"], line + "\n")
    calls, _ = tracer.totals()
    want = {"tournament.adjacency": 6, "spectral.spectrum_of": 2, "tournament.parse_line": 2}
    got = {name: calls[name] for name in want}
    expect(code == 0 and got == want, f"traced analyze of one n=20 line makes {want}: {got}")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    check_embed()
    check_certificates()
    check_switching()
    check_exact_band()
    check_traced_counts()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
