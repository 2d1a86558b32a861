"""Seeded inputs for the benchmark workloads.

Every input is built with the library's public constructors from one
seed, so the same seed always gives the same lines.  A workload is a pool
of batches; each batch is the input of one CLI invocation (or one round of
library calls for exact-band), and every batch of a workload has the same
composition, so per-batch rates are comparable and per-item call counts
repeat exactly from batch to batch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import tourney_codes
from tourney_codes import (Tolerances, canonical_form, d_optimal_block,
                           delete_vertex, dominated_extension, paley_tournament,
                           random_tournament, relabel, switch)

# The random-n100, switching and exact pools outlast a 36-second run, so a
# rare line that fails or stalls is met at its natural rate rather than
# once per pass over a short pool.  The certified lines are planted, with
# no rare case to meet, and their pool is cycled.
N20_LINES = 2000
N20_BATCH = 250
# Every Paley prime q = 3 (mod 4) below 100, so eigh runs at n from 6 to 94.
PALEY_ORDERS = (7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83)
BLOCK_ORDERS = (7, 11, 19, 23, 31, 43, 47)
CERTIFIED_BATCHES = 32
RANDOM_N100_PER_BATCH = 6
RANDOM_N100_BATCHES = 48
SWITCHING_RANDOM_PER_BATCH = 1
SWITCHING_PLANTED_PER_BATCH = 1
SWITCHING_PLANTED_CLASSES = 8      # count-tight --d 6
SWITCHING_BATCHES = 16
EXACT_ORDERS = (32, 40, 48, 56, 64)
EXACT_BATCHES = 24

# The public wide band of tests/test_spectral.py: nearly every main angle
# falls inside it, so every call takes the exact Krylov route.
WIDE_BAND = Tolerances(beta_exact_lo=0.0, beta_exact_hi=0.99)


@dataclass(frozen=True)
class Item:
    """One input line and what its output must show.

    kind: certificate kind a planted line must report.
    classes: switching class count a planted line must report.
    ref: canonical key (switching-n12) or outcome() with default
    tolerances (exact-band), computed here, outside any timed region.
    """

    line: str
    kind: str | None = None
    classes: int | None = None
    ref: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    command: str | None        # CLI subcommand; None runs the library loop
    batches: tuple[tuple[Item, ...], ...]


def signature(report) -> list:
    """Main flags per spectral line, type and rep_dim of an analysis."""
    return [[bool(line.main) for line in report.spectrum.lines],
            int(report.type_class.variant), int(report.rep_dim)]


def outcome(T, tol=tourney_codes.DEFAULT_TOLERANCES) -> dict:
    """{"sig": signature} of analyze(T, tol), or {"error": text} if it raised.

    tourney_codes.analyze is looked up at call time, so a tracer that has
    rebound it records the call.
    """
    try:
        return {"sig": signature(tourney_codes.analyze(T, tol))}
    except Exception as exc:  # a raising call is a failed item, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}


def _shuffled(T, rng: random.Random):
    perm = list(range(T.n))
    rng.shuffle(perm)
    return relabel(T, perm)


def _n20_batches(seed: int) -> tuple:
    rng = random.Random(f"n20:{seed}")
    lines = [Item(random_tournament(20, rng).line()) for _ in range(N20_LINES)]
    return tuple(tuple(lines[k:k + N20_BATCH]) for k in range(0, N20_LINES, N20_BATCH))


def _certified_batches(seed: int) -> tuple:
    rng = random.Random(f"certified:{seed}")
    paley = {q: paley_tournament(q) for q in PALEY_ORDERS}
    blocks = {q: d_optimal_block(paley[q], paley[q]) for q in BLOCK_ORDERS}
    batches = []
    for _ in range(CERTIFIED_BATCHES):
        items = []
        for q, P in paley.items():
            items.append(Item(_shuffled(P, rng).line(), kind="DRT"))
            items.append(Item(_shuffled(dominated_extension(P), rng).line(),
                              kind="SkewHadamard"))
            items.append(Item(_shuffled(delete_vertex(P, rng.randrange(q)), rng).line(),
                              kind="DrtMinusVertex"))
        for B in blocks.values():
            items.append(Item(_shuffled(B, rng).line(), kind="BlockForm"))
        rng.shuffle(items)
        batches.append(tuple(items))
    return tuple(batches)


def _random_n100_batches(seed: int) -> tuple:
    rng = random.Random(f"random-n100:{seed}")
    return tuple(tuple(Item(random_tournament(100, rng).line())
                       for _ in range(RANDOM_N100_PER_BATCH))
                 for _ in range(RANDOM_N100_BATCHES))


def _switching_batches(seed: int) -> tuple:
    rng = random.Random(f"switching:{seed}")
    base = dominated_extension(paley_tournament(11))
    batches = []
    for _ in range(SWITCHING_BATCHES):
        tournaments = [(random_tournament(12, rng), None)
                       for _ in range(SWITCHING_RANDOM_PER_BATCH)]
        for _ in range(SWITCHING_PLANTED_PER_BATCH):
            subset = [v for v in range(base.n) if rng.random() < 0.5]
            tournaments.append((_shuffled(switch(base, subset), rng),
                                SWITCHING_PLANTED_CLASSES))
        rng.shuffle(tournaments)
        batches.append(tuple(Item(T.line(), classes=classes,
                                  ref=canonical_form(T).key.decode("ascii"))
                             for T, classes in tournaments))
    return tuple(batches)


def _exact_batches(seed: int) -> tuple:
    rng = random.Random(f"exact:{seed}")
    batches = []
    for _ in range(EXACT_BATCHES):
        tournaments = [random_tournament(n, rng) for n in EXACT_ORDERS]
        batches.append(tuple(Item(T.line(), ref=outcome(T)) for T in tournaments))
    return tuple(batches)


# name -> (CLI subcommand, or None for the library loop; batch generator)
WORKLOADS = {
    "analyze-n20": ("analyze", _n20_batches),
    "embed-n20": ("embed", _n20_batches),
    "certified-large": ("analyze", _certified_batches),
    # The rest run by name but are not in BENCHMARK.json.  switching-n12:
    # its canonical_form work is parked in the ROADMAP.  random-n100 and
    # exact-band: known defects make items fail on most seeds (see
    # README.md, Checks), and a gated workload must not fail.
    "switching-n12": ("switching-class", _switching_batches),
    "random-n100": ("analyze", _random_n100_batches),
    "exact-band": (None, _exact_batches),
}


def build(name: str, seed: int) -> Workload:
    command, generate = WORKLOADS[name]
    return Workload(name, command, generate(seed))
