"""Closed library loop for exact-band, run as a child of run.py.

Usage: python3 worker.py < input.json

The input holds {"seconds": S, "batches": [[line, ...], ...]}.  Batches
are analyzed in order, cycling, one analyze() call at a time with the wide
exact band, until the timed calls add up to S seconds.  Prints one JSON
object: per batch its wall and CPU seconds and one outcome per line.
"""

from __future__ import annotations

import json
import sys
import time

from tourney_codes import parse_line

from workloads import WIDE_BAND, outcome


def main() -> int:
    spec = json.load(sys.stdin)
    batches = [[parse_line(line) for line in batch] for batch in spec["batches"]]
    runs = []
    timed = 0.0
    k = 0
    while timed < spec["seconds"]:
        index = k % len(batches)
        outcomes = []
        wall = cpu = 0.0
        for T in batches[index]:
            c0, t0 = time.process_time(), time.perf_counter()
            outcomes.append(outcome(T, WIDE_BAND))
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
        runs.append({"index": index, "wall": wall, "cpu": cpu, "outcomes": outcomes})
        timed += wall
        k += 1
    json.dump({"batches": runs}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
