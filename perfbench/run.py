#!/usr/bin/env python3
"""Benchmark of the tourney-codes CLI and library.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-n20 --seed 1 --seconds 36 --trace 0

Workloads: analyze-n20, embed-n20 and certified-large, which
BENCHMARK.json lists, and switching-n12, random-n100 and exact-band (see
workloads.py).  Each is a closed loop, one CLI invocation (or, for
exact-band, one library call) at a time, taking the workload's seeded
batches in order, cycling if the pool runs out, until the timed calls add
up to --seconds.  Every output is checked by checks.py outside the timed
region.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 makes the separate traced run and prints the per-layer metrics.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A record of the run (machine, every sample, the
sha256 of every batch's output) and, for traced runs, the spans are
written to perfbench/out/.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every child, the same on every
# commit: on two cores the default threading adds CPU time and noise, not
# speed.  The library's own environment settings stay unset.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)
for _name in [k for k in os.environ if k.startswith("TOURNEY_CODES_")]:
    del os.environ[_name]

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

try:
    import tourney_codes
except ImportError as exc:
    sys.exit(f"run.py: cannot import tourney_codes from {SRC}: {exc}")
if not Path(tourney_codes.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"run.py: tourney_codes was imported from outside {SRC}")

import numpy as np

import checks
import workloads
from tracing import Tracer, layer_metrics, run_cli

CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
SETUP_SAMPLES = 7
# The traced run spends this share of --seconds on untraced CLI children
# (for cli.cpu_s and cli.output_bytes) and the rest in process.
CHILD_SHARE = 1 / 3


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
    }


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter that imports the CLI and exits.

    One unmeasured start first compiles the bytecode and warms the file
    cache, which users do not pay on every run.
    """
    argv = [sys.executable, "-c", "import tourney_codes.cli"]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(argv, env=CHILD_ENV, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if k:
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def invoke(argv: list[str], stdin_path: Path) -> dict:
    """Run one child to completion; wall from launch to reaped exit.

    os.wait4 gives this child's own peak RSS and CPU time, including any
    children it reaped; RUSAGE_CHILDREN would keep the peak of every child
    so far.
    """
    err_path = OUT / "stderr.txt"
    with open(stdin_path, "rb") as fin, open(err_path, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=subprocess.PIPE, stderr=ferr,
                                env=CHILD_ENV, cwd=ROOT)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "stdout": stdout, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss,
            "stderr": err_path.read_text(errors="replace")[-2000:]}


def _batch_file(wl, index: int) -> Path:
    path = OUT / f"{wl.name}-batch{index}.txt"
    path.write_text("".join(item.line + "\n" for item in wl.batches[index]),
                    encoding="ascii")
    return path


def _sample(index: int, items, inv: dict, faults: list, sha: str) -> dict:
    return {"batch": index, "items": len(items), "wall": inv["wall"], "cpu": inv["cpu"],
            "rss_kb": inv["rss_kb"], "out_bytes": len(inv["stdout"]), "sha256": sha,
            "faults": faults}


def _cli_faults(wl, index: int, code: int, stdout: bytes, sha: str, verdicts: dict,
                stderr: str = "") -> list:
    """Faults of one CLI run of a batch.

    Identical bytes for the same batch earn the same verdict, so each
    distinct output is checked once.
    """
    items = wl.batches[index]
    if code != 0:
        return [f"exit code {code}: {stderr.strip()}"] * len(items)
    if (index, sha) not in verdicts:
        verdicts[index, sha] = checks.check_report(wl.command, items, stdout)
    return verdicts[index, sha]


def _outcomes_sha256(outcomes: list) -> str:
    return hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode("ascii")).hexdigest()


def cli_loop(wl, seconds: float) -> list[dict]:
    """Closed loop of CLI children, one batch each, until seconds are timed."""
    paths = [_batch_file(wl, b) for b in range(len(wl.batches))]
    argv = [sys.executable, "-m", "tourney_codes.cli", wl.command, "-"]
    verdicts: dict = {}
    samples = []
    timed = 0.0
    while timed < seconds:
        index = len(samples) % len(wl.batches)
        items = wl.batches[index]
        inv = invoke(argv, paths[index])
        sha = hashlib.sha256(inv["stdout"]).hexdigest()
        faults = _cli_faults(wl, index, inv["code"], inv["stdout"], sha, verdicts, inv["stderr"])
        samples.append(_sample(index, items, inv, faults, sha))
        timed += inv["wall"]
    return samples


def library_loop(wl, seconds: float) -> list[dict]:
    """exact-band: the closed library loop runs in one worker child."""
    spec = OUT / f"{wl.name}-input.json"
    spec.write_text(json.dumps({"seconds": seconds, "batches": [
        [item.line for item in batch] for batch in wl.batches]}), encoding="ascii")
    inv = invoke([sys.executable, str(HERE / "worker.py")], spec)
    try:
        runs = json.loads(inv["stdout"])["batches"]
    except (ValueError, KeyError, TypeError):
        runs = None
    if inv["code"] != 0 or not runs:
        fault = f"worker failed with exit code {inv['code']}: {inv['stderr'].strip()}"
        return [_sample(0, wl.batches[0], inv, [fault] * len(wl.batches[0]), "")]
    samples = []
    for run in runs:
        items = wl.batches[run["index"]]
        per_batch = dict(inv, wall=run["wall"], cpu=run["cpu"], stdout=b"")
        samples.append(_sample(run["index"], items, per_batch,
                               checks.check_exact(items, run["outcomes"]),
                               _outcomes_sha256(run["outcomes"])))
    return samples


def untraced_loop(wl, seconds: float) -> list[dict]:
    return cli_loop(wl, seconds) if wl.command else library_loop(wl, seconds)


def _traced_cli_batch(wl, index: int, tracer: Tracer, verdicts: dict) -> dict:
    items = wl.batches[index]
    argv = [wl.command, "-"]
    text = "".join(item.line + "\n" for item in items)
    *_, plain = run_cli(argv, text)
    with tracer.installed():
        code, stdout, stderr, wall = run_cli(argv, text)
    sha = hashlib.sha256(stdout).hexdigest()
    faults = _cli_faults(wl, index, code, stdout, sha, verdicts, stderr)
    return {"untraced": plain, "traced": wall, "sha256": sha, "faults": faults,
            "complete": code == 0}


def _traced_library_batch(wl, tournaments, index: int, tracer: Tracer) -> dict:
    plain = wall = 0.0
    outcomes = []
    for T in tournaments:
        start = time.perf_counter()
        workloads.outcome(T, workloads.WIDE_BAND)
        plain += time.perf_counter() - start
        with tracer.installed():
            start = time.perf_counter()
            outcomes.append(workloads.outcome(T, workloads.WIDE_BAND))
            wall += time.perf_counter() - start
    return {"untraced": plain, "traced": wall, "sha256": _outcomes_sha256(outcomes),
            "faults": checks.check_exact(wl.batches[index], outcomes),
            "complete": all("sig" in out for out in outcomes)}


def traced_loop(wl, seconds: float, tracer: Tracer) -> dict:
    """In-process loop: each batch runs untraced, then traced.

    The untraced run gives the per-batch reference for the tracing
    overhead; only the traced run records spans.  Call counts come from
    complete batches only: a batch cut short by an error makes fewer calls,
    and how many such batches fit in the time depends on machine speed.
    """
    parsed = [[tourney_codes.parse_line(item.line) for item in batch]
              for batch in wl.batches]
    verdicts: dict = {}
    samples, calls = [], []
    timed = glue = 0.0
    while timed < seconds:
        index = len(samples) % len(wl.batches)
        first = len(tracer.spans)
        if wl.command:
            sample = _traced_cli_batch(wl, index, tracer, verdicts)
        else:
            sample = _traced_library_batch(wl, parsed[index], index, tracer)
        glue += sample["traced"] - tracer.top_level_seconds(first)
        if sample["complete"]:
            calls.append((len(wl.batches[index]), tracer.calls_since(first)))
        samples.append(dict(sample, batch=index, items=len(wl.batches[index])))
        timed += sample["traced"] + sample["untraced"]
    metrics = layer_metrics(tracer, sum(s["items"] for s in samples), calls, glue)
    metrics["trace.overhead_ratio"] = (
        statistics.median(s["traced"] / s["untraced"] for s in samples), "ratio")
    return {"samples": samples, "metrics": metrics}


def counts(samples: list[dict]) -> tuple[int, int]:
    """Attempted items, and items that failed a check, are missing, raised,
    or come from a run that exited non-zero."""
    faults = [f for s in samples for f in s["faults"]]
    return len(faults), sum(1 for f in faults if f is not None)


def end_to_end(samples: list[dict], setup_s: float) -> dict:
    attempted, failed = counts(samples)
    return {
        "items_per_s": (statistics.median(s["items"] / s["wall"] for s in samples), "items/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(s["rss_kb"] for s in samples) / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ok/attempted"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)

    wl = workloads.build(args.workload, args.seed)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    if args.trace:
        samples = untraced_loop(wl, args.seconds * CHILD_SHARE)
        tracer = Tracer()
        traced = traced_loop(wl, args.seconds * (1 - CHILD_SHARE), tracer)
        metrics = traced["metrics"]
        metrics["cli.cpu_s"] = (statistics.median(s["cpu"] / s["items"] for s in samples),
                                "s/item")
        metrics["cli.output_bytes"] = (
            statistics.median(s["out_bytes"] / s["items"] for s in samples), "B/item")
        tracer.write(OUT / f"{wl.name}-seed{args.seed}-spans.tsv")
        samples = samples + traced["samples"]
    else:
        setup_s = setup_seconds()
        samples = untraced_loop(wl, args.seconds)
        metrics = end_to_end(samples, setup_s)

    attempted, failed = counts(samples)
    record["samples"] = [dict(s, faults=[f for f in s["faults"] if f]) for s in samples]
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{wl.name:16s} {name:58s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
