"""Output checks that do not trust the program.

Each check takes the items of one batch and what the program produced for
them, and returns one entry per item: None when the item passed, else the
reason it failed.  The rules come from the README and the module
docstrings (rep_dim case split, absolute bound, certificate shapes, the
embedding contract), not from the code under test.
"""

from __future__ import annotations

import json

import numpy as np

EMBED_TOL = 1e-7
DISAGREES = "wide-band verdict differs from the default-tolerance reference"


def arc_matrix(line: str) -> np.ndarray:
    """0/1 adjacency of a "<n>:<bits>" line, A[u, v] = 1 iff u -> v."""
    head, bits = line.split(":")
    n = int(head)
    b = np.frombuffer(bits.encode("ascii"), dtype=np.uint8).astype(np.int64) - 48
    A = np.zeros((n, n), dtype=np.int64)
    iu, ju = np.triu_indices(n, 1)
    A[iu, ju] = b
    A[ju, iu] = 1 - b
    return A


def _case_rep_dim(r: dict) -> int:
    # Type 1: n - m1 - 1; type 2: n - m1; type 3: n - m2 - 1; type 4: n - 1,
    # with m1, m2 the multiplicities of the two smallest eigenvalues.
    n, mults = r["n"], [line["mult"] for line in r["spectrum"]]
    return {1: n - mults[0] - 1, 2: n - mults[0], 3: n - mults[1] - 1, 4: n - 1}[r["type"]]


def _spectral_fault(item, r: dict) -> str | None:
    if r["line"] != item.line:
        return f"result for {r['line']!r} where {item.line!r} was sent"
    n = int(item.line.split(":")[0])
    if r["n"] != n or sum(line["mult"] for line in r["spectrum"]) != n:
        return "vertex count or multiplicities do not add up to n"
    if r["type"] not in (1, 2, 3, 4):
        return f"unknown type {r['type']!r}"
    if r["rep_dim"] != _case_rep_dim(r):
        return f"rep_dim {r['rep_dim']} breaks the type {r['type']} case rule"
    if ("c1" in r) != (r["type"] == 1) or ("c2" in r) != (r["type"] == 3):
        return "c1/c2 present for the wrong type"
    if not r["alpha"]["im"] > 0:
        return "alpha is not in the upper half plane"
    return None


def _tightness_fault(item, r: dict) -> str | None:
    n, d = r["n"], r["rep_dim"]
    tight = r.get("tightness")
    if tight is None:
        return "tightness report missing" if n >= 3 else None
    bound = 2 * d + 1 if d % 2 else 2 * d
    if tight["rep_dim"] != d or tight["bound"] != bound or n > bound:
        return f"bound {tight['bound']} wrong for rep_dim {d} and n {n}"
    if tight["is_tight"] != (n == bound):
        return "is_tight disagrees with n == bound"
    kind = tight["certificate"]["kind"]
    if n == bound:
        allowed = {"DRT"} if d % 2 else {"SkewHadamard"}
    elif n == 2 * d and d % 2:
        allowed = {"DrtMinusVertex", "BlockForm"}
    else:
        allowed = {"None"}
    if kind not in allowed:
        return f"certificate {kind} where {sorted(allowed)} is required"
    if item.kind is not None and kind != item.kind:
        return f"planted {item.kind} reported as {kind}"
    if kind == "DRT" and tight["certificate"]["params"] != [n, (n - 1) // 2, (n - 3) // 4]:
        return f"DRT params {tight['certificate']['params']} wrong for n={n}"
    return None


def _analyze_fault(item, r: dict) -> str | None:
    return _spectral_fault(item, r) or _tightness_fault(item, r)


def _embed_fault(item, r: dict) -> str | None:
    fault = _spectral_fault(item, r)
    if fault:
        return fault
    d = r["rep_dim"]
    X = np.array([[complex(z["re"], z["im"]) for z in row] for row in r["vectors"]],
                 dtype=np.complex128)
    if r["dimension"] != d or X.shape != (r["n"], d):
        return f"{X.shape} vectors for rep_dim {d}"
    inner = X.conj() @ X.T
    alpha = complex(r["alpha"]["re"], r["alpha"]["im"])
    A = arc_matrix(item.line)
    want = np.where(A == 1, alpha, np.conj(alpha))
    np.fill_diagonal(want, 1.0)
    deviation = float(np.abs(inner - want).max())
    if deviation > EMBED_TOL:
        return f"Gram matrix deviates by {deviation:.3e}"
    if not r["check_passed"] or r["max_deviation"] > EMBED_TOL:
        return "program reports a failed embedding check"
    return None


def _switching_fault(item, r: dict) -> str | None:
    if r["line"] != item.line:
        return f"result for {r['line']!r} where {item.line!r} was sent"
    classes = r["classes"]
    if r["count"] != len(classes) or classes != sorted(set(classes)):
        return "class list is not a sorted set of the reported count"
    if item.classes is not None and r["count"] != item.classes:
        return f"planted line has {r['count']} classes, expected {item.classes}"
    if item.ref not in classes:
        return "the input's own canonical key is not in its switching class"
    return None


FAULTS = {
    "analyze": _analyze_fault,
    "embed": _embed_fault,
    "switching-class": _switching_fault,
}


def check_report(command: str, items, stdout: bytes) -> list:
    """Faults of one CLI JSON report against the batch it was given."""
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError):
        return ["unreadable report"] * len(items)
    if len(results) != len(items):
        return [f"{len(results)} results for {len(items)} lines"] * len(items)
    fault_of = FAULTS[command]
    faults = []
    for item, r in zip(items, results):
        try:
            faults.append(fault_of(item, r))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            faults.append(f"malformed result: {exc!r}")
    return faults


def check_exact(items, outcomes) -> list:
    """Faults of exact-band outcomes against each item's reference outcome.

    An outcome is {"sig": signature} or {"error": text}.  With no
    reference, because analyze raised at default tolerances too, the item
    cannot be confirmed and fails.
    """
    if len(outcomes) != len(items):
        return ["missing outcome"] * len(items)
    faults = []
    for item, out in zip(items, outcomes):
        if "error" in out:
            faults.append(f"raised {out['error']}")
        elif "error" in item.ref:
            faults.append(f"default-tolerance reference raised {item.ref['error']}")
        else:
            faults.append(None if out["sig"] == item.ref["sig"] else DISAGREES)
    return faults
