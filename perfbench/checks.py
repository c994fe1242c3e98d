"""Output checks that share no code with the library.

The colour-change closure, the relative-error test and the CSV reader
below work on the benchmark's own edge lists and plain numpy, so a
defect in ``netident`` cannot hide itself by also breaking the check.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-6


def closure_size(n: int, edges, seed) -> int:
    """Number of nodes the colour-change rule turns black from ``seed``.

    Works in propagation rounds: every black node with exactly one white
    neighbour forces it, all against the same black set. Only black
    nodes next to a node coloured in the previous round can have become
    able to force, so each round rescans just those.
    """
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    black = set(seed)
    active = set(black)
    while active:
        forced = set()
        for u in active:
            whites = [w for w in adj[u] if w not in black]
            if len(whites) == 1:
                forced.add(whites[0])
        black |= forced
        active = {x for v in forced for x in adj[v] if x in black} | forced
    return len(black)


def is_forcing(n: int, edges, seed) -> bool:
    return all(1 <= v <= n for v in seed) and closure_size(n, edges, seed) == n


def relative_error(recovered, truth) -> float:
    """Frobenius-norm error of ``recovered`` relative to ``truth``.

    A wrong shape or a non-finite entry gives infinity, so it always
    fails the tolerance.
    """
    recovered = np.asarray(recovered, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if recovered.shape != truth.shape or not np.isfinite(recovered).all():
        return float("inf")
    return float(np.linalg.norm(recovered - truth) / np.linalg.norm(truth))


def recovery_ok(recovered, truth) -> tuple[bool, float]:
    err = relative_error(recovered, truth)
    return err <= REL_TOL, err


def parse_matrix_csv(text: str) -> np.ndarray:
    """Read the CLI's matrix CSV (header ``n,<count>``, then rows).

    Raises ValueError on anything else.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n,"):
        raise ValueError("missing 'n,<count>' header")
    n = int(lines[0][2:])
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    mat = np.array(rows, dtype=float)
    if mat.shape != (n, n):
        raise ValueError(f"matrix has shape {mat.shape}, header says n={n}")
    return mat
