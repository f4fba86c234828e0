"""Correctness checks of the engine's outputs."""

from __future__ import annotations

import hashlib
import math
import os

REL_TOL = 1e-9


def index_content_hash(index_dir: str,
                       subdirs: tuple[str, ...] = ("postings", "term_stats")
                       ) -> str:
    """SHA-256 over the posting and term-stats files of a built index
    (relative path and bytes, in path order)."""
    h = hashlib.sha256()
    for sub in subdirs:
        d = os.path.join(index_dir, sub)
        for name in sorted(os.listdir(d)):
            if not name.endswith(".parquet"):
                continue
            h.update(f"{sub}/{name}\0".encode())
            with open(os.path.join(d, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def same_hits(got: list[tuple[int, float]],
              want: list[tuple[int, float]]) -> bool:
    """Same doc ids in the same order, scores equal to rel 1e-9."""
    return len(got) == len(want) and all(
        gd == wd and _close(gs, ws)
        for (gd, gs), (wd, ws) in zip(got, want))


def same_url_hits(got: list[tuple[str, float]],
                  want: list[tuple[str, float]]) -> bool:
    """Hits of two indexes whose doc ids differ (an updated index and a
    from-scratch build of the same live corpus), compared by url.

    Scores must agree rank by rank. Docs with equal scores may come in
    either order (their doc ids decide it), so urls are compared as sets
    per score; the lowest-scored group may be cut at k differently, so
    only its size is compared."""
    if len(got) != len(want):
        return False
    if not all(_close(g[1], w[1]) for g, w in zip(got, want)):
        return False
    groups_got: dict[int, set] = {}
    groups_want: dict[int, set] = {}
    rank_group = 0
    for i in range(len(want)):
        if i and not _close(want[i][1], want[i - 1][1]):
            rank_group += 1
        groups_got.setdefault(rank_group, set()).add(got[i][0])
        groups_want.setdefault(rank_group, set()).add(want[i][0])
    return all(groups_got[g] == groups_want[g] for g in range(rank_group))


def hits_of(table, key: str = "doc_id") -> list[tuple]:
    return list(zip(table.column(key).to_pylist(),
                    table.column("score").to_pylist()))
