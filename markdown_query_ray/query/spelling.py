"""Spelling correction over the term dictionary.

The reference enables FLAG_SPELLING_CORRECTION on every query
(src/interactive/xapian_utils.rs:583-591); Xapian then suggests a corrected
query string from a trigram-indexed spelling dictionary with edit-distance
candidates ranked by frequency (xapian-core-1.4.17/api/editdistance.cc,
backends/glass/glass_spelling.cc: candidates share trigrams with the
misspelling, the suggestion is the highest-frequency term within the
smallest edit distance <= max 2).

Rebuild shape: the dictionary IS the index's ``term_stats`` table — no
separate spelling B-tree to maintain. The trigram map is built lazily on
first use from the unprefixed body terms (Z-stems and field-prefixed terms
are not user-visible spellings) and pruned to terms above a frequency
floor, so at web scale the in-memory table holds the head of the Zipf
curve — exactly the terms worth suggesting.
"""

from __future__ import annotations

import re
from collections import defaultdict


def trigrams(term: str) -> set[str]:
    """Padded character trigrams ('^ab', 'abc', 'bc$'); short terms fall
    back to the padded whole."""
    padded = f"^{term}$"
    if len(padded) < 3:
        return {padded}
    return {padded[i:i + 3] for i in range(len(padded) - 2)}


def edit_distance(a: str, b: str, cap: int = 2) -> int:
    """Levenshtein distance with early exit above ``cap`` (returns cap+1)."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > cap:
        return cap + 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    prev = list(range(la + 1))
    for j in range(1, lb + 1):
        cur = [j] + [0] * la
        best = cur[0]
        bj = b[j - 1]
        for i in range(1, la + 1):
            c = min(prev[i] + 1, cur[i - 1] + 1,
                    prev[i - 1] + (a[i - 1] != bj))
            cur[i] = c
            if c < best:
                best = c
        if best > cap:
            return cap + 1
        prev = cur
    return prev[la] if prev[la] <= cap else cap + 1


_PREFIXED = re.compile(r"^[A-Z]")  # Z-stems and field-prefixed terms
_WORD = re.compile(r"[A-Za-z0-9_]+")


class SpellingIndex:
    """Trigram candidate index over (term -> frequency)."""

    def __init__(self, freqs: dict[str, int], min_freq: int = 1):
        self.freqs = {t: f for t, f in freqs.items()
                      if f >= min_freq and not _PREFIXED.match(t)}
        self._tri: dict[str, list[str]] = defaultdict(list)
        for t in self.freqs:
            for g in trigrams(t):
                self._tri[g].append(t)

    def suggest(self, word: str, max_distance: int = 2) -> str | None:
        """Best dictionary term within ``max_distance`` edits: smallest
        distance wins, frequency breaks ties, then lexicographic (stable).
        None when ``word`` is already in the dictionary or nothing is
        close enough."""
        w = word.lower()
        if w in self.freqs:
            return None
        counts: dict[str, int] = defaultdict(int)
        for g in trigrams(w):
            for t in self._tri.get(g, ()):
                counts[t] += 1
        # require more shared trigrams for longer words (xapian's heuristic
        # of pruning the candidate set before the expensive distance); a
        # transposition can destroy 3 trigrams, so the floor stays low
        floor = 1 if len(w) <= 6 else 2
        best: tuple[int, int, str] | None = None
        for t, shared in counts.items():
            if shared < floor:
                continue
            d = edit_distance(w, t, max_distance)
            if d > max_distance:
                continue
            key = (d, -self.freqs[t], t)
            if best is None or key < best:
                best = key
        return best[2] if best else None


def load_spelling(index_dir: str, min_freq: int = 1) -> SpellingIndex:
    """Build a SpellingIndex from an index's term_stats (collfreq as the
    ranking frequency, matching Xapian's spelling frequency).

    Reads IndexReader's committed dictionary (every segment plus the
    fold of replaced docs' negative deltas), so terms only present in an
    update still get suggested, and terms whose every holder was replaced
    (post-delta termfreq 0) drop out."""
    from ..index.reader import IndexReader

    stats = IndexReader(index_dir).all_term_stats()
    return SpellingIndex({t: s["collfreq"] for t, s in stats.items()},
                         min_freq=min_freq)


def correct_query(q: str, sp: SpellingIndex,
                  max_distance: int = 2) -> str | None:
    """The get_corrected_query_string analog: replace each out-of-dictionary
    word with its best suggestion, preserving everything else (operators,
    quoting, case of untouched words). None when nothing was corrected."""
    changed = False

    def fix(m: re.Match) -> str:
        nonlocal changed
        w = m.group(0)
        if w.upper() == w and not w.islower():
            return w  # operator keywords (AND, OR, ...) are not words
        s = sp.suggest(w, max_distance)
        if s is None:
            return w
        changed = True
        return s

    out = _WORD.sub(fix, q)
    return out if changed else None
