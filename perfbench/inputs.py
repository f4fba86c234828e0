"""Seeded inputs: corpus rows, update batches, query and keystroke streams.

Everything here is a pure function of ``--seed``. Pages come from
``fixtures.make_pages_table`` (a pure function of the row index) at a
seed-chosen row offset; query words are Zipf draws from
``fixtures.get_vocab()``. The engine only ever sees the parquet files and
query strings made here.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from markdown_query_ray import fixtures
from markdown_query_ray.query.session import REFERENCE_QUERY_SET

TOKEN_SCALE = 8        # ~5-6 KB web-page docs
N_FILES = 4
# corpus offsets skip the fixture's corner-case and planted rows (< 100)
# so every seed draws statistically alike pages
ROW_LO, ROW_SPAN = 1_000, 50_000_000
ZIPF_A = 1.1

# Stream ids keep the draws of different purposes independent.
_OFFSET, _SERVE, _REFRESH, _BUILD, _PICK = range(5)

# Query shapes built from the reference query set's templates.
AND_TEMPLATE = "foo AND bar"
AND_NOT_TEMPLATE = "foo AND NOT bar"
assert AND_TEMPLATE in REFERENCE_QUERY_SET
assert AND_NOT_TEMPLATE in REFERENCE_QUERY_SET


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def generator_hash() -> str:
    """Hash of the code that generates inputs: a cache of generated
    inputs is only valid for the generator that wrote it."""
    h = hashlib.sha1()
    for path in (__file__, fixtures.__file__):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def corpus_offset(seed: int) -> int:
    return ROW_LO + int(_rng(seed, _OFFSET).integers(0, ROW_SPAN))


def write_pages(out_dir: str, table: pa.Table, n_files: int = N_FILES
                ) -> list[str]:
    """Write a pages table as ``n_files`` parquet files; returns their
    sorted paths (the canonical input order)."""
    os.makedirs(out_dir, exist_ok=True)
    per = -(-len(table) // n_files)
    paths = []
    for f in range(n_files):
        part = table.slice(f * per, per)
        if not len(part):
            break
        path = os.path.join(out_dir, f"pages-{f:05d}.parquet")
        pq.write_table(part, path, row_group_size=256)
        paths.append(path)
    return paths


def cached_corpus(cache_root: str, name: str, start: int, count: int
                  ) -> tuple[list[str], pa.Table]:
    """Rows [start, start+count) as parquet files, cached under a key of
    the rows and the generator hash. Returns (paths, table)."""
    key = f"{name}-{start}-{count}-{TOKEN_SCALE}-{generator_hash()}"
    d = os.path.join(cache_root, key)
    done = os.path.join(d, "_DONE")
    if os.path.exists(done):
        paths = sorted(os.path.join(d, f) for f in os.listdir(d)
                       if f.endswith(".parquet"))
        return paths, pq.ParquetDataset(paths).read()
    shutil.rmtree(d, ignore_errors=True)
    table = fixtures.make_pages_table(start, count, TOKEN_SCALE)
    paths = write_pages(d, table)
    with open(done, "w") as f:
        f.write("ok")
    return paths, table


def text_bytes(table: pa.Table) -> int:
    """UTF-8 bytes of the pages' text: the input size the index stores."""
    import pyarrow.compute as pc

    return int(pc.sum(pc.binary_length(
        table.column("text").cast(pa.binary()))).as_py() or 0)


def zipf_words(rng: np.random.Generator, n: int) -> list[str]:
    vocab = fixtures.get_vocab()
    ranks = np.minimum(rng.zipf(ZIPF_A, size=n) - 1, len(vocab) - 1)
    return [vocab[r] for r in ranks]


def _phrase_pair(rng: np.random.Generator, rows: tuple[int, int]) -> str:
    """Two adjacent words of a corpus page, so the phrase can match."""
    row = int(rng.integers(rows[0], rows[0] + rows[1]))
    words = fixtures.make_pages_table(row, 1, TOKEN_SCALE) \
        .column("text")[0].as_py().split()
    i = int(rng.integers(0, max(1, len(words) - 1)))
    return " ".join(words[i:i + 2])


def _fill(template: str, a: str, b: str) -> str:
    return template.replace("foo", a).replace("bar", b)


# Serve query shapes, cycled so every run sends the same mix: half
# 2-4-word natural-language queries, the rest AND, AND NOT, quoted-phrase
# and short-prefix wildcard shapes.
SERVE_SHAPES = ("nl", "and", "nl", "and_not", "nl", "phrase", "nl",
                "wildcard")


def serve_query(rng: np.random.Generator, rows: tuple[int, int],
                shape: str) -> str:
    if shape == "nl":
        return " ".join(zipf_words(rng, int(rng.integers(2, 5))))
    a, b = zipf_words(rng, 2)
    if shape == "and":
        return _fill(AND_TEMPLATE, a, b)
    if shape == "and_not":
        return _fill(AND_NOT_TEMPLATE, a, b)
    if shape == "phrase":
        return f'"{_phrase_pair(rng, rows)}"'
    return a[:int(rng.integers(1, 4))]


def keystrokes(query: str) -> list[str]:
    """Every prefix a user types, skipping prefixes that end in a space
    (they parse like the prefix before them)."""
    return [query[:i] for i in range(1, len(query) + 1)
            if not query[i - 1].isspace()]


def keystroke_stream(seed: int, user: int, rows: tuple[int, int]):
    """Endless keystroke prefixes of user ``user``'s seeded queries."""
    rng = _rng(seed, _SERVE, user)
    i = user  # users start at different points of the cycle
    while True:
        shape = SERVE_SHAPES[i % len(SERVE_SHAPES)]
        yield from keystrokes(serve_query(rng, rows, shape))
        i += 1


def _zipf_cdf(v: int) -> np.ndarray:
    """CDF over vocabulary ranks of ``zipf_words``' draws: Zipf ranks with
    the tail beyond the vocabulary folded onto its last word."""
    pmf = np.arange(1, v, dtype=np.float64) ** -ZIPF_A
    # sum of k^-a for k >= v, by the midpoint rule
    tail = (v - 0.5) ** (1.0 - ZIPF_A) / (ZIPF_A - 1.0)
    return np.append(np.cumsum(pmf) / (pmf.sum() + tail), 1.0)


def stratified_zipf_words(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` draws from ``zipf_words``' distribution, stratified: one
    uniform draw in each of ``n`` equal slices of [0, 1) through the
    inverse CDF, in random order. A batch of queries made from them holds
    close to the same mix of common and rare words whatever the seed, so
    its cost varies little between seeds."""
    vocab = fixtures.get_vocab()
    u = (np.arange(n) + rng.random(n)) / n
    ranks = np.searchsorted(_zipf_cdf(len(vocab)), u, side="right")
    return [vocab[r] for r in rng.permutation(ranks)]


# Cold query shapes, cycled so every group of four sends the same mix:
# three natural-language queries of 2, 3 and 4 words in turn to one AND
# query.
COLD_SHAPES = ("nl", "nl", "and", "nl")


def cold_queries(seed: int, stream: int, n: int) -> list[str]:
    """``n`` natural-language and AND queries for one-shot searches, their
    words drawn together by ``stratified_zipf_words``."""
    rng = _rng(seed, stream)
    sizes, nl = [], 0
    for i in range(n):
        if COLD_SHAPES[i % len(COLD_SHAPES)] == "nl":
            sizes.append(2 + nl % 3)
            nl += 1
        else:
            sizes.append(0)  # AND of two words
    words = iter(stratified_zipf_words(rng, sum(s or 2 for s in sizes)))
    out = []
    for s in sizes:
        w = [next(words) for _ in range(s or 2)]
        out.append(" ".join(w) if s else _fill(AND_TEMPLATE, *w))
    return out


def build_queries(seed: int, build: int, n: int) -> list[str]:
    """The searches after build ``build`` of a run: every build sends new
    queries, so a run's latencies rest on many query draws."""
    return cold_queries(seed * 1_000 + build, _BUILD, n)


def refresh_queries(seed: int, gen: int, n: int) -> list[str]:
    return cold_queries(seed * 1_000 + gen, _REFRESH, n)


class RefreshPlan:
    """Seeded update batches over a base corpus of rows
    [base, base+n_base).

    Batch ``g`` holds ``half`` new pages (fresh rows) and ``half``
    replacements: live base urls, each replaced at most once, whose new
    content is another fresh row. ``live`` tracks url -> content row, so
    the equivalent live corpus can be rebuilt from scratch."""

    def __init__(self, seed: int, base: int, n_base: int, batch: int):
        self.base, self.n_base, self.half = base, n_base, batch // 2
        self.fresh = base + n_base
        self.order = _rng(seed, _PICK).permutation(n_base)
        self.max_gens = n_base // self.half
        urls = fixtures.make_pages_table(base, n_base, 1).column("url")
        self.live = dict(zip(urls.to_pylist(), range(base, base + n_base)))

    def batch(self, g: int) -> pa.Table:
        if g >= self.max_gens:
            raise ValueError(f"generation {g} beyond the plan's "
                             f"{self.max_gens}")
        h = self.half
        start = self.fresh + 2 * h * g
        new = fixtures.make_pages_table(start, h, TOKEN_SCALE)
        targets = [self.base + int(i)
                   for i in self.order[g * h:(g + 1) * h]]
        content_rows = range(start + h, start + 2 * h)
        repl = fixtures.make_pages_table(start + h, h, TOKEN_SCALE)
        target_urls = [fixtures.make_pages_table(t, 1, 1).column("url")[0]
                       .as_py() for t in targets]
        repl = repl.set_column(repl.schema.get_field_index("url"), "url",
                               pa.array(target_urls, pa.string()))
        for url, row in zip(new.column("url").to_pylist(),
                            range(start, start + h)):
            self.live[url] = row
        for url, row in zip(target_urls, content_rows):
            self.live[url] = row
        return pa.concat_tables([new, repl])

    def live_table(self) -> pa.Table:
        """The live corpus (one page per live url) as of the batches made
        so far."""
        items = sorted(self.live.items(), key=lambda kv: kv[1])
        rows = [r for _, r in items]
        tabs = []
        i = 0
        while i < len(rows):  # runs of consecutive rows generate at once
            j = i + 1
            while j < len(rows) and rows[j] == rows[j - 1] + 1:
                j += 1
            tabs.append(fixtures.make_pages_table(rows[i], j - i,
                                                  TOKEN_SCALE))
            i = j
        t = pa.concat_tables(tabs)
        return t.set_column(t.schema.get_field_index("url"), "url",
                            pa.array([u for u, _ in items], pa.string()))
