"""Sharded exact COUNT DISTINCT vs a Python set brute force."""

import pyarrow as pa
import pytest

from markdown_query_ray.pipelines.textstats import (
    distinct_partials_batch,
    distinct_token_counts,
)

# exact arithmetic: a RuntimeWarning here is an engine bug, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TEXTS = [
    ("en", "the cat sat on the mat"),
    ("en", "the dog sat"),
    ("de", "der hund"),
    ("de", ""),
    ("fr", "un deux trois un"),
    ("en", "cat mat dog extra"),
]


def _brute():
    vocab = {}
    for g, t in TEXTS:
        vocab.setdefault(g, set()).update(x for x in t.split(" ") if x)
    return {g: len(v) for g, v in vocab.items() if v}


def test_counts_match_brute(ray_session):
    import ray.data

    t = pa.table({"lang": pa.array([g for g, _ in TEXTS], pa.string()),
                  "text": pa.array([x for _, x in TEXTS], pa.string())})
    out = distinct_token_counts(
        ray.data.from_arrow(t).repartition(3)).to_pandas()
    got = dict(zip(out["lang"], out["n_distinct"]))
    assert got == _brute()


def test_partials_are_batch_distinct():
    t = pa.table({"lang": pa.array(["en", "en"], pa.string()),
                  "text": pa.array(["a b a", "b c"], pa.string())})
    out = distinct_partials_batch(t)
    # distinct (en, {a,b,c}) -> 3 pairs
    assert out.num_rows == 3
    assert set(out.column("lang").to_pylist()) == {"en"}


def test_empty_group_absent(ray_session):
    import ray.data

    t = pa.table({"lang": pa.array(["zz"], pa.string()),
                  "text": pa.array([""], pa.string())})
    out = distinct_token_counts(ray.data.from_arrow(t)).to_pandas()
    assert len(out) == 0
