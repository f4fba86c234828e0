"""Tests of the benchmark's own parts: seeded inputs, the correctness
gate and the percentile reporter. Run from the repository root with
``python -m pytest perfbench/tests -q``."""

import itertools

import pytest

from perfbench import gate, inputs
from perfbench.stats import latency_summary, percentile, tail_percentile


def _stream(seed, user, n=200):
    return list(itertools.islice(
        inputs.keystroke_stream(seed, user, (5_000, 500)), n))


def test_inputs_identical_for_same_seed():
    assert inputs.corpus_offset(7) == inputs.corpus_offset(7)
    assert _stream(7, 0) == _stream(7, 0)
    assert inputs.build_queries(7, 1, 4) == inputs.build_queries(7, 1, 4)
    assert inputs.refresh_queries(7, 2, 4) == inputs.refresh_queries(7, 2, 4)
    a = inputs.RefreshPlan(7, 5_000, 40, 8)
    b = inputs.RefreshPlan(7, 5_000, 40, 8)
    assert a.batch(0).equals(b.batch(0))
    assert a.batch(1).equals(b.batch(1))
    assert a.live_table().equals(b.live_table())


def test_inputs_differ_across_seeds():
    assert inputs.corpus_offset(7) != inputs.corpus_offset(8)
    assert _stream(7, 0) != _stream(8, 0)
    assert _stream(7, 0) != _stream(7, 1)


def test_keystrokes_are_typed_prefixes():
    assert inputs.keystrokes("ab cd") == ["a", "ab", "ab c", "ab cd"]


def test_refresh_plan_tracks_the_live_corpus():
    plan = inputs.RefreshPlan(3, 5_000, 40, 8)
    batch = plan.batch(0)
    live = plan.live_table()
    urls = batch.column("url").to_pylist()
    # half new urls, half replacements of base urls
    assert len(live) == 40 + 4
    assert len(set(urls)) == 8
    assert set(urls) <= set(live.column("url").to_pylist())
    by_url = dict(zip(live.column("url").to_pylist(),
                      live.column("text").to_pylist()))
    for url, text in zip(urls, batch.column("text").to_pylist()):
        assert by_url[url] == text
    with pytest.raises(ValueError):
        plan.batch(plan.max_gens)


HITS = [(11, 9.5), (4, 7.25), (30, 7.25), (2, 1.0)]


def test_gate_accepts_equal_hits():
    assert gate.same_hits(HITS, list(HITS))
    close = [(d, s * (1 + 1e-12)) for d, s in HITS]
    assert gate.same_hits(close, HITS)


@pytest.mark.parametrize("planted", [
    [(11, 9.5), (4, 7.25), (30, 7.25), (2, 1.0 + 1e-6)],  # wrong score
    [(11, 9.5), (4, 7.25), (31, 7.25), (2, 1.0)],         # wrong docid
    [(11, 9.5), (30, 7.25), (4, 7.25), (2, 1.0)],         # wrong tie order
    HITS[:3],                                              # missing hit
])
def test_gate_catches_planted_errors(planted):
    assert not gate.same_hits(planted, HITS)


def test_url_gate_allows_tie_order_only():
    want = [("a", 3.0), ("b", 2.0), ("c", 2.0), ("d", 1.0), ("e", 1.0)]
    swapped = [("a", 3.0), ("c", 2.0), ("b", 2.0), ("d", 1.0), ("e", 1.0)]
    assert gate.same_url_hits(swapped, want)
    # the last tie group may be cut at k differently
    cut = [("a", 3.0), ("b", 2.0), ("c", 2.0), ("d", 1.0), ("x", 1.0)]
    assert gate.same_url_hits(cut, want)
    wrong_url = [("a", 3.0), ("b", 2.0), ("x", 2.0), ("d", 1.0), ("e", 1.0)]
    assert not gate.same_url_hits(wrong_url, want)
    wrong_score = [("a", 3.0), ("b", 2.0), ("c", 2.0 + 1e-6), ("d", 1.0),
                   ("e", 1.0)]
    assert not gate.same_url_hits(wrong_score, want)


def test_percentile_matches_linear_interpolation():
    xs = [float(i) for i in range(1, 101)]
    assert percentile(xs, 50) == pytest.approx(50.5)
    assert percentile(xs, 99) == pytest.approx(99.01)
    assert percentile([3.0], 99) == 3.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(5000) == 99.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(500) == 98.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(11) == 50.0   # 100 * (1 - 10/11) < 50
    assert tail_percentile(10) == 50.0
    assert tail_percentile(1) == 50.0
    for n in (12, 40, 100, 333, 999, 1000, 4321):
        q = tail_percentile(n)
        if q > 50.0:
            assert (100 - q) / 100 * n >= 10 - 1e-9


def test_latency_summary_states_its_tail():
    xs = [float(i) for i in range(1, 101)]
    s = latency_summary(xs)
    assert s["samples"] == 100
    assert s["tail_percentile"] == 90.0
    assert s["tail_ms"] == pytest.approx(percentile(xs, 90.0))
    assert sum(x > s["tail_ms"] for x in xs) >= 10
    big = latency_summary([float(i % 97) for i in range(3000)])
    assert big["tail_percentile"] == 99.0
