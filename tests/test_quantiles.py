"""Histogram quantiles vs DuckDB quantile_disc (the semantics oracle)."""

from fractions import Fraction

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from markdown_query_ray.pipelines.quantiles import group_quantiles


def _run(groups, values, qs):
    import ray.data

    t = pa.table({"g": pa.array(groups, pa.string()),
                  "v": pa.array(values, pa.int64())})
    ds = ray.data.from_arrow(t).repartition(4)
    out = group_quantiles(ds, "g", "v", qs=qs)
    return {(r["g"], round(r["q"], 6)): r["quantile"]
            for r in out.to_pylist()}


def _duck(groups, values, qs):
    con = duckdb.connect()
    con.register("t", pa.table({"g": groups, "v": values}))
    exp = {}
    for q in qs:
        for g, val in con.execute(
                "SELECT g, quantile_disc(v, ?) FROM t GROUP BY g",
                [float(q)]).fetchall():
            exp[(g, round(float(q), 6))] = val
    return exp


QS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
      Fraction(9, 10), Fraction(99, 100), Fraction(1))


def test_matches_duckdb_quantile_disc(ray_session):
    rng = np.random.default_rng(11)
    groups = [f"g{i % 3}" for i in range(1000)]
    values = rng.integers(0, 500, 1000).astype(np.int64).tolist()
    assert _run(groups, values, QS) == _duck(groups, values, QS)


def test_skewed_and_tiny_groups(ray_session):
    groups = ["a"] * 997 + ["b", "b", "c"]
    values = list(range(997)) + [5, 9, 42]
    got = _run(groups, values, QS)
    assert got == _duck(groups, values, QS)
    assert got[("c", 0.5)] == 42
    assert got[("b", 0.5)] == 5  # ceil(0.5*2)=1 -> first element


def test_duplicate_heavy_values(ray_session):
    groups = ["x"] * 100
    values = [7] * 90 + list(range(10))
    assert _run(groups, values, QS) == _duck(groups, values, QS)


def test_negative_and_full_domain_values(ray_session, monkeypatch):
    """The full int64 domain is supported: negatives and the int64
    extremes order correctly through the unsigned view, on both the
    driver-collect and the distributed radix-descent path, with no
    numpy overflow (the window arithmetic is exact Python ints)."""
    import warnings

    import markdown_query_ray.pipelines.quantiles as qmod

    rng = np.random.default_rng(19)
    groups = [f"g{i % 2}" for i in range(600)]
    values = rng.integers(-(1 << 62), 1 << 62, 600).tolist()
    values[:6] = [-(1 << 62), (1 << 62) - 1, -1, 0,
                  -(1 << 63), (1 << 63) - 1]
    want = _duck(groups, values, QS)
    for force_dist in (False, True):
        if force_dist:
            monkeypatch.setattr(qmod, "SMALL_HIST_ROWS", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _run(groups, values, QS)
        assert got == want, force_dist
        # each group's q=0 / q=1 answers are its extremes
        assert got[("g0", 0.0)] == -(1 << 63)
        assert got[("g1", 1.0)] == (1 << 63) - 1


def test_wide_domain_multiple_coarse_buckets(ray_session, monkeypatch):
    """Values spanning many 2^25-wide coarse buckets: the distributed
    rank selection must cross bucket boundaries correctly (including a
    quantile that lands exactly on a bucket's first/last value).
    SMALL_HIST_ROWS is forced to 0 so the distributed path runs even at
    test size."""
    import markdown_query_ray.pipelines.quantiles as qmod

    monkeypatch.setattr(qmod, "SMALL_HIST_ROWS", 0)
    rng = np.random.default_rng(7)
    n = 4000
    groups = [f"g{i % 2}" for i in range(n)]
    # spread over ~2^39: thousands of occupied coarse buckets
    values = (rng.integers(0, 1 << 39, n).astype(np.int64)).tolist()
    # pin some exact-boundary values
    values[:4] = [0, (1 << 25) - 1, 1 << 25, (1 << 39) - 1]
    assert _run(groups, values, QS) == _duck(groups, values, QS)


def test_driver_state_bounded_by_coarse_buckets(ray_session,
                                                monkeypatch):
    """The driver-side collect is the coarse-bucket table, not the
    distinct-value histogram: with VBUCKET_BITS shrunk to 2, 10k
    distinct values over domain [0,64) fold to <=16 buckets/group on
    the driver while answers stay exact."""
    import markdown_query_ray.pipelines.quantiles as qmod

    monkeypatch.setattr(qmod, "LEVEL_BITS", 2)
    monkeypatch.setattr(qmod, "SMALL_HIST_ROWS", 0)
    rng = np.random.default_rng(3)
    groups = ["a"] * 5000 + ["b"] * 5000
    values = rng.integers(0, 64, 10000).astype(np.int64).tolist()
    assert _run(groups, values, QS) == _duck(groups, values, QS)


def test_float_quantiles_match_duckdb(ray_session, monkeypatch):
    """group_quantiles_float: exact quantile_disc over float64 via the
    IEEE-754 order-isomorphic key (both the fast and distributed
    paths)."""
    import duckdb as _duckdb

    import markdown_query_ray.pipelines.quantiles as qmod
    import ray.data

    rng = np.random.default_rng(23)
    for force_dist in (False, True):
        if force_dist:
            monkeypatch.setattr(qmod, "SMALL_HIST_ROWS", 0)
        vals = np.concatenate([
            rng.standard_normal(500) * 1e6,
            rng.standard_normal(500) * 1e-6,
            [0.0, -0.0, 1.5, -1.5, np.inf, -np.inf],
        ])
        groups = [f"g{i % 3}" for i in range(len(vals))]
        t = pa.table({"g": pa.array(groups, pa.string()),
                      "v": pa.array(vals, pa.float64())})
        ds = ray.data.from_arrow(t).repartition(4)
        out = qmod.group_quantiles_float(ds, "g", "v", qs=QS)
        got = {(r["g"], round(r["q"], 6)): r["quantile"]
               for r in out.to_pylist()}
        con = _duckdb.connect()
        con.register("t", t)
        for q in QS:
            for g, val in con.execute(
                    "SELECT g, quantile_disc(v, ?) FROM t GROUP BY g",
                    [float(q)]).fetchall():
                assert got[(g, round(float(q), 6))] == val,                     (force_dist, g, q)


def test_float_nan_raises():
    from markdown_query_ray.pipelines.quantiles import float_order_key

    with pytest.raises(ValueError, match="NaN"):
        float_order_key(np.array([1.0, np.nan]))


def test_float_key_isomorphism():
    from markdown_query_ray.pipelines.quantiles import (
        float_from_key,
        float_order_key,
    )

    xs = np.array([-np.inf, -1e300, -2.5, -1e-308, -0.0, 0.0, 5e-324,
                   1.0, 1e300, np.inf])
    ks = float_order_key(xs)
    assert np.all(np.diff(ks) >= 0)  # order-preserving (ties: +-0.0)
    back = float_from_key(ks)
    norm = xs + 0.0  # -0.0 normalization is part of the contract
    assert np.array_equal(back, norm)


def test_outlier_does_not_collapse_descent(ray_session, monkeypatch):
    """Round-5 review scenario: dense values plus one extreme outlier.
    A global-span one-shot bucketing would fold every dense value into
    a single bucket; the radix descent must still answer exactly."""
    import markdown_query_ray.pipelines.quantiles as qmod

    monkeypatch.setattr(qmod, "SMALL_HIST_ROWS", 0)
    rng = np.random.default_rng(41)
    groups = ["a"] * 3000 + ["b"] * 1000
    values = rng.integers(0, 100_000, 4000).astype(np.int64).tolist()
    values[0] = 1 << 62          # the outlier
    values[-1] = -(1 << 62)      # and a negative one
    assert _run(groups, values, QS) == _duck(groups, values, QS)
