"""Local replica of the driver's correctness gate: run every queries() entry
at sf0.001 and compare row-count + sorted values against oracle_sql() via
DuckDB. Mirrors the driver's column-name-sorted, order-insensitive compare.
"""

import importlib.util
import sys

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _load_entry_module():
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", "/root/repo/__ray_entry__.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules["__ray_entry__"] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    return _load_entry_module()


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{SF_DIR}/{t}.parquet')")
    return con


def _to_df(result) -> pd.DataFrame:
    if isinstance(result, pa.Table):
        df = result.to_pandas()
    elif isinstance(result, pd.DataFrame):
        df = result
    else:  # Ray Dataset
        df = result.to_pandas()
    return df


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


# Every registered entry — the curated driver window (queries()) AND the
# demoted/un-fused extras (queries_extra()) — is oracle-checked here.
# The list is materialized at import time for parametrize.
def _all_keys():
    mod = _load_entry_module()
    return sorted(set(mod.queries()) | set(mod.queries_extra()))


SQL_CHECKED = _all_keys()


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_oracle(entry_mod, duck, name):
    q = {**entry_mod.queries(), **entry_mod.queries_extra()}
    o = {**entry_mod.oracle_sql(), **entry_mod.oracle_sql_extra()}
    ray_result = _to_df(q[name](SF_DIR))
    sql = o[name]
    oracle = duck.sql(sql).df()
    a, b = _normalize(ray_result), _normalize(oracle)
    assert list(a.columns) == list(b.columns), \
        f"{name}: columns {list(a.columns)} vs {list(b.columns)}"
    assert len(a) == len(b), f"{name}: rows {len(a)} vs {len(b)}"
    pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                  check_exact=False, rtol=1e-9, atol=1e-9)


def test_every_query_key_has_callable(entry_mod):
    q = entry_mod.queries()
    o = entry_mod.oracle_sql()
    qx = entry_mod.queries_extra()
    ox = entry_mod.oracle_sql_extra()
    # the driver-checked window: every entry oracle-backed, <= 50 entries
    assert set(o) == set(q)
    assert len(q) <= 50, f"driver window overflow: {len(q)} entries"
    # extras: disjoint from the window, every one oracle-backed too
    assert not set(qx) & set(q)
    assert set(ox) == set(qx)
    assert set(SQL_CHECKED) == set(q) | set(qx)


def test_entry_smoke(entry_mod):
    out = _to_df(entry_mod.entry())
    assert len(out) >= 1
    assert "doc_id" in out.columns and "score" in out.columns
