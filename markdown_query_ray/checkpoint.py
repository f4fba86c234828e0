"""Crash-safe writes and commit markers: the one place that decides how a
stage's output becomes durable and committed.

Every checkpointed stage — the index build and its updates, the dedup
signature checkpoint, BPE shards, the driver's cached indexes and
crawl-refresh checkpoints — writes through these four operations:

- ``write_table``: one parquet file, written whole under a pid-unique tmp
  name and renamed into place. Readers never see a torn file, so "the
  file exists" is a valid per-partition resume test. No fsync: a data
  file lost to power failure is simply recomputed on the re-run.
- ``write_text``: a commit point (stats / segment registry / manifest
  JSON, sidecars, done markers) — tmp + fsync + rename + directory fsync,
  so a committed file survives power loss and a torn one is never
  observable.
- ``write_dataset``: a multi-file Ray Data write into a directory that
  holds only that stage's output. Stale files from a crashed attempt are
  removed first (Ray names output files per run, so a rewrite would add
  files beside them and duplicate rows), and an empty dataset — for which
  Ray writes no file at all — leaves one 0-row file of ``schema``, so the
  directory always reads back.
- ``mark_done`` / ``is_done``: the stage's done marker, written last.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

EMPTY_FILE = "empty.parquet"  # the pinned 0-row file of write_dataset


def _tmp_path(path: str) -> str:
    return f"{path}.tmp-{os.getpid()}"


def _discard(tmp: str) -> None:
    try:
        os.remove(tmp)
    except FileNotFoundError:
        pass


def write_table(table: pa.Table, path: str, **parquet_kw) -> None:
    """Write ``table`` to ``path`` atomically (tmp + rename); ``parquet_kw``
    pass through to ``pyarrow.parquet.write_table``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = _tmp_path(path)
    try:
        pq.write_table(table, tmp, **parquet_kw)
        os.replace(tmp, path)
    except BaseException:
        _discard(tmp)
        raise


def write_text(text: str, path: str) -> None:
    """Durably replace ``path`` with ``text`` (tmp + fsync + rename +
    directory fsync): without the fsyncs the rename can reach disk before
    the data blocks on some filesystems."""
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    tmp = _tmp_path(path)
    try:
        with open(tmp, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        _discard(tmp)
        raise
    dfd = os.open(d, os.O_RDONLY)
    try:
        os.fsync(dfd)
    finally:
        os.close(dfd)


def clear_dir(d: str) -> None:
    """Drop a stage's output directory left by a crashed attempt."""
    shutil.rmtree(d, ignore_errors=True)


def write_dataset(ds, d: str, schema: pa.Schema | None = None,
                  **parquet_kw) -> None:
    """``ds.write_parquet(d, **parquet_kw)`` into a cleared ``d``; when
    ``schema`` is given and Ray wrote no file (empty dataset), pin a 0-row
    file of it."""
    clear_dir(d)
    ds.write_parquet(d, **parquet_kw)
    if schema is not None and not (
            os.path.isdir(d)
            and any(f.endswith(".parquet") for f in os.listdir(d))):
        write_table(schema.empty_table(), os.path.join(d, EMPTY_FILE))


def is_done(d: str, name: str) -> bool:
    return os.path.exists(os.path.join(d, name))


def mark_done(d: str, name: str) -> None:
    """Commit a stage: write its ``name`` marker in ``d`` (created if
    missing). Call it only after everything the stage wrote."""
    write_text("ok", os.path.join(d, name))
