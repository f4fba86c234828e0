"""The checkpoint module: atomic writes, the empty-dataset pin, stale-output
clearing — and a source scan that keeps every durable write in it."""

import ast
import os
import pathlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from markdown_query_ray import checkpoint

PKG = pathlib.Path(__file__).resolve().parent.parent / "markdown_query_ray"


def _files(d):
    return sorted(os.listdir(d))


def test_write_table_failure_leaves_target_and_no_tmp(tmp_path, monkeypatch):
    path = str(tmp_path / "part-000000.parquet")
    old = pa.table({"x": [1, 2, 3]})
    checkpoint.write_table(old, path)

    def torn_write(table, where, **kw):
        with open(where, "wb") as f:
            f.write(b"PAR1 half a file")
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.pq, "write_table", torn_write)
    with pytest.raises(OSError, match="disk full"):
        checkpoint.write_table(pa.table({"x": [9]}), path)
    monkeypatch.undo()
    assert pq.read_table(path).equals(old)
    assert _files(tmp_path) == ["part-000000.parquet"]


def test_write_text_failure_leaves_target_and_no_tmp(tmp_path, monkeypatch):
    path = str(tmp_path / "segments.json")
    checkpoint.write_text('{"next_gen": 1}', path)

    def failing_fsync(fd):
        raise OSError("I/O error")

    monkeypatch.setattr(checkpoint.os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="I/O error"):
        checkpoint.write_text('{"next_gen": 2}', path)
    monkeypatch.undo()
    assert open(path).read() == '{"next_gen": 1}'
    assert _files(tmp_path) == ["segments.json"]


def test_mark_done_creates_dir_and_writes_ok(tmp_path):
    d = str(tmp_path / "not" / "yet")
    assert not checkpoint.is_done(d, "_SUCCESS")
    checkpoint.mark_done(d, "_SUCCESS")
    assert checkpoint.is_done(d, "_SUCCESS")
    assert open(os.path.join(d, "_SUCCESS")).read() == "ok"


def test_write_dataset_empty_reads_back_pinned_schema(ray_session, tmp_path):
    import ray.data

    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["a", "b"])})).filter(lambda r: False)
    d = str(tmp_path / "ck")
    checkpoint.write_dataset(ds, d, schema)
    assert _files(d) == [checkpoint.EMPTY_FILE]
    assert ray.data.read_parquet(d).count() == 0
    t = pq.read_table(d)
    assert t.num_rows == 0 and t.schema.equals(schema)


def test_write_dataset_rerun_over_stale_files_no_duplicates(ray_session,
                                                            tmp_path):
    import ray.data

    d = str(tmp_path / "ck")
    os.makedirs(d)
    # a crashed attempt's leftovers: a part file of another run plus a
    # tmp file
    pq.write_table(pa.table({"doc_id": pa.array([7, 8], pa.int64())}),
                   os.path.join(d, "stale_000000_000000.parquet"))
    open(os.path.join(d, "x.parquet.tmp-1"), "w").close()
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64())}))
    checkpoint.write_dataset(ds, d)
    checkpoint.write_dataset(ds, d)  # and a plain re-run
    got = sorted(r["doc_id"] for r in ray.data.read_parquet(d).take_all())
    assert got == [1, 2, 3]
    assert not any("stale" in f or ".tmp" in f for f in _files(d))


# ---------------------------------------------------------------------------
# source scan: durable writes live in checkpoint.py only
# ---------------------------------------------------------------------------

_WRITE_MODES = set("wax+")


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _write_calls(path: pathlib.Path):
    """(line, what) for every call in ``path`` that makes a file durable
    or writes one: os.replace / os.rename / os.fsync, open(..., 'w'|'a'|
    'x'|'+'), pyarrow's write_table and Ray's write_parquet."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name in ("os.replace", "os.rename", "os.fsync",
                    "pq.write_table", "pyarrow.parquet.write_table") \
                or name.endswith(".write_parquet"):
            yield node.lineno, name
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if isinstance(mode, ast.Constant) and \
                    _WRITE_MODES & set(str(mode.value)):
                yield node.lineno, f"open(..., {mode.value!r})"


def test_no_durable_writes_outside_checkpoint_module():
    offenders = []
    for sub in ("index", "pipelines"):
        for path in sorted((PKG / sub).glob("*.py")):
            offenders += [f"{path.relative_to(PKG)}:{ln}: {what}"
                          for ln, what in _write_calls(path)]
    assert not offenders, (
        "route these through markdown_query_ray.checkpoint:\n"
        + "\n".join(offenders))


def test_scan_sees_the_checkpoint_module_itself():
    """The scan must recognise the calls it forbids elsewhere."""
    found = {what for _, what in _write_calls(PKG / "checkpoint.py")}
    assert {"os.replace", "os.fsync", "pq.write_table",
            "open(..., 'w')"} <= found
