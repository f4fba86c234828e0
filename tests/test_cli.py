"""CLI surface: build / update / query / suggest / query-set subcommands
(in-process main() against the session Ray fixture)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from markdown_query_ray.cli import main


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("clicorpus")
    from markdown_query_ray.fixtures import write_pages_corpus

    paths = write_pages_corpus(str(d), n_docs=200, n_files=2)
    return paths, str(d)


def test_build_and_query(corpus, tmp_path, capsys):
    paths, _ = corpus
    idx = str(tmp_path / "idx")
    rc = main(["build", idx, "--pages", *paths, "--parts", "4",
               "--buckets", "2"])
    assert rc == 0
    metrics = capsys.readouterr().out.strip()
    assert "merge_shuffle_encode" in metrics

    rc = main(["query", idx, "xqzrareuno", "-k", "5"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1  # planted in exactly one doc
    rank, score, url = out[0].split("\t")
    assert rank == "1" and float(score) > 0


def test_update_and_compact(corpus, tmp_path, capsys):
    paths, _ = corpus
    idx = str(tmp_path / "idx2")
    main(["build", idx, "--pages", *paths, "--parts", "4"])
    capsys.readouterr()

    upd = pa.table({
        "url": pa.array(["https://new.example/1"]),
        "warc_ts": pa.array([np.datetime64("2025-06-01T00:00:00", "us")],
                            pa.timestamp("us")),
        "html": pa.array([b"<html><body><p>qqbrandnew term</p></body>"
                          b"</html>"], pa.binary()),
        "text": pa.array(["qqbrandnew term"]),
        "lang": pa.array(["en"]),
    })
    up = str(tmp_path / "up.parquet")
    pq.write_table(upd, up)
    rc = main(["update", idx, "--pages", up])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"n_docs": 201' in out
    assert '"segments": 2' in out  # base + the update, nothing to merge

    rc = main(["query", idx, "qqbrandnew"])
    assert rc == 0
    assert "new.example" in capsys.readouterr().out

    out_idx = str(tmp_path / "idx2c")
    rc = main(["compact", idx, out_idx])
    assert rc == 0
    capsys.readouterr()
    rc = main(["query", out_idx, "qqbrandnew"])
    assert rc == 0
    assert "new.example" in capsys.readouterr().out

    # compacting an index into itself would drop its updates: refused
    rc = main(["compact", idx, idx])
    assert rc != 0
    assert "must not be or overlap the index" in capsys.readouterr().err
    rc = main(["query", idx, "qqbrandnew"])
    assert rc == 0
    assert "new.example" in capsys.readouterr().out


def test_markdown_build_and_field_query(ray_session, tmp_path, capsys):
    mds = []
    for i in range(5):
        p = tmp_path / f"d{i}.md"
        p.write_text(f"---\ntitle: doc {i} special\ndate: 1709251200\n---\n"
                     f"body text {i}\n")
        mds.append(str(p))
    idx = str(tmp_path / "mdidx")
    rc = main(["build", idx, "--markdown", *mds])
    assert rc == 0
    capsys.readouterr()
    rc = main(["query", idx, "title:special"])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 5


def test_suggest(corpus, tmp_path, capsys):
    paths, _ = corpus
    idx = str(tmp_path / "idx3")
    main(["build", idx, "--pages", *paths, "--parts", "4"])
    capsys.readouterr()
    rc = main(["suggest", idx, "xqzrareun"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "xqzrareuno"


def test_query_set(corpus, tmp_path, capsys):
    paths, _ = corpus
    idx = str(tmp_path / "idx4")
    main(["build", idx, "--pages", *paths, "--parts", "4"])
    capsys.readouterr()
    qfile = tmp_path / "qs.txt"
    qfile.write_text("xqzrareuno\nxqzrareduo OR xqzraretri\n")
    rc = main(["query-set", idx, "--queries", str(qfile),
               "--concurrency", "2", "-k", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(ln.startswith("xqzrareuno\t1\t") for ln in lines)


def test_build_from_warc_update_from_jsonl(ray_session, tmp_path, capsys):
    """Crawl-native inputs through the CLI: --warc build, --jsonl update
    (replacements re-keyed into the continuing id space), query finds the
    refreshed text."""
    import gzip
    import json as _json

    from markdown_query_ray.fixtures import make_pages_table, write_warc_corpus
    from markdown_query_ray.stages.extract import extract_text

    warcs = write_warc_corpus(str(tmp_path / "w"), n_docs=80, n_files=2)
    t = make_pages_table(0, 20)
    lines = [
        _json.dumps({"url": u, "text": extract_text(h) + " zzrefreshed"})
        for u, h in zip(t.column("url").to_pylist(),
                        t.column("html").to_pylist())]
    jp = str(tmp_path / "upd.jsonl.gz")
    with open(jp, "wb") as f:
        f.write(gzip.compress("\n".join(lines).encode()))

    idx = str(tmp_path / "idx")
    assert main(["build", idx, "--warc", *warcs, "--parts", "4",
                 "--buckets", "2"]) == 0
    capsys.readouterr()
    assert main(["update", idx, "--jsonl", jp]) == 0
    stats = capsys.readouterr().out.strip()
    assert '"n_docs": 80' in stats  # 20 replaced, none net-new
    assert main(["query", idx, "zzrefreshed", "-k", "30"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 20  # exactly the replaced docs match


def test_init_kwargs_cluster_vs_local():
    """Under `ray job submit` RAY_ADDRESS names the running cluster: the
    CLI must connect to it (no address/num_cpus override), not force a
    fresh local instance; locally it isolates with address='local'."""
    from markdown_query_ray.cli import _init_kwargs

    assert _init_kwargs(8, None) == {"include_dashboard": False,
                                     "address": "local", "num_cpus": 8}
    assert _init_kwargs(None, "local") == {"include_dashboard": False,
                                           "address": "local"}
    # cluster provided by the job runner: connect, don't override
    assert _init_kwargs(8, "auto") == {}
    assert _init_kwargs(None, "ray://head:10001") == {}


def test_delete_cli(corpus, tmp_path, capsys):
    """`mdq-ray delete <idx> <urls...>`: tombstone-only generation through
    the CLI, stats reported, deleted docs gone from queries."""
    import json

    paths, _ = corpus
    idx = str(tmp_path / "idx_del")
    main(["build", idx, "--pages", *paths, "--parts", "4"])
    capsys.readouterr()
    urls = pq.read_table(paths[0], columns=["url"]) \
        .column("url").to_pylist()
    n_total = sum(pq.read_table(p, columns=["url"]).num_rows
                  for p in paths)
    ufile = tmp_path / "dead.txt"
    ufile.write_text("\n".join(urls[:3]) + "\n")
    rc = main(["delete", idx, urls[3], "--url-file", str(ufile)])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out.strip())
    assert stats["n_docs"] == n_total - 4
