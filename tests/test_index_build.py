"""End-to-end index build correctness: docid determinism, posting/statistics
parity with the sequential oracle, resumability."""

import glob
import json
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from markdown_query_ray.config import IndexConfig
from markdown_query_ray.index import build as build_mod
from markdown_query_ray.index.build import build_index, term_part
from markdown_query_ray.index.codec import decode_blocks
from markdown_query_ray.index.reader import IndexReader

from .oracle import OracleIndex

# exact arithmetic: a RuntimeWarning here is an engine bug, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def oracle(pages_corpus):
    return OracleIndex(pages_corpus)


def test_global_stats(built_index, oracle):
    _, _, gstats = built_index
    assert gstats["n_docs"] == oracle.n_docs == 400
    assert gstats["avg_doclen"] == pytest.approx(oracle.avg_doclen)
    assert gstats["doclen_lb"] == min(oracle.doclen.values())
    assert gstats["doclen_ub"] == max(oracle.doclen.values())


def test_doclens_match_oracle(built_index, oracle):
    # tokenized/ doubles as the docs table (column-pruned reads)
    index_dir, _, _ = built_index
    docs = pq.read_table(os.path.join(index_dir, "tokenized"),
                         columns=["doc_id", "doclen"])
    got = dict(zip(docs.column("doc_id").to_pylist(),
                   docs.column("doclen").to_pylist()))
    assert got == oracle.doclen


def test_urls_and_docids_deterministic(built_index, oracle):
    index_dir, _, _ = built_index
    reader = IndexReader(index_dir)
    urls = reader.urls_for(list(range(0, 400, 37)))
    for d, u in urls.items():
        assert oracle.urls[d] == u


def test_term_stats_match_oracle(built_index, oracle):
    index_dir, _, _ = built_index
    reader = IndexReader(index_dir)
    probe = ["the", "Zthe", "xqzrareuno", "xqzrareduo", "xqzraretri",
             "at&t", "c++", "uncle"]
    stats = reader.term_stats(probe)
    for t in probe:
        odocs = oracle.postings.get(t, {})
        if not odocs:
            assert t not in stats, t
            continue
        assert stats[t]["termfreq"] == len(odocs), t
        assert stats[t]["collfreq"] == sum(odocs.values()), t
        assert stats[t]["wdf_ub"] == max(odocs.values()), t


def test_planted_rare_terms(built_index):
    index_dir, _, _ = built_index
    reader = IndexReader(index_dir)
    stats = reader.term_stats(["xqzrareuno", "xqzrareduo", "xqzraretri"])
    assert stats["xqzrareuno"]["termfreq"] == 1
    assert stats["xqzrareduo"]["termfreq"] == 2
    assert stats["xqzraretri"]["termfreq"] == 3


def test_postings_decode_match_oracle(built_index, oracle):
    index_dir, _, _ = built_index
    reader = IndexReader(index_dir)
    for term in ["the", "Zthe", "xqzraretri", "uncle"]:
        blocks = reader.load_blocks([term])
        ids, tfs, dls, _ = decode_blocks(blocks)
        expect = sorted(oracle.postings.get(term, {}).items())
        assert ids.tolist() == [d for d, _ in expect], term
        assert tfs.tolist() == [tf for _, tf in expect], term
        assert dls.tolist() == [oracle.doclen[d] for d, _ in expect], term


def test_salted_shuffle_layout(built_index):
    """Heavy terms must be split across S doc-bucket files; blocks within a
    term must be doc-ordered and disjoint after concatenation."""
    index_dir, cfg, _ = built_index
    part = term_part("the", cfg.num_term_parts)
    files = [
        f"part-{part * cfg.num_doc_buckets + b:06d}.parquet"
        for b in range(cfg.num_doc_buckets)]
    found = []
    for f in files:
        p = os.path.join(index_dir, "postings", f)
        if os.path.exists(p):
            t = pq.read_table(p, filters=[("term", "==", "the")])
            if len(t):
                found.append(t)
    assert len(found) == cfg.num_doc_buckets  # "the" appears in every bucket
    reader = IndexReader(index_dir)
    blocks = reader.load_blocks(["the"])
    ids, _, _, _ = decode_blocks(blocks)
    assert (np.diff(ids.astype(np.int64)) > 0).all()  # strictly increasing


@pytest.fixture(params=["driver", "ray"])
def leg(request, monkeypatch):
    """Send the test's ``paths`` builds down one leg: the driver loop or
    the Ray Data plan."""
    monkeypatch.setattr(build_mod, "DRIVER_BUILD_BYTES",
                        float("inf") if request.param == "driver" else 0)
    return request.param


def test_resume_skips_completed_partitions(ray_session, pages_corpus,
                                           tmp_path, leg):
    """Second build over an existing output dir must reuse every partition
    (resumed=True) and leave files byte-identical."""
    out = str(tmp_path / "idx")
    cfg = IndexConfig(num_term_parts=2, num_doc_buckets=2)
    build_index(out, paths=pages_corpus, cfg=cfg)
    before = {p: open(p, "rb").read()
              for p in glob.glob(os.path.join(out, "postings", "*.parquet"))}
    build_index(out, paths=pages_corpus, cfg=cfg)
    man = [json.loads(line) for line in open(os.path.join(out,
                                                          "_manifest.jsonl"))]
    assert man and all(r["resumed"] for r in man)
    after = {p: open(p, "rb").read()
             for p in glob.glob(os.path.join(out, "postings", "*.parquet"))}
    assert before == after


def test_parallelism_invariance(ray_session, pages_corpus, tmp_path,
                                built_index, oracle):
    """A build with different partitioning (P=2, S=1 vs P=4, S=2) decodes to
    identical posting lists — the docid prefix-sum + deterministic encode
    make the index content partitioning-invariant."""
    out = str(tmp_path / "idx2")
    cfg = IndexConfig(num_term_parts=2, num_doc_buckets=1, block_size=32)
    build_index(out, paths=pages_corpus, cfg=cfg)
    r2 = IndexReader(out)
    r1 = IndexReader(built_index[0])
    for term in ["the", "Zthe", "xqzraretri"]:
        a = decode_blocks(r1.load_blocks([term]))
        b = decode_blocks(r2.load_blocks([term]))
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()
        assert a[2].tolist() == b[2].tolist()


def test_staging_partial_write_cleared(ray_session, pages_corpus, tmp_path):
    """A crash mid-staging-write (parquet files present, no _SUCCESS) must
    NOT double the corpus on re-run: the rebuild clears stale staging
    output before re-tokenizing (Ray names output files per run, so a
    plain rewrite would leave both generations in the directory)."""
    import shutil

    from markdown_query_ray.config import IndexConfig
    from markdown_query_ray.index.build import build_index

    out = str(tmp_path / "idx")
    cfg = IndexConfig(num_term_parts=2, num_doc_buckets=1)
    g1 = build_index(out, paths=pages_corpus, cfg=cfg)
    # simulate the crash: staging files exist but the success marker and
    # downstream outputs do not
    os.remove(os.path.join(out, "tokenized", "_SUCCESS"))
    shutil.rmtree(os.path.join(out, "postings"))
    shutil.rmtree(os.path.join(out, "term_stats"))
    g2 = build_index(out, paths=pages_corpus, cfg=cfg)
    assert g2["n_docs"] == g1["n_docs"]
    assert g2["total_doclen"] == g1["total_doclen"]


def test_staging_checkpoint_resume(ray_session, pages_corpus, tmp_path,
                                   leg):
    """The tokenized/ staging checkpoint survives a lost shuffle output:
    deleting the postings tree and rebuilding skips extract+tokenize
    entirely (no _SUCCESS re-write) and re-encodes from staging."""
    import shutil

    from markdown_query_ray.config import IndexConfig
    from markdown_query_ray.index.build import build_index

    out = str(tmp_path / "idx")
    cfg = IndexConfig(num_term_parts=2, num_doc_buckets=1)
    build_index(out, paths=pages_corpus, cfg=cfg)
    tok_mtime = os.path.getmtime(os.path.join(out, "tokenized", "_SUCCESS"))
    shutil.rmtree(os.path.join(out, "postings"))
    shutil.rmtree(os.path.join(out, "term_stats"))
    g = build_index(out, paths=pages_corpus, cfg=cfg)
    assert os.path.getmtime(
        os.path.join(out, "tokenized", "_SUCCESS")) == tok_mtime
    assert g["stage_metrics"]["extract_tokenize"] < 0.5  # skipped
    assert os.path.isdir(os.path.join(out, "postings"))


def test_distributed_stats_and_url_map_legs_match_driver(
        ray_session, pages_corpus, tmp_path, built_index, monkeypatch):
    """Past their row thresholds the term-stats merge runs as a Ray
    groupby and the url map as a Ray sort instead of driver-side passes;
    both legs must write the same term dictionary, wdf bound and url map
    (its files, in name order, the driver's one sorted run)."""
    import pyarrow as pa

    monkeypatch.setattr(build_mod, "URL_MAP_DRIVER_ROWS", 0)
    monkeypatch.setattr(build_mod, "TERM_STATS_DRIVER_ROWS", 0)
    base_dir, cfg, base_g = built_index
    out = str(tmp_path / "idx_dist")
    g = build_index(out, paths=pages_corpus, cfg=cfg)
    assert g["wdf_ub_global"] == base_g["wdf_ub_global"]
    rv, rd = IndexReader(base_dir), IndexReader(out)
    assert rd.wdf_ub_global == rv.wdf_ub_global
    terms = pq.ParquetDataset(os.path.join(base_dir, "term_stats")).read(
        columns=["term"]).column("term").to_pylist()
    assert len(terms) > 1000
    assert rd.term_stats(terms) == rv.term_stats(terms)
    for prefix in ["th", "Zth", "q", "x"]:
        for limit in [0, 3]:
            assert rd.expand_wildcard(prefix, limit, most_frequent=True) \
                == rv.expand_wildcard(prefix, limit, most_frequent=True)

    def url_map(d):
        files = sorted(f for f in os.listdir(os.path.join(d, "url_map"))
                       if f.endswith(".parquet"))
        return pa.concat_tables(
            [pq.read_table(os.path.join(d, "url_map", f))
             for f in files]).to_pylist()

    base_rows = url_map(base_dir)
    assert len(base_rows) == base_g["n_docs"]
    assert url_map(out) == base_rows


def test_paths_build_honours_id_base(ray_session, pages_corpus, tmp_path,
                                     built_index, leg):
    """``build_index(paths=..., id_base=N)`` writes the same documents
    with every doc_id shifted by exactly N, on both legs."""
    base_dir, cfg, _ = built_index
    n = 1000
    out = str(tmp_path / "idx")
    g = build_index(out, paths=pages_corpus, cfg=cfg, id_base=n)

    def docs(d):
        return pq.ParquetDataset(os.path.join(d, "tokenized")).read() \
            .sort_by("doc_id").to_pylist()

    want = docs(base_dir)
    assert docs(out) == [dict(r, doc_id=r["doc_id"] + n) for r in want]
    assert g["n_docs"] == len(want)
    with open(os.path.join(out, "segments.json")) as f:
        assert json.load(f)["next_doc_id"] == len(want) + n
    rb, ro = IndexReader(base_dir), IndexReader(out)
    for term in ["the", "Zthe", "xqzraretri"]:
        ids = np.sort(decode_blocks(rb.load_blocks([term]))[0])
        assert np.sort(decode_blocks(ro.load_blocks([term]))[0]).tolist() \
            == (ids + np.uint64(n)).tolist()


def _strip(obj):
    """``obj`` without its ``stage_metrics`` (timings) at any depth."""
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k != "stage_metrics"}
    return obj


def _index_state(d: str) -> dict:
    """What two builds of one input must agree on, for every directory of
    the index (segments and folds alike): the sha256 of each file under
    ``postings/`` and ``term_stats/``, the ``tokenized/`` and ``url_map/``
    rows sorted by doc_id, the manifest rows without their timing and
    resume fields, and ``segments.json`` / ``global_stats.json`` without
    their ``stage_metrics``."""
    import hashlib

    out = {}
    for root, _, files in os.walk(d):
        rel = os.path.relpath(root, d)
        kind = os.path.basename(root)
        parquet = sorted(f for f in files if f.endswith(".parquet"))
        if kind in ("postings", "term_stats"):
            for f in parquet:
                with open(os.path.join(root, f), "rb") as fh:
                    out[os.path.join(rel, f)] = hashlib.sha256(
                        fh.read()).hexdigest()
        elif kind in ("tokenized", "url_map") and parquet:
            out[rel] = pq.ParquetDataset(
                [os.path.join(root, f) for f in parquet]).read() \
                .sort_by("doc_id").to_pylist()
        for f in ("segments.json", "global_stats.json"):
            if f in files:
                with open(os.path.join(root, f)) as fh:
                    out[os.path.join(rel, f)] = _strip(json.load(fh))
        if "_manifest.jsonl" in files:
            with open(os.path.join(root, "_manifest.jsonl")) as fh:
                out[os.path.join(rel, "_manifest.jsonl")] = [
                    (r["skey"], os.path.basename(r["path"]), r["n_blocks"],
                     r["n_postings"]) for r in map(json.loads, fh)]
    return out


def _legs(monkeypatch, run) -> tuple[dict, dict]:
    """``_index_state`` of ``run()``'s index on the driver leg and on the
    Ray leg."""
    states = []
    for limit in (float("inf"), 0):
        monkeypatch.setattr(build_mod, "DRIVER_BUILD_BYTES", limit)
        states.append(_index_state(run(limit)))
    return states[0], states[1]


def test_driver_and_ray_legs_write_the_same_index(ray_session, pages_corpus,
                                                  tmp_path, monkeypatch):
    """The driver leg runs the Ray plan's own stage callables, so both
    legs write the same index: postings and term stats byte for byte,
    the same tokenized, url-map and manifest rows, the same stats."""
    cfg = IndexConfig(num_term_parts=4, num_doc_buckets=2, block_size=32,
                      positions=True)

    def run(limit) -> str:
        idx = str(tmp_path / f"idx-{limit}")
        build_index(idx, paths=pages_corpus, cfg=cfg)
        return idx

    driver, ray_leg = _legs(monkeypatch, run)
    assert sum(k.startswith("postings") for k in driver) == 8
    assert driver == ray_leg


def test_update_legs_write_the_same_index(ray_session, tmp_path,
                                          monkeypatch):
    """Three ``update_index`` generations over ``paths`` batches (half
    new urls, half replaced), the last one merging: every segment, the
    fold and the commit state agree between the legs."""
    from markdown_query_ray.fixtures import make_pages_table
    from markdown_query_ray.index.update import load_segments, update_index

    cfg = IndexConfig(num_term_parts=2, num_doc_buckets=2, block_size=16)
    base = str(tmp_path / "base.parquet")
    pq.write_table(make_pages_table(0, 120), base)
    batches = []
    for g in range(3):
        p = str(tmp_path / f"batch-{g}.parquet")
        pq.write_table(make_pages_table(100 + 40 * g, 40), p)
        batches.append(p)

    def run(limit) -> str:
        idx = str(tmp_path / f"idx-{limit}")
        build_index(idx, paths=[base], cfg=cfg)
        for p in batches:
            update_index(idx, paths=[p])
        assert any(s.startswith("merged")
                   for s in load_segments(idx)["segments"])
        return idx

    driver, ray_leg = _legs(monkeypatch, run)
    assert driver == ray_leg


def test_build_crash_at_every_write(ray_session, tmp_path, monkeypatch):
    """Fail the k-th checkpoint write of a driver-leg build, for every k,
    then re-run it: the index equals an uninterrupted build's (postings
    and term stats byte for byte, tokenized rows, the commit files
    without timings), and no ``segments.json`` marks a crashed build
    committed."""
    from markdown_query_ray.fixtures import write_pages_corpus

    from .test_merge import _run_failing

    monkeypatch.setattr(build_mod, "DRIVER_BUILD_BYTES", float("inf"))
    paths = write_pages_corpus(str(tmp_path / "pages"), n_docs=24,
                               n_files=2)
    cfg = IndexConfig(num_term_parts=2, num_doc_buckets=2, block_size=8)
    clean = str(tmp_path / "clean")
    n_writes = _run_failing(
        monkeypatch, lambda: build_index(clean, paths=paths, cfg=cfg))
    want = _index_state(clean)
    assert n_writes > 10
    for k in range(1, n_writes + 1):
        out = str(tmp_path / f"crash{k}")
        with pytest.raises(OSError, match="injected"):
            _run_failing(monkeypatch,
                         lambda: build_index(out, paths=paths, cfg=cfg), k)
        assert not os.path.exists(os.path.join(out, "segments.json")), k
        build_index(out, paths=paths, cfg=cfg)
        assert _index_state(out) == want, k


def test_build_and_update_take_exactly_one_input(ray_session, built_index,
                                                 pages_corpus, tmp_path):
    """No input, or two, raise ValueError before anything is written: no
    ``out_dir`` for a build, no new file in the index for an update (with
    ``paths`` and ``dataset`` both given, a build used to tokenize the
    dataset but size its doc buckets from the paths' row counts)."""
    import ray.data

    from markdown_query_ray.index.update import update_index

    ds = ray.data.from_items([{"url": "u0", "text": "alpha"}])
    out = str(tmp_path / "idx")
    for kw in ({}, {"paths": pages_corpus, "dataset": ds}):
        with pytest.raises(ValueError, match="exactly one input"):
            build_index(out, **kw)
        assert not os.path.exists(out)

    idx = built_index[0]
    before = sorted(os.walk(idx))
    for kw in ({}, {"paths": pages_corpus, "dataset": ds},
               {"paths": pages_corpus, "dataset_fn": lambda base: ds},
               {"dataset": ds, "dataset_fn": lambda base: ds}):
        with pytest.raises(ValueError, match="exactly one input"):
            update_index(idx, **kw)
    assert sorted(os.walk(idx)) == before
