"""Command-line interface: the rebuild of the reference's CLI surface.

Reference (src/main.rs:67-141):

    mdq <db> update <paths...>     -> cli.py build/update
    mdq <db> query '<q>'           -> cli.py query (one-shot, prints hits)
    mdq <db>                       -> interactive TUI (out of scope; the
                                      repeat-query serving path it implies
                                      is SearchSession / `serve`)

This module OWNS a Ray session (guarded init, shutdown on exit) — the only
places allowed to besides bench.py and the test fixture. Library code never
calls ray.init.

Usage:
    python -m markdown_query_ray.cli build  IDX --pages p1.parquet p2.parquet
    python -m markdown_query_ray.cli build  IDX --markdown docs/*.md
    python -m markdown_query_ray.cli update IDX --pages delta.parquet
    python -m markdown_query_ray.cli compact IDX OUT
    python -m markdown_query_ray.cli query  IDX 'merge AND sort' -k 20
    python -m markdown_query_ray.cli query-set IDX --queries q.txt
    python -m markdown_query_ray.cli suggest IDX 'mrege'
"""

from __future__ import annotations

import argparse
import json
import sys


_OWNS_SESSION = False


def _init_kwargs(num_cpus: int | None,
                 env_addr: str | None) -> dict:
    """ray.init kwargs for the CLI. Under `ray job submit` (or any
    pre-provisioned cluster) RAY_ADDRESS points at the running cluster —
    we must CONNECT to it, not force a fresh single-node instance; the
    cluster also owns the CPU count, so --num-cpus is ignored there.
    Locally (RAY_ADDRESS unset or the literal "local") we start an
    isolated local instance."""
    kw: dict = {"include_dashboard": False}
    if env_addr and env_addr != "local":
        return {}  # connect to the provided cluster; it owns resources
    kw["address"] = "local"
    if num_cpus:
        kw["num_cpus"] = num_cpus
    return kw


def _ray_up(num_cpus: int | None):
    global _OWNS_SESSION
    import os

    import ray

    if not ray.is_initialized():
        ray.init(**_init_kwargs(num_cpus, os.environ.get("RAY_ADDRESS")))
        _OWNS_SESSION = True
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray


def _index_cfg(args) -> "IndexConfig":
    from .config import IndexConfig

    # markdown builds store payloads by default (mdq always set_data's the
    # document JSON); pages builds opt in via --store-payload
    store = args.store_payload or bool(getattr(args, "markdown", None))
    return IndexConfig(
        tokenizer=args.tokenizer, stem=not args.no_stem,
        num_term_parts=args.parts, num_doc_buckets=args.buckets,
        positions=args.positions, store_payload=store)


def _crawl_dataset(args):
    """Dataset from --warc / --jsonl inputs (None if neither given)."""
    if getattr(args, "warc", None):
        from .sources.warc import read_warc

        return read_warc(args.warc)
    if getattr(args, "jsonl", None):
        from .sources.jsonl import read_jsonl

        return read_jsonl(args.jsonl)
    return None


def cmd_build(args) -> int:
    _ray_up(args.num_cpus)
    cfg = _index_cfg(args)
    if args.markdown:
        from .sources.markdown import build_markdown_index

        g = build_markdown_index(args.index, args.markdown, cfg)
    else:
        from .index.build import build_index

        ds = _crawl_dataset(args)
        if ds is not None:
            g = build_index(args.index, dataset=ds, cfg=cfg)
        else:
            g = build_index(args.index, paths=args.pages, cfg=cfg)
    print(json.dumps(g["stage_metrics"]))
    return 0


def cmd_update(args) -> int:
    _ray_up(args.num_cpus)
    from .index.update import load_segments, update_index

    # file-backed crawl input: hand update_index a factory so the sources'
    # file-rank prefix-sum ids continue the index's id space directly — no
    # assign_doc_ids sort (the update path's only all-to-all)
    if getattr(args, "warc", None):
        from .sources.warc import read_warc

        g = update_index(
            args.index,
            dataset_fn=lambda base: read_warc(args.warc, id_base=base))
    elif getattr(args, "jsonl", None):
        from .sources.jsonl import read_jsonl

        g = update_index(
            args.index,
            dataset_fn=lambda base: read_jsonl(args.jsonl, id_base=base))
    else:
        g = update_index(args.index, paths=args.pages)
    # segments: the count after the update's commit and merge
    n_segs = len(load_segments(args.index)["segments"])
    print(json.dumps({"n_docs": g["n_docs"],
                      "avg_doclen": g["avg_doclen"], "segments": n_segs}))
    return 0


def cmd_delete(args) -> int:
    _ray_up(args.num_cpus)
    from .index.update import delete_documents

    urls = list(args.urls or [])
    if getattr(args, "url_file", None):
        with open(args.url_file) as f:
            urls.extend(ln.strip() for ln in f if ln.strip())
    g = delete_documents(args.index, urls)
    print(json.dumps({"n_docs": g["n_docs"],
                      "avg_doclen": g["avg_doclen"]}))
    return 0


def cmd_compact(args) -> int:
    _ray_up(args.num_cpus)
    from .index.update import compact

    try:
        g = compact(args.index, args.out)
    except ValueError as e:  # the output overlaps the index
        print(e, file=sys.stderr)
        return 2
    print(json.dumps(g["stage_metrics"]))
    return 0


def _qcfg(args):
    from .config import BM25Params, QueryConfig

    params = BM25Params.classic() if args.profile == "classic" \
        else BM25Params.xapian()
    return QueryConfig(k=args.k, params=params, use_wand=not args.no_wand)


def cmd_query(args) -> int:
    _ray_up(args.num_cpus)
    from .query.session import SearchSession

    s = SearchSession(args.index, _qcfg(args))
    hits = s.search(args.query, with_urls=True, grammar=args.grammar)
    if args.suggest:
        corr = s.suggest_correction(args.query)
        if corr:
            print(f"did you mean: {corr}", file=sys.stderr)
    for r in hits.to_pylist():
        # one-shot mode prints the selected identifiers (src/main.rs:133-136)
        line = f"{r['rank']}\t{r['score']:.6f}\t{r['url']}"
        if args.preview:
            p = s.preview(r["doc_id"], args.query)
            if p is not None:
                line += "\t" + p.replace("\n", " ")[:120]
        print(line)
    return 0


def cmd_query_set(args) -> int:
    _ray_up(args.num_cpus)
    from .query.session import REFERENCE_QUERY_SET, run_query_set

    if args.queries:
        with open(args.queries) as f:
            qs = [ln.strip() for ln in f if ln.strip()]
    else:
        qs = REFERENCE_QUERY_SET
    t = run_query_set(args.index, qs, _qcfg(args), k=args.k,
                      concurrency=args.concurrency)
    for r in t.to_pylist():
        print(f"{r['query']}\t{r['rank']}\t{r['doc_id']}\t"
              f"{r['score']:.6f}")
    return 0


def cmd_suggest(args) -> int:
    _ray_up(args.num_cpus)
    from .query.session import SearchSession

    s = SearchSession(args.index)
    corr = s.suggest_correction(args.query)
    print(corr if corr else args.query)
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="markdown_query_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_index_opts(p):
        p.add_argument("--tokenizer", default="xapian",
                       choices=["xapian", "simple"])
        p.add_argument("--no-stem", action="store_true")
        p.add_argument("--parts", type=int, default=8)
        p.add_argument("--buckets", type=int, default=1)
        p.add_argument("--positions", action="store_true")
        p.add_argument("--store-payload", action="store_true")

    b = sub.add_parser("build")
    b.add_argument("index")
    b.add_argument("--pages", nargs="+", default=None)
    b.add_argument("--markdown", nargs="+", default=None)
    b.add_argument("--warc", nargs="+", default=None,
                   help="WARC files (Common-Crawl layout, .warc/.warc.gz)")
    b.add_argument("--jsonl", nargs="+", default=None,
                   help="JSONL corpora (.jsonl/.jsonl.gz)")
    add_index_opts(b)
    b.set_defaults(fn=cmd_build)

    u = sub.add_parser("update")
    u.add_argument("index")
    u.add_argument("--pages", nargs="+", default=None)
    u.add_argument("--warc", nargs="+", default=None)
    u.add_argument("--jsonl", nargs="+", default=None)
    u.set_defaults(fn=cmd_update)

    dl = sub.add_parser("delete")
    dl.add_argument("index")
    dl.add_argument("urls", nargs="*")
    dl.add_argument("--url-file", default=None,
                    help="newline-separated urls to delete")
    dl.set_defaults(fn=cmd_delete)

    c = sub.add_parser("compact")
    c.add_argument("index")
    c.add_argument("out")
    c.set_defaults(fn=cmd_compact)

    def add_query_opts(p):
        p.add_argument("-k", type=int, default=100)
        p.add_argument("--profile", default="xapian",
                       choices=["xapian", "classic"])
        p.add_argument("--no-wand", action="store_true")

    q = sub.add_parser("query")
    q.add_argument("index")
    q.add_argument("query")
    q.add_argument("--suggest", action="store_true")
    q.add_argument("--preview", action="store_true")
    q.add_argument("--grammar", default="clean",
                   choices=["clean", "mdq-exact", "freetext",
                            "freetext-cjk"])
    add_query_opts(q)
    q.set_defaults(fn=cmd_query)

    qs = sub.add_parser("query-set")
    qs.add_argument("index")
    qs.add_argument("--queries", default=None)
    qs.add_argument("--concurrency", type=int, default=4)
    add_query_opts(qs)
    qs.set_defaults(fn=cmd_query_set)

    sg = sub.add_parser("suggest")
    sg.add_argument("index")
    sg.add_argument("query")
    sg.set_defaults(fn=cmd_suggest)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    finally:
        import ray

        # only tear down a session this process started (embedding callers
        # and the test fixture keep theirs)
        if _OWNS_SESSION and ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
