"""The benchmark's traced run patches engine names where their callers look
them up (``perfbench/tracing.py``); a refactor that moves or removes one of
them must fail here, not only in a benchmark run."""

from __future__ import annotations

from markdown_query_ray.config import QueryConfig


def test_install_query_layers_and_restore(built_index):
    from markdown_query_ray.index.reader import IndexReader
    from markdown_query_ray.query import executor, session
    from perfbench.tracing import Tracer, install_query_layers

    originals = {
        (IndexReader, "term_stats"): IndexReader.term_stats,
        (executor, "decode_blocks"): executor.decode_blocks,
        (executor.Evaluator, "evaluate"): executor.Evaluator.evaluate,
        (session, "block_topk_tree"): session.block_topk_tree,
        (session.SearchSession, "__init__"): session.SearchSession.__init__,
    }
    idx, _, _ = built_index
    tr = Tracer()
    install_query_layers(tr)
    try:
        session.SearchSession(idx, QueryConfig(k=20)).search("merge sort")
        spans = {name for name, *_ in tr.spans}
    finally:
        tr.restore()
    assert {"session.init", "compiler.parse", "reader.term_stats",
            "reader.load_blocks", "executor.decode",
            "executor.load_terms"} <= spans
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn, attr
