"""CJK n-gram mode parity vs the REAL xapian-core 1.4.17 with
XAPIAN_CJK_NGRAM=1 (the library's own optional CJK handling, which the
reference binary inherits through the env var): term/wdf/position streams
from the TermGenerator (oracle ``termdump``), and end-to-end index+query
rank identity for CJK queries (oracle ``index``/``query-raw``).

Skipped cleanly when the oracle binary is absent
(``bash tools/build_xapian_oracle.sh``).
"""

from __future__ import annotations

import os
import subprocess

import numpy as np
import pytest

ORACLE = os.environ.get("XAPIAN_ORACLE",
                        "/tmp/xapian-install/bin/xapian_oracle")

pytestmark = pytest.mark.skipif(
    not os.path.exists(ORACLE),
    reason="xapian oracle binary not built (tools/build_xapian_oracle.sh)")

CJK_ENV = {"XAPIAN_CJK_NGRAM": "1"}


def _env():
    return dict(os.environ, **CJK_ENV)


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _unesc(s: str) -> str:
    out, i = [], 0
    while i < len(s):
        if s[i] == "\\" and i + 1 < len(s):
            c = s[i + 1]
            out.append("\t" if c == "t" else "\n" if c == "n" else c)
            i += 2
        else:
            out.append(s[i])
            i += 1
    return "".join(out)


def _xapian_termdump(lines: list[str]) -> dict[int, dict]:
    out = subprocess.run([ORACLE, "/nonexistent-db", "termdump"],
                         input="".join(_esc(ln) + "\n" for ln in lines),
                         capture_output=True, text=True, check=True,
                         env=_env())
    res: dict[int, dict] = {i: {} for i in range(len(lines))}
    for line in out.stdout.splitlines():
        qn, term, wdf, poss = line.split("\t")
        res[int(qn)][_unesc(term)] = (
            int(wdf),
            tuple(int(p) for p in poss.split(",")) if poss else ())
    return res


def _ours(line: str) -> dict:
    from collections import Counter

    from markdown_query_ray.functions.snowball import stem
    from markdown_query_ray.functions.xapian_tokenizer import (
        should_stem,
        tokenize_ngram,
    )

    toks = tokenize_ngram(line)
    counts = Counter(t for t, _ in toks)
    z: Counter = Counter()
    for t, n in counts.items():
        if should_stem(t):
            z["Z" + stem(t)] += n
    counts.update(z)
    posmap: dict[str, list[int]] = {}
    pos = 0
    for t, flag in toks:
        if flag:
            pos += 1
            posmap.setdefault(t, []).append(pos)
    return {t: (n, tuple(posmap.get(t, ()))) for t, n in counts.items()}


CURATED = [
    "hello 中文テスト abc ＡＢ 1,１",
    "中文 merger U.N.C.L.E. c++ ＡＴ＆Ｔ",
    "日本語のテキストです。漢字とカタカナ。",
    "한국어 텍스트 조금",
    "mixed中embedded文words",
    # the pending-partial-term quirks: an infix-joined term survives an
    # interposed CJK span and keeps accumulating after it, even across
    # non-word chars (parse_terms' cjk branch never flushes `term`)
    "a'中b a'中中 1,000 ２０２４年",
    "ｈｅｌｌｏ ｗｏｒｌｄ １２３",
    "中。文、テ・ス！ト？",
    "Ｃ＋＋ test＃ ＵＮＣＬＥ",
    "中\u200b文 テ\u2019ス 漢'字",
    "\u4e2d\U00020000\u6587 \U0002f800\U0002f801",  # astral CJK (ext B+)
]


def test_curated_ngram_termdump_identity():
    want = _xapian_termdump(CURATED)
    for i, line in enumerate(CURATED):
        assert _ours(line) == want[i], f"ngram stream mismatch: {line!r}"


def _pool() -> list[str]:
    cps = []
    cps += [chr(c) for c in range(0x61, 0x7b)] + ["_"]
    cps += [chr(c) for c in range(0x30, 0x3a)]
    # CJK ideographs, kana, hangul, fullwidth forms, CJK punctuation
    for rng in [(0x4E00, 0x4E20), (0x3041, 0x3051), (0x30A1, 0x30B1),
                (0xAC00, 0xAC10), (0xFF10, 0xFF1A), (0xFF21, 0xFF2B),
                (0xFF41, 0xFF4B), (0x3001, 0x3006), (0xFE30, 0xFE34),
                (0x2E80, 0x2E85)]:
        cps += [chr(c) for c in range(rng[0], rng[1])]
    cps += [chr(c) for c in (0x20000, 0x20001, 0x2F800)]
    # Latin-1 + Greek so the non-CJK exact/fast dispatch is exercised too
    cps += [chr(c) for c in range(0xE0, 0xF0)] + ["Σ", "ß"]
    cps += list("'&\u2019,.;+#")
    cps += list("\u200b\u200c\u2060")
    cps += list(" \t.!?()")
    return cps


def test_fuzz_ngram_termdump_identity():
    rng = np.random.default_rng(4104)
    pool = _pool()
    lines = []
    for _ in range(250):
        n = int(rng.integers(1, 50))
        idx = rng.integers(0, len(pool), n)
        lines.append("".join(pool[int(i)] for i in idx))
    want = _xapian_termdump(lines)
    for i, line in enumerate(lines):
        assert _ours(line) == want[i], f"ngram stream mismatch: {line!r}"


# ---- end-to-end: build a CJK corpus on both sides, compare CJK queries ----

CJK_DOCS = [
    "机器学习是人工智能的一个分支 machine learning",
    "深度学习使用神经网络 deep learning with 神经网络",
    "自然语言处理和信息检索 retrieval",
    "日本語の形態素解析はテキスト処理の基本です",
    "テキスト検索エンジンと転置インデックス",
    "한국어 형태소 분석과 검색 엔진",
    "정보 검색 시스템의 역색인 구조",
    "mixed document 中文 and english terms retrieval",
    "人工智能 artificial intelligence 人工知能",
    "学习 学习 学习 repeated terms boost term frequency",
]

CJK_QUERIES = [
    "中文", "学习", "人工智能", "検索", "テキスト", "검색",
    "神经网络", "インデックス", "retrieval", "learning 学习",
]


@pytest.fixture(scope="module")
def cjk_setup(ray_session, tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from markdown_query_ray.config import IndexConfig
    from markdown_query_ray.fixtures import _doc_html
    from markdown_query_ray.index.build import build_index

    root = tmp_path_factory.mktemp("cjk")
    urls, htmls, texts = [], [], []
    for i, text in enumerate(CJK_DOCS):
        urls.append(f"https://cjk.example/{i:04d}")
        htmls.append(_doc_html(i, text, f"doc {i}"))
        texts.append(text)
    table = pa.table({
        "url": pa.array(urls),
        "warc_ts": pa.array([0] * len(urls), pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["zh"] * len(urls)),
    })
    corpus = str(root / "pages.parquet")
    pq.write_table(table, corpus)

    xdb = str(root / "xdb")
    tsv = "".join(f"{_esc(u)}\t{_esc(t)}\n" for u, t in zip(urls, texts))
    out = subprocess.run([ORACLE, xdb, "index"], input=tsv,
                         capture_output=True, text=True, check=True,
                         env=_env())
    assert out.stdout.strip() == f"indexed {len(urls)}"

    ours = str(root / "ours")
    cfg = IndexConfig(num_term_parts=2, num_doc_buckets=1, positions=True,
                      cjk_ngram=True)
    build_index(ours, paths=[corpus], cfg=cfg)
    return xdb, ours


def _cjk_query_ast(q: str):
    """Mirror QueryParser's free-CJK-term compile under FLAG_CJK_NGRAM
    (Term::as_cjk_query, queryparser_internal.cc:532-549): each
    whitespace-separated token that is a CJK span becomes OP_AND over its
    unigrams+bigrams; plain tokens stay plain terms (stemmed per
    STEM_SOME); tokens OR-joined as the default op."""
    from markdown_query_ray.functions.snowball import stem
    from markdown_query_ray.functions.xapian_tokenizer import (
        should_stem,
        tokenize_ngram,
    )
    from markdown_query_ray.query.ast import And, Or, Term

    parts = []
    for tok in q.split():
        grams = tokenize_ngram(tok)
        if len(grams) == 1:
            t, _ = grams[0]
            parts.append(Term("Z" + stem(t)) if should_stem(t) else Term(t))
        else:
            parts.append(And(tuple(Term(g) for g, _ in grams)))
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


FREETEXT_CJK = [
    "机器学习",
    "机器学习 ",                 # trailing space: same (CJKTERM never partial)
    "学习 retrieval",
    "学习 retrieval ",
    "检索 AND 学习",
    "検索 and テキスト",
    '"学习 deep"',               # phrase: per-char positional CJK terms
    '"神经网络"',
    "mixed中embedded文words",    # CJK runs split a span into 5 tokens
    "+学习 retrieval",
    "-学习 retrieval",
    "NOT 学习",
    "(学习 OR 検索) AND retrieval",
    "学习 XOR 검색",
    "AND中",                     # keyword adjacent to a CJK run
    "人工智能 artificial",
    "ＡＢ",                      # fullwidth: query side lowers, ngrams ａ ａｂ ｂ
]


def test_freetext_cjk_matches_raw_queryparser(cjk_setup):
    from markdown_query_ray.config import BM25Params, QueryConfig
    from markdown_query_ray.query import executor as qx
    from markdown_query_ray.query.freetext import compile_freetext

    xdb, ours = cjk_setup
    out = subprocess.run([ORACLE, xdb, "query-raw", "50"],
                         input="".join(_esc(q) + "\n" for q in FREETEXT_CJK),
                         capture_output=True, text=True, check=True,
                         env=_env())
    want: dict[int, list] = {i: [] for i in range(len(FREETEXT_CJK))}
    descs: dict[int, str] = {}
    errs: set[int] = set()
    for line in out.stdout.splitlines():
        p = line.split("\t")
        qn = int(p[0])
        if p[1] == "DESC":
            descs[qn] = p[2]
        elif p[1] == "ERROR":
            errs.add(qn)
        else:
            want[qn].append((int(p[2]) - 1, float(p[3])))
    qcfg = QueryConfig(k=50, params=BM25Params.xapian())
    for i, q in enumerate(FREETEXT_CJK):
        if i in errs:
            # e.g. "AND中": dangling boolean operator — both sides throw
            from markdown_query_ray.query.freetext import FreetextParseError
            with pytest.raises(FreetextParseError):
                compile_freetext(q, cjk_ngram=True)
            continue
        node = compile_freetext(q, cjk_ngram=True)
        got = qx.search(ours, node, qcfg, distributed=False)
        exp = want[i]
        assert got.column("doc_id").to_pylist() == [d for d, _ in exp], \
            f"docid mismatch for {q!r} (xapian: {descs.get(i)})"
        for (d, w), s in zip(exp, got.column("score").to_pylist()):
            assert s == pytest.approx(w, rel=1e-9, abs=1e-12), \
                f"score mismatch for {q!r} doc {d} (xapian: {descs.get(i)})"


def test_freetext_cjk_fuzz_vs_raw_queryparser(cjk_setup):
    """Seeded random queries mixing CJK spans, Latin corpus words, booleans,
    quotes, love/hate, brackets, NEAR/ADJ with CJK operands and
    infix-before-CJK joints vs the real qp.parse_query under
    XAPIAN_CJK_NGRAM (the last two were divergent before the lemon-table
    grammar port; both now parse identically)."""
    from markdown_query_ray.config import BM25Params, QueryConfig
    from markdown_query_ray.query import executor as qx
    from markdown_query_ray.query.freetext import (
        FreetextParseError,
        compile_freetext,
    )

    xdb, ours = cjk_setup
    rng = np.random.default_rng(77)
    cjk_chars = "机器学习人工智能深度神经网络检索検索テキスト処理한국어검색"
    latin = ["retrieval", "learning", "machine", "deep", "artificial",
             "terms", "document"]

    def cjk_span():
        n = int(rng.integers(1, 5))
        return "".join(cjk_chars[int(i)] for i in
                       rng.integers(0, len(cjk_chars), n))

    def atom():
        r = rng.random()
        if r < 0.35:
            return cjk_span()
        if r < 0.55:
            return latin[int(rng.integers(0, len(latin)))]
        if r < 0.65:
            return f'"{cjk_span()} {latin[int(rng.integers(0, len(latin)))]}"'
        if r < 0.72:
            return "+" + cjk_span()
        if r < 0.78:
            return latin[int(rng.integers(0, len(latin)))] + cjk_span()
        if r < 0.84:
            return f"({cjk_span()} OR {latin[int(rng.integers(0, len(latin)))]})"
        if r < 0.90:  # NEAR/ADJ with a CJK operand: grammar error -> retry
            op = "NEAR" if rng.random() < 0.5 else "ADJ"
            return f"{cjk_span()} {op} {latin[int(rng.integers(0, len(latin)))]}"
        if r < 0.95:  # infix char directly before a CJK char ("a'中")
            return latin[int(rng.integers(0, len(latin)))] + "'" + cjk_span()
        return cjk_span() + latin[int(rng.integers(0, len(latin)))]

    OPS = ["", "AND", "OR", "XOR", "and", "or"]
    queries = []
    for _ in range(80):
        n = int(rng.integers(1, 4))
        parts = [atom()]
        for _ in range(n - 1):
            op = OPS[int(rng.integers(0, len(OPS)))]
            parts.append((op + " " + atom()) if op else atom())
        q = " ".join(parts)
        if rng.random() < 0.3:
            q += " "
        queries.append(q)

    out = subprocess.run([ORACLE, xdb, "query-raw", "50"],
                         input="".join(_esc(q) + "\n" for q in queries),
                         capture_output=True, text=True, check=True,
                         env=_env())
    want: dict[int, list] = {i: [] for i in range(len(queries))}
    descs: dict[int, str] = {}
    errs: set[int] = set()
    for line in out.stdout.splitlines():
        p = line.split("\t")
        qn = int(p[0])
        if p[1] == "DESC":
            descs[qn] = p[2]
        elif p[1] == "ERROR":
            errs.add(qn)
        else:
            want[qn].append((int(p[2]) - 1, float(p[3])))
    qcfg = QueryConfig(k=50, params=BM25Params.xapian())
    for i, q in enumerate(queries):
        if i in errs:
            with pytest.raises(FreetextParseError):
                compile_freetext(q, cjk_ngram=True)
            continue
        node = compile_freetext(q, cjk_ngram=True)
        got = qx.search(ours, node, qcfg, distributed=False)
        exp = want[i]
        assert got.column("doc_id").to_pylist() == [d for d, _ in exp], \
            f"docid mismatch for {q!r} (xapian: {descs.get(i)})"
        for (d, w), s in zip(exp, got.column("score").to_pylist()):
            assert s == pytest.approx(w, rel=1e-9, abs=1e-12), \
                f"score mismatch for {q!r} doc {d} (xapian: {descs.get(i)})"


def test_session_freetext_cjk_grammar(cjk_setup):
    """SearchSession grammar="freetext-cjk" end-to-end (the public API)."""
    from markdown_query_ray.config import BM25Params, QueryConfig
    from markdown_query_ray.query.session import SearchSession

    _, ours = cjk_setup
    s = SearchSession(ours, QueryConfig(k=10, params=BM25Params.xapian()))
    hits = s.search("机器学习", grammar="freetext-cjk")
    assert hits.num_rows >= 1
    top_plain = s.search("学习 retrieval", grammar="freetext-cjk")
    assert top_plain.num_rows >= 1


def test_cjk_query_rank_identity(cjk_setup):
    from markdown_query_ray.config import BM25Params, QueryConfig
    from markdown_query_ray.query import executor as qx

    xdb, ours = cjk_setup
    # trailing space: no FLAG_PARTIAL wildcard on the final token (the
    # established convention from test_xapian_parity's freetext tests) —
    # this test targets the CJK AND-of-ngrams compile, not partials
    out = subprocess.run([ORACLE, xdb, "query-raw", "50"],
                         input="".join(_esc(q) + " \n" for q in CJK_QUERIES),
                         capture_output=True, text=True, check=True,
                         env=_env())
    want: dict[int, list] = {i: [] for i in range(len(CJK_QUERIES))}
    descs: dict[int, str] = {}
    for line in out.stdout.splitlines():
        p = line.split("\t")
        qn = int(p[0])
        if p[1] == "DESC":
            descs[qn] = p[2]
            continue
        assert p[1] != "ERROR", (CJK_QUERIES[qn], p)
        want[qn].append((int(p[2]) - 1, float(p[3])))
    qcfg = QueryConfig(k=50, params=BM25Params.xapian())
    for i, q in enumerate(CJK_QUERIES):
        node = _cjk_query_ast(q)
        got = qx.search(ours, node, qcfg, distributed=False)
        exp = want[i]
        assert got.column("doc_id").to_pylist() == [d for d, _ in exp], \
            f"docid mismatch for {q!r} (xapian: {descs.get(i)})"
        for (d, w), s in zip(exp, got.column("score").to_pylist()):
            assert s == pytest.approx(w, rel=1e-9, abs=1e-12), \
                f"score mismatch for {q!r} doc {d} (xapian: {descs.get(i)})"
