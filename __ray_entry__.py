"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB
(row-count + schema + order-insensitive value-hash -> CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing here
(or in markdown_query_ray) calls ``ray.init`` / ``ray.shutdown``.

The BM25/boolean entries run the REAL inverted-index engine end to end
(build -> salted merge shuffle -> varint posting blocks -> WAND top-k) in
"simple" tokenizer mode whose semantics are exactly reproducible in ANSI SQL,
so the DuckDB match validates the whole pipeline, not a reimplementation.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

_STOPWORDS_SQL = "('the','and','for','was','with','that','this','are'," \
    "'from','have','a','an','of','to','in','is','it','on')"

# tokens CTE for BM25 entries (matches simple_tokenize: lowercase,
# single-space split, empties dropped)
_TOKS = ("WITH toks AS (SELECT doc_id, unnest(list_filter("
         "string_split(lower(text), ' '), x -> x <> '')) AS term "
         "FROM documents), "
         "dl AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks "
         "GROUP BY doc_id), "
         "st AS (SELECT CAST((SELECT count(*) FROM documents) AS BIGINT) "
         "AS n_docs, (SELECT sum(dl) FROM dl) / CAST((SELECT count(*) "
         "FROM documents) AS DOUBLE) AS avgdl) ")


def _bm25_sql(terms: list[str], k: int) -> str:
    """Classic-profile BM25 (k1=1.2, b=0.75, idf clamped at 0) over the
    simple-tokenized documents table; mirrors TermWeight/sumpart exactly
    (markdown_query_ray/query/scorer.py)."""
    per_term = " UNION ALL ".join(
        f"SELECT tf.doc_id, "
        f"greatest(ln((st.n_docs - df.df + 0.5) / (df.df + 0.5)), 0.0) * "
        f"(tf.tf / (1.2 * ((dl.dl * (1.0 / st.avgdl)) * 0.75 + 0.25) "
        f"+ tf.tf)) AS s "
        f"FROM (SELECT doc_id, CAST(count(*) AS DOUBLE) AS tf FROM toks "
        f"WHERE term = '{t}' GROUP BY doc_id) tf, "
        f"(SELECT CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM toks "
        f"WHERE term = '{t}') df, st, dl WHERE dl.doc_id = tf.doc_id"
        for t in terms)
    return (
        _TOKS +
        f", scored AS (SELECT doc_id, sum(s) AS score FROM ({per_term}) "
        f"GROUP BY doc_id) "
        f"SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) "
        f"AS BIGINT) AS rank, doc_id, round(score, 6) AS score "
        f"FROM scored ORDER BY score DESC, doc_id LIMIT {k}")


def _snippet_sql(terms: list[str], k: int, window: int = 8) -> str:
    """Snippet oracle: the _bm25_sql top-k as a CTE, then for each hit
    the best `window`-token passage — window hit-counts via a ROWS
    frame sum over the position-ordered token stream, argmax with ties
    to the earliest start (row_number ORDER BY w DESC, st), snippet
    rebuilt from the ORIGINAL tokens with DuckDB's 1-based inclusive
    list slice."""
    in_list = ", ".join(f"'{t.lower()}'" for t in terms)
    bm25 = _bm25_sql(terms, k)
    return f"""
WITH hits AS ({bm25}),
tl AS (SELECT d.doc_id, list_filter(string_split(d.text, ' '), x -> x <> '') AS l
       FROM documents d JOIN hits USING (doc_id)),
pos AS (SELECT doc_id, unnest(range(0, len(l))) AS p,
        unnest(list_transform(range(0, len(l)), i -> lower(l[i+1]))) AS tok
        FROM tl),
h AS (SELECT doc_id, p, CASE WHEN tok IN ({in_list}) THEN 1 ELSE 0 END AS hit
      FROM pos),
win AS (SELECT doc_id, p AS st, sum(hit) OVER (PARTITION BY doc_id ORDER BY p
        ROWS BETWEEN CURRENT ROW AND {window - 1} FOLLOWING) AS w FROM h),
valid AS (SELECT win.doc_id, st, w FROM win JOIN tl ON tl.doc_id = win.doc_id
          WHERE st <= greatest(len(tl.l) - {window}, 0)),
best AS (SELECT doc_id, st FROM (SELECT doc_id, st, row_number() OVER (
         PARTITION BY doc_id ORDER BY w DESC, st) AS rn FROM valid)
         WHERE rn = 1)
SELECT hits.rank, hits.doc_id, hits.score,
       array_to_string(tl.l[best.st + 1 : best.st + {window}], ' ') AS snippet
FROM hits JOIN best ON best.doc_id = hits.doc_id
JOIN tl ON tl.doc_id = hits.doc_id
ORDER BY hits.rank
"""


# BPE-ish pre-tokenizer count oracle: the exact pattern the Ray stage
# compiles (textstats.BPE_PATTERN), SQL-escaped for the DuckDB literal.
from markdown_query_ray.pipelines.textstats import BPE_PATTERN as _BPE_PAT
from markdown_query_ray.pipelines.textstats import _LANG_PROFILES


# --- FNV-1a64 in DuckDB ------------------------------------------------------
# The dedup/fingerprint pipelines hash with FNV-1a64 (functions/hashing.py is
# the canonical definition). DuckDB has no FNV builtin, so the oracles fold it
# explicitly: bytes out of hex(encode(s)), then list_reduce with the
# xor-multiply step in HUGEINT (the 64x41-bit product fits 128 bits) reduced
# mod 2^64. Verified bit-identical to the Python/C implementations.

_FNV_FOLD = (
    "CAST(list_reduce(list_prepend(CAST(14695981039346656037 AS UBIGINT), "
    "{bytes}), (h, x) -> CAST((CAST(xor(h, x) AS HUGEINT) * 1099511628211) "
    "% 18446744073709551616 AS UBIGINT)) AS UBIGINT)")


def _fnv_str_sql(col: str) -> str:
    """FNV-1a64 over the UTF-8 bytes of a string expression."""
    hexs = f"lower(hex(encode({col})))"
    byte = (f"list_transform(range(0, octet_length(encode({col}))), "
            f"i -> CAST((strpos('0123456789abcdef', substring({hexs}, "
            f"2*i+1, 1))-1)*16 + (strpos('0123456789abcdef', "
            f"substring({hexs}, 2*i+2, 1))-1) AS UBIGINT))")
    return _FNV_FOLD.format(bytes=byte)


def _fnv_u64le_sql(col: str) -> str:
    """FNV-1a64 over the 8 little-endian bytes of a UBIGINT expression (the
    shingle-window hash: dedup.shingle_hashes re-hashes token hashes)."""
    byte = f"list_transform(range(0, 8), i -> ({col} >> CAST(8*i AS UBIGINT)) & 255)"
    return _FNV_FOLD.format(bytes=byte)


# Exact 3-token-shingle Jaccard over all pairs (>= threshold). The Ray side
# hashes shingles (FNV) before set ops; set identity is unchanged, so string
# shingles joined by an impossible-in-token separator (chr(31)) are the same
# sets. Short docs (< 3 tokens) contribute one whole-doc shingle, mirroring
# dedup.shingle_hashes.
_JACCARD_SQL_T = """
WITH tl AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents),
sh3 AS (SELECT doc_id, CASE WHEN len(l) <= 3 THEN [array_to_string(l, chr(31))]
    ELSE list_transform(range(0, len(l)-2), i -> l[i+1] || chr(31) || l[i+2] || chr(31) || l[i+3]) END AS sh FROM tl),
s AS (SELECT DISTINCT doc_id, g FROM (SELECT doc_id, unnest(sh) AS g FROM sh3)),
sz AS (SELECT doc_id, count(*) AS c FROM s GROUP BY doc_id),
inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
          FROM s a JOIN s b ON a.g = b.g AND a.doc_id < b.doc_id GROUP BY 1, 2)
SELECT doc_a, doc_b, round(CAST(i AS DOUBLE) / (ca.c + cb.c - i), 6) AS jaccard
FROM inter JOIN sz ca ON ca.doc_id = doc_a JOIN sz cb ON cb.doc_id = doc_b
WHERE CAST(i AS DOUBLE) / (ca.c + cb.c - i) >= {thr}
ORDER BY doc_a, doc_b
"""

_MINHASH_SQL = _JACCARD_SQL_T.format(thr=0.5)

# Incremental (cross-corpus) near-dup from first principles: the same
# shingle CTEs, but pairs are base-side (doc_id % 5 != 0) x new-side
# (doc_id % 5 == 0) only — the crawl-snapshot "dedup the new dump against
# the accumulated corpus" semantics.
_INCR_DEDUP_SQL = """
WITH tl AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents),
sh3 AS (SELECT doc_id, CASE WHEN len(l) <= 3 THEN [array_to_string(l, chr(31))]
    ELSE list_transform(range(0, len(l)-2), i -> l[i+1] || chr(31) || l[i+2] || chr(31) || l[i+3]) END AS sh FROM tl),
s AS (SELECT DISTINCT doc_id, g FROM (SELECT doc_id, unnest(sh) AS g FROM sh3)),
sz AS (SELECT doc_id, count(*) AS c FROM s GROUP BY doc_id),
inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
          FROM s a JOIN s b ON a.g = b.g
          WHERE a.doc_id % 5 <> 0 AND b.doc_id % 5 = 0 GROUP BY 1, 2)
SELECT doc_a, doc_b, round(CAST(i AS DOUBLE) / (ca.c + cb.c - i), 6) AS jaccard
FROM inter JOIN sz ca ON ca.doc_id = doc_a JOIN sz cb ON cb.doc_id = doc_b
WHERE CAST(i AS DOUBLE) / (ca.c + cb.c - i) >= 0.5
ORDER BY doc_a, doc_b
"""

# Benchmark decontamination: same shingle CTEs as the Jaccard oracle (set
# identity invariant under the Ray side's FNV hashing); benchmark = the
# deterministic doc_id % 23 slice; contaminated iff >= 10% of a doc's
# distinct shingles appear in the benchmark set (exact integer test
# o * 10 >= c, mirroring decontam.ContaminationStage).
_DECONTAM_SQL = """
WITH tl AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents),
sh3 AS (SELECT doc_id, CASE WHEN len(l) <= 3 THEN [array_to_string(l, chr(31))]
    ELSE list_transform(range(0, len(l)-2), i -> l[i+1] || chr(31) || l[i+2] || chr(31) || l[i+3]) END AS sh FROM tl),
s AS (SELECT DISTINCT doc_id, g FROM (SELECT doc_id, unnest(sh) AS g FROM sh3)),
bench AS (SELECT DISTINCT g FROM s WHERE doc_id % 23 = 0),
sz AS (SELECT doc_id, count(*) AS c FROM s GROUP BY doc_id),
ov AS (SELECT s.doc_id, count(*) AS o FROM s JOIN bench USING (g) GROUP BY s.doc_id)
SELECT CAST(sz.doc_id AS BIGINT) AS doc_id, CAST(sz.c AS BIGINT) AS n_shingles,
       CAST(COALESCE(ov.o, 0) AS BIGINT) AS n_overlap,
       CAST(CASE WHEN COALESCE(ov.o, 0) * 10 >= sz.c THEN 1 ELSE 0 END AS BIGINT) AS contaminated
FROM sz LEFT JOIN ov ON ov.doc_id = sz.doc_id
ORDER BY doc_id
"""

# Sequence packing from first principles: the same whitespace token count
# as doc_token_counts, then the window-function exclusive prefix sum in
# doc_id order (the SQL form of packing.py's two-level distributed scan);
# empty docs pin first/last_seq to -1 by the documented convention.
_PACKING_SQL = """
WITH c AS (SELECT doc_id, CAST(len(list_filter(string_split(text, ' '),
        x -> x <> '')) AS BIGINT) AS n_tokens FROM documents),
s AS (SELECT doc_id, n_tokens, COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS start_tok
      FROM c)
SELECT doc_id, n_tokens, CAST(start_tok AS BIGINT) AS start_tok,
  CAST(CASE WHEN n_tokens = 0 THEN -1 ELSE start_tok // 512 END AS BIGINT) AS first_seq,
  CAST(CASE WHEN n_tokens = 0 THEN -1 ELSE (start_tok + n_tokens - 1) // 512 END AS BIGINT) AS last_seq,
  CAST(CASE WHEN n_tokens = 0 THEN 0
       ELSE (start_tok + n_tokens - 1) // 512 - start_tok // 512 + 1 END AS BIGINT) AS n_seqs
FROM s ORDER BY doc_id
"""

# PII scrub: the synthetic augmentation is re-derived verbatim (pure
# function of doc_id, pii.synth_pii_batch), then the SAME three pattern
# literals run sequentially in DuckDB's RE2 (count on the progressively
# redacted text, exactly like pii.redact_batch — an email's digits must
# not also count as a phone).
from markdown_query_ray.pipelines.pii import (  # noqa: E402
    EMAIL_RE as _PII_EMAIL,
    IPV4_RE as _PII_IP,
    PHONE_RE as _PII_PHONE,
)


def _sql_quote(pat: str) -> str:
    return "'" + pat.replace("'", "''") + "'"


_PII_SQL = f"""
WITH aug AS (SELECT doc_id, COALESCE(text, '')
  || CASE WHEN doc_id % 3 = 0 THEN ' contact user' || doc_id || '@mail-example.org' ELSE '' END
  || CASE WHEN doc_id % 4 = 0 THEN ' from 10.0.' || (doc_id % 256 // 16) || '.' || (doc_id % 16) ELSE '' END
  || CASE WHEN doc_id % 5 = 0 THEN ' call 555-01' || (doc_id % 10) || '-' || (1000 + doc_id % 9000) ELSE '' END AS t
  FROM documents),
r1 AS (SELECT doc_id, CAST(len(regexp_extract_all(t, {_sql_quote(_PII_EMAIL)})) AS BIGINT) AS n_email,
       regexp_replace(t, {_sql_quote(_PII_EMAIL)}, '<EMAIL>', 'g') AS t FROM aug),
r2 AS (SELECT doc_id, n_email, CAST(len(regexp_extract_all(t, {_sql_quote(_PII_IP)})) AS BIGINT) AS n_ipv4,
       regexp_replace(t, {_sql_quote(_PII_IP)}, '<IP>', 'g') AS t FROM r1),
r3 AS (SELECT doc_id, n_email, n_ipv4, CAST(len(regexp_extract_all(t, {_sql_quote(_PII_PHONE)})) AS BIGINT) AS n_phone,
       regexp_replace(t, {_sql_quote(_PII_PHONE)}, '<PHONE>', 'g') AS t FROM r2)
SELECT doc_id, n_email, n_ipv4, n_phone, n_email + n_ipv4 + n_phone AS n_pii,
       CAST(length(t) AS BIGINT) AS redacted_len, t AS redacted
FROM r3 ORDER BY doc_id
"""


def _mix_hash_sql() -> str:
    """The sampling draw: FNV-1a64 over LE bytes of (doc_id + MIX_SALT)
    mod 2^64, reduced mod 1e6 — sampling._draw_u in SQL."""
    from markdown_query_ray.pipelines.sampling import MIX_SALT

    keyed = (f"CAST((CAST(doc_id AS HUGEINT) + {MIX_SALT}) % "
             "18446744073709551616 AS UBIGINT)")
    return f"({_fnv_u64le_sql(keyed)}) % 1000000"


def _mixture_sql() -> str:
    """Realized mix after deterministic weighted repetition: n_copies is
    re-derived per doc with exact integer thresholds (floor(w) and
    round(frac(w)*1e6) are baked in as literals, so no float appears in
    the SQL), then aggregated per lang."""
    import math

    from markdown_query_ray.pipelines.driver_api import MIX_WEIGHTS

    arms = " ".join(
        f"WHEN '{g}' THEN {math.floor(w)} + "
        f"(CASE WHEN u < {round((w - math.floor(w)) * 1_000_000)} "
        "THEN 1 ELSE 0 END)"
        for g, w in sorted(MIX_WEIGHTS.items()))
    return f"""
WITH u AS (SELECT doc_id, lang, {_mix_hash_sql()} AS u FROM documents),
c AS (SELECT doc_id, lang, CASE lang {arms} ELSE 1 END AS n_copies FROM u)
SELECT lang, CAST(SUM(n_copies) AS BIGINT) AS n_rows,
       CAST(COUNT(CASE WHEN n_copies > 0 THEN 1 END) AS BIGINT) AS n_docs,
       CAST(SUM(doc_id * n_copies) AS BIGINT) AS id_checksum
FROM c GROUP BY lang ORDER BY lang
"""


def _quantiles_sql() -> str:
    """quantile_disc per lang at the entry's q grid (aggregate args must
    be constants in DuckDB, so one SELECT per q, UNION ALL)."""
    from markdown_query_ray.pipelines.quantiles import DEFAULT_QS

    legs = " UNION ALL ".join(
        f"SELECT lang, CAST({float(q)} AS DOUBLE) AS q, "
        f"CAST(quantile_disc(n_chars, {float(q)}) AS BIGINT) AS quantile "
        "FROM documents GROUP BY lang"
        for q in DEFAULT_QS)
    return f"SELECT * FROM ({legs}) ORDER BY lang, q"


# Bigram novelty from first principles: the same bigram SETS as the Ray
# side (string pairs joined by chr(31) == the shingle_hashes(w=2) window
# identity), occurrences kept, global counts joined back, integer
# aggregates only; bigram-less docs pinned (0, 0, -1).
_BIGRAM_SQL = """
WITH tl AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents),
occ AS (SELECT doc_id, unnest(list_transform(range(0, len(l) - 1),
        i -> l[i+1] || chr(31) || l[i+2])) AS g FROM tl WHERE len(l) >= 2),
c AS (SELECT g, count(*) AS cnt FROM occ GROUP BY g),
sc AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
       CAST(sum(cnt) AS BIGINT) AS sum_count,
       CAST(min(cnt) AS BIGINT) AS min_count
       FROM occ JOIN c USING (g) GROUP BY doc_id)
SELECT d.doc_id, COALESCE(n_bigrams, 0) AS n_bigrams,
       COALESCE(sum_count, 0) AS sum_count,
       COALESCE(min_count, -1) AS min_count
FROM documents d LEFT JOIN sc ON sc.doc_id = d.doc_id
ORDER BY d.doc_id
"""

# CCNet-style bucketing from first principles: the _BIGRAM_SQL metric in
# fixed point, per-lang quantile_disc tertiles (rank rule max(1, ceil(q*n))
# == quantiles.group_quantiles; float 1/3 < exact 1/3 so ceil agrees for
# any n < 1e16), head/middle/tail by threshold comparison.
_CCNET_SQL = """
WITH tl AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents),
occ AS (SELECT doc_id, unnest(list_transform(range(0, len(l) - 1),
        i -> l[i+1] || chr(31) || l[i+2])) AS g FROM tl WHERE len(l) >= 2),
c AS (SELECT g, count(*) AS cnt FROM occ GROUP BY g),
sc AS (SELECT doc_id, count(*) AS nb, sum(cnt) AS sumc
       FROM occ JOIN c USING (g) GROUP BY doc_id),
m AS (SELECT s.doc_id, d.lang, CAST(s.sumc * 1024 // s.nb AS BIGINT) AS metric
      FROM sc s JOIN documents d USING (doc_id)),
thr AS (SELECT lang, quantile_disc(metric, 1.0/3) AS t13,
               quantile_disc(metric, 2.0/3) AS t23 FROM m GROUP BY lang)
SELECT d.doc_id, d.lang,
       CAST(COALESCE(m.metric, -1) AS BIGINT) AS metric,
       CASE WHEN m.metric IS NULL THEN 'tail'
            WHEN m.metric >= t.t23 THEN 'head'
            WHEN m.metric >= t.t13 THEN 'middle'
            ELSE 'tail' END AS bucket
FROM documents d
LEFT JOIN m ON m.doc_id = d.doc_id
LEFT JOIN thr t ON t.lang = d.lang
ORDER BY d.doc_id
"""

# Duplicated-substring spans from first principles: same 4-gram identity
# and cross-doc df >= 2 rule as _CROSS_DUP_SQL, then the gaps-and-islands
# merge (a new island starts when the gap to the previous dup window
# exceeds w=4) — the SQL-window form of dedup._dup_span_group's local
# vectorized merge.
_DUP_SPANS_SQL = """
WITH tl AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents),
occ AS (SELECT doc_id, unnest(range(0, len(l) - 3)) AS pos,
        unnest(list_transform(range(0, len(l) - 3),
        i -> l[i+1] || chr(31) || l[i+2] || chr(31) || l[i+3] || chr(31) || l[i+4])) AS g
        FROM tl WHERE len(l) >= 4),
dg AS (SELECT DISTINCT doc_id, g FROM occ),
df AS (SELECT g FROM dg GROUP BY g HAVING count(*) >= 2),
dp AS (SELECT occ.doc_id, occ.pos FROM occ JOIN df USING (g)),
o AS (SELECT doc_id, pos, CASE WHEN pos - lag(pos) OVER
      (PARTITION BY doc_id ORDER BY pos) <= 4 THEN 0 ELSE 1 END AS brk FROM dp),
i AS (SELECT doc_id, pos, sum(brk) OVER (PARTITION BY doc_id ORDER BY pos
      ROWS UNBOUNDED PRECEDING) AS isl FROM o)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(min(pos) AS BIGINT) AS span_start,
       CAST(max(pos) + 4 AS BIGINT) AS span_end
FROM i GROUP BY doc_id, isl ORDER BY doc_id, span_start
"""

# Substring-dedup rewrite from first principles: covered token indices =
# the union of [pos, pos+4) over duplicated windows; survivors rejoin
# with single spaces in token order (the whitespace-normalizing contract
# both sides share). Docs with no tokens pin clean_text = ''.
_DUP_SCRUB_SQL = """
WITH tl AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents),
occ AS (SELECT doc_id, unnest(range(0, len(l) - 3)) AS pos,
        unnest(list_transform(range(0, len(l) - 3),
        i -> l[i+1] || chr(31) || l[i+2] || chr(31) || l[i+3] || chr(31) || l[i+4])) AS g
        FROM tl WHERE len(l) >= 4),
dg AS (SELECT DISTINCT doc_id, g FROM occ),
df AS (SELECT g FROM dg GROUP BY g HAVING count(*) >= 2),
dp AS (SELECT occ.doc_id, occ.pos FROM occ JOIN df USING (g)),
cov AS (SELECT DISTINCT dp.doc_id, dp.pos + o.o AS tpos
        FROM dp CROSS JOIN (SELECT unnest(range(0, 4)) AS o) o),
toks AS (SELECT doc_id, unnest(range(0, len(l))) AS tpos, unnest(l) AS tok FROM tl),
kept AS (SELECT t.doc_id, t.tpos, t.tok FROM toks t LEFT JOIN cov c
         ON t.doc_id = c.doc_id AND t.tpos = c.tpos WHERE c.doc_id IS NULL),
agg AS (SELECT doc_id, string_agg(tok, ' ' ORDER BY tpos) AS clean_text
        FROM kept GROUP BY doc_id),
nrem AS (SELECT doc_id, count(*) AS n_removed FROM cov GROUP BY doc_id)
SELECT d.doc_id, COALESCE(a.clean_text, '') AS clean_text,
       CAST(COALESCE(n.n_removed, 0) AS BIGINT) AS n_removed
FROM documents d LEFT JOIN agg a ON a.doc_id = d.doc_id
LEFT JOIN nrem n ON n.doc_id = d.doc_id
ORDER BY d.doc_id
"""

# Cross-doc duplicated-window coverage from first principles: the same
# 4-gram window identity as shingle_hashes(w=4) (string windows joined by
# chr(31)), doc frequency over DISTINCT (doc, window) pairs, a window
# position counts as duplicated iff its 4-gram appears in >= 2 distinct
# docs; docs with < 4 tokens pinned (0, 0). Joining on the string window
# also guards the 64-bit shingle hash's collision-freeness on this corpus.
_CROSS_DUP_SQL = """
WITH tl AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents),
occ AS (SELECT doc_id, unnest(list_transform(range(0, len(l) - 3),
        i -> l[i+1] || chr(31) || l[i+2] || chr(31) || l[i+3] || chr(31) || l[i+4])) AS g
        FROM tl WHERE len(l) >= 4),
dg AS (SELECT doc_id, g, count(*) AS occ FROM occ GROUP BY 1, 2),
df AS (SELECT g, count(*) AS df FROM dg GROUP BY g),
sc AS (SELECT doc_id, CAST(sum(occ) AS BIGINT) AS n_windows,
       CAST(sum(CASE WHEN df >= 2 THEN occ ELSE 0 END) AS BIGINT) AS dup_windows
       FROM dg JOIN df USING (g) GROUP BY doc_id)
SELECT d.doc_id, COALESCE(n_windows, 0) AS n_windows,
       COALESCE(dup_windows, 0) AS dup_windows
FROM documents d LEFT JOIN sc ON sc.doc_id = d.doc_id
ORDER BY d.doc_id
"""

# Quantized exact k-means from first principles: the SAME deterministic
# integer spec as clustering.py (floor(x*2^16+0.5) grid, init = k
# smallest vec_ids, exact squared-L2 argmin with ties -> smallest
# cluster, per-dim mean with floor((2s+n)/(2n)) rounding, empty
# clusters carry), unrolled as one CTE chain per Lloyd iteration. Every
# value is an integer below 2^53, so DOUBLE arithmetic is exact on both
# sides and the assignment matches bit-for-bit.
def _kmeans_ctes(k: int = 8, iters: int = 4) -> tuple[list, str]:
    """The shared Lloyd CTE chain; returns (cte_parts, final_asg_name)."""
    parts = [
        "WITH q AS (SELECT vec_id, list_transform(embedding, "
        "x -> CAST(floor(CAST(x AS DOUBLE) * 65536 + 0.5) AS BIGINT)) "
        "AS q FROM embeddings)",
        "qd AS (SELECT vec_id, unnest(range(1, len(q) + 1)) AS dim, "
        "unnest(q) AS v FROM q)",
        f"init AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c, "
        f"vec_id FROM (SELECT vec_id FROM q ORDER BY vec_id LIMIT {k}))",
        "cent0 AS (SELECT init.c, qd.dim, qd.v FROM init "
        "JOIN qd USING (vec_id))",
    ]
    for i in range(1, iters + 2):  # iters updates + the final assignment
        prev = f"cent{i - 1}"
        parts.append(
            f"dist{i} AS (SELECT qd.vec_id, {prev}.c, "
            f"sum((qd.v - {prev}.v) * (qd.v - {prev}.v)) AS d2 "
            f"FROM qd JOIN {prev} USING (dim) GROUP BY 1, 2)")
        parts.append(
            f"asg{i} AS (SELECT vec_id, c FROM (SELECT vec_id, c, "
            f"row_number() OVER (PARTITION BY vec_id ORDER BY d2, c) "
            f"AS rn FROM dist{i}) WHERE rn = 1)")
        if i <= iters:
            parts.append(
                f"upd{i} AS (SELECT c, dim, CAST(floor((2.0 * s + n) / "
                f"(2.0 * n)) AS BIGINT) AS v FROM (SELECT a.c, qd.dim, "
                f"sum(qd.v) AS s, count(*) AS n FROM asg{i} a "
                f"JOIN qd USING (vec_id) GROUP BY 1, 2))")
            parts.append(
                f"cent{i} AS (SELECT p.c, p.dim, COALESCE(u.v, p.v) AS v "
                f"FROM {prev} p LEFT JOIN upd{i} u "
                f"ON u.c = p.c AND u.dim = p.dim)")
    return parts, f"asg{iters + 1}"


def _kmeans_sql(k: int = 8, iters: int = 4) -> str:
    parts, asg = _kmeans_ctes(k, iters)
    return (", ".join(parts)
            + f" SELECT vec_id, CAST(c AS BIGINT) AS cluster "
              f"FROM {asg} ORDER BY vec_id")


# SemDeDup oracle: the SAME Lloyd CTE chain assigns clusters, then the
# exact within-cluster cosine test on the 2^8 grid — HUGEINT arithmetic
# so den_sq*dot^2 vs num_sq*|a|^2*|b|^2 cannot overflow in SQL either.
def _semdedup_sql(k: int = 8, iters: int = 4, num_sq: int = 81,
                  den_sq: int = 100) -> str:
    parts, asg = _kmeans_ctes(k, iters)
    parts.append(
        "q8 AS (SELECT vec_id, unnest(range(1, len(embedding) + 1)) AS "
        "dim, unnest(list_transform(embedding, x -> CAST(floor("
        "CAST(x AS DOUBLE) * 256 + 0.5) AS BIGINT))) AS v "
        "FROM embeddings)")
    parts.append(
        "nrm AS (SELECT vec_id, sum(v * v) AS n2 FROM q8 GROUP BY 1)")
    parts.append(
        f"pr AS (SELECT a.vec_id AS vec_a, b.vec_id AS vec_b, "
        f"sum(qa.v * qb.v) AS dot "
        f"FROM {asg} a JOIN {asg} b ON a.c = b.c AND a.vec_id < b.vec_id "
        f"JOIN q8 qa ON qa.vec_id = a.vec_id "
        f"JOIN q8 qb ON qb.vec_id = b.vec_id AND qb.dim = qa.dim "
        f"GROUP BY 1, 2)")
    return (", ".join(parts)
            + f" SELECT vec_a, vec_b, CAST(dot AS BIGINT) AS dot "
              f"FROM pr JOIN nrm na ON na.vec_id = vec_a "
              f"JOIN nrm nb ON nb.vec_id = vec_b "
              f"WHERE dot > 0 AND CAST({den_sq} AS HUGEINT) * dot * dot "
              f">= CAST({num_sq} AS HUGEINT) * na.n2 * nb.n2 "
              f"ORDER BY vec_a, vec_b")


_STRATIFIED_SQL = f"""
WITH h AS (SELECT doc_id, lang, {_mix_hash_sql()} AS sk FROM documents),
r AS (SELECT lang, doc_id, sk, row_number() OVER
      (PARTITION BY lang ORDER BY sk, doc_id) AS rank FROM h)
SELECT lang, CAST(rank AS BIGINT) AS rank, doc_id,
       CAST(sk AS BIGINT) AS sample_key
FROM r WHERE rank <= 20 ORDER BY lang, rank
"""

# SimHash from first principles: token hash = FNV(FNV(token) LE bytes) —
# exactly dedup.shingle_hashes(text, w=1) — majority bit over all token
# occurrences, then the SAME 4x16-bit band blocking + Hamming <= 6 the Ray
# pipeline applies. Empty docs carry signature 0 (LEFT JOIN + coalesce).
_SIMHASH_SQL = f"""
WITH tok AS (SELECT doc_id, unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS tok FROM documents),
th0 AS (SELECT doc_id, {_fnv_str_sql('tok')} AS th0 FROM tok),
th AS (SELECT doc_id, {_fnv_u64le_sql('th0')} AS th FROM th0),
n AS (SELECT doc_id, count(*) AS n_tok FROM th GROUP BY doc_id),
bits AS (SELECT th.doc_id, b.b, sum(CAST((th.th >> CAST(b.b AS UBIGINT)) & 1 AS BIGINT)) AS s
         FROM th CROSS JOIN (SELECT unnest(range(0, 64)) AS b) b GROUP BY 1, 2),
sig0 AS (SELECT bits.doc_id,
    CAST(sum(CASE WHEN 2 * bits.s > n.n_tok THEN CAST(1 AS HUGEINT) << CAST(bits.b AS INTEGER) ELSE 0 END) % 18446744073709551616 AS UBIGINT) AS sig
  FROM bits JOIN n ON bits.doc_id = n.doc_id GROUP BY 1),
sig AS (SELECT d.doc_id, coalesce(s.sig, CAST(0 AS UBIGINT)) AS sig FROM documents d LEFT JOIN sig0 s ON d.doc_id = s.doc_id),
seg AS (SELECT doc_id, sig, b.b AS band, CAST((sig >> CAST(16 * b.b AS UBIGINT)) & 65535 AS BIGINT) AS seg
        FROM sig CROSS JOIN (SELECT unnest(range(0, 4)) AS b) b),
cand AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b, a.sig AS sa, b.sig AS sb
         FROM seg a JOIN seg b ON a.band = b.band AND a.seg = b.seg AND a.doc_id < b.doc_id)
SELECT doc_a, doc_b, CAST(bit_count(xor(sa, sb)) AS BIGINT) AS hamming
FROM cand WHERE bit_count(xor(sa, sb)) <= 6 ORDER BY doc_a, doc_b
"""

# Rolling document fingerprint: h = fold over tokens of
# (h XOR (FNV(token) + position)) * prime, all mod 2^64
# (textstats.fingerprint_batch / _ctok.c rolling_fingerprint64).
_FINGERPRINT_SQL = f"""
WITH tl AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents),
tok AS (SELECT doc_id, unnest(l) AS tok, generate_subscripts(l, 1) AS i FROM tl),
mixed AS (SELECT doc_id, i,
  CAST((CAST({_fnv_str_sql('tok')} AS HUGEINT) + (i - 1)) % 18446744073709551616 AS UBIGINT) AS m FROM tok),
folded AS (SELECT doc_id, list(m ORDER BY i) AS ms FROM mixed GROUP BY doc_id),
fp AS (SELECT doc_id, CAST(list_reduce(list_prepend(CAST(14695981039346656037 AS UBIGINT), ms),
  (h, x) -> CAST((CAST(xor(h, x) AS HUGEINT) * 1099511628211) % 18446744073709551616 AS UBIGINT)) AS UBIGINT) AS fingerprint
  FROM folded)
SELECT d.doc_id, coalesce(fp.fingerprint, CAST(14695981039346656037 AS UBIGINT)) AS fingerprint
FROM documents d LEFT JOIN fp ON d.doc_id = fp.doc_id ORDER BY d.doc_id
"""


def _langid_ngram_sql() -> str:
    """Trigram-model language ID replayed in SQL: the profile CTE trains
    the same fixed-point model (cnt * 2^20 // tot per (lang, trigram)),
    the scores CTE classifies every doc against every language, ties
    break to the lexicographically-first language, docs shorter than one
    trigram predict 'und'. Byte trigrams == substring char trigrams on
    this ASCII corpus (textstats._tri_windows docstring)."""
    return """
WITH tri AS (
    SELECT doc_id, substring(text, CAST(i AS INT), 3) AS tri
    FROM (SELECT doc_id, text,
                 unnest(range(1, greatest(length(text) - 1, 1))) AS i
          FROM documents)),
prof_cnt AS (
    SELECT lang, substring(text, CAST(i AS INT), 3) AS tri, count(*) AS cnt
    FROM (SELECT lang, text,
                 unnest(range(1, greatest(length(text) - 1, 1))) AS i
          FROM documents)
    GROUP BY 1, 2),
tot AS (SELECT lang, sum(cnt) AS tot FROM prof_cnt GROUP BY 1),
prof AS (
    SELECT p.lang, p.tri, p.cnt * 1048576 // t.tot AS freq
    FROM prof_cnt p JOIN tot t USING (lang)),
scores AS (
    SELECT t.doc_id, l.lang, COALESCE(sum(p.freq), 0) AS score
    FROM tri t
    CROSS JOIN (SELECT DISTINCT lang FROM documents) l
    LEFT JOIN prof p ON p.lang = l.lang AND p.tri = t.tri
    GROUP BY 1, 2),
best AS (
    SELECT doc_id, lang, score, row_number() OVER (
        PARTITION BY doc_id ORDER BY score DESC, lang) AS rn
    FROM scores)
SELECT d.doc_id,
       COALESCE(b.lang, 'und') AS lang_pred,
       CAST(COALESCE(b.score, 0) AS BIGINT) AS score
FROM documents d
LEFT JOIN best b ON b.doc_id = d.doc_id AND b.rn = 1
ORDER BY d.doc_id
"""


def _langid_sql() -> str:
    """Profile-word language ID: hits = count of DISTINCT profile words per
    language; prediction = lexicographically-first argmax, 'und' on zero
    hits (textstats.LangIdStage, vectorized the same way)."""
    prof_rows = ", ".join(f"('{lang}','{w}')"
                          for lang in sorted(_LANG_PROFILES)
                          for w in sorted(_LANG_PROFILES[lang]))
    return f"""
WITH prof(lang, word) AS (VALUES {prof_rows}),
w AS (SELECT DISTINCT doc_id, word FROM (
  SELECT doc_id, unnest(list_filter(string_split(lower(text), ' '), x -> x <> '')) AS word FROM documents)),
hits AS (SELECT w.doc_id, prof.lang, count(*) AS c FROM w JOIN prof ON w.word = prof.word GROUP BY 1, 2),
best AS (SELECT doc_id, lang, row_number() OVER (PARTITION BY doc_id ORDER BY c DESC, lang) AS rn FROM hits)
SELECT d.doc_id, coalesce(b.lang, 'und') AS lang_pred
FROM documents d LEFT JOIN (SELECT doc_id, lang FROM best WHERE rn = 1) b ON d.doc_id = b.doc_id
ORDER BY d.doc_id
"""


def _bm25_tail(terms: list[str], k: int) -> str:
    """Shared classic-BM25 scoring tail over a `base(doc_id, text)` CTE:
    tokens, doclens, corpus stats (N/avgdl recomputed over base), one
    UNION ALL branch per query term, top-k by (score desc, doc_id)."""
    head = (
        "toks AS (SELECT doc_id, unnest(list_filter("
        "string_split(lower(text), ' '), x -> x <> '')) AS term "
        "FROM base), "
        "dl AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks "
        "GROUP BY doc_id), "
        "st AS (SELECT CAST((SELECT count(*) FROM base) AS BIGINT) "
        "AS n_docs, (SELECT sum(dl) FROM dl) / CAST((SELECT count(*) "
        "FROM base) AS DOUBLE) AS avgdl) ")
    per_term = " UNION ALL ".join(
        f"SELECT tf.doc_id, "
        f"greatest(ln((st.n_docs - df.df + 0.5) / (df.df + 0.5)), 0.0) * "
        f"(tf.tf / (1.2 * ((dl.dl * (1.0 / st.avgdl)) * 0.75 + 0.25) "
        f"+ tf.tf)) AS s "
        f"FROM (SELECT doc_id, CAST(count(*) AS DOUBLE) AS tf FROM toks "
        f"WHERE term = '{t}' GROUP BY doc_id) tf, "
        f"(SELECT CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM toks "
        f"WHERE term = '{t}') df, st, dl WHERE dl.doc_id = tf.doc_id"
        for t in terms)
    return (
        head +
        f", scored AS (SELECT doc_id, sum(s) AS score FROM ({per_term}) "
        f"GROUP BY doc_id) "
        f"SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) "
        f"AS BIGINT) AS rank, doc_id, round(score, 6) AS score "
        f"FROM scored ORDER BY score DESC, doc_id LIMIT {k}")


def _composite_sql(terms: list[str], k: int, min_tokens: int) -> str:
    """Full-chain oracle: quality filter -> exact dedup (first doc_id per
    distinct text) -> classic BM25 over the SURVIVING corpus (N/avgdl/df
    recomputed on the filtered set, mirroring what the index build sees)."""
    return (
        "WITH base AS (SELECT doc_id, text FROM ("
        "SELECT doc_id, text, row_number() OVER (PARTITION BY text "
        "ORDER BY doc_id) AS rn FROM documents "
        f"WHERE len(list_filter(string_split(text, ' '), x -> x <> '')) "
        f">= {min_tokens}) WHERE rn = 1), "
        + _bm25_tail(terms, k))


def _refresh_sql(terms: list[str], k: int, min_tokens: int) -> str:
    """Crawl-refresh oracle: base corpus (doc_id % 5 != 0) UNION the new
    batch (doc_id % 5 == 0) that passes the token gate AND has no exact
    3-shingle Jaccard >= 0.5 neighbor in the base (the same cross-side
    flag rule _INCR_DEDUP_SQL validates against the recall-complete
    banding), then classic BM25 with stats recomputed over the UPDATED
    corpus — the SQL replay of build -> gate -> incremental dedup ->
    update_index -> search."""
    gate = ("len(list_filter(string_split(text, ' '), x -> x <> '')) "
            f">= {min_tokens}")
    return ("""WITH tl AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents),
sh3 AS (SELECT doc_id, CASE WHEN len(l) <= 3 THEN [array_to_string(l, chr(31))]
    ELSE list_transform(range(0, len(l)-2), i -> l[i+1] || chr(31) || l[i+2] || chr(31) || l[i+3]) END AS sh FROM tl),
s AS (SELECT DISTINCT doc_id, g FROM (SELECT doc_id, unnest(sh) AS g FROM sh3)),
sz AS (SELECT doc_id, count(*) AS c FROM s GROUP BY doc_id),
flagged AS (
    SELECT DISTINCT b_doc AS doc_id FROM (
        SELECT a.doc_id AS a_doc, b.doc_id AS b_doc, count(*) AS i
        FROM s a JOIN s b ON a.g = b.g
        WHERE a.doc_id % 5 <> 0 AND b.doc_id % 5 = 0 GROUP BY 1, 2) p
    JOIN sz ca ON ca.doc_id = p.a_doc JOIN sz cb ON cb.doc_id = p.b_doc
    WHERE CAST(p.i AS DOUBLE) / (ca.c + cb.c - p.i) >= 0.5),
base AS (
    SELECT doc_id, text FROM documents WHERE doc_id % 5 <> 0
    UNION ALL
    SELECT doc_id, text FROM documents
    WHERE doc_id % 5 = 0 AND """ + gate + """
      AND doc_id NOT IN (SELECT doc_id FROM flagged)),
""" + _bm25_tail(terms, k))


# URL canonicalization: the oracle reconstructs both the messy url AND its
# canonical form from doc_id by applying the documented rules in SQL — an
# independent derivation, not a replay of the pipeline.
_TLD_SQL = "CASE WHEN doc_id % 13 = 5 THEN '.co.uk' ELSE '.com' END"

_MESSY_URL_SQL = (
    "CASE WHEN doc_id % 5 = 0 THEN 'HTTPS' ELSE 'https' END || '://' || "
    "CASE WHEN doc_id % 2 = 0 THEN 'WWW.Site' || (doc_id % 97) || "
    f"'.Example' || (doc_id % 11) || {_TLD_SQL} "
    "ELSE 'site' || (doc_id % 97) || "
    f"'.example' || (doc_id % 11) || {_TLD_SQL} END || "
    "CASE WHEN doc_id % 7 = 0 THEN ':443' ELSE '' END || "
    "'/Docs/' || doc_id || "
    "CASE WHEN doc_id % 3 = 0 THEN '/' ELSE '' END || "
    "CASE WHEN doc_id % 2 = 0 THEN '?b=2&utm_source=feed&a=1' ELSE '' END || "
    "CASE WHEN doc_id % 4 = 0 THEN '#section' ELSE '' END")

_URL_CANON_SQL = (
    f"SELECT doc_id, {_MESSY_URL_SQL} AS url, "
    "'https://site' || (doc_id % 97) || '.example' || (doc_id % 11) || "
    f"{_TLD_SQL} || '/Docs/' || doc_id || "
    "CASE WHEN doc_id % 2 = 0 THEN '?a=1&b=2' ELSE '' END AS canon_url "
    "FROM documents ORDER BY doc_id")

# registered domain: last two host labels, or last three when the 2-label
# tail is a public suffix — for the synthetic corpus that means the
# doc_id % 13 = 5 slice registers at example{b}.co.uk, not co.uk.
# Round 4: also each domain's largest doc (n_chars DESC, doc_id ASC) —
# folds the group-wise top-k machinery into this entry at k=1.
_DOMAIN_STATS_SQL = (
    f"WITH dd AS (SELECT 'example' || (doc_id % 11) || {_TLD_SQL} "
    "AS domain, doc_id, n_chars FROM documents), "
    "s AS (SELECT domain, CAST(count(*) AS BIGINT) AS n_docs, "
    "CAST(sum(n_chars) AS BIGINT) AS sum_chars FROM dd GROUP BY 1), "
    "r AS (SELECT domain, doc_id, n_chars, row_number() OVER ("
    "PARTITION BY domain ORDER BY n_chars DESC, doc_id) AS rn FROM dd) "
    "SELECT s.domain, s.n_docs, s.sum_chars, "
    "r.doc_id AS top_doc_id, CAST(r.n_chars AS BIGINT) AS top_doc_chars "
    "FROM s JOIN r ON r.domain = s.domain AND r.rn = 1 ORDER BY s.domain")


# Brute-force cosine top-10 for the first three vectors (vec_id 0..2 — the
# embeddings table is written in vec_id order, so query_idx == vec_id): the
# oracle for the recall-complete LSH ANN entry and the full-probe IVF entry.
_ANN_BRUTE_SQL = """
WITH q AS (SELECT vec_id AS query_idx, CAST(embedding AS DOUBLE[]) AS qe FROM embeddings WHERE vec_id < 3),
s AS (SELECT q.query_idx, e.vec_id, list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) AS sim
      FROM q CROSS JOIN embeddings e),
r AS (SELECT query_idx, vec_id, sim, row_number() OVER (PARTITION BY query_idx ORDER BY sim DESC, vec_id) AS rk FROM s)
SELECT query_idx, CAST(rk AS BIGINT) AS rank, vec_id, round(sim, 6) AS sim
FROM r WHERE rk <= 10 ORDER BY query_idx, rank
"""


# --- golden-table oracles ----------------------------------------------------
# flagship: top-20 produced by the REAL xapian-core 1.4.17 over the same
# corpus (tools/gen_goldens.py drives tools/xapian_oracle.cc — a non-circular
# oracle). multimodal: independently recomputed from the container spec.
# Golden rows are inlined as VALUES so the driver needs no filesystem access.

import json as _json
import os as _os

_GOLDEN_DIR = _os.path.join(_os.path.dirname(_os.path.abspath(__file__)),
                            "golden")


def _sql_lit(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return repr(v)


def _values_sql(rows: list[dict], cols: list[str], order_by: list[str],
                casts: dict[str, str] | None = None) -> str:
    casts = casts or {}
    vals = ", ".join(
        "(" + ", ".join(_sql_lit(r[c]) for c in cols) + ")" for r in rows)
    sel = ", ".join(f"CAST({c} AS {casts[c]}) AS {c}" if c in casts else c
                    for c in cols)
    return (f"SELECT {sel} FROM (VALUES {vals}) AS g({', '.join(cols)}) "
            f"ORDER BY {', '.join(order_by)}")


def _flagship_sql() -> str:
    with open(_os.path.join(_GOLDEN_DIR, "flagship.json")) as f:
        g = _json.load(f)
    parts = []
    for key, rows in g["by_corpus_key"].items():
        vals = ", ".join(
            f"({_sql_lit(key)}, {r['rank']}, {r['doc_id']}, "
            f"{repr(r['score'])}, {_sql_lit(r['url'])})" for r in rows)
        parts.append(vals)
    return (
        "WITH g(corpus_key, rank, doc_id, score, url) AS (VALUES "
        + ", ".join(parts) +
        "), k AS (SELECT count(*) || '-' || CAST(sum(n_chars) AS BIGINT) "
        "AS ck FROM documents) "
        "SELECT CAST(rank AS BIGINT) AS rank, CAST(doc_id AS BIGINT) AS "
        "doc_id, CAST(score AS DOUBLE) AS score, url "
        "FROM g, k WHERE g.corpus_key = k.ck ORDER BY rank")


def _multimodal_sql(name: str) -> str:
    with open(_os.path.join(_GOLDEN_DIR, "multimodal.json")) as f:
        g = _json.load(f)
    rows = g[name]
    specs = {
        "multimodal_features": (
            ["media_id", "mean_intensity", "std_intensity"], ["media_id"],
            {"media_id": "BIGINT", "mean_intensity": "DOUBLE",
             "std_intensity": "DOUBLE"}),
        "video_frame_features": (
            ["media_id", "frame_idx", "mean_intensity", "std_intensity"],
            ["media_id", "frame_idx"],
            {"media_id": "BIGINT", "frame_idx": "BIGINT",
             "mean_intensity": "DOUBLE", "std_intensity": "DOUBLE"}),
        "audio_chunk_features": (
            ["media_id", "chunk_idx", "rms", "zero_crossing_rate"],
            ["media_id", "chunk_idx"],
            {"media_id": "BIGINT", "chunk_idx": "BIGINT", "rms": "DOUBLE",
             "zero_crossing_rate": "DOUBLE"}),
    }
    cols, order_by, casts = specs[name]
    return _values_sql(rows, cols, order_by, casts)


def _jpeg_sql() -> str:
    """Golden VALUES oracle for jpeg_features — rows produced by decoding
    the fixture bytes with Java ImageIO (tools/gen_goldens.py gen_jpeg)."""
    with open(_os.path.join(_GOLDEN_DIR, "jpeg.json")) as f:
        rows = _json.load(f)["jpeg_features"]
    return _values_sql(
        rows, ["media_id", "mean_intensity", "std_intensity"], ["media_id"],
        {"media_id": "BIGINT", "mean_intensity": "DOUBLE",
         "std_intensity": "DOUBLE"})


def _mpeg1_sql() -> str:
    """Golden VALUES oracle for mpeg1_frame_features — sampled frames of
    the MPEG-1 I-frame fixture, recomputed from the mosaic pixel spec
    (gen_goldens gen_mpeg1; the intra codec is lossless on
    8x8-constant mosaics, so the spec recompute is decoder-independent)."""
    with open(_os.path.join(_GOLDEN_DIR, "multimodal.json")) as f:
        rows = _json.load(f)["mpeg1_frame_features"]
    return _values_sql(
        rows, ["media_id", "frame_idx", "mean_intensity", "std_intensity"],
        ["media_id", "frame_idx"],
        {"media_id": "BIGINT", "frame_idx": "BIGINT",
         "mean_intensity": "DOUBLE", "std_intensity": "DOUBLE"})


def _mjpeg_sql() -> str:
    """Golden VALUES oracle for mjpeg_frame_features — sampled frames of
    the MJPEG AVI fixture, decoded by Java ImageIO (gen_goldens
    gen_mjpeg); verifies RIFF extraction + JPEG decode together."""
    with open(_os.path.join(_GOLDEN_DIR, "jpeg.json")) as f:
        rows = _json.load(f)["mjpeg_frame_features"]
    return _values_sql(
        rows, ["media_id", "frame_idx", "mean_intensity", "std_intensity"],
        ["media_id", "frame_idx"],
        {"media_id": "BIGINT", "frame_idx": "BIGINT",
         "mean_intensity": "DOUBLE", "std_intensity": "DOUBLE"})

_BPE_SQL = (
    "SELECT doc_id, CAST(len(regexp_extract_all(text, '"
    + _BPE_PAT.replace("'", "''")
    + "')) AS BIGINT) AS n_bpe_tokens FROM documents ORDER BY doc_id")


_POS = ("pos AS (SELECT doc_id, unnest(l) AS term, "
        "generate_subscripts(l, 1) AS i FROM (SELECT doc_id, "
        "list_filter(string_split(lower(text), ' '), x -> x <> '') AS l "
        "FROM documents) dd), ")


def _phrase_match_cte(terms: list[str], ordered: bool, window: int) -> str:
    """pm CTE: doc_ids where the terms co-occur in a window-wide position
    span — in order (PHRASE) or any order (NEAR). Mirrors
    executor._ordered_within/_unordered_within over the simple tokenizer."""
    aliases = [f"p{i}" for i in range(len(terms))]
    joins = " JOIN ".join(
        f"pos {a}" + ("" if i == 0 else f" ON {a}.doc_id = p0.doc_id")
        for i, a in enumerate(aliases))
    conds = [f"{a}.term = '{t}'" for a, t in zip(aliases, terms)]
    if ordered:
        conds += [f"{aliases[i]}.i < {aliases[i + 1]}.i"
                  for i in range(len(terms) - 1)]
        span = (f"{aliases[-1]}.i - {aliases[0]}.i <= {window - 1}")
    else:
        ilist = ", ".join(f"{a}.i" for a in aliases)
        span = (f"greatest({ilist}) - least({ilist}) <= {window - 1}")
    return (f"pm AS (SELECT DISTINCT p0.doc_id FROM {joins} "
            f"WHERE {' AND '.join(conds)} AND {span}) ")


def _phrase_bm25_sql(terms: list[str], k: int, ordered: bool = True,
                     window: int = 0) -> str:
    """BM25 (XAPIAN profile: k1=1, b=0.5, min_normlen=0.5, negative-idf
    floor tw<2 -> tw*0.5+1, x(k1+1); wqf factor = 1 at wqf=1) of the member
    terms, restricted to docs where the phrase/near window matches. The
    xapian profile is used because the synthetic vocabulary is so common
    (df ~ 0.8N) that the classic clamped idf is 0 for every term."""
    window = window or len(terms)
    tw = "((st.n_docs - df.df + 0.5) / (df.df + 0.5))"
    tw_floored = f"(CASE WHEN {tw} < 2 THEN {tw} * 0.5 + 1 ELSE {tw} END)"
    per_term = " UNION ALL ".join(
        f"SELECT tf.doc_id, "
        f"ln({tw_floored}) * 2.0 * "
        f"(tf.tf / ((greatest(dl.dl * (1.0 / st.avgdl), 0.5) * 0.5 + 0.5) "
        f"+ tf.tf)) AS s "
        f"FROM (SELECT doc_id, CAST(count(*) AS DOUBLE) AS tf FROM toks "
        f"WHERE term = '{t}' GROUP BY doc_id) tf, "
        f"(SELECT CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM toks "
        f"WHERE term = '{t}') df, st, dl WHERE dl.doc_id = tf.doc_id "
        f"AND tf.doc_id IN (SELECT doc_id FROM pm)"
        for t in terms)
    return (
        _TOKS + ", " + _POS + _phrase_match_cte(terms, ordered, window) +
        f", scored AS (SELECT doc_id, sum(s) AS score FROM ({per_term}) "
        f"GROUP BY doc_id) "
        f"SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) "
        f"AS BIGINT) AS rank, doc_id, round(score, 6) AS score "
        f"FROM scored ORDER BY score DESC, doc_id LIMIT {k}")


def _bm25_xapian_restricted_sql(terms: list[str], k: int,
                                restrict: str) -> str:
    """Xapian-profile BM25 over the simple tokens, match set restricted by
    ``restrict`` (SQL yielding doc_ids) — FILTER semantics: the restriction
    contributes no weight."""
    tw = "((st.n_docs - df.df + 0.5) / (df.df + 0.5))"
    tw_floored = f"(CASE WHEN {tw} < 2 THEN {tw} * 0.5 + 1 ELSE {tw} END)"
    per_term = " UNION ALL ".join(
        f"SELECT tf.doc_id, "
        f"ln({tw_floored}) * 2.0 * "
        f"(tf.tf / ((greatest(dl.dl * (1.0 / st.avgdl), 0.5) * 0.5 + 0.5) "
        f"+ tf.tf)) AS s "
        f"FROM (SELECT doc_id, CAST(count(*) AS DOUBLE) AS tf FROM toks "
        f"WHERE term = '{t}' GROUP BY doc_id) tf, "
        f"(SELECT CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM toks "
        f"WHERE term = '{t}') df, st, dl WHERE dl.doc_id = tf.doc_id "
        f"AND tf.doc_id IN ({restrict})"
        for t in terms)
    return (
        _TOKS +
        f", scored AS (SELECT doc_id, sum(s) AS score FROM ({per_term}) "
        f"GROUP BY doc_id) "
        f"SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) "
        f"AS BIGINT) AS rank, doc_id, round(score, 6) AS score "
        f"FROM scored ORDER BY score DESC, doc_id LIMIT {k}")


def _bool_sql(op: str, t1: str, t2: str) -> str:
    base = ("WITH toks AS (SELECT doc_id, unnest(list_filter("
            "string_split(lower(text), ' '), x -> x <> '')) AS term "
            "FROM documents), "
            f"a AS (SELECT DISTINCT doc_id FROM toks WHERE term = '{t1}'), "
            f"b AS (SELECT DISTINCT doc_id FROM toks WHERE term = '{t2}') ")
    body = {
        "and": "SELECT doc_id FROM a INTERSECT SELECT doc_id FROM b",
        "and_not": "SELECT doc_id FROM a EXCEPT SELECT doc_id FROM b",
        "xor": ("SELECT doc_id FROM ((SELECT doc_id FROM a UNION "
                "SELECT doc_id FROM b) EXCEPT (SELECT doc_id FROM a "
                "INTERSECT SELECT doc_id FROM b))"),
    }[op]
    return base + f"SELECT doc_id FROM ({body}) ORDER BY doc_id"


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: synthesize Common-Crawl
    pages from the documents table, build the full xapian-mode index
    (extract -> tokenize+stem -> salted shuffle -> varint blocks), run a
    compiled natural-language query through block-max WAND."""
    from markdown_query_ray.pipelines.driver_api import flagship_search

    return flagship_search("/root/testdata/sf0.001",
                           query="the fast merge", k=20)


# The external driver verifies the FIRST 50 queries() entries only
# (round-3 lesson: 67 registered entries left 17 outside the checked
# window). The registry is therefore split: _DRIVER_ENTRIES is the
# curated <= 50-entry surface the driver checks — every operator family
# appears, with redundant parameterizations FUSED into combined entries
# (bool ops, both langid models, both ANN layouts, both window kinds,
# asof+range, whitespace+BPE counts, quality+repetition+fingerprint,
# novelty+cross-dup) — and queries_extra()/oracle_sql_extra() keep the
# individual un-fused entries oracle-checked via pytest
# (tests/test_driver_contract.py runs BOTH registries).
#
# WINDOW ROTATION (round 5 on): each round, entries that have never had
# a driver row rotate INTO the window, displacing long-stable entries
# (3-4 consecutive green rounds) whose operator family keeps at least
# one window representative; displaced entries move to queries_extra()
# and stay oracle-checked by the pytest contract. Over rounds every
# entry accumulates hard driver signal. Round-5 rotation: IN
# {bigram_novelty, bpe_word_histogram, cross_dup_coverage,
# dup_token_spans, hll_user_registers, lang_distinct_tokens,
# lang_length_quantiles, mjpeg_frame_features} (never driver-checked);
# OUT {bm25_single_term, facet_lang_counts, knn_cosine_top10,
# url_canonicalize, simhash_pairs, dedup_exact, events_sessions_30m,
# audio_chunk_features} (each green r1/r2-r4; families still covered by
# bm25_or3/bm25_lang_de/flagship + search_snippets + ann_top10/
# embedding_neardup + domain_doc_stats + minhash/incremental/
# ngram_jaccard/span dedup entries + composite (exact-dedup stage) +
# events_windows/asof_range_join + multimodal/video/jpeg/mjpeg).
_DRIVER_ENTRIES = [
    # -- inverted index + BM25 (engine end to end) ------------------------
    "search_snippets",
    "bm25_or3", "bm25_lang_de", "phrase_merge_sort", "near_merge_sort_w5",
    "bool_ops", "match_counts", "flagship_xapian_search", "term_df_top50",
    # -- flagship composites + sources + multimodal -----------------------
    "composite_quality_dedup_bm25", "crawl_refresh_bm25",
    "warc_extract", "span_dedup",
    "multimodal_features", "video_frame_features", "jpeg_features",
    "mjpeg_frame_features",
    # -- text analysis -----------------------------------------------------
    "token_counts", "lang_doc_stats", "quality_features", "langid_both",
    "lang_token_quantiles", "lang_length_quantiles",
    "lang_distinct_tokens", "bpe_word_histogram",
    # -- dedup family --------------------------------------------------------
    "decontam_flags", "minhash_dedup_pairs",
    "incremental_dedup_pairs", "ngram_jaccard_pairs", "neardup_dedup_docs",
    "dup_span_scrub", "dup_token_spans", "ngram_scores",
    "bigram_novelty", "cross_dup_coverage", "embedding_neardup",
    # -- similarity / clustering / sketches --------------------------------
    "ann_top10", "kmeans_embeddings", "semdedup_pairs",
    "hll_user_registers",
    # -- stream-shaped -------------------------------------------------------
    "events_windows", "asof_range_join",
    # -- relational ----------------------------------------------------------
    "tpch_q1ish", "tpch_q3ish",
    # -- web curation --------------------------------------------------------
    "domain_doc_stats", "seq_packing", "pii_redact",
    "ccnet_buckets", "mixture_weighted_repeat", "stratified_sample_docs",
]


def queries() -> dict[str, Callable[[str], Any]]:
    """The curated driver-checked registry (<= 50 entries, every one with
    an oracle_sql() row)."""
    q = _queries_all()
    return {k: q[k] for k in _DRIVER_ENTRIES}


def queries_extra() -> dict[str, Callable[[str], Any]]:
    """Everything NOT in the driver window: the individual un-fused
    entries, redundant parameterizations (rare-term WAND regime) and
    intermediate-stage views. Oracle-checked by pytest
    (tests/test_driver_contract.py), ignored by the external driver."""
    q = _queries_all()
    return {k: v for k, v in q.items() if k not in set(_DRIVER_ENTRIES)}


def oracle_sql() -> dict[str, str]:
    o = _oracle_all()
    return {k: o[k] for k in _DRIVER_ENTRIES}


def oracle_sql_extra() -> dict[str, str]:
    o = _oracle_all()
    return {k: v for k, v in o.items() if k not in set(_DRIVER_ENTRIES)}


def _queries_all() -> dict[str, Callable[[str], Any]]:
    from markdown_query_ray.pipelines import driver_api as d

    return {
        # -- inverted index + BM25 (engine end to end, SQL-checked) ----------
        "bm25_single_term": lambda sf: d.bm25_topk(sf, ["merge"], k=20),
        "search_snippets": lambda sf: d.search_snippets(sf, ["merge", "sort"], k=10),
        "facet_lang_counts": lambda sf: d.facet_counts(sf, ["merge", "sort"]),
        "bm25_or3": lambda sf: d.bm25_topk(sf, ["merge", "sort", "window"],
                                           k=20),
        # rare term (df=25): exercises nonzero classic idf + WAND pruning
        "bm25_rare_dup": lambda sf: d.bm25_topk(sf, ["dup", "merge"], k=20),
        "bm25_lang_de": lambda sf: d.bm25_lang_filtered(
            sf, ["merge", "sort"], "de", k=20),
        "phrase_merge_sort": lambda sf: d.phrase_bm25(sf, ["merge", "sort"],
                                                      k=20),
        "near_merge_sort_w5": lambda sf: d.phrase_bm25(
            sf, ["merge", "sort"], k=20, ordered=False, window=5),
        "bool_and": lambda sf: d.boolean_docs(sf, "and", "merge", "sort"),
        "bool_and_not": lambda sf: d.boolean_docs(sf, "and_not", "merge",
                                                  "sort"),
        "bool_xor": lambda sf: d.boolean_docs(sf, "xor", "merge", "sort"),
        "bool_ops": lambda sf: d.bool_ops(sf, "merge", "sort"),
        "match_counts": lambda sf: d.match_counts(sf, ["merge", "sort",
                                                       "window"]),
        # -- text analysis ---------------------------------------------------
        "doc_token_counts": d.doc_token_counts,
        "bpe_token_counts": d.bpe_token_counts,
        "bpe_word_histogram": d.bpe_word_histogram,
        "token_counts": d.token_counts_entry,
        "term_df_top50": lambda sf: d.term_df_top(sf, 50),
        "lang_doc_stats": d.lang_doc_stats,
        "quality_features": d.quality_features,
        "repetition_signals": d.repetition_signals,
        # -- dedup -----------------------------------------------------------
        "dedup_exact": d.dedup_exact_ids,
        "decontam_flags": d.decontam_flags,
        "embedding_neardup": d.embedding_neardup,
        # -- similarity ------------------------------------------------------
        "knn_cosine_top10": lambda sf: d.knn_cosine(sf, 0, 10),
        "kmeans_embeddings": d.kmeans_embeddings,
        "semdedup_pairs": d.semdedup_embedding_pairs,
        # -- stream-shaped ---------------------------------------------------
        "events_tumbling_1h": d.events_tumbling,
        "asof_purchase_click": d.asof_purchase_click,
        "range_purchase_clicks": d.range_purchase_clicks,
        "events_hopping_1h_30m": d.events_hopping,
        "events_windows": d.events_windows,
        "asof_range_join": d.asof_range_join,
        "events_sessions_30m": d.events_sessions,
        # -- relational smoke ------------------------------------------------
        "tpch_q1ish": d.tpch_q1ish,
        "tpch_q3ish": d.tpch_q3ish,
        # -- golden-table / recall-complete-parameter oracles (round 2) ------
        "flagship_xapian_search": lambda sf: d.flagship_search(sf),
        "minhash_dedup_pairs": d.minhash_pairs,
        "incremental_dedup_pairs": d.incremental_dedup_pairs,
        "ngram_jaccard_pairs": d.ngram_jaccard,
        "neardup_clusters": d.neardup_clusters,
        "neardup_dedup_docs": d.neardup_dedup_docs,
        "embedding_neardup_lsh": d.embedding_neardup_lsh,
        "simhash_pairs": d.simhash_near_pairs,
        "lsh_ann_top10": d.lsh_ann_topk,
        "ivf_ann_top10": d.ivf_ann_topk,
        "ann_top10": lambda sf: d.ann_topk_both(sf, 10),
        "langid": d.langid_preds,
        "langid_ngram": d.langid_ngram_preds,
        "langid_both": d.langid_both,
        "doc_fingerprints": d.fingerprints,
        "url_canonicalize": d.url_canon,
        "domain_doc_stats": d.domain_doc_stats,
        "domain_topk_docs": d.domain_topk_docs,
        "hash_split_counts": d.hash_split_counts,
        # -- round 4: mergeable sketches --------------------------------------
        "hll_user_registers": d.hll_user_registers,
        "cms_token_registers": d.cms_token_registers,
        "event_value_quantiles": d.event_value_quantiles,
        "domain_capped_docs": d.domain_capped_docs,
        # -- round 3: curation operators -------------------------------------
        "seq_packing": d.seq_packing,
        "pii_redact": d.pii_redact,
        "bigram_novelty": d.bigram_novelty,
        "ngram_scores": d.ngram_scores,
        "ccnet_buckets": d.ccnet_quality_buckets,
        "cross_dup_coverage": d.cross_dup_coverage,
        "dup_token_spans": d.dup_token_spans_entry,
        "dup_span_scrub": d.dup_span_scrub_entry,
        "lang_distinct_tokens": d.lang_distinct_tokens,
        "mixture_weighted_repeat": d.mixture_weighted_repeat,
        "lang_length_quantiles": d.lang_length_quantiles,
        "lang_token_quantiles": d.lang_token_quantiles,
        "stratified_sample_docs": d.stratified_sample_docs,
        "warc_extract": d.warc_extract,
        "span_dedup": d.span_dedup_survivors,
        "composite_quality_dedup_bm25": lambda sf: d.composite_pipeline(sf),
        "crawl_refresh_bm25": lambda sf: d.crawl_refresh_pipeline(sf),
        "multimodal_features": d.multimodal_features,
        "jpeg_features": d.jpeg_features,
        "mjpeg_frame_features": d.mjpeg_frame_feats,
        "mpeg1_frame_features": d.mpeg1_frame_feats,
        "video_frame_features": d.video_frame_feats,
        "audio_chunk_features": d.audio_chunk_feats,
    }


_TUMBLING_SQL = (
    "SELECT event_type, date_trunc('hour', ts) AS window_start, "
    "CAST(count(*) AS BIGINT) AS n_events, "
    "round(sum(value), 6) AS sum_value FROM events "
    "GROUP BY 1, 2 ORDER BY 1, 2")

_HOPPING_SQL = (
    "SELECT event_type, make_timestamp(((CAST(floor(epoch(ts) / "
    "1800) AS BIGINT) - g.j) * 1800) * 1000000) AS window_start, "
    "CAST(count(*) AS BIGINT) AS n_events, "
    "round(sum(value), 6) AS sum_value "
    "FROM events, generate_series(0, 1) AS g(j) "
    "GROUP BY 1, 2 ORDER BY 1, 2")

# DuckDB's native ASOF JOIN is the oracle for the co-partitioned
# searchsorted as-of; ties on the instant match (l.ts >= r.ts)
_ASOF_SQL = (
    "SELECT l.event_id, l.user_id, l.ts, round(l.value, 6) AS "
    "value, r.event_id AS click_id, r.ts AS click_ts "
    "FROM (SELECT * FROM events WHERE event_type = 'purchase') l "
    "ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = "
    "'click') r ON l.user_id = r.user_id AND l.ts >= r.ts "
    "ORDER BY l.event_id")

_RANGE_SQL = (
    "SELECT l.event_id, l.user_id, l.ts, r.event_id AS click_id, "
    "r.ts AS click_ts "
    "FROM (SELECT * FROM events WHERE event_type = 'purchase') l "
    "JOIN (SELECT * FROM events WHERE event_type = 'click') r "
    "ON l.user_id = r.user_id AND r.ts >= l.ts - INTERVAL 24 HOURS "
    "AND r.ts < l.ts ORDER BY l.event_id, click_id")


def _oracle_all() -> dict[str, str]:
    return {
        "bm25_single_term": _bm25_sql(["merge"], 20),
        "search_snippets": _snippet_sql(["merge", "sort"], 10),
        "facet_lang_counts": (
            "WITH tl AS (SELECT doc_id, lang, list_filter(string_split("
            "lower(text), ' '), x -> x <> '') AS l FROM documents) "
            "SELECT lang, CAST(count(*) AS BIGINT) AS n_matches FROM tl "
            "WHERE list_contains(l, 'merge') OR list_contains(l, 'sort') "
            "GROUP BY lang ORDER BY lang"),
        "bm25_or3": _bm25_sql(["merge", "sort", "window"], 20),
        "bm25_rare_dup": _bm25_sql(["dup", "merge"], 20),
        "bm25_lang_de": _bm25_xapian_restricted_sql(
            ["merge", "sort"], 20,
            "SELECT doc_id FROM documents WHERE lang = 'de'"),
        "phrase_merge_sort": _phrase_bm25_sql(["merge", "sort"], 20),
        "near_merge_sort_w5": _phrase_bm25_sql(["merge", "sort"], 20,
                                               ordered=False, window=5),
        "bool_and": _bool_sql("and", "merge", "sort"),
        "bool_and_not": _bool_sql("and_not", "merge", "sort"),
        "bool_xor": _bool_sql("xor", "merge", "sort"),
        # the three boolean operators tagged into one result set
        "bool_ops": (
            f"SELECT 'and' AS op, doc_id FROM "
            f"({_bool_sql('and', 'merge', 'sort')}) "
            f"UNION ALL SELECT 'and_not' AS op, doc_id FROM "
            f"({_bool_sql('and_not', 'merge', 'sort')}) "
            f"UNION ALL SELECT 'xor' AS op, doc_id FROM "
            f"({_bool_sql('xor', 'merge', 'sort')}) "
            "ORDER BY op, doc_id"),
        "match_counts": (
            "WITH toks AS (SELECT doc_id, unnest(list_filter("
            "string_split(lower(text), ' '), x -> x <> '')) AS term "
            "FROM documents) "
            "SELECT query, n_matches FROM ("
            "SELECT term AS query, CAST(count(DISTINCT doc_id) AS BIGINT) "
            "AS n_matches FROM toks WHERE term IN ('merge','sort','window') "
            "GROUP BY term "
            "UNION ALL SELECT 'ANY', CAST(count(DISTINCT doc_id) AS BIGINT) "
            "FROM toks WHERE term IN ('merge','sort','window')) "
            "ORDER BY query"),
        "doc_token_counts": (
            "SELECT doc_id, CAST(len(list_filter(string_split(text, ' '), "
            "x -> x <> '')) AS BIGINT) AS n_tokens FROM documents "
            "ORDER BY doc_id"),
        "bpe_token_counts": _BPE_SQL,
        # train-side BPE word histogram (the one corpus-scale exchange
        # of bpe_train): NUL strip mirrors pretoken_lists' separator
        # guard; '' residue rows are filtered on both sides
        "bpe_word_histogram": (
            "WITH toks AS (SELECT unnest(regexp_extract_all("
            "replace(text, chr(0), ''), '"
            + _BPE_PAT.replace("'", "''")
            + "')) AS word FROM documents) "
            "SELECT word, CAST(count(*) AS BIGINT) AS freq FROM toks "
            "WHERE word <> '' GROUP BY word "
            "ORDER BY freq DESC, word ASC LIMIT 200"),
        # whitespace + BPE-ish counts from one corpus pass
        "token_counts": (
            "SELECT doc_id, CAST(len(list_filter(string_split(text, ' '), "
            "x -> x <> '')) AS BIGINT) AS n_tokens, "
            "CAST(len(regexp_extract_all(text, '"
            + _BPE_PAT.replace("'", "''")
            + "')) AS BIGINT) AS n_bpe_tokens FROM documents "
            "ORDER BY doc_id"),
        "term_df_top50": (
            "WITH toks AS (SELECT doc_id, unnest(list_filter("
            "string_split(text, ' '), x -> x <> '')) AS term FROM documents) "
            "SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df, "
            "CAST(count(*) AS BIGINT) AS cf FROM toks GROUP BY term "
            "ORDER BY df DESC, term LIMIT 50"),
        # per-lang stats + the 90/5/5 id-hash split pivoted per split
        # (round 4: folds the hash_split machinery into this entry; same
        # FNV-1a64 LE fold as hash_split_counts)
        "lang_doc_stats": (
            "WITH h AS (SELECT lang, n_chars, "
            f"({_fnv_u64le_sql('CAST(doc_id AS UBIGINT)')}) % 1000000 AS b "
            "FROM documents) "
            "SELECT lang, CAST(count(*) AS BIGINT) AS n_docs, "
            "CAST(sum(n_chars) AS BIGINT) AS sum_chars, "
            "CAST(sum(CASE WHEN b < 900000 THEN 1 ELSE 0 END) AS BIGINT) "
            "AS n_train, "
            "CAST(sum(CASE WHEN b >= 900000 AND b < 950000 THEN 1 ELSE 0 "
            "END) AS BIGINT) AS n_val, "
            "CAST(sum(CASE WHEN b >= 950000 THEN 1 ELSE 0 END) AS BIGINT) "
            "AS n_test "
            "FROM h GROUP BY lang ORDER BY lang"),
        # quality + Gopher repetition + rolling fingerprint fused
        # (round 4): one entry drives all three per-doc signal families;
        # the repetition CTEs are the same first-principles word-n-gram
        # derivation as repetition_signals', the fingerprint subquery is
        # _FINGERPRINT_SQL verbatim
        "quality_features": f"""
WITH tl AS (SELECT doc_id, text, list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents),
g2 AS (SELECT doc_id, unnest(list_transform(range(0, len(l)-1), i -> l[i+1] || ' ' || l[i+2])) AS g FROM tl),
c2 AS (SELECT doc_id, g, count(*) AS c FROM g2 GROUP BY 1, 2),
m2 AS (SELECT doc_id, max(c) AS mc FROM c2 GROUP BY 1),
t2 AS (SELECT c2.doc_id, max(c2.c * length(c2.g)) AS cov FROM c2 JOIN m2 ON c2.doc_id = m2.doc_id AND c2.c = m2.mc GROUP BY 1),
g3 AS (SELECT doc_id, unnest(list_transform(range(0, len(l)-2), i -> l[i+1] || ' ' || l[i+2] || ' ' || l[i+3])) AS g FROM tl),
c3 AS (SELECT doc_id, g, count(*) AS c FROM g3 GROUP BY 1, 2),
m3 AS (SELECT doc_id, max(c) AS mc FROM c3 GROUP BY 1),
t3 AS (SELECT c3.doc_id, max(c3.c * length(c3.g)) AS cov FROM c3 JOIN m3 ON c3.doc_id = m3.doc_id AND c3.c = m3.mc GROUP BY 1),
g5 AS (SELECT doc_id, unnest(list_transform(range(0, len(l)-4), i -> l[i+1] || ' ' || l[i+2] || ' ' || l[i+3] || ' ' || l[i+4] || ' ' || l[i+5])) AS g FROM tl),
c5 AS (SELECT doc_id, g, count(*) AS c FROM g5 GROUP BY 1, 2),
d5 AS (SELECT doc_id, sum(c * length(g)) AS cov FROM c5 WHERE c > 1 GROUP BY 1),
q AS (SELECT doc_id,
  CAST(len(list_filter(string_split(text, ' '), x -> x <> '')) AS BIGINT) AS n_tokens,
  CAST(len(list_filter(string_split(text, ' '), x -> x IN {_STOPWORDS_SQL})) AS BIGINT) AS n_stopwords
  FROM documents)
SELECT tl.doc_id, q.n_tokens, q.n_stopwords,
  CAST(length(tl.text) AS BIGINT) AS n_chars,
  CAST(coalesce(t2.cov, 0) AS BIGINT) AS top2gram_cov,
  CAST(coalesce(t3.cov, 0) AS BIGINT) AS top3gram_cov,
  CAST(coalesce(d5.cov, 0) AS BIGINT) AS dup5gram_cov,
  fpq.fingerprint
FROM tl JOIN q ON q.doc_id = tl.doc_id
  LEFT JOIN t2 ON tl.doc_id = t2.doc_id
  LEFT JOIN t3 ON tl.doc_id = t3.doc_id
  LEFT JOIN d5 ON tl.doc_id = d5.doc_id
  JOIN ({_FINGERPRINT_SQL}) fpq ON fpq.doc_id = tl.doc_id
ORDER BY tl.doc_id
""",
        "dedup_exact": (
            "SELECT doc_id FROM (SELECT min(doc_id) AS doc_id FROM documents "
            "GROUP BY text) ORDER BY doc_id"),
        # Gopher-style repetition coverage from first principles: word
        # n-grams joined by ' ', covered chars = count * length of the
        # joined n-gram (ties toward the longest). INTEGER covs (ratios
        # round-half differently in Python vs SQL on exact fractions)
        "repetition_signals": """
WITH tl AS (SELECT doc_id, text, list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents),
g2 AS (SELECT doc_id, unnest(list_transform(range(0, len(l)-1), i -> l[i+1] || ' ' || l[i+2])) AS g FROM tl),
c2 AS (SELECT doc_id, g, count(*) AS c FROM g2 GROUP BY 1, 2),
m2 AS (SELECT doc_id, max(c) AS mc FROM c2 GROUP BY 1),
t2 AS (SELECT c2.doc_id, max(c2.c * length(c2.g)) AS cov FROM c2 JOIN m2 ON c2.doc_id = m2.doc_id AND c2.c = m2.mc GROUP BY 1),
g3 AS (SELECT doc_id, unnest(list_transform(range(0, len(l)-2), i -> l[i+1] || ' ' || l[i+2] || ' ' || l[i+3])) AS g FROM tl),
c3 AS (SELECT doc_id, g, count(*) AS c FROM g3 GROUP BY 1, 2),
m3 AS (SELECT doc_id, max(c) AS mc FROM c3 GROUP BY 1),
t3 AS (SELECT c3.doc_id, max(c3.c * length(c3.g)) AS cov FROM c3 JOIN m3 ON c3.doc_id = m3.doc_id AND c3.c = m3.mc GROUP BY 1),
g5 AS (SELECT doc_id, unnest(list_transform(range(0, len(l)-4), i -> l[i+1] || ' ' || l[i+2] || ' ' || l[i+3] || ' ' || l[i+4] || ' ' || l[i+5])) AS g FROM tl),
c5 AS (SELECT doc_id, g, count(*) AS c FROM g5 GROUP BY 1, 2),
d5 AS (SELECT doc_id, sum(c * length(g)) AS cov FROM c5 WHERE c > 1 GROUP BY 1)
SELECT tl.doc_id,
  CAST(coalesce(t2.cov, 0) AS BIGINT) AS top2gram_cov,
  CAST(coalesce(t3.cov, 0) AS BIGINT) AS top3gram_cov,
  CAST(coalesce(d5.cov, 0) AS BIGINT) AS dup5gram_cov,
  CAST(length(tl.text) AS BIGINT) AS n_chars
FROM tl LEFT JOIN t2 ON tl.doc_id = t2.doc_id
        LEFT JOIN t3 ON tl.doc_id = t3.doc_id
        LEFT JOIN d5 ON tl.doc_id = d5.doc_id
ORDER BY tl.doc_id
""",
        "embedding_neardup": (
            "SELECT a.vec_id AS vec_a, b.vec_id AS vec_b, "
            "round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
            "CAST(b.embedding AS DOUBLE[])), 6) AS sim "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
            "CAST(b.embedding AS DOUBLE[])) >= 0.4 "
            "ORDER BY vec_a, vec_b"),
        "knn_cosine_top10": (
            "SELECT CAST(row_number() OVER (ORDER BY sim DESC, vec_id) "
            "AS BIGINT) AS rank, vec_id, round(sim, 6) AS sim FROM "
            "(SELECT vec_id, list_cosine_similarity("
            "CAST(embedding AS DOUBLE[]), (SELECT CAST(embedding AS "
            "DOUBLE[]) FROM embeddings WHERE vec_id = 0)) AS sim "
            "FROM embeddings) ORDER BY sim DESC, vec_id LIMIT 10"),
        "events_tumbling_1h": _TUMBLING_SQL,
        "asof_purchase_click": _ASOF_SQL,
        "range_purchase_clicks": _RANGE_SQL,
        "events_hopping_1h_30m": _HOPPING_SQL,
        # both window kinds tagged into one result set
        "events_windows": (
            f"SELECT 'hopping_1h_30m' AS win, * FROM ({_HOPPING_SQL}) "
            f"UNION ALL SELECT 'tumbling_1h' AS win, * FROM "
            f"({_TUMBLING_SQL}) ORDER BY win, event_type, window_start"),
        # asof columns per purchase + the 24 h range join aggregated per
        # purchase (count + click-id checksum pins the exact pair set)
        "asof_range_join": (
            "WITH rj AS (SELECT l.event_id AS event_id, "
            "CAST(count(*) AS BIGINT) AS n_clicks_24h, "
            "CAST(sum(r.event_id) AS BIGINT) AS click_id_sum "
            "FROM (SELECT * FROM events WHERE event_type = 'purchase') l "
            "JOIN (SELECT * FROM events WHERE event_type = 'click') r "
            "ON l.user_id = r.user_id AND r.ts >= l.ts - "
            "INTERVAL 24 HOURS AND r.ts < l.ts GROUP BY 1) "
            "SELECT a.event_id, a.user_id, a.ts, a.value, a.click_id, "
            "a.click_ts, CAST(coalesce(rj.n_clicks_24h, 0) AS BIGINT) "
            "AS n_clicks_24h, CAST(coalesce(rj.click_id_sum, 0) AS "
            "BIGINT) AS click_id_sum "
            f"FROM ({_ASOF_SQL}) a LEFT JOIN rj USING (event_id) "
            "ORDER BY a.event_id"),
        "events_sessions_30m": (
            "WITH l AS (SELECT event_id, user_id, ts, lag(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts "
            "FROM events) SELECT event_id, user_id, CAST(sum(CASE WHEN "
            "prev_ts IS NULL OR ts - prev_ts > INTERVAL '30 minutes' "
            "THEN 1 ELSE 0 END) OVER (PARTITION BY user_id ORDER BY ts, "
            "event_id ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id "
            "FROM l ORDER BY event_id"),
        "tpch_q1ish": (
            "SELECT l_returnflag, l_linestatus, "
            "CAST(sum(l_quantity) AS BIGINT) AS sum_qty, "
            "round(sum(l_extendedprice), 2) AS sum_price, "
            "CAST(count(*) AS BIGINT) AS n_rows FROM lineitem "
            "GROUP BY 1, 2 ORDER BY 1, 2"),
        # Q3 shape: customer broadcast semi-join + orderkey shuffle hash
        # join (equijoin.py); revenue rounded like every float entry
        "tpch_q3ish": (
            "SELECT l_orderkey, o_orderdate, o_orderpriority, "
            "round(sum(l_extendedprice * (1 - l_discount)), 6) AS revenue "
            "FROM customer JOIN orders ON c_custkey = o_custkey "
            "JOIN lineitem ON l_orderkey = o_orderkey "
            "WHERE c_mktsegment = 'BUILDING' "
            "AND o_orderdate < TIMESTAMP '1998-06-01' "
            "AND l_shipdate > TIMESTAMP '1998-06-01' "
            "GROUP BY 1, 2, 3 ORDER BY 1"),
        # -- round-2 oracles for the formerly rows-only entries --------------
        "minhash_dedup_pairs": _MINHASH_SQL,
        "incremental_dedup_pairs": _INCR_DEDUP_SQL,
        # the prefix-filter join is EXACT (no banding), so the exhaustive
        # all-pairs SQL is a true oracle at any threshold
        "ngram_jaccard_pairs": _JACCARD_SQL_T.format(thr=0.35),
        "decontam_flags": _DECONTAM_SQL,
        "seq_packing": _PACKING_SQL,
        "pii_redact": _PII_SQL,
        "bigram_novelty": _BIGRAM_SQL,
        # bigram novelty + cross-dup coverage zipped per doc
        "ngram_scores": (
            f"SELECT b.doc_id, b.n_bigrams, b.sum_count, b.min_count, "
            f"c.n_windows, c.dup_windows FROM ({_BIGRAM_SQL}) b "
            f"JOIN ({_CROSS_DUP_SQL}) c USING (doc_id) "
            "ORDER BY b.doc_id"),
        "ccnet_buckets": _CCNET_SQL,
        "cross_dup_coverage": _CROSS_DUP_SQL,
        "dup_token_spans": _DUP_SPANS_SQL,
        "dup_span_scrub": _DUP_SCRUB_SQL,
        "kmeans_embeddings": _kmeans_sql(),
        # entry threshold cos >= 0.3: the synthetic embeddings carry no
        # 0.9-grade near-dups, so the checked regime is the one with a
        # non-trivial pair set (~300 pairs)
        "semdedup_pairs": _semdedup_sql(num_sq=9, den_sq=100),
        # distinct-token cardinality per lang: set identity invariant
        # under the injective token-hash chain the Ray side shuffles
        "lang_distinct_tokens": (
            "WITH toks AS (SELECT lang, unnest(list_filter("
            "string_split(text, ' '), x -> x <> '')) AS tok "
            "FROM documents) "
            "SELECT lang, CAST(count(DISTINCT tok) AS BIGINT) "
            "AS n_distinct FROM toks GROUP BY lang ORDER BY lang"),
        "mixture_weighted_repeat": _mixture_sql(),
        "lang_length_quantiles": _quantiles_sql(),
        # distinct-token cardinality + wide-pivoted n_chars quantiles per
        # lang in one row (quantile_disc rank rule == group_quantiles)
        "lang_token_quantiles": (
            "WITH toks AS (SELECT lang, unnest(list_filter("
            "string_split(text, ' '), x -> x <> '')) AS tok "
            "FROM documents), "
            "d AS (SELECT lang, CAST(count(DISTINCT tok) AS BIGINT) "
            "AS n_distinct FROM toks GROUP BY lang), "
            "q AS (SELECT lang, "
            "CAST(quantile_disc(n_chars, 0.25) AS BIGINT) AS p25, "
            "CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS p50, "
            "CAST(quantile_disc(n_chars, 0.75) AS BIGINT) AS p75, "
            "CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90, "
            "CAST(quantile_disc(n_chars, 0.99) AS BIGINT) AS p99 "
            "FROM documents GROUP BY lang) "
            "SELECT d.lang, d.n_distinct, q.p25, q.p50, q.p75, q.p90, "
            "q.p99 FROM d JOIN q USING (lang) ORDER BY d.lang"),
        "stratified_sample_docs": _STRATIFIED_SQL,
        # connected components from first principles: transitive closure
        # of the (recall-complete) J >= 0.5 pair graph via a recursive
        # CTE, component label = min reachable id
        "neardup_dedup_docs": f"""
WITH RECURSIVE pairs AS (SELECT doc_a, doc_b FROM ({_JACCARD_SQL_T.format(thr=0.5)})),
edges AS (SELECT doc_a AS u, doc_b AS v FROM pairs UNION SELECT doc_b, doc_a FROM pairs),
reach(u, r) AS (
    SELECT u, u FROM (SELECT DISTINCT u FROM edges)
    UNION
    SELECT e.u, reach.r FROM edges e JOIN reach ON e.v = reach.u),
comp AS (SELECT u AS doc_id, min(r) AS rep FROM reach GROUP BY u)
SELECT d.doc_id FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM comp WHERE doc_id <> rep)
ORDER BY d.doc_id
""",
        "neardup_clusters": f"""
WITH RECURSIVE pairs AS (SELECT doc_a, doc_b FROM ({_JACCARD_SQL_T.format(thr=0.5)})),
edges AS (SELECT doc_a AS u, doc_b AS v FROM pairs UNION SELECT doc_b, doc_a FROM pairs),
reach(u, r) AS (
    SELECT u, u FROM (SELECT DISTINCT u FROM edges)
    UNION
    SELECT e.u, reach.r FROM edges e JOIN reach ON e.v = reach.u)
SELECT u AS doc_id, min(r) AS cluster_rep FROM reach GROUP BY u ORDER BY doc_id
""",
        "simhash_pairs": _SIMHASH_SQL,
        "doc_fingerprints": _FINGERPRINT_SQL,
        "langid": _langid_sql(),
        "langid_ngram": _langid_ngram_sql(),
        # both language-ID models zipped per doc
        "langid_both": (
            f"SELECT w.doc_id, w.lang_pred AS lang_word, "
            f"t.lang_pred AS lang_tri, t.score AS tri_score "
            f"FROM ({_langid_sql()}) w JOIN ({_langid_ngram_sql()}) t "
            "USING (doc_id) ORDER BY w.doc_id"),
        # the LSH near-dup entries run recall-complete parameterizations, so
        # the exhaustive pair SQL is a true oracle for both
        "embedding_neardup_lsh": (
            "SELECT a.vec_id AS vec_a, b.vec_id AS vec_b, "
            "round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
            "CAST(b.embedding AS DOUBLE[])), 6) AS sim "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
            "CAST(b.embedding AS DOUBLE[])) >= 0.4 "
            "ORDER BY vec_a, vec_b"),
        "lsh_ann_top10": _ANN_BRUTE_SQL,
        "ivf_ann_top10": _ANN_BRUTE_SQL,
        # both ANN layouts must equal the same brute-force top-k
        "ann_top10": (
            f"SELECT 'ivf' AS method, * FROM ({_ANN_BRUTE_SQL}) "
            f"UNION ALL SELECT 'lsh' AS method, * FROM ({_ANN_BRUTE_SQL}) "
            "ORDER BY method, query_idx, rank"),
        "url_canonicalize": _URL_CANON_SQL,
        "domain_doc_stats": _DOMAIN_STATS_SQL,
        # the id-hash split re-derived in SQL (same FNV-1a64 LE fold)
        "hash_split_counts": (
            "WITH h AS (SELECT lang, n_chars, "
            f"({_fnv_u64le_sql('CAST(doc_id AS UBIGINT)')}) % 1000000 AS b "
            "FROM documents) "
            "SELECT CASE WHEN b < 900000 THEN 'train' WHEN b < 950000 "
            "THEN 'val' ELSE 'test' END AS split, lang, "
            "CAST(count(*) AS BIGINT) AS n_docs, "
            "CAST(sum(n_chars) AS BIGINT) AS sum_chars FROM h "
            "GROUP BY 1, 2 ORDER BY 1, 2"),
        # HyperLogLog register table replayed exactly: same FNV-1a64 LE
        # fold, bucket = top-12 hash bits, rho = 1 + trailing zeros of
        # the 52-bit suffix via pure-integer bit_count((w & -w) - 1)
        # (the trailing-zero convention is exact in BOTH engines —
        # pipelines/sketches.py documents why leading-zero floor(log2)
        # is not)
        # per-domain crawl quota: first 25 docs by doc_id per registered
        # domain — SQL row_number replay over the same domain derivation
        "domain_capped_docs": (
            f"WITH dd AS (SELECT 'example' || (doc_id % 11) || {_TLD_SQL} "
            "AS domain, doc_id FROM documents), "
            "r AS (SELECT domain, doc_id, row_number() OVER ("
            "PARTITION BY domain ORDER BY doc_id) AS rn FROM dd) "
            "SELECT domain, doc_id FROM r WHERE rn <= 25 "
            "ORDER BY domain, doc_id"),
        # float64 quantile_disc via the IEEE-754 order-isomorphic key
        "event_value_quantiles": (
            " UNION ALL ".join(
                f"SELECT event_type, CAST({q} AS DOUBLE) AS q, "
                f"quantile_disc(value, {q}) AS quantile "
                "FROM events GROUP BY event_type" for q in
                (0.25, 0.5, 0.75, 0.9, 0.99))),
        # Count-Min frequency sketch over whitespace tokens: cell (r, c)
        # counts tokens with FNV(FNV(token) XOR r) % 2048 == c — both
        # FNV folds have verified DuckDB replays; cells are
        # order-independent sums so the replay is exact
        "cms_token_registers": (
            "WITH toks AS (SELECT unnest(list_filter(string_split("
            "text, ' '), x -> x <> '')) AS word FROM documents), "
            f"h0 AS (SELECT ({_fnv_str_sql('word')}) AS base FROM toks), "
            "hr AS (SELECT g.r, "
            f"({_fnv_u64le_sql('xor(base, CAST(g.r AS UBIGINT))')}) AS h "
            "FROM h0, generate_series(0, 3) AS g(r)) "
            "SELECT CAST(r AS BIGINT) AS row, "
            "CAST(h % 2048 AS BIGINT) AS cell, "
            "CAST(count(*) AS BIGINT) AS cnt FROM hr "
            "GROUP BY 1, 2 ORDER BY 1, 2"),
        "hll_user_registers": (
            "WITH h AS (SELECT "
            f"({_fnv_u64le_sql('CAST(user_id AS UBIGINT)')}) AS h "
            "FROM events), "
            "wb AS (SELECT h >> 52 AS bucket, "
            "h & CAST(4503599627370495 AS UBIGINT) AS w FROM h), "
            "r AS (SELECT bucket, CASE WHEN w = 0 THEN 53 ELSE "
            "1 + bit_count((w & ((~w) + CAST(1 AS UBIGINT))) "
            "- CAST(1 AS UBIGINT)) END AS rho FROM wb) "
            "SELECT CAST(bucket AS BIGINT) AS bucket, "
            "CAST(max(rho) AS BIGINT) AS maxrho FROM r "
            "GROUP BY bucket ORDER BY bucket"),
        # the window-function form of the same domain derivation — the
        # oracle for the two-phase group-wise top-k
        "domain_topk_docs": (
            f"WITH dd AS (SELECT 'example' || (doc_id % 11) || {_TLD_SQL} "
            "AS domain, doc_id, n_chars FROM documents), "
            "r AS (SELECT domain, doc_id, n_chars, row_number() OVER "
            "(PARTITION BY domain ORDER BY n_chars DESC, doc_id) AS rank "
            "FROM dd) "
            "SELECT domain, CAST(rank AS BIGINT) AS rank, doc_id, "
            "CAST(n_chars AS BIGINT) AS n_chars FROM r WHERE rank <= 3 "
            "ORDER BY domain, rank"),
        # WARC round-trip: html -> gzip-member WARC -> parse -> extract is
        # byte-identical per url, so the oracle is the documents table
        "warc_extract": (
            "SELECT doc_id, 'https://docs.example/d/' || doc_id AS url, "
            "CAST(n_chars AS BIGINT) AS n_chars FROM documents "
            "ORDER BY doc_id"),
        # C4-style span dedup: first (doc_id, span_idx) per distinct span
        "composite_quality_dedup_bm25": _composite_sql(
            ["merge", "sort"], 10, 30),
        "crawl_refresh_bm25": _refresh_sql(["merge", "sort"], 10, 30),
        "span_dedup": (
            "WITH sp AS (SELECT doc_id, unnest(l) AS span, "
            "CAST(generate_subscripts(l, 1) - 1 AS BIGINT) AS span_idx "
            "FROM (SELECT doc_id, string_split(text, '. ') AS l "
            "FROM documents)), "
            "r AS (SELECT doc_id, span_idx, row_number() OVER ("
            "PARTITION BY span ORDER BY doc_id, span_idx) AS rn FROM sp) "
            "SELECT doc_id, span_idx FROM r WHERE rn = 1 "
            "ORDER BY doc_id, span_idx"),
        "flagship_xapian_search": _flagship_sql(),
        "multimodal_features": _multimodal_sql("multimodal_features"),
        "jpeg_features": _jpeg_sql(),
        "mjpeg_frame_features": _mjpeg_sql(),
        "mpeg1_frame_features": _mpeg1_sql(),
        "video_frame_features": _multimodal_sql("video_frame_features"),
        "audio_chunk_features": _multimodal_sql("audio_chunk_features"),
    }
