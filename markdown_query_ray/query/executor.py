"""Query execution: posting decode -> boolean algebra -> BM25 top-k.

Two scoring engines, both correctness-tested against each other and the
sequential oracle:

- **exhaustive**: fully vectorized numpy evaluation of the query tree over
  the decoded postings of one doc-bucket. At test scale this is usually
  faster than any pruning (every op is a C kernel); it is also the semantics
  oracle.
- **block-max top-k** (:func:`block_topk_tree`, OR trees of Term/SYNONYM
  leaves): a threshold seeded from the highest-bound blocks prunes every
  block whose (max_wdf, min_doclen) upper bound cannot reach it, and the
  surviving docs are rescored exactly — the vectorized counterpart of the
  reference's maxweight matcher loop (matcher/multimatch.cc:560-720).
  When pruning would keep most postings it declines and the exhaustive
  engine runs instead.

``query.session.SearchSession`` is the one driver over both engines:
:func:`search`, :func:`search_bucket` and :func:`count_matches` call into it.

Distribution model: doc-buckets partition the doc-id space, so per-bucket
top-k lists merge into the global top-k by concatenation (no re-scoring) —
scorer tasks run as a ``map_batches`` over a control dataset of bucket ids,
each reading only the partitions ``part-{hash(term) % P * S + bucket}``.
The driver-side merge keeps the reference's MSet order
(matcher/msetcmp.cc:51-59 tie-break: score desc, doc_id asc).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import BM25Params, QueryConfig
from ..functions.introselect import nth_element
from ..index.codec import decode_blocks
from ..index.reader import IndexReader
from .ast import (
    And,
    AndMaybe,
    AndNot,
    EliteSet,
    Filter,
    MatchAll,
    Or,
    Phrase,
    ScaleWeight,
    Synonym,
    Term,
    Wildcard,
    Xor,
    query_terms,
)
from .scorer import TermWeight, synonym_termfreq_estimate


class Postings:
    """Decoded postings of one term within one bucket: parallel arrays
    sorted by doc_id. ``pos_off``/``pos_vals`` (positional indexes only):
    posting i's in-document positions are
    ``pos_vals[pos_off[i]:pos_off[i+1]]``.

    Positions decode LAZILY (the skip structure of NOTES_r2 item 2):
    loading a term stores only ``pos_sel`` (None = every posting alive,
    else alive row indices into the term's block slice); the per-posting
    byte ranges into the still-encoded payload are computed on FIRST
    positional access (one varint-terminator scan, no value decode), and
    actual position values decode only for the candidate postings a
    phrase verification gathers. A pure-BM25 query over a positional
    index therefore does zero positional work, and a selective phrase
    decodes only its AND intersection's payloads — previously every
    loaded term paid a full decode (0.73 s warm per 10M-position term)."""

    __slots__ = ("ids", "tfs", "dls", "block_of", "blocks",
                 "pos_off", "pos_vals",
                 "pos_sel", "pos_bytes", "pos_starts", "pos_ends", "npos")

    def __init__(self, ids, tfs, dls, block_of=None, blocks=None,
                 pos_off=None, pos_vals=None, pos_sel=None):
        self.ids = ids
        self.tfs = tfs
        self.dls = dls
        self.block_of = block_of
        self.blocks = blocks
        self.pos_off = pos_off
        self.pos_vals = pos_vals
        self.pos_sel = pos_sel
        self.pos_bytes = None
        self.pos_starts = None
        self.pos_ends = None
        self.npos = None

    def _ensure_pos_ranges(self) -> None:
        """Build the positional skip structure (per-posting [start, end)
        byte ranges + counts over the encoded payload) without decoding any
        position values: decode the tiny ``npos`` varints, then one
        vectorized terminator scan over the payload bytes. Applies the
        tombstone selection so the ranges align with ``self.ids``."""
        if self.pos_starts is not None or self.pos_off is not None:
            return
        blocks = self.blocks
        if blocks is None or "npos_enc" not in blocks.column_names:
            raise KeyError("index was built without positions")
        from ..index.codec import _cat_binary, decode_varints

        npos = decode_varints(np.frombuffer(
            _cat_binary(blocks.column("npos_enc")), np.uint8)) \
            .astype(np.int64)
        pbytes = np.frombuffer(_cat_binary(blocks.column("pos_enc")),
                               np.uint8)
        val_ends = np.nonzero((pbytes & 0x80) == 0)[0] + 1
        cum = np.cumsum(npos)
        ends = np.zeros(len(npos) + 1, np.int64)
        nz = cum > 0
        ends[1:][nz] = val_ends[cum[nz] - 1]
        np.maximum.accumulate(ends, out=ends)
        starts, ends = ends[:-1], ends[1:]
        if self.pos_sel is not None:
            starts = starts[self.pos_sel]
            ends = ends[self.pos_sel]
            npos = npos[self.pos_sel]
        self.pos_bytes, self.pos_starts, self.pos_ends, self.npos = \
            pbytes, starts, ends, npos

    def gather_positions(self, idx: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
        """(concatenated absolute positions, per-position candidate rank)
        of the postings ``idx`` (rows into this object's arrays). Decodes
        ONLY those postings' payload slices — one byte gather + one varint
        decode + one segmented prefix sum, all vectorized."""
        if self.pos_vals is not None:  # eager form (tests, empty())
            starts = self.pos_off[idx]
            counts = (self.pos_off[idx + 1] - starts).astype(np.int64)
            total = int(counts.sum())
            doc_of = np.repeat(np.arange(len(idx), dtype=np.int64), counts)
            base = np.repeat(np.cumsum(counts) - counts, counts)
            src = starts[doc_of] + (np.arange(total, dtype=np.int64) - base)
            return self.pos_vals[src].astype(np.uint64), doc_of
        self._ensure_pos_ranges()
        from ..index.codec import _seg_positions, decode_varints

        bstarts = self.pos_starts[idx]
        blens = (self.pos_ends[idx] - bstarts).astype(np.int64)
        totb = int(blens.sum())
        brep = np.repeat(np.arange(len(idx), dtype=np.int64), blens)
        bbase = np.repeat(np.cumsum(blens) - blens, blens)
        src = bstarts[brep] + (np.arange(totb, dtype=np.int64) - bbase)
        vals = decode_varints(self.pos_bytes[src])
        counts = self.npos[idx]
        positions = _seg_positions(vals, counts)
        doc_of = np.repeat(np.arange(len(idx), dtype=np.int64), counts)
        return positions, doc_of

    def positions(self, i: int) -> np.ndarray:
        if self.pos_vals is not None:
            return self.pos_vals[self.pos_off[i]:self.pos_off[i + 1]]
        return self.gather_positions(np.asarray([i], np.int64))[0]

    @staticmethod
    def empty() -> "Postings":
        e = np.empty(0, np.uint64)
        return Postings(e, e.copy(), e.copy(),
                        pos_off=np.zeros(1, np.int64),
                        pos_vals=np.empty(0, np.uint64))


class ScoredSet:
    """Sorted doc_ids with accumulated scores (an evaluated subtree)."""

    __slots__ = ("ids", "scores")

    def __init__(self, ids: np.ndarray, scores: np.ndarray):
        self.ids = ids
        self.scores = scores

    @staticmethod
    def empty() -> "ScoredSet":
        return ScoredSet(np.empty(0, np.uint64), np.empty(0, np.float64))


def _accumulate(ids_list, scores_list) -> ScoredSet:
    """Union with score summation. np.add.at accumulates in input order, so
    the per-doc float summation order is the fixed term order — bit-stable
    across partitionings (SURVEY.md §7.3 item 6)."""
    if not ids_list:
        return ScoredSet.empty()
    all_ids = np.concatenate(ids_list)
    all_scores = np.concatenate(scores_list)
    uniq, inv = np.unique(all_ids, return_inverse=True)
    out = np.zeros(len(uniq), np.float64)
    np.add.at(out, inv, all_scores)
    return ScoredSet(uniq, out)


def _lookup_scores(s: ScoredSet, ids: np.ndarray) -> np.ndarray:
    """Scores of ``ids`` (must all be present in s.ids)."""
    idx = np.searchsorted(s.ids, ids)
    return s.scores[idx]


def _ordered_within(plists: list[np.ndarray], window: int) -> bool:
    """True if positions q1 < q2 < ... < qm exist with q_i drawn from
    plists[i] and qm - q1 <= window - 1 (OP_PHRASE semantics: terms in
    order within the window)."""
    for start in plists[0]:
        prev = start
        ok = True
        for pl in plists[1:]:
            nxt = pl[np.searchsorted(pl, prev, side="right"):]
            if len(nxt) == 0:
                return False  # no later occurrence: no later start works
            prev = nxt[0]
            if prev - start > window - 1:
                ok = False
                break
        if ok:
            return True
    return False


def _sdr_exists(cands: list[np.ndarray]) -> bool:
    """System of distinct representatives (small m): backtracking, fewest
    candidates first."""
    order = sorted(range(len(cands)), key=lambda i: len(cands[i]))
    used: set[int] = set()

    def rec(k: int) -> bool:
        if k == len(order):
            return True
        for p in cands[order[k]]:
            p = int(p)
            if p not in used:
                used.add(p)
                if rec(k + 1):
                    return True
                used.discard(p)
        return False

    return rec(0)


def _unordered_within(plists: list[np.ndarray], window: int) -> bool:
    """True if every slot can take a DISTINCT position inside some
    window-wide span, any order (OP_NEAR). Distinctness matters when the
    same term fills several slots ("wet NEAR wet" needs two occurrences;
    verified vs the real engine)."""
    allpos = np.unique(np.concatenate(plists))
    for base in allpos:
        hi = base + window - 1
        cands = [pl[(pl >= base) & (pl <= hi)] for pl in plists]
        if any(len(c) == 0 for c in cands):
            continue
        if _sdr_exists(cands):
            return True
    return False


# --- vectorized many-doc window verification --------------------------------
# The scalar checks above are the SPEC (property-tested against brute force
# and the real engine); the *_many versions below verify ALL candidate docs
# in a handful of numpy passes via doc-keyed positions: key = doc_rank * BIG
# + position with BIG > max_position + window, so per-term concatenations
# stay globally sorted and one searchsorted per chain step serves every doc
# at once. A stopword-grade phrase over a huge AND intersection was
# previously a doc-at-a-time Python loop (VERDICT r1 item 4).


def _ordered_within_many(plists: list["Postings"],
                         idxs: list[np.ndarray], window: int) -> np.ndarray:
    """Vectorized OP_PHRASE check over all candidate docs: greedy
    earliest-successor chains for EVERY start position of the first term,
    advanced one searchsorted per term. Returns a bool keep-mask over the
    candidate docs."""
    n = len(idxs[0])
    if n == 0:
        return np.zeros(0, bool)
    pos0, doc0 = plists[0].gather_positions(idxs[0])
    maxpos = int(pos0.max(initial=0))
    keyed = []
    for p, ix in zip(plists[1:], idxs[1:]):
        fpos, fdoc = p.gather_positions(ix)
        if len(fpos):
            maxpos = max(maxpos, int(fpos.max()))
        keyed.append((fpos, fdoc))
    big = np.uint64(maxpos + window + 2)
    cur = doc0.astype(np.uint64) * big + pos0
    start_keys = cur.copy()
    start_docs = doc0
    alive = np.ones(len(cur), bool)
    for fpos, fdoc in keyed:
        k = fdoc.astype(np.uint64) * big + fpos
        pos = np.searchsorted(k, cur, side="right")
        ok = pos < len(k)
        capped = np.minimum(pos, max(len(k) - 1, 0))
        if len(k):
            nxt = k[capped]
            # chains never leave their doc: the successor's doc (an int64
            # array lookup) must equal the start's doc — avoids u64 key
            # division, which numpy executes as a scalar loop
            same_doc = ok & (fdoc[capped] == start_docs)
        else:
            nxt = cur
            same_doc = np.zeros(len(cur), bool)
        alive &= same_doc
        cur = np.where(alive, nxt, cur)
    with np.errstate(over="ignore"):
        alive &= (cur - start_keys) <= np.uint64(window - 1)
    keep = np.zeros(n, bool)
    keep[start_docs[alive]] = True
    return keep


def _unordered_within_many(plists: list["Postings"],
                           idxs: list[np.ndarray], window: int) -> np.ndarray:
    """Vectorized OP_NEAR check over all candidate docs. Two different terms
    can never share a position (one token per position), so the
    distinct-representative requirement decomposes per distinct term:
    a window [base, base+window-1] works iff every distinct term has at
    least (its slot multiplicity) positions inside it — Hall's condition
    over pairwise-disjoint candidate sets. Candidate bases = every position
    of every slot (superset of the scalar spec's union)."""
    n = len(idxs[0])
    if n == 0:
        return np.zeros(0, bool)
    # group duplicate slots: same Postings object => same term (the
    # evaluator's postings cache hands duplicate slots one shared object)
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(plists):
        groups.setdefault(id(p), []).append(i)
    gathered = {}
    maxpos = 0
    for gid, slots in groups.items():
        i = slots[0]
        fpos, fdoc = plists[i].gather_positions(idxs[i])
        if len(fpos):
            maxpos = max(maxpos, int(fpos.max()))
        gathered[gid] = (fpos, fdoc, len(slots))
    big = np.uint64(maxpos + window + 2)
    all_keys = np.concatenate([
        fdoc.astype(np.uint64) * big + fpos
        for fpos, fdoc, _ in gathered.values()])
    all_docs = np.concatenate([fdoc for _, fdoc, _ in gathered.values()])
    # keys are already unique — one token occupies one position, and
    # duplicate slots were grouped above — so a sort suffices (np.unique
    # would pay an extra dedupe pass); doc ranks ride along to avoid u64
    # key division (a scalar loop in numpy)
    order = np.argsort(all_keys)
    bases = all_keys[order]
    base_docs = all_docs[order]
    ok = np.ones(len(bases), bool)
    for fpos, fdoc, mult in gathered.values():
        k = fdoc.astype(np.uint64) * big + fpos
        lo = np.searchsorted(k, bases, side="left")
        hi = np.searchsorted(k, bases + np.uint64(window), side="left")
        ok &= (hi - lo) >= mult
    keep = np.zeros(n, bool)
    keep[base_docs[ok]] = True
    return keep


class Evaluator:
    """Evaluates a query AST over one bucket's postings (exhaustive path)."""

    def __init__(self, reader: IndexReader, params: BM25Params,
                 bucket: int | None = None):
        self.reader = reader
        self.params = params
        self.bucket = bucket
        self._postings_cache: dict[str, Postings] = {}
        # verified phrase results: the index snapshot an evaluator sees is
        # immutable, and positional verification over a stopword-grade
        # intersection costs ~1 s per 10M candidate positions — a cached
        # SearchSession re-running the same phrase every keystroke must
        # not re-verify (keyed by the node's full semantics)
        self._phrase_cache: dict[tuple, ScoredSet] = {}

    # -- postings access -----------------------------------------------------
    def _load_terms(self, terms: list[str]) -> None:
        missing = [t for t in set(terms) if t not in self._postings_cache]
        if not missing:
            return
        blocks = self.reader.load_blocks(missing, self.bucket)
        ids, tfs, dls, block_of = decode_blocks(
            blocks, codec=self.reader.gstats.get("codec", "varint"))
        bterms = np.asarray(blocks.column("term").to_pylist(), dtype=object)
        nb = len(bterms)
        # positions are NOT decoded here: each Postings keeps its block
        # slice and decodes lazily per candidate (Postings.gather_positions)
        has_pos = "npos_enc" in blocks.column_names
        # rows arrive (term, doc)-sorted, so each term occupies ONE
        # contiguous block range and ONE contiguous row range: find the
        # boundaries once (single O(nb) pass) and hand out zero-copy slices
        # instead of per-term O(n_rows) mask scans
        bchange = np.ones(nb, bool)
        if nb > 1:
            bchange[1:] = bterms[1:] != bterms[:-1]
        bstarts = np.nonzero(bchange)[0]
        bends = np.append(bstarts[1:], nb)
        row_bounds = np.zeros(nb + 1, np.int64)
        np.cumsum(blocks.column("n").to_numpy().astype(np.int64),
                  out=row_bounds[1:])
        ranges = {bterms[bs]: (bs, be, int(row_bounds[bs]),
                               int(row_bounds[be]))
                  for bs, be in zip(bstarts, bends)}
        # updated index: postings of replaced doc versions are dropped at
        # decode time (index/update.py tombstones)
        ts = self.reader.tombstones
        alive = ~np.isin(ids, ts) if len(ts) and len(ids) else None
        for t in missing:
            rng = ranges.get(t)
            if rng is None:
                self._postings_cache[t] = Postings.empty()
                continue
            bs, be, rs, re_ = rng
            tblocks = blocks.slice(bs, be - bs)
            bof = block_of[rs:re_] - bs
            if alive is None or alive[rs:re_].all():
                self._postings_cache[t] = Postings(
                    ids[rs:re_], tfs[rs:re_], dls[rs:re_], bof, tblocks)
                continue
            sel = alive[rs:re_]
            if not sel.any():
                self._postings_cache[t] = Postings.empty()
                continue
            pos_kw = {}
            if has_pos:
                # lazy skip structure: remember which rows of the term's
                # block slice survive the tombstones; byte ranges resolve
                # on first positional access
                pos_kw = {"pos_sel": np.nonzero(sel)[0]}
            self._postings_cache[t] = Postings(
                ids[rs:re_][sel], tfs[rs:re_][sel], dls[rs:re_][sel],
                bof[sel], tblocks, **pos_kw)

    def postings(self, term: str) -> Postings:
        self._load_terms([term])
        return self._postings_cache[term]

    def prefetch(self, node) -> None:
        """Load every term the tree can touch (wildcards pre-expanded) in
        ONE batched read — a cold 4-token partial query otherwise issues
        dozens of per-term parquet reads against the same partition files
        (each OR/SYNONYM child loading lazily)."""
        terms: list[str] = []

        def walk(n):
            if isinstance(n, Term):
                terms.append(n.text)
            elif isinstance(n, Phrase):
                terms.extend(n.terms)
            elif isinstance(n, Wildcard):
                terms.extend(self.reader.expand_wildcard(
                    n.prefix, n.limit, n.most_frequent))
            elif isinstance(n, (Or, And, Xor, Synonym, EliteSet)):
                for c in n.children:
                    walk(c)
            elif isinstance(n, (AndNot, AndMaybe, Filter)):
                walk(n.left)
                walk(n.right)
            elif isinstance(n, ScaleWeight):
                walk(n.child)

        walk(node)
        if terms:
            uniq = list(dict.fromkeys(terms))
            self._load_terms(uniq)
            self.reader.term_stats(uniq)  # one batched read warms the cache

    def weight(self, term: str, wqf: int = 1,
               termfreq: int | None = None) -> TermWeight:
        if termfreq is None:
            st = self.reader.term_stats([term]).get(term)
            termfreq = st["termfreq"] if st else 0
        return TermWeight(self.params, self.reader.n_docs,
                          self.reader.avg_doclen, termfreq, wqf)

    # -- tree evaluation -----------------------------------------------------
    def evaluate(self, node) -> ScoredSet:
        from .compiler import MatchNothing

        if isinstance(node, MatchNothing):
            return ScoredSet.empty()

        if isinstance(node, MatchAll):
            ids = self.reader.doc_ids_in_bucket(self.bucket)
            return ScoredSet(ids, np.zeros(len(ids), np.float64))

        if isinstance(node, Term):
            p = self.postings(node.text)
            if len(p.ids) == 0:
                return ScoredSet.empty()
            w = self.weight(node.text, node.wqf)
            return ScoredSet(p.ids.copy(), w.sumpart(p.tfs, p.dls))

        if isinstance(node, Wildcard):
            # parser wraps WILDCARD in SYNONYM; a bare wildcard scores the
            # same way (combiner OR inside a synonym pseudo-term)
            return self.evaluate(Synonym((node,)))

        if isinstance(node, Synonym):
            return self._eval_synonym(node)

        if isinstance(node, Or):
            parts = [self.evaluate(c) for c in node.children]
            return _accumulate([p.ids for p in parts if len(p.ids)],
                               [p.scores for p in parts if len(p.ids)])

        if isinstance(node, EliteSet):
            selected = self._elite_select(node)
            return self.evaluate(Or(tuple(selected)))

        if isinstance(node, And):
            parts = [self.evaluate(c) for c in node.children]
            if not parts or any(len(p.ids) == 0 for p in parts):
                return ScoredSet.empty()
            ids = parts[0].ids
            for p in parts[1:]:
                ids = ids[np.isin(ids, p.ids, assume_unique=True)]
            if len(ids) == 0:
                return ScoredSet.empty()
            scores = np.zeros(len(ids), np.float64)
            for p in parts:  # fixed child order: stable summation
                scores += _lookup_scores(p, ids)
            return ScoredSet(ids, scores)

        if isinstance(node, Phrase):
            if not self.reader.has_positions:
                # positions not indexed: AND over unstemmed terms (documented
                # superset of OP_PHRASE)
                return self.evaluate(And(tuple(Term(t) for t in node.terms)))
            return self._eval_phrase(node)

        if isinstance(node, AndNot):
            left = self.evaluate(node.left)
            right = self.evaluate(node.right)
            keep = ~np.isin(left.ids, right.ids, assume_unique=True)
            return ScoredSet(left.ids[keep], left.scores[keep])

        if isinstance(node, AndMaybe):
            left = self.evaluate(node.left)
            right = self.evaluate(node.right)
            if len(left.ids) == 0:
                return left
            boost = np.zeros(len(left.ids), np.float64)
            hit = np.isin(left.ids, right.ids, assume_unique=True)
            if hit.any():
                boost[hit] = _lookup_scores(right, left.ids[hit])
            return ScoredSet(left.ids, left.scores + boost)

        if isinstance(node, Xor):
            # QueryXor::postlist_sub_xor flattens nested XOR children
            # recursively into ONE multiway XorPostList: an odd-count doc
            # is weighted by the sum of ALL matching leaves — a nested
            # binary evaluation would drop the inner even-count pair's
            # weights (oracle-confirmed on "a XOR (b XOR c)")
            leaves: list = []

            def _flat(x):
                for c in x.children:
                    if isinstance(c, Xor):
                        _flat(c)
                    else:
                        leaves.append(c)

            _flat(node)
            parts = [self.evaluate(c) for c in leaves]
            ids_all = np.concatenate([p.ids for p in parts]) if parts \
                else np.empty(0, np.uint64)
            uniq, counts = np.unique(ids_all, return_counts=True)
            keep = uniq[counts % 2 == 1]
            scores = np.zeros(len(keep), np.float64)
            for p in parts:
                hit = np.isin(keep, p.ids, assume_unique=True)
                if hit.any():
                    scores[hit] += _lookup_scores(p, keep[hit])
            return ScoredSet(keep, scores)

        if isinstance(node, Filter):
            left = self.evaluate(node.left)
            rterms = query_terms(node.right)
            self._load_terms(rterms)
            right = self.evaluate(node.right)
            keep = np.isin(left.ids, right.ids, assume_unique=True)
            # right side is a pure boolean filter: no weight contribution
            return ScoredSet(left.ids[keep], left.scores[keep])

        if isinstance(node, ScaleWeight):
            s = self.evaluate(node.child)
            return ScoredSet(s.ids, s.scores * node.factor)

        raise TypeError(f"unknown query node {node!r}")

    def _eval_phrase(self, node: Phrase) -> ScoredSet:
        """True OP_PHRASE / OP_NEAR over a positional index
        (matcher/phrasepostlist.cc, nearpostlist.cc): AND-intersect the
        unstemmed terms, then keep docs where the terms co-occur inside a
        ``window``-wide position span — in query order for PHRASE
        (exact phrase when window == len(terms): strictly increasing
        positions with span < window forces consecutiveness), any order for
        NEAR. Scoring = sum of the member terms' BM25 parts on the surviving
        docs (phrase postlists inherit the AND weights)."""
        terms = list(node.terms)
        if not terms:
            return ScoredSet.empty()
        window = node.window if node.window else len(terms)
        if len(terms) == 1:
            return self.evaluate(Term(terms[0]))
        memo_key = (tuple(terms), window, node.ordered)
        cached = self._phrase_cache.get(memo_key)
        if cached is None:
            cached = self._eval_phrase_verified(terms, window, node.ordered)
            if len(self._phrase_cache) >= 64:  # bound long-lived sessions
                self._phrase_cache.pop(next(iter(self._phrase_cache)))
            self._phrase_cache[memo_key] = cached
        return cached

    def _eval_phrase_verified(self, terms: list[str], window: int,
                              ordered: bool) -> ScoredSet:
        plists = [self.postings(t) for t in terms]
        if any(len(p.ids) == 0 for p in plists):
            return ScoredSet.empty()
        ids = plists[0].ids
        for p in plists[1:]:
            ids = ids[np.isin(ids, p.ids, assume_unique=True)]
        if len(ids) == 0:
            return ScoredSet.empty()
        # positional verification, vectorized across the whole intersection
        # (the scalar _ordered_within/_unordered_within are the spec; the
        # _many versions run every candidate doc in a few numpy passes)
        idxs = [np.searchsorted(p.ids, ids) for p in plists]
        if ordered:
            keep = _ordered_within_many(plists, idxs, window)
        else:
            keep = _unordered_within_many(plists, idxs, window)
        ids = ids[keep]
        if len(ids) == 0:
            return ScoredSet.empty()
        weights = [self.weight(t) for t in terms]
        scores = np.zeros(len(ids), np.float64)
        for w, p, ix in zip(weights, plists, idxs):  # fixed term order
            sel = ix[keep]
            scores += w.sumpart(p.tfs[sel], p.dls[sel])
        return ScoredSet(ids, scores)

    def _synonym_terms(self, node: Synonym) -> tuple[list[str], int]:
        """(expansion terms, estimated termfreq) of a SYNONYM node, loading
        no postings. The one expansion behind scoring and _maxweight, so
        every path uses the identical estimated termfreq (and therefore
        bit-identical weights)."""
        terms: list[str] = []
        for c in node.children:
            if isinstance(c, Term):
                terms.append(c.text)
            elif isinstance(c, Wildcard):
                terms.extend(self.reader.expand_wildcard(
                    c.prefix, c.limit, c.most_frequent))
            else:
                raise TypeError("SYNONYM supports term/wildcard children")
        terms = list(dict.fromkeys(terms))  # stable dedup
        stats = self.reader.term_stats(terms)
        freqs = [stats[t]["termfreq"] for t in terms if t in stats]
        return terms, synonym_termfreq_estimate(freqs, self.reader.n_docs)

    def _synonym_parts(self, node: Synonym):
        """(expansion terms with their postings loaded, synonym TermWeight)
        — shared by the exhaustive evaluation, the subset rescorer and the
        block-max serving path."""
        terms, est_tf = self._synonym_terms(node)
        self._load_terms(terms)
        return terms, self.weight("", wqf=1, termfreq=est_tf)

    def _eval_synonym(self, node: Synonym) -> ScoredSet:
        """OP_SYNONYM: subtree as one pseudo-term — wdf = sum of child wdf
        clamped to doclen (matcher/synonympostlist.cc:66-98), termfreq from
        the pairwise independence estimate (orpostlist.cc:290-301)."""
        terms, w = self._synonym_parts(node)
        plist = [self._postings_cache[t] for t in terms]
        plist = [p for p in plist if len(p.ids)]
        if not plist:
            return ScoredSet.empty()
        all_ids = np.concatenate([p.ids for p in plist])
        all_tfs = np.concatenate([p.tfs for p in plist])
        all_dls = np.concatenate([p.dls for p in plist])
        uniq, inv = np.unique(all_ids, return_inverse=True)
        wdf = np.zeros(len(uniq), np.uint64)
        np.add.at(wdf, inv, all_tfs)
        dls = np.zeros(len(uniq), np.uint64)
        np.maximum.at(dls, inv, all_dls)  # doclen identical across terms
        wdf = np.minimum(wdf, dls)  # clamp to doclen
        return ScoredSet(uniq, w.sumpart(wdf, dls))

    def evaluate_subset(self, node, docs: np.ndarray) -> np.ndarray:
        """Exact scores of the (sorted, unique) ``docs`` under an
        Or/Term/Synonym tree — the rescorer of the block-max serving path.
        Summation structure mirrors evaluate() exactly (per-child arrays
        added in child order; integer wdf accumulation inside SYNONYM), so
        the scores are bit-identical to the exhaustive path's."""
        if isinstance(node, Term):
            p = self.postings(node.text)
            w = self.weight(node.text, node.wqf)
            s = np.zeros(len(docs), np.float64)
            if len(p.ids):
                pos = np.minimum(np.searchsorted(p.ids, docs),
                                 len(p.ids) - 1)
                hit = p.ids[pos] == docs
                if hit.any():
                    s[hit] = w.sumpart(p.tfs[pos[hit]], p.dls[pos[hit]])
            return s
        if isinstance(node, Synonym):
            terms, w = self._synonym_parts(node)
            s = np.zeros(len(docs), np.float64)
            wdf = np.zeros(len(docs), np.uint64)
            dls = np.zeros(len(docs), np.uint64)
            for t in terms:
                p = self._postings_cache[t]
                if not len(p.ids):
                    continue
                pos = np.minimum(np.searchsorted(p.ids, docs),
                                 len(p.ids) - 1)
                hit = p.ids[pos] == docs
                if hit.any():
                    wdf[hit] += p.tfs[pos[hit]]
                    dls[hit] = np.maximum(dls[hit], p.dls[pos[hit]])
            m = wdf > 0
            if m.any():
                wm = np.minimum(wdf[m], dls[m])  # clamp to doclen
                s[m] = w.sumpart(wm, dls[m])
            return s
        if isinstance(node, Or):
            s = np.zeros(len(docs), np.float64)
            for c in node.children:
                s += self.evaluate_subset(c, docs)
            return s
        raise TypeError(f"evaluate_subset: unsupported node {node!r}")

    # -- ELITE_SET selection -------------------------------------------------
    def _elite_select(self, node: EliteSet) -> list:
        """OR-like flattening + top-set_size-by-maxweight selection,
        mirroring QueryBranch::do_or_like(elite_set_size)
        (queryinternal.cc:1248-1280): OR children flatten into the same
        candidate pool, nested ELITE children apply their own selection
        first, everything else is one candidate postlist. Selection keeps
        the set_size highest-maxweight candidates
        (OrContext::select_elite_set :188-197). The subset kept when the
        cut falls inside a maxweight tie is whatever std::nth_element
        leaves in the first set_size slots — replicated bit-for-bit by
        functions/introselect.py over the query-order candidate list."""
        units: list = []

        def add(n):
            if isinstance(n, Or):
                for c in n.children:
                    add(c)
            elif isinstance(n, EliteSet):
                units.extend(self._elite_select(n))
            else:
                units.append(n)

        for c in node.children:
            add(c)
        if len(units) <= node.set_size:
            return units
        arr = [(self._maxweight(u), u) for u in units]
        nth_element(arr, node.set_size - 1, lambda a, b: a[0] > b[0])
        return [u for _, u in arr[:node.set_size]]

    def _maxweight(self, node) -> float:
        """PostList::get_maxweight of a subtree: per-term BM25 upper bound
        (BM25Weight::get_maxpart, bm25weight.cc:176-201, evaluated at the
        term's wdf_ub and the global doclen lower bound), summed across
        weighted branches (OR/AND/AND_MAYBE/XOR add child maxweights;
        AND_NOT/FILTER take the left side; SYNONYM bounds its pseudo-term
        at wdf_ub = global doclen UPPER bound per Weight::init_'s synonym
        overload, weight.cc:85-104)."""
        from .compiler import MatchNothing

        if isinstance(node, (MatchNothing, MatchAll)):
            return 0.0
        if isinstance(node, Term):
            st = self.reader.term_stats([node.text]).get(node.text)
            if not st or st["termfreq"] == 0:
                return 0.0
            w = self.weight(node.text, node.wqf, termfreq=st["termfreq"])
            # xapian's wdf bound is NOT the exact per-term max: glass stores
            # only (tf, cf, first posting) per term, so its bound is
            # cf if tf==1 else min(max(cf-first_wdf, first_wdf), global max
            # wdf) (glass_postlist.cc:176-191, glass_database.cc:797-803).
            # Reproduce it — the value changes which sub-postlists ELITE
            # keeps. (Block-max pruning keeps the exact/tighter stored bound:
            # any valid upper bound preserves rank-identity there.)
            tf, cf = st["termfreq"], st["collfreq"]
            if cf == 0 or tf == 1:
                wub = cf
            else:
                fw = self.reader.first_wdf([node.text])[node.text]
                wub = max(cf - fw, fw)
                g = self.reader.wdf_ub_global
                if g is not None:
                    wub = min(wub, g)
            return w.maxpart_global(wub, self.reader.doclen_lb)
        if isinstance(node, Wildcard):
            return self._maxweight(Synonym((node,)))
        if isinstance(node, Synonym):
            est_tf = self._synonym_terms(node)[1]
            if est_tf == 0:
                return 0.0
            w = self.weight("", wqf=1, termfreq=est_tf)
            return w.maxpart_global(self.reader.doclen_ub,
                                    self.reader.doclen_lb)
        if isinstance(node, (Or, And, AndMaybe, Xor)):
            kids = node.children if hasattr(node, "children") \
                else (node.left, node.right)
            return sum(self._maxweight(c) for c in kids)
        if isinstance(node, EliteSet):
            return sum(self._maxweight(c) for c in self._elite_select(node))
        if isinstance(node, (AndNot, Filter)):
            return self._maxweight(node.left)
        if isinstance(node, Phrase):
            return sum(self._maxweight(Term(t)) for t in node.terms)
        if isinstance(node, ScaleWeight):
            return node.factor * self._maxweight(node.child)
        raise TypeError(f"unknown query node {node!r}")


# ---------------------------------------------------------------------------
# top-k
# ---------------------------------------------------------------------------

def topk_from_scored(s: ScoredSet, k: int) -> list[tuple[float, int]]:
    """[(score, doc_id)] sorted by (score desc, doc_id asc) — the MSet order
    (matcher/msetcmp.cc:51-59)."""
    if len(s.ids) == 0:
        return []
    order = np.lexsort((s.ids, -s.scores))
    take = order[:k]
    return [(float(s.scores[i]), int(s.ids[i])) for i in take]


def merge_topk(parts: list[list[tuple[float, int]]], k: int
               ) -> list[tuple[float, int]]:
    """Driver-side merge of per-bucket top-k lists: one sort into MSet
    order (score desc, doc_id asc), then the first k."""
    allhits = [h for part in parts for h in part]
    allhits.sort(key=lambda t: (-t[0], t[1]))
    return allhits[:k]


# ---------------------------------------------------------------------------
# block-max top-k (OR trees of Term / SYNONYM leaves)
# ---------------------------------------------------------------------------

def or_tree_units(node) -> list | None:
    """If the tree is ORs (arbitrarily nested) over Term / SYNONYM leaves —
    the natural-language serving shapes, FLAG_PARTIAL expansions included —
    return the leaves in evaluation order; else None. Used to gate the
    block-max top-k: pruning bounds come from the flattened leaves while
    exact rescoring walks the original tree (evaluate_subset), so results
    stay bit-identical to the exhaustive path."""
    out: list = []

    def walk(n) -> bool:
        if isinstance(n, Term):
            out.append(n)
            return True
        if isinstance(n, Synonym):
            if not all(isinstance(c, (Term, Wildcard)) for c in n.children):
                return False
            out.append(n)
            return True
        if isinstance(n, Or):
            return all(walk(c) for c in n.children)
        return False

    return out if walk(node) else None


def _bound_entries(term_entries: list[tuple[TermWeight, "Postings"]]
                   ) -> list[dict]:
    """Per-entry block upper bounds for the pruning passes."""
    out = []
    for qorder, (w, p) in enumerate(term_entries):
        if len(p.ids) == 0:
            continue
        if p.blocks is not None and len(p.blocks):
            bub = np.asarray(w.maxpart_block(
                p.blocks.column("max_wdf").to_numpy(),
                p.blocks.column("min_doclen").to_numpy()), np.float64)
            block_of = p.block_of
            bn = p.blocks.column("n").to_numpy().astype(np.int64)
        else:
            bub = np.array([float(w.sumpart(int(p.tfs.max()),
                                            max(1, int(p.dls.min()))))])
            block_of = np.zeros(len(p.ids), np.int64)
            bn = np.array([len(p.ids)], np.int64)
        out.append({"qorder": qorder, "w": w, "p": p, "bub": bub,
                    "block_of": block_of, "bn": bn,
                    "ubg": float(bub.max())})
    return out


def block_topk_tree(ev: "Evaluator", node, k: int
                    ) -> list[tuple[float, int]] | None:
    """Block-max top-k over an OR tree of Term/SYNONYM leaves (the NL /
    FLAG_PARTIAL serving shapes), or None when the tree doesn't qualify.

    Pruning entries are the flattened leaves; a SYNONYM leaf contributes
    one entry per expansion term, bounded with the SYNONYM's own weight —
    valid because BM25's sumpart is concave in wdf at fixed doclen and
    decreasing in doclen, so
    sumpart(min(sum tf_e, dl)) <= sum_e sumpart(max_wdf_e, min_dl_e).
    Survivors are rescored exactly by walking the ORIGINAL tree
    (Evaluator.evaluate_subset), so scores are bit-identical to the
    exhaustive path; the bounds only decide what can be skipped."""
    units = or_tree_units(node)
    if units is None:
        return None
    entries: list[tuple[TermWeight, "Postings"]] = []
    for u in units:
        if isinstance(u, Term):
            entries.append((ev.weight(u.text, u.wqf), ev.postings(u.text)))
        else:  # Synonym
            terms, w = ev._synonym_parts(u)
            for t in terms:
                entries.append((w, ev.postings(t)))
    if len(entries) <= 1:
        return None
    bounds = _bound_entries(entries)
    if not bounds:
        return []
    return _block_topk_core(bounds,
                            lambda docs: ev.evaluate_subset(node, docs), k)
    # (a None return surfaces to the caller -> exhaustive evaluate(),
    # whose vectorized synonym accumulation beats per-candidate gathers
    # when pruning keeps most postings)


def _block_topk_core(terms: list[dict], exact_scores, k: int
                     ) -> list[tuple[float, int]] | None:
    """Returns None when block pruning keeps most postings anyway
    (dense/stopword-grade queries): the candidate-gather rescore then
    costs more than a straight vectorized exhaustive pass, so callers
    should fall back."""
    sum_ubg = sum(t["ubg"] for t in terms)

    # ---- pass 0: prunability regime ----------------------------------------
    # Entry e's block b prunes only when bub_e(b) < theta - (sum_ubg -
    # ubg_e). With many entries the sum-of-other-bounds term swamps any
    # achievable theta (a top-k score), so wide synonym expansions
    # (short-prefix partials) can never prune — skip the seeding pass
    # instead of paying it and bailing after pass B.
    if len(terms) > 16:
        return None

    # ---- pass A ------------------------------------------------------------
    seeds = []
    for t in terms:
        order = np.argsort(-t["bub"], kind="stable")
        covered = np.cumsum(t["bn"][order])
        nb = int(np.searchsorted(covered, k) + 1)
        bmask = np.zeros(len(t["bub"]), bool)
        bmask[order[:nb]] = True
        seeds.append(t["p"].ids[bmask[t["block_of"]]])
    d0 = np.unique(np.concatenate(seeds))
    if len(d0) >= k:
        s0 = exact_scores(d0)
        theta = float(np.partition(s0, len(s0) - k)[len(s0) - k])
    else:
        theta = -np.inf

    # ---- pass B ------------------------------------------------------------
    cands = []
    for t in terms:
        keep = t["bub"] + (sum_ubg - t["ubg"]) >= theta
        if keep.all():
            cands.append(t["p"].ids)
        elif keep.any():
            cands.append(t["p"].ids[keep[t["block_of"]]])
    if not cands:
        return []
    total = sum(len(t["p"].ids) for t in terms)
    kept = sum(len(c) for c in cands)
    if kept > 0.25 * total:
        return None  # pruning failed; exhaustive is cheaper
    docs = np.unique(np.concatenate(cands))

    # ---- pass C ------------------------------------------------------------
    scores = exact_scores(docs)
    return topk_from_scored(ScoredSet(docs, scores), k)


# ---------------------------------------------------------------------------
# public search entry points
# ---------------------------------------------------------------------------

def search_bucket(index_dir: str, node, qcfg: QueryConfig,
                  bucket: int | None) -> list[tuple[float, int]]:
    """Top-k [(score, doc_id)] of one doc-bucket (None = the whole index):
    the body of each distributed scorer task."""
    from .session import SearchSession

    return SearchSession(index_dir, qcfg).topk(node, bucket=bucket)


def count_matches(index_dir: str, node,
                  params: BM25Params | None = None) -> int:
    """Exact match count for a query tree — the analog of the reference's
    ``get_matches_estimated`` (matcher/multimatch.cc:530-555), except
    exact."""
    from .session import SearchSession

    qcfg = QueryConfig(params=params or BM25Params.xapian())
    return SearchSession(index_dir, qcfg).count_node(node)


class _ScoreBuckets:
    """map_batches body over a control dataset of bucket ids."""

    def __init__(self, index_dir: str, node, qcfg: QueryConfig):
        self.index_dir = index_dir
        self.node = node
        self.qcfg = qcfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        scores, ids = [], []
        for b in batch.column("bucket").to_pylist():
            for s, d in search_bucket(self.index_dir, self.node,
                                      self.qcfg, int(b)):
                scores.append(s)
                ids.append(d)
        return pa.table({"score": pa.array(scores, pa.float64()),
                         "doc_id": pa.array(ids, pa.uint64())})


def search(index_dir: str, node, qcfg: QueryConfig | None = None,
           with_urls: bool = False, distributed: bool | None = None
           ) -> pa.Table:
    """Top-k search over a built index. Returns (rank, doc_id, score[, url]).

    With S doc-buckets the per-bucket scorers run as Ray tasks (buckets
    partition the doc space; their top-k lists merge loss-free). A
    single-bucket index, or ``distributed=False``, scores the whole index
    in-process — the driver is already the merge point, and for one bucket
    the task round-trip is pure overhead.
    """
    from .session import SearchSession

    sess = SearchSession(index_dir, qcfg)
    S = sess.reader.S
    if distributed is None:
        distributed = S > 1
    if not (distributed and S > 1):
        return sess.search_node(node, with_urls=with_urls)
    import ray

    import ray.data

    ctrl = ray.data.from_items([{"bucket": b} for b in range(S)])
    res = ctrl.repartition(S).map_batches(
        _ScoreBuckets(index_dir, node, sess.qcfg),
        batch_format="pyarrow", batch_size=1)
    # stay Arrow: a pandas round-trip drops the schema when every block is
    # empty (a query legitimately matching nothing), and then the column
    # lookups below would KeyError (same trap as run_query_set)
    t = pa.concat_tables(ray.get(res.to_arrow_refs()))
    hits = merge_topk([list(zip(t.column("score").to_pylist(),
                                t.column("doc_id").to_pylist()))],
                      sess.qcfg.k)
    return sess.hits_table(hits, with_urls)
