"""Unicode tokenizer reproducing the reference's text->terms semantics.

The reference tokenizes through xapian-core's TermGenerator
(xapian-core-1.4.17/queryparser/termgenerator_internal.cc:140-247). The rules,
re-implemented here from that public source's behavior:

- word characters are Unicode categories L*, M*, N*, Pc
  (include/xapian/unicode.h:343-358); terms are lowercased per codepoint.
- acronym rule: >=2 uppercase ASCII letters separated by '.', with a trailing
  '.' consumed if present, failing when followed by a word char
  (``U.N.C.L.E`` -> ``uncle``; termgenerator_internal.cc:155-174).
- infix joins between letters: ``'`` ``&`` U+00B7 U+05F4 U+2027 (and U+2019 /
  U+201B normalized to ``'``) when both neighbours are word chars and not both
  digits (``AT&T`` -> ``at&t``, ``it's`` -> ``it's``;
  termgenerator_internal.cc:80-96, 213-219).
- infix joins between digits: ``, . ;`` U+037E U+0589 U+060D U+07F8 U+2044
  U+FE10 U+FE13 U+FE14 (``1,000`` -> ``1,000``;
  termgenerator_internal.cc:98-119).
- zero-width chars U+200B..U+200D, U+2060, U+FEFF are joined over and dropped
  (termgenerator_internal.cc:93-94).
- suffix rule: up to 3 trailing ``+``/``#`` kept unless followed by a word
  char or a 4th suffix char (``c++``, ``c#``, but ``fish+chips`` -> ``fish``,
  ``chips``; termgenerator_internal.cc:227-241).
- terms longer than 64 UTF-8 bytes are dropped entirely
  (termgenerator_internal.h:48-49, check at termgenerator_internal.cc:264).
- NO stopwords: the reference never sets a stopper (STOP_NONE effective).

Implemented as one compiled ``regex`` pattern plus a small post-pass — the
hot path is regex-engine C code, not a Python char loop.

Character classification and lowercasing come from ``_xapian_unicode``,
GENERATED from the reference library's own compiled Unicode tables
(tools/gen_unicode_tables.py + the oracle's ``unitable`` mode) — not from
Python's: xapian 1.4.17 predates ~30k currently-assigned codepoints, so a
\\p{L}-style class would join terms the reference splits, and xapian's
single-codepoint tolower differs from Python's full case map inside terms
at U+0130. tests/test_tokenizer_parity.py fuzzes multilingual text through
the real TermGenerator and asserts identical term/wdf/position streams.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

import regex

import numpy as np

from ..index.codec import pack_positions
from ._xapian_unicode import (
    DIGIT_CLASS,
    DIGIT_FLAT,
    DIVERGENT_FLAT,
    STEM_FLAT,
    TOLOWER,
    WORDCHAR_CLASS,
    WORDCHAR_FLAT,
)
# Letter-context infix joiners (U+2019/U+201B normalized to ' in post-pass).
_LSEP = "['&·״‧’‛]"
# Digit-context infix joiners.
_DSEP = "[,.;;։؍߸⁄︐︓︔]"
# Zero-width "ignore" characters, joined over and stripped from the term.
_ZW = "[​‌‍⁠﻿]"

def _build_pattern(wc: str, nd: str):
    """Compile the term pattern over word-char class ``wc`` / digit class
    ``nd``:

    - infix joins: digit-sep between two digits, letter-sep when the
      neighbours are not both digits, zero-width chars joined over.
    - acronym: the (?>...) atomic group mirrors xapian's no-backtracking
      consume — on failure the whole alternative fails and the general term
      is tried at the same position (``A.B.CD`` -> a, b, cd — not ``ab``).
      A '.' directly after the pairs is always consumed (p advances past it
      in the C loop) and the acronym then fails if a word char follows.
    - general term: word-char runs joined by infixes, optional +/# suffix.
    """
    sep = (
        rf"(?:(?<={nd}){_DSEP}(?={nd})"
        rf"|(?<!{nd}){_LSEP}(?={wc})"           # prev not digit
        rf"|{_LSEP}(?=(?!{nd}){wc})"            # next not digit
        rf"|{_ZW}(?={wc}))"
    )
    acronym = rf"(?P<acr>[A-Z](?>\.[A-Z])+)(?:\.(?!{wc})|(?![.])(?!{wc}))"
    term = rf"(?P<term>{wc}+(?:{sep}{wc}+)*(?:[+#]{{1,3}}(?![+#]|{wc}))?)"
    return regex.compile(rf"(?:{acronym}|{term})", regex.V1)


# Exact pattern: classes generated from xapian's OWN tables — correct for
# every codepoint, but a 703-range explicit class the engine scans linearly
# (~6x slower than property bitmaps).
_TOKEN_RE_EXACT = _build_pattern(WORDCHAR_CLASS, DIGIT_CLASS)
# Fast pattern: the regex module's property bitmaps. Identical behavior on
# any text containing no DIVERGENT codepoint (newer-Unicode assignments
# xapian 1.4.17 splits on, plus U+0130) — the common case, dispatched by a
# vectorized interval-membership guard (~54 MB/s vs ~0.6 for exact findall).
_TOKEN_RE_FAST = _build_pattern(r"[\p{L}\p{M}\p{N}\p{Pc}]", r"\p{Nd}")

_DIV_FLAT = np.asarray(DIVERGENT_FLAT, dtype=np.uint32)


def _pattern_for(text: str):
    if text.isascii():
        return _TOKEN_RE_FAST
    cps = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    if (np.searchsorted(_DIV_FLAT, cps, side="right") & 1).any():
        return _TOKEN_RE_EXACT
    return _TOKEN_RE_FAST


_POST_CHARS = "’‛​‌‍⁠﻿"
_POST_TABLE = {0x2019: "'", 0x201b: "'", 0x200b: None, 0x200c: None,
               0x200d: None, 0x2060: None, 0xfeff: None}
# Per-codepoint xapian tolower fused with the post-pass above, for the two
# characters where Python's str.lower() diverges INSIDE a term: U+0130
# (full case map: i + combining dot; xapian: plain i) and U+03A3 (Python's
# context-sensitive final sigma: xapian always maps to U+03C3).
_EXACT_LOWER = dict(TOLOWER)
_EXACT_LOWER.update(_POST_TABLE)


def tokenize(text: str, max_term_bytes: int = 64) -> list[str]:
    """Return the term stream for ``text`` (lowercased, in document order).

    Hot path: ``findall`` returns (acronym, term) group tuples in one C
    call (no per-token Match objects); ASCII terms take ``str.lower`` (same
    result as xapian's table there); non-ASCII terms take str.lower + a
    post-pass, except Σ/İ terms which need the per-codepoint table."""
    out = []
    append = out.append
    for acr, term in _pattern_for(text).findall(text):
        if acr:
            term = acr.replace(".", "").lower()
            if len(term) <= max_term_bytes:
                append(term)
            continue
        if term.isascii():
            term = term.lower()
            if len(term) <= max_term_bytes:
                append(term)
            continue
        if "Σ" in term or "İ" in term:
            term = term.translate(_EXACT_LOWER)
        else:
            term = term.lower()
            for ch in _POST_CHARS:
                if ch in term:
                    term = term.translate(_POST_TABLE)
                    break
        if term.isascii():  # normalization may have made it ASCII
            if len(term) <= max_term_bytes:
                append(term)
        elif len(term.encode("utf-8")) <= max_term_bytes:
            append(term)
    return out


def simple_tokenize(text: str, max_term_bytes: int = 64) -> list[str]:
    """Lowercase SINGLE-SPACE tokenizer ("simple" mode) — exactly
    reproducible in ANSI SQL (string_split on ' ' + list_filter), the same
    convention pipelines/textstats.py documents. ``str.split()`` (any
    whitespace) would silently diverge from the DuckDB oracle on any text
    containing tabs or newlines."""
    return [t for t in text.lower().split(" ")
            if t and len(t) <= max_term_bytes]


def should_stem(term: str) -> bool:
    """STEM_SOME gate: stem only terms starting with a lower/title/modifier/
    other-case letter (digits and symbols are not stemmed;
    termgenerator_internal.cc:63-73), per xapian's OWN category tables
    (STEM_FLAT intervals): a-z fast path for ASCII, interval bisect
    otherwise (odd index = inside a stemmable range)."""
    if not term:
        return False
    c = term[0]
    if c.isascii():
        return "a" <= c <= "z"
    return bool(bisect_right(STEM_FLAT, ord(c)) & 1)


def _load_ctok():
    """The compiled ASCII fast path (functions/_ctok.c), or None. Resolved
    lazily so importing this module never triggers a compile."""
    from .ctok import load

    return load()


def fast_tokenize(text: str, max_term_bytes: int = 64):
    """`tokenize` with the C fast path for pure-ASCII text (identical output,
    enforced by tests/test_tokenizer.py's fuzz parity suite)."""
    if text.isascii():
        ct = _load_ctok()
        if ct is not None:
            return ct.tokenize_ascii(text, max_term_bytes)
    return tokenize(text, max_term_bytes)


def fast_term_counts(text: str, stemmer=None, max_term_bytes: int = 64):
    """(term -> wdf) map for one document straight from text: the composition
    ``term_counts(tokenize(text))`` with tokenization AND counting done in C
    for pure-ASCII text. Returns a plain dict on the C path (same contents)."""
    if text.isascii():
        ct = _load_ctok()
        if ct is not None:
            counts = ct.count_ascii_terms(text, max_term_bytes)
            if stemmer is not None:
                zcounts: dict = {}
                zget = zcounts.get
                for term, n in counts.items():
                    # ASCII terms are already lowercased: stemmable iff the
                    # first char is a lowercase letter (STEM_SOME gate)
                    if "a" <= term[0] <= "z":
                        k = "Z" + stemmer(term)
                        zcounts[k] = zget(k, 0) + n
                counts.update(zcounts)
            return counts
    return term_counts(tokenize(text, max_term_bytes), stemmer=stemmer)


def fast_positional_counts(text: str, stemmer=None,
                           max_term_bytes: int = 64):
    """Positional analog of :func:`fast_term_counts`: returns
    ``(term -> wdf incl. Z-stems, term -> (npos, varint position payload))``
    for one document, with tokenize + count + position packing fused in C
    for pure-ASCII text (byte-identical to the Python fallback; positions
    are 1-based token indices delta-packed [first, gap, ...],
    termgenerator_internal.cc:269-277). Z-stems carry wdf only — STEM_SOME
    adds stems as non-positional postings."""
    if text.isascii():
        ct = _load_ctok()
        if ct is not None and hasattr(ct, "count_ascii_terms_positions"):
            cp = ct.count_ascii_terms_positions(text, max_term_bytes)
            counts = {t: v[0] for t, v in cp.items()}
            if stemmer is not None:
                zget = counts.get
                zadd: dict = {}
                for term, n in counts.items():
                    if "a" <= term[0] <= "z":
                        k = "Z" + stemmer(term)
                        zadd[k] = zadd.get(k, 0) + n
                for k, n in zadd.items():
                    counts[k] = zget(k, 0) + n
            return counts, cp
    toks = tokenize(text, max_term_bytes)
    return term_counts(toks, stemmer=stemmer), position_payloads(toks)


def position_payloads(tokens: list[str]) -> dict:
    """(term -> (npos, varint position payload)) from a token stream:
    1-based positions delta-packed [first, gap, ...] — the pure-Python
    equivalent of the C fused path's payloads (byte-identical)."""
    pos_map: dict[str, list[int]] = {}
    for i, t in enumerate(tokens):
        pos_map.setdefault(t, []).append(i + 1)
    return pack_positions(pos_map)


def position_payloads_flagged(tokens: list[tuple[str, bool]]) -> dict:
    """Like :func:`position_payloads` for a ``(term, positional)`` stream
    (CJK n-gram mode): only positional tokens advance the position counter
    or record a position — non-positional bigrams are wdf-only, exactly
    like Z-stems (termgenerator_internal.cc:180-186, add_term not
    add_posting)."""
    pos_map: dict[str, list[int]] = {}
    pos = 0
    for t, flag in tokens:
        if flag:
            pos += 1
            pos_map.setdefault(t, []).append(pos)
    return pack_positions(pos_map)


def term_counts(tokens: list[str], stemmer=None) -> Counter:
    """(term -> wdf) map for one document, STEM_SOME style: every unstemmed
    token counts 1, and each stemmable token also adds 1 to its ``Z``-prefixed
    stem (termgenerator_internal.cc:269-312). Document length is the sum of
    all wdf values including the Z-duplicates — the Xapian doclen definition
    (glass_database.cc:1121-1131) that BM25 rank-identity depends on."""
    counts: Counter = Counter(tokens)
    if stemmer is not None:
        zcounts: Counter = Counter()
        for term, n in counts.items():
            if should_stem(term):
                zcounts["Z" + stemmer(term)] += n
        counts.update(zcounts)
    return counts


# --- CJK n-gram mode -------------------------------------------------------
# xapian's optional CJK handling (queryparser/cjk-tokenizer.cc + the
# cjk_ngram branch of parse_terms, termgenerator_internal.cc:140-247),
# enabled in the reference build via XAPIAN_CJK_NGRAM / FLAG_CJK_NGRAM:
# a run of CJK word chars indexes as positional unigrams interleaved with
# non-positional bigrams (c1, c1c2, c2, c2c3, ..., cn), raw-cased.
#
# This path cannot be one regex pass: in the C loop a PENDING partial term
# survives an interposed CJK span and keeps accumulating after it — even
# across non-word chars ("a'中中 1,000" emits 中, 中中, 中 and then the
# single term "a'1,000"; verified against the real TermGenerator). So
# CJK-containing text takes a faithful Python port of the loop; text with
# no CJK-range codepoint behaves identically to plain mode and reuses it.

# [start, end+1) of the CJK ranges (cjk-tokenizer.cc:71-83).
_CJK_FLAT = np.asarray([0x2E80, 0x2F00, 0x3000, 0xA000, 0xA700, 0xA720,
                        0xAC00, 0xD7B0, 0xF900, 0xFB00, 0xFE30, 0xFE50,
                        0xFF00, 0xFFF0, 0x20000, 0x2A6E0, 0x2F800, 0x2FA20],
                       dtype=np.uint32)


def _is_cjk_cp(cp: int) -> bool:
    if cp < 0x2E80:
        return False
    return (cp <= 0x2EFF or 0x3000 <= cp <= 0x9FFF
            or 0xA700 <= cp <= 0xA71F or 0xAC00 <= cp <= 0xD7AF
            or 0xF900 <= cp <= 0xFAFF or 0xFE30 <= cp <= 0xFE4F
            or 0xFF00 <= cp <= 0xFFEF or 0x20000 <= cp <= 0x2A6DF
            or 0x2F800 <= cp <= 0x2FA1F)


def _bitmap(flat) -> np.ndarray:
    bm = np.zeros(0x110000, dtype=bool)
    it = iter(flat)
    for a, b in zip(it, it):
        bm[a:b] = True
    return bm


_WORD_BM = _bitmap(WORDCHAR_FLAT)
_DIGIT_BM = _bitmap(DIGIT_FLAT)


def is_wordchar(ch: str) -> bool:
    """xapian is_wordchar for one character (table bitmap)."""
    return bool(_WORD_BM[ord(ch)])


def _lower1(ch: str) -> str:
    """xapian's single-codepoint tolower (identity outside the table)."""
    lo = TOLOWER.get(ord(ch))
    return chr(lo) if lo is not None else ch


# check_infix / check_infix_digit (termgenerator_internal.cc:80-119) as
# char->replacement maps; "" = UNICODE_IGNORE (join, append nothing),
# missing = not an infix (term ends).
_ZW_IGNORE = {"\u200b": "", "\u200c": "", "\u200d": "", "\u2060": "",
              "\ufeff": ""}
_INFIX = {"'": "'", "&": "&", "\u00b7": "\u00b7", "\u05f4": "\u05f4",
          "\u2027": "\u2027", "\u2019": "'", "\u201b": "'", **_ZW_IGNORE}
_INFIX_DIGIT = {c: c for c in ",.;\u037e\u0589\u060d\u07f8\u2044"
                "\ufe10\ufe13\ufe14"}
_INFIX_DIGIT.update(_ZW_IGNORE)


def _parse_terms_ngram(text: str,
                       max_term_bytes: int) -> list[tuple[str, bool]]:
    """Port of parse_terms with cjk_ngram=true — see block comment above.
    Returns (term, positional) pairs in action-call order."""
    out: list[tuple[str, bool]] = []
    wb, db = _WORD_BM, _DIGIT_BM
    n = len(text)
    i = 0
    while True:
        # advance to the start of the next term
        while True:
            if i >= n:
                return out
            c = text[i]
            if wb[ord(c)]:
                ch = _lower1(c)
                break
            i += 1
        # acronym (U.N.C.L.E): ASCII uppercase only, trailing '.' consumed
        if "A" <= c <= "Z":
            p = i
            buf: list[str] = []
            while True:
                buf.append(_lower1(text[p]))
                p += 1
                if p < n and text[p] == ".":
                    p += 1
                    if p < n and "A" <= text[p] <= "Z":
                        continue
                break
            if len(buf) > 1 and (p >= n or not wb[ord(text[p])]):
                i = p
                t = "".join(buf)
                if len(t.encode("utf-8")) <= max_term_bytes:
                    out.append((t, True))
                continue
        term: list[str] = []
        run_suffix = False
        while True:
            cp = ord(text[i])
            if _is_cjk_cp(cp) and wb[cp]:
                # CJK span: unigrams positional, bigrams not; pending
                # `term` content stays and keeps accumulating after
                j = i
                while j < n:
                    cpj = ord(text[j])
                    if _is_cjk_cp(cpj) and wb[cpj]:
                        j += 1
                    else:
                        break
                span = text[i:j]
                m = len(span)
                for k in range(m):
                    uni = span[k]
                    if len(uni.encode("utf-8")) <= max_term_bytes:
                        out.append((uni, True))
                    if k + 1 < m:
                        bi = span[k:k + 2]
                        if len(bi.encode("utf-8")) <= max_term_bytes:
                            out.append((bi, False))
                i = j
                while True:  # skip to next word char; end DISCARDS term
                    if i >= n:
                        return out
                    c2 = text[i]
                    if wb[ord(c2)]:
                        ch = _lower1(c2)
                        break
                    i += 1
                continue
            # term-building do-while
            ended = False
            while True:
                term.append(ch)
                prevch = ch
                i += 1
                if i >= n or _is_cjk_cp(ord(text[i])):
                    ended = True  # goto endofterm: suffix block skipped
                    break
                c2 = text[i]
                if not wb[ord(c2)]:
                    break
                ch = _lower1(c2)
            if ended:
                break
            # infix join?
            nxt = i + 1
            if nxt < n:
                c3 = text[nxt]
                if wb[ord(c3)]:
                    infix = text[i]
                    if db[ord(prevch)] and db[ord(c3)]:
                        r = _INFIX_DIGIT.get(infix)
                    else:
                        r = _INFIX.get(infix)
                    if r is not None:
                        term.append(r)
                        ch = _lower1(c3)
                        i = nxt
                        continue
            run_suffix = True
            break
        if run_suffix:
            # up to 3 trailing +/# kept unless followed by a word char
            base = len(term)
            cnt = 0
            at_end = False
            while i < n and text[i] in "+#":
                cnt += 1
                if cnt > 3:
                    del term[base:]
                    break
                term.append(text[i])
                i += 1
                if i >= n:
                    at_end = True
                    break
            if not at_end and cnt <= 3 and i < n and wb[ord(text[i])]:
                del term[base:]
        t = "".join(term)
        if t and len(t.encode("utf-8")) <= max_term_bytes:
            out.append((t, True))
    return out


def tokenize_ngram(text: str, max_term_bytes: int = 64
                   ) -> list[tuple[str, bool]]:
    """CJK n-gram term stream: ``(term, positional)`` pairs in document
    order (CJK spans are NOT lowercased — the iterator appends raw
    codepoints, so fullwidth Ａ stays Ａ, unlike the plain path). Text
    containing no CJK-range codepoint is byte-identical to
    :func:`tokenize` and reuses it."""
    if text.isascii():
        return [(t, True) for t in tokenize(text, max_term_bytes)]
    cps = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    if not (np.searchsorted(_CJK_FLAT, cps, side="right") & 1).any():
        return [(t, True) for t in tokenize(text, max_term_bytes)]
    return _parse_terms_ngram(text, max_term_bytes)
