/* _ctok: C fast path for the xapian-semantics tokenizer (ASCII subset).
 *
 * Implements, for pure-ASCII text, exactly the term-segmentation rules of
 * markdown_query_ray/functions/xapian_tokenizer.py (which itself reproduces
 * the behavior of xapian-core 1.4.17's TermGenerator,
 * queryparser/termgenerator_internal.cc:140-247 — reimplemented from the
 * public source's behavior, not copied):
 *
 *   - word chars: [A-Za-z0-9_]  (the ASCII slice of L* M* N* Pc)
 *   - acronym rule: [A-Z](\.[A-Z])+ consumed atomically; a directly
 *     following '.' is consumed; fails if then followed by a word char
 *     ("U.N.C.L.E" -> "uncle", "A.B.CD" -> a, b, cd)
 *   - infix joins: ' and & join runs when the next char is a word char and
 *     the neighbours are not both digits ("AT&T" -> "at&t", "it's");
 *     , . ; join digit-digit ("1,000" -> "1,000")
 *   - suffix rule: a trailing run of 1-3 +/# is kept iff the run is <=3
 *     long and not followed by a word char ("c++", "c#"; "fish+chips" ->
 *     fish, chips)
 *   - terms longer than max_term_bytes are dropped entirely
 *   - terms are lowercased; acronyms additionally drop their dots
 *
 * Non-ASCII input must take the Python/regex path — the loader and the
 * tokenize stage guarantee text.isascii() before calling in.
 *
 * Exposed functions:
 *   tokenize_ascii(text, max_term_bytes) -> list[str]      (document order)
 *   count_ascii_terms(text, max_term_bytes) -> dict[str,int] (term -> wdf)
 *   count_ascii_terms_positions(text, max_term_bytes)
 *       -> dict[str, (wdf, varint-packed 1-based positions)]
 *
 * Parity with the Python implementation is enforced by
 * tests/test_tokenizer.py (shared golden cases + hypothesis fuzz).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>
#include <stdlib.h>

static inline int is_wc(unsigned char c) {
    return c == '_' || (c >= '0' && c <= '9') ||
           ((unsigned char)(c | 32) >= 'a' && (unsigned char)(c | 32) <= 'z');
}
static inline int is_dig(unsigned char c) { return c >= '0' && c <= '9'; }
static inline int is_up(unsigned char c) { return c >= 'A' && c <= 'Z'; }
static inline unsigned char lowc(unsigned char c) {
    return is_up(c) ? (unsigned char)(c | 32) : c;
}

/* ---- token arena: lowercased token bytes + (offset, len) refs ---------- */

typedef struct { char *buf; size_t len, cap; } arena_t;
typedef struct { size_t off; uint32_t len; } tokref_t;

static int arena_reserve(arena_t *a, size_t need) {
    if (a->len + need <= a->cap) return 0;
    size_t ncap = a->cap ? a->cap * 2 : 4096;
    while (ncap < a->len + need) ncap *= 2;
    char *nb = (char *)realloc(a->buf, ncap);
    if (!nb) return -1;
    a->buf = nb; a->cap = ncap;
    return 0;
}

typedef struct {
    tokref_t *refs; size_t n, cap;
    arena_t arena;
} toks_t;

static int toks_push(toks_t *t, const char *src, size_t len, int strip_dots) {
    if (t->n == t->cap) {
        size_t ncap = t->cap ? t->cap * 2 : 256;
        tokref_t *nr = (tokref_t *)realloc(t->refs, ncap * sizeof(tokref_t));
        if (!nr) return -1;
        t->refs = nr; t->cap = ncap;
    }
    if (arena_reserve(&t->arena, len)) return -1;
    char *dst = t->arena.buf + t->arena.len;
    size_t out = 0;
    for (size_t i = 0; i < len; i++) {
        unsigned char c = (unsigned char)src[i];
        if (strip_dots && c == '.') continue;
        dst[out++] = (char)lowc(c);
    }
    t->refs[t->n].off = t->arena.len;
    t->refs[t->n].len = (uint32_t)out;
    t->n++;
    t->arena.len += out;
    return 0;
}

/* ---- the scanner ------------------------------------------------------- */

static int scan_tokens(const char *s, Py_ssize_t n, Py_ssize_t max_bytes,
                       toks_t *t) {
    Py_ssize_t i = 0;
    while (i < n) {
        unsigned char c = (unsigned char)s[i];
        if (!is_wc(c)) { i++; continue; }
        Py_ssize_t start = i;
        /* acronym attempt (atomic: on tail failure, fall through to the
           general term at the same start position) */
        if (is_up(c)) {
            Py_ssize_t k = i + 1;
            while (k + 1 < n && s[k] == '.' && is_up((unsigned char)s[k + 1]))
                k += 2;
            if (k > i + 1) {                       /* >=1 (.X) pair consumed */
                if (k < n && s[k] == '.') {
                    if (!(k + 1 < n && is_wc((unsigned char)s[k + 1]))) {
                        Py_ssize_t letters = (k - i + 1) / 2;
                        if (letters <= max_bytes &&
                            toks_push(t, s + i, (size_t)(k - i), 1))
                            return -1;
                        i = k + 1;
                        continue;
                    }
                } else if (!(k < n && is_wc((unsigned char)s[k]))) {
                    Py_ssize_t letters = (k - i + 1) / 2;
                    if (letters <= max_bytes &&
                        toks_push(t, s + i, (size_t)(k - i), 1))
                        return -1;
                    i = k;
                    continue;
                }
                /* tail failed: general term from `start` */
            }
        }
        /* general term: word-char runs joined by infix separators */
        Py_ssize_t j = start;
        while (j < n && is_wc((unsigned char)s[j])) j++;
        for (;;) {
            if (j >= n) break;
            unsigned char c2 = (unsigned char)s[j];
            if ((c2 == '\'' || c2 == '&') && j + 1 < n &&
                is_wc((unsigned char)s[j + 1]) &&
                !(is_dig((unsigned char)s[j - 1]) &&
                  is_dig((unsigned char)s[j + 1]))) {
                j++;
                while (j < n && is_wc((unsigned char)s[j])) j++;
                continue;
            }
            if ((c2 == ',' || c2 == '.' || c2 == ';') &&
                is_dig((unsigned char)s[j - 1]) && j + 1 < n &&
                is_dig((unsigned char)s[j + 1])) {
                j++;
                while (j < n && is_wc((unsigned char)s[j])) j++;
                continue;
            }
            break;
        }
        Py_ssize_t end = j;
        if (j < n && (s[j] == '+' || s[j] == '#')) {
            Py_ssize_t run = 0;
            while (j + run < n && (s[j + run] == '+' || s[j + run] == '#'))
                run++;
            if (run <= 3 && !(j + run < n && is_wc((unsigned char)s[j + run])))
                end = j + run;
        }
        if (end - start <= max_bytes &&
            toks_push(t, s + start, (size_t)(end - start), 0))
            return -1;
        i = end;
    }
    return 0;
}

/* ---- hashing for the per-document count table -------------------------- */

static inline uint64_t fnv1a(const char *p, uint32_t len) {
    uint64_t h = 14695981039346656037ULL;
    for (uint32_t i = 0; i < len; i++) {
        h ^= (unsigned char)p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

typedef struct { uint64_t hash; size_t off; uint32_t len, count; } slot_t;

static PyObject *count_ascii_terms(PyObject *self, PyObject *args) {
    const char *s; Py_ssize_t n; Py_ssize_t max_bytes = 64;
    if (!PyArg_ParseTuple(args, "s#|n", &s, &n, &max_bytes)) return NULL;
    toks_t t; memset(&t, 0, sizeof t);
    if (scan_tokens(s, n, max_bytes, &t)) goto nomem;
    size_t cap = 64;
    while (cap < t.n * 2) cap *= 2;
    slot_t *tab = (slot_t *)calloc(cap, sizeof(slot_t));
    if (!tab) goto nomem;
    size_t nuniq = 0;
    for (size_t ti = 0; ti < t.n; ti++) {
        const char *p = t.arena.buf + t.refs[ti].off;
        uint32_t len = t.refs[ti].len;
        uint64_t h = fnv1a(p, len);
        size_t idx = (size_t)h & (cap - 1);
        for (;;) {
            slot_t *sl = &tab[idx];
            if (sl->count == 0) {
                sl->hash = h; sl->off = t.refs[ti].off;
                sl->len = len; sl->count = 1; nuniq++;
                break;
            }
            if (sl->hash == h && sl->len == len &&
                memcmp(t.arena.buf + sl->off, p, len) == 0) {
                sl->count++;
                break;
            }
            idx = (idx + 1) & (cap - 1);
        }
    }
    PyObject *d = PyDict_New();
    if (!d) { free(tab); goto nomem; }
    for (size_t idx = 0; idx < cap && nuniq; idx++) {
        if (tab[idx].count == 0) continue;
        nuniq--;
        PyObject *k = PyUnicode_FromStringAndSize(
            t.arena.buf + tab[idx].off, tab[idx].len);
        PyObject *v = k ? PyLong_FromUnsignedLong(tab[idx].count) : NULL;
        if (!k || !v || PyDict_SetItem(d, k, v) < 0) {
            Py_XDECREF(k); Py_XDECREF(v); Py_DECREF(d); free(tab);
            goto nomem;
        }
        Py_DECREF(k); Py_DECREF(v);
    }
    free(tab);
    free(t.refs); free(t.arena.buf);
    return d;
nomem:
    free(t.refs); free(t.arena.buf);
    if (!PyErr_Occurred()) PyErr_NoMemory();
    return NULL;
}

/* count_ascii_terms_positions: one-pass fusion of tokenize + count +
 * per-term position-list packing for positional indexes. Returns
 * dict[term, (wdf, payload)] where payload is the term's 1-based token
 * positions delta-packed as LEB128 varints [first, gap, gap, ...] — the
 * exact byte format index/codec.py's pack_positions produces, so the
 * Python fallback (term_counts + position_payloads) is byte-identical
 * (fuzz-parity-tested). */
static PyObject *count_ascii_terms_positions(PyObject *self, PyObject *args) {
    const char *s; Py_ssize_t n; Py_ssize_t max_bytes = 64;
    if (!PyArg_ParseTuple(args, "s#|n", &s, &n, &max_bytes)) return NULL;
    toks_t t; memset(&t, 0, sizeof t);
    uint32_t *tok_slot = NULL, *positions = NULL, *slot_start = NULL,
             *slot_fill = NULL;
    slot_t *tab = NULL;
    unsigned char *scratch = NULL;
    if (scan_tokens(s, n, max_bytes, &t)) goto nomem;
    size_t cap = 64;
    while (cap < t.n * 2) cap *= 2;
    tab = (slot_t *)calloc(cap, sizeof(slot_t));
    tok_slot = (uint32_t *)malloc((t.n ? t.n : 1) * sizeof(uint32_t));
    if (!tab || !tok_slot) goto nomem;
    size_t nuniq = 0;
    for (size_t ti = 0; ti < t.n; ti++) {
        const char *p = t.arena.buf + t.refs[ti].off;
        uint32_t len = t.refs[ti].len;
        uint64_t h = fnv1a(p, len);
        size_t idx = (size_t)h & (cap - 1);
        for (;;) {
            slot_t *sl = &tab[idx];
            if (sl->count == 0) {
                sl->hash = h; sl->off = t.refs[ti].off;
                sl->len = len; sl->count = 1; nuniq++;
                break;
            }
            if (sl->hash == h && sl->len == len &&
                memcmp(t.arena.buf + sl->off, p, len) == 0) {
                sl->count++;
                break;
            }
            idx = (idx + 1) & (cap - 1);
        }
        tok_slot[ti] = (uint32_t)idx;
    }
    /* group token positions by slot: prefix-sum starts, then a fill pass
       in token order keeps each group's positions ascending */
    positions = (uint32_t *)malloc((t.n ? t.n : 1) * sizeof(uint32_t));
    slot_start = (uint32_t *)malloc(cap * sizeof(uint32_t));
    slot_fill = (uint32_t *)calloc(cap, sizeof(uint32_t));
    if (!positions || !slot_start || !slot_fill) goto nomem;
    {
        uint32_t acc = 0;
        for (size_t idx = 0; idx < cap; idx++) {
            slot_start[idx] = acc;
            acc += tab[idx].count;
        }
    }
    for (size_t ti = 0; ti < t.n; ti++) {
        uint32_t sl = tok_slot[ti];
        positions[slot_start[sl] + slot_fill[sl]++] = (uint32_t)(ti + 1);
    }
    scratch = (unsigned char *)malloc(t.n ? t.n * 5 : 1);
    if (!scratch) goto nomem;
    PyObject *d = PyDict_New();
    if (!d) goto nomem;
    for (size_t idx = 0; idx < cap && nuniq; idx++) {
        if (tab[idx].count == 0) continue;
        nuniq--;
        uint32_t cnt = tab[idx].count;
        const uint32_t *pos = positions + slot_start[idx];
        size_t blen = 0;
        uint32_t prev = 0;
        for (uint32_t k = 0; k < cnt; k++) {
            uint32_t v = pos[k] - prev;
            prev = pos[k];
            while (v >= 0x80) {
                scratch[blen++] = (unsigned char)(v | 0x80);
                v >>= 7;
            }
            scratch[blen++] = (unsigned char)v;
        }
        PyObject *k = PyUnicode_FromStringAndSize(
            t.arena.buf + tab[idx].off, tab[idx].len);
        PyObject *v = k ? Py_BuildValue(
            "(Iy#)", cnt, (const char *)scratch, (Py_ssize_t)blen) : NULL;
        if (!k || !v || PyDict_SetItem(d, k, v) < 0) {
            Py_XDECREF(k); Py_XDECREF(v); Py_DECREF(d);
            goto nomem;
        }
        Py_DECREF(k); Py_DECREF(v);
    }
    free(scratch); free(slot_fill); free(slot_start);
    free(positions); free(tok_slot); free(tab);
    free(t.refs); free(t.arena.buf);
    return d;
nomem:
    free(scratch); free(slot_fill); free(slot_start);
    free(positions); free(tok_slot); free(tab);
    free(t.refs); free(t.arena.buf);
    if (!PyErr_Occurred()) PyErr_NoMemory();
    return NULL;
}

static PyObject *tokenize_ascii(PyObject *self, PyObject *args) {
    const char *s; Py_ssize_t n; Py_ssize_t max_bytes = 64;
    if (!PyArg_ParseTuple(args, "s#|n", &s, &n, &max_bytes)) return NULL;
    toks_t t; memset(&t, 0, sizeof t);
    if (scan_tokens(s, n, max_bytes, &t)) goto nomem;
    PyObject *lst = PyList_New((Py_ssize_t)t.n);
    if (!lst) goto nomem;
    for (size_t i = 0; i < t.n; i++) {
        PyObject *o = PyUnicode_FromStringAndSize(
            t.arena.buf + t.refs[i].off, t.refs[i].len);
        if (!o) { Py_DECREF(lst); goto nomem; }
        PyList_SET_ITEM(lst, (Py_ssize_t)i, o);
    }
    free(t.refs); free(t.arena.buf);
    return lst;
nomem:
    free(t.refs); free(t.arena.buf);
    if (!PyErr_Occurred()) PyErr_NoMemory();
    return NULL;
}

/* ---- shingle hashing for MinHash dedup --------------------------------- *
 * Tokens = maximal runs between single spaces (' ' only, exactly Python's
 * text.split(" ") with empty tokens dropped). Token hash = FNV-1a64 over the
 * token's bytes. Shingle hash = FNV-1a64 over the w consecutive token hashes'
 * little-endian bytes (one shingle of all tokens when 0 < ntok < w).
 * Returns the shingle hashes as a bytes object of little-endian uint64s.
 * The pure-numpy fallback in pipelines/dedup.py computes the identical
 * function; parity is enforced by tests.                                   */

static PyObject *shingle_hashes64(PyObject *self, PyObject *args) {
    const char *s; Py_ssize_t n; Py_ssize_t w = 3;
    if (!PyArg_ParseTuple(args, "s#|n", &s, &n, &w)) return NULL;
    if (w < 1) w = 1;
    size_t ntok = 0, captok = 256;
    uint64_t *th = (uint64_t *)malloc(captok * sizeof(uint64_t));
    if (!th) return PyErr_NoMemory();
    Py_ssize_t i = 0;
    while (i < n) {
        while (i < n && s[i] == ' ') i++;
        Py_ssize_t st = i;
        while (i < n && s[i] != ' ') i++;
        if (i > st) {
            if (ntok == captok) {
                captok *= 2;
                uint64_t *nt = (uint64_t *)realloc(th, captok * sizeof(uint64_t));
                if (!nt) { free(th); return PyErr_NoMemory(); }
                th = nt;
            }
            th[ntok++] = fnv1a(s + st, (uint32_t)(i - st));
        }
    }
    size_t nsh = ntok == 0 ? 0
               : (ntok < (size_t)w ? 1 : ntok - (size_t)w + 1);
    size_t win = ntok < (size_t)w ? ntok : (size_t)w;
    PyObject *out = PyBytes_FromStringAndSize(NULL,
                                              (Py_ssize_t)(nsh * 8));
    if (!out) { free(th); return NULL; }
    uint64_t *ob = (uint64_t *)PyBytes_AS_STRING(out);
    for (size_t sh = 0; sh < nsh; sh++) {
        uint64_t h = 14695981039346656037ULL;
        for (size_t j = 0; j < win; j++) {
            uint64_t v = th[sh + j];
            for (int b = 0; b < 8; b++) {
                h ^= (v >> (8 * b)) & 0xFF;
                h *= 1099511628211ULL;
            }
        }
        ob[sh] = h;  /* little-endian hosts only (x86/arm) */
    }
    free(th);
    return out;
}

/* Order-sensitive rolling document fingerprint over the space-split token
 * stream (same split as shingle_hashes64): h starts at the FNV-1a64 offset
 * basis and folds each token as h = (h ^ (fnv1a(token) + index)) * prime.
 * Identical to pipelines/textstats.fingerprint_batch's Python fold. */
static PyObject *rolling_fingerprint64(PyObject *self, PyObject *args) {
    const char *s; Py_ssize_t n;
    if (!PyArg_ParseTuple(args, "s#", &s, &n)) return NULL;
    uint64_t h = 14695981039346656037ULL;
    uint64_t idx = 0;
    Py_ssize_t i = 0;
    while (i < n) {
        while (i < n && s[i] == ' ') i++;
        Py_ssize_t st = i;
        while (i < n && s[i] != ' ') i++;
        if (i > st) {
            uint64_t th = fnv1a(s + st, (uint32_t)(i - st));
            h = (h ^ (th + idx)) * 1099511628211ULL;
            idx++;
        }
    }
    return PyLong_FromUnsignedLongLong(h);
}

/* Shingle hashes for EVERY string of an Arrow-layout string column in ONE
 * call — per doc identical to shingle_hashes64 (space-split tokens, FNV-1a64
 * token hashes, FNV-1a64 over each w-window's LE bytes; one whole-doc
 * shingle when 0 < ntok < w). Returns (hashes_u64le, shingle_counts_i64le,
 * token_counts_i64le) so callers can build row indices and apply
 * min-token gates without a per-doc Python loop. */
static PyObject *shingle_hashes64_multi(PyObject *self, PyObject *args) {
    Py_buffer offs, data;
    int wide = 0; Py_ssize_t w = 3;
    if (!PyArg_ParseTuple(args, "y*y*|in", &offs, &data, &wide, &w))
        return NULL;
    if (w < 1) w = 1;
    size_t item = wide ? 8 : 4;
    size_t n = offs.len >= (Py_ssize_t)item ? (size_t)offs.len / item - 1 : 0;
    PyObject *cnts = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(n * 8));
    PyObject *ntoks = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(n * 8));
    if (!cnts || !ntoks) {
        Py_XDECREF(cnts); Py_XDECREF(ntoks);
        PyBuffer_Release(&offs); PyBuffer_Release(&data);
        return NULL;
    }
    int64_t *cb = (int64_t *)PyBytes_AS_STRING(cnts);
    int64_t *nb = (int64_t *)PyBytes_AS_STRING(ntoks);
    size_t caph = 4096, nh = 0;
    uint64_t *hb = (uint64_t *)malloc(caph * sizeof(uint64_t));
    size_t captok = 256;
    uint64_t *th = (uint64_t *)malloc(captok * sizeof(uint64_t));
    if (!hb || !th) {
        free(hb); free(th); Py_DECREF(cnts); Py_DECREF(ntoks);
        PyBuffer_Release(&offs); PyBuffer_Release(&data);
        return PyErr_NoMemory();
    }
    const char *d = (const char *)data.buf;
    for (size_t di = 0; di < n; di++) {
        int64_t a, b;
        if (wide) {
            a = ((const int64_t *)offs.buf)[di];
            b = ((const int64_t *)offs.buf)[di + 1];
        } else {
            a = ((const int32_t *)offs.buf)[di];
            b = ((const int32_t *)offs.buf)[di + 1];
        }
        if (a < 0 || b < a || b > (int64_t)data.len) {
            free(hb); free(th); Py_DECREF(cnts); Py_DECREF(ntoks);
            PyBuffer_Release(&offs); PyBuffer_Release(&data);
            PyErr_SetString(PyExc_ValueError, "offsets out of range");
            return NULL;
        }
        const char *s = d + a;
        Py_ssize_t len = (Py_ssize_t)(b - a);
        size_t ntok = 0;
        Py_ssize_t i = 0;
        while (i < len) {
            while (i < len && s[i] == ' ') i++;
            Py_ssize_t st = i;
            while (i < len && s[i] != ' ') i++;
            if (i > st) {
                if (ntok == captok) {
                    captok *= 2;
                    uint64_t *nt = (uint64_t *)realloc(
                        th, captok * sizeof(uint64_t));
                    if (!nt) {
                        free(hb); free(th);
                        Py_DECREF(cnts); Py_DECREF(ntoks);
                        PyBuffer_Release(&offs); PyBuffer_Release(&data);
                        return PyErr_NoMemory();
                    }
                    th = nt;
                }
                th[ntok++] = fnv1a(s + st, (uint32_t)(i - st));
            }
        }
        size_t nsh = ntok == 0 ? 0
                   : (ntok < (size_t)w ? 1 : ntok - (size_t)w + 1);
        size_t win = ntok < (size_t)w ? ntok : (size_t)w;
        if (nh + nsh > caph) {
            while (nh + nsh > caph) caph *= 2;
            uint64_t *nhb = (uint64_t *)realloc(hb, caph * sizeof(uint64_t));
            if (!nhb) {
                free(hb); free(th); Py_DECREF(cnts); Py_DECREF(ntoks);
                PyBuffer_Release(&offs); PyBuffer_Release(&data);
                return PyErr_NoMemory();
            }
            hb = nhb;
        }
        for (size_t sh = 0; sh < nsh; sh++) {
            uint64_t h = 14695981039346656037ULL;
            for (size_t j = 0; j < win; j++) {
                uint64_t v = th[sh + j];
                for (int bb = 0; bb < 8; bb++) {
                    h ^= (v >> (8 * bb)) & 0xFF;
                    h *= 1099511628211ULL;
                }
            }
            hb[nh++] = h;
        }
        cb[di] = (int64_t)nsh;
        nb[di] = (int64_t)ntok;
    }
    PyObject *hout = PyBytes_FromStringAndSize((const char *)hb,
                                               (Py_ssize_t)(nh * 8));
    free(hb); free(th);
    PyBuffer_Release(&offs); PyBuffer_Release(&data);
    if (!hout) { Py_DECREF(cnts); Py_DECREF(ntoks); return NULL; }
    PyObject *tup = PyTuple_Pack(3, hout, cnts, ntoks);
    Py_DECREF(hout); Py_DECREF(cnts); Py_DECREF(ntoks);
    return tup;
}

/* FNV-1a64 of each string in an Arrow-layout string column: `offs` is the
 * (n+1)-long offsets vector (int32, or int64 when wide != 0) as raw bytes,
 * `data` the UTF-8 data buffer. Returns n little-endian uint64 hashes as
 * bytes. Used to assign term-hash shuffle partitions without surfacing
 * every term as a Python object. */
static PyObject *fnv1a64_offsets(PyObject *self, PyObject *args) {
    Py_buffer offs, data;
    int wide = 0;
    if (!PyArg_ParseTuple(args, "y*y*|i", &offs, &data, &wide)) return NULL;
    size_t item = wide ? 8 : 4;
    if (offs.len < (Py_ssize_t)item) {
        PyBuffer_Release(&offs); PyBuffer_Release(&data);
        return PyBytes_FromStringAndSize(NULL, 0);
    }
    size_t n = (size_t)offs.len / item - 1;
    PyObject *out = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(n * 8));
    if (!out) { PyBuffer_Release(&offs); PyBuffer_Release(&data); return NULL; }
    uint64_t *ob = (uint64_t *)PyBytes_AS_STRING(out);
    const char *d = (const char *)data.buf;
    for (size_t i = 0; i < n; i++) {
        int64_t a, b;
        if (wide) {
            a = ((const int64_t *)offs.buf)[i];
            b = ((const int64_t *)offs.buf)[i + 1];
        } else {
            a = ((const int32_t *)offs.buf)[i];
            b = ((const int32_t *)offs.buf)[i + 1];
        }
        if (a < 0 || b < a || b > (int64_t)data.len) {
            Py_DECREF(out); PyBuffer_Release(&offs); PyBuffer_Release(&data);
            PyErr_SetString(PyExc_ValueError, "offsets out of range");
            return NULL;
        }
        ob[i] = fnv1a(d + a, (uint32_t)(b - a));
    }
    PyBuffer_Release(&offs); PyBuffer_Release(&data);
    return out;
}

/* FNV-1a 128-bit over the same Arrow string-buffer layout; emits per string
 * 16 LE bytes (lo64 then hi64). 128 bits keep exact-dedup content keys
 * collision-safe at trillion-doc scale (64-bit birthday-bounds at ~4e9). */
static PyObject *fnv1a128_offsets(PyObject *self, PyObject *args) {
    Py_buffer offs, data;
    int wide = 0;
    if (!PyArg_ParseTuple(args, "y*y*|i", &offs, &data, &wide)) return NULL;
    size_t item = wide ? 8 : 4;
    if (offs.len < (Py_ssize_t)item) {
        PyBuffer_Release(&offs); PyBuffer_Release(&data);
        return PyBytes_FromStringAndSize(NULL, 0);
    }
    size_t n = (size_t)offs.len / item - 1;
    PyObject *out = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(n * 16));
    if (!out) { PyBuffer_Release(&offs); PyBuffer_Release(&data); return NULL; }
    uint64_t *ob = (uint64_t *)PyBytes_AS_STRING(out);
    const char *d = (const char *)data.buf;
    const __uint128_t basis =
        ((__uint128_t)0x6c62272e07bb0142ULL << 64) | 0x62b821756295c58dULL;
    const __uint128_t prime = ((__uint128_t)0x0000000001000000ULL << 64) |
        0x000000000000013BULL;
    for (size_t i = 0; i < n; i++) {
        int64_t a, b;
        if (wide) {
            a = ((const int64_t *)offs.buf)[i];
            b = ((const int64_t *)offs.buf)[i + 1];
        } else {
            a = ((const int32_t *)offs.buf)[i];
            b = ((const int32_t *)offs.buf)[i + 1];
        }
        if (a < 0 || b < a || b > (int64_t)data.len) {
            Py_DECREF(out); PyBuffer_Release(&offs); PyBuffer_Release(&data);
            PyErr_SetString(PyExc_ValueError, "offsets out of range");
            return NULL;
        }
        __uint128_t h = basis;
        for (int64_t j = a; j < b; j++) {
            h ^= (unsigned char)d[j];
            h *= prime;
        }
        ob[i * 2] = (uint64_t)h;
        ob[i * 2 + 1] = (uint64_t)(h >> 64);
    }
    PyBuffer_Release(&offs); PyBuffer_Release(&data);
    return out;
}

/* ---- varint (LEB128) block codec fast paths ----------------------------- *
 * Byte format identical to index/codec.py's numpy implementation (7-bit
 * groups, little-endian, high bit = continuation); parity is enforced by
 * tests/test_codec.py. Outputs are bytearrays so numpy views over them
 * stay writable.                                                           */

/* varint_encode64(uint64-LE buffer) -> (payload bytearray, ends bytearray)
 * where ends is an int64-LE array, ends[i] = exclusive end of value i. */
static PyObject *varint_encode64(PyObject *self, PyObject *args) {
    Py_buffer vals;
    if (!PyArg_ParseTuple(args, "y*", &vals)) return NULL;
    size_t n = (size_t)vals.len / 8;
    const uint64_t *v = (const uint64_t *)vals.buf;
    PyObject *ends_b = PyByteArray_FromStringAndSize(NULL,
                                                     (Py_ssize_t)(n * 8));
    unsigned char *payload = (unsigned char *)malloc(n ? n * 10 : 1);
    if (!ends_b || !payload) {
        Py_XDECREF(ends_b); free(payload); PyBuffer_Release(&vals);
        return PyErr_NoMemory();
    }
    int64_t *ends = (int64_t *)PyByteArray_AS_STRING(ends_b);
    size_t pos = 0;
    for (size_t i = 0; i < n; i++) {
        uint64_t x = v[i];
        while (x >= 0x80) {
            payload[pos++] = (unsigned char)(x | 0x80);
            x >>= 7;
        }
        payload[pos++] = (unsigned char)x;
        ends[i] = (int64_t)pos;
    }
    PyBuffer_Release(&vals);
    PyObject *pl = PyByteArray_FromStringAndSize((const char *)payload,
                                                 (Py_ssize_t)pos);
    free(payload);
    if (!pl) { Py_DECREF(ends_b); return NULL; }
    return Py_BuildValue("(NN)", pl, ends_b);
}

/* varint_decode64(byte buffer) -> bytearray of uint64-LE values. A trailing
 * incomplete value (continuation bit set on the final byte) is dropped,
 * matching the numpy decoder. */
static PyObject *varint_decode64(PyObject *self, PyObject *args) {
    Py_buffer buf;
    if (!PyArg_ParseTuple(args, "y*", &buf)) return NULL;
    const unsigned char *d = (const unsigned char *)buf.buf;
    size_t len = (size_t)buf.len;
    size_t n = 0;
    for (size_t i = 0; i < len; i++) n += (d[i] & 0x80) == 0;
    PyObject *out = PyByteArray_FromStringAndSize(NULL, (Py_ssize_t)(n * 8));
    if (!out) { PyBuffer_Release(&buf); return NULL; }
    uint64_t *o = (uint64_t *)PyByteArray_AS_STRING(out);
    uint64_t x = 0;
    unsigned shift = 0;
    size_t k = 0;
    for (size_t i = 0; i < len; i++) {
        unsigned char c = d[i];
        if (shift < 64)
            x |= (uint64_t)(c & 0x7F) << shift;
        if (c & 0x80) {
            shift += 7;
        } else {
            o[k++] = x;
            x = 0;
            shift = 0;
        }
    }
    PyBuffer_Release(&buf);
    return out;
}

/* seg_ids64(gaps_u64le, firsts_u64le, counts_i64le) -> uint64le bytearray.
 * Reconstruct absolute doc ids from per-segment delta coding where segment
 * b contributes counts[b] ids: firsts[b], then prev + gap + 1 for each of
 * counts[b]-1 consecutive gap values (gaps holds only non-first entries,
 * concatenated across segments). */
static PyObject *seg_ids64(PyObject *self, PyObject *args) {
    Py_buffer gaps, firsts, counts;
    if (!PyArg_ParseTuple(args, "y*y*y*", &gaps, &firsts, &counts))
        return NULL;
    size_t ng = (size_t)gaps.len / 8, nb = (size_t)counts.len / 8;
    const uint64_t *g = (const uint64_t *)gaps.buf;
    const uint64_t *f = (const uint64_t *)firsts.buf;
    const int64_t *c = (const int64_t *)counts.buf;
    size_t total = 0, need = 0;
    for (size_t b = 0; b < nb; b++) {
        if (c[b] > 0) { total += (size_t)c[b]; need += (size_t)c[b] - 1; }
    }
    if (need != ng || nb > (size_t)firsts.len / 8) {
        PyBuffer_Release(&gaps); PyBuffer_Release(&firsts);
        PyBuffer_Release(&counts);
        PyErr_SetString(PyExc_ValueError, "seg_ids64: length mismatch");
        return NULL;
    }
    PyObject *out = PyByteArray_FromStringAndSize(
        NULL, (Py_ssize_t)(total * 8));
    if (!out) {
        PyBuffer_Release(&gaps); PyBuffer_Release(&firsts);
        PyBuffer_Release(&counts);
        return NULL;
    }
    uint64_t *o = (uint64_t *)PyByteArray_AS_STRING(out);
    size_t vi = 0, oi = 0;
    for (size_t b = 0; b < nb; b++) {
        int64_t k = c[b];
        if (k <= 0) continue;
        uint64_t id = f[b];
        o[oi++] = id;
        for (int64_t j = 1; j < k; j++) {
            id += g[vi++] + 1;
            o[oi++] = id;
        }
    }
    PyBuffer_Release(&gaps); PyBuffer_Release(&firsts);
    PyBuffer_Release(&counts);
    return out;
}

/* seg_ids_inline64(vals_u64le, counts_i64le) -> uint64le bytearray.
 * Same reconstruction but with the first id INLINE in the value stream:
 * segment b's values are [first, gap-1, gap-1, ...] (counts[b] values). */
static PyObject *seg_ids_inline64(PyObject *self, PyObject *args) {
    Py_buffer vals, counts;
    if (!PyArg_ParseTuple(args, "y*y*", &vals, &counts)) return NULL;
    size_t nv = (size_t)vals.len / 8, nb = (size_t)counts.len / 8;
    const uint64_t *v = (const uint64_t *)vals.buf;
    const int64_t *c = (const int64_t *)counts.buf;
    size_t total = 0;
    for (size_t b = 0; b < nb; b++)
        if (c[b] > 0) total += (size_t)c[b];
    if (total != nv) {
        PyBuffer_Release(&vals); PyBuffer_Release(&counts);
        PyErr_SetString(PyExc_ValueError,
                        "seg_ids_inline64: length mismatch");
        return NULL;
    }
    PyObject *out = PyByteArray_FromStringAndSize(
        NULL, (Py_ssize_t)(total * 8));
    if (!out) {
        PyBuffer_Release(&vals); PyBuffer_Release(&counts);
        return NULL;
    }
    uint64_t *o = (uint64_t *)PyByteArray_AS_STRING(out);
    size_t vi = 0, oi = 0;
    for (size_t b = 0; b < nb; b++) {
        int64_t k = c[b];
        if (k <= 0) continue;
        uint64_t id = v[vi++];
        o[oi++] = id;
        for (int64_t j = 1; j < k; j++) {
            id += v[vi++] + 1;
            o[oi++] = id;
        }
    }
    PyBuffer_Release(&vals); PyBuffer_Release(&counts);
    return out;
}

/* seg_prefix_sum64(vals_u64le, counts_i64le) -> uint64le bytearray.
 * Per-segment running sum WITHOUT the gap-1 bias of seg_ids_inline64:
 * segment b's outputs are [v0, v0+v1, v0+v1+v2, ...] — the positional
 * payload reconstruction ([first_pos, gap, gap, ...] -> absolute
 * positions) fused into one pass (replaces cumsum + repeat + subtract
 * over the whole stream). */
static PyObject *seg_prefix_sum64(PyObject *self, PyObject *args) {
    Py_buffer vals, counts;
    if (!PyArg_ParseTuple(args, "y*y*", &vals, &counts)) return NULL;
    size_t nv = (size_t)vals.len / 8, nb = (size_t)counts.len / 8;
    const uint64_t *v = (const uint64_t *)vals.buf;
    const int64_t *c = (const int64_t *)counts.buf;
    size_t total = 0;
    for (size_t b = 0; b < nb; b++)
        if (c[b] > 0) total += (size_t)c[b];
    if (total != nv) {
        PyBuffer_Release(&vals); PyBuffer_Release(&counts);
        PyErr_SetString(PyExc_ValueError,
                        "seg_prefix_sum64: length mismatch");
        return NULL;
    }
    PyObject *out = PyByteArray_FromStringAndSize(
        NULL, (Py_ssize_t)(total * 8));
    if (!out) {
        PyBuffer_Release(&vals); PyBuffer_Release(&counts);
        return NULL;
    }
    uint64_t *o = (uint64_t *)PyByteArray_AS_STRING(out);
    size_t vi = 0, oi = 0;
    for (size_t b = 0; b < nb; b++) {
        int64_t k = c[b];
        if (k <= 0) continue;
        uint64_t acc = 0;
        for (int64_t j = 0; j < k; j++) {
            acc += v[vi++];
            o[oi++] = acc;
        }
    }
    PyBuffer_Release(&vals); PyBuffer_Release(&counts);
    return out;
}

/* oph_bin_min64(hashes_u64le, counts_i64le, k) -> uint64le bytearray of
 * n_segments * k per-bin minima (one-permutation minhash: bin = h % k,
 * min of the hashes landing in each bin; empty bins hold UINT64_MAX).
 * Replaces the O(k * n_shingles) classic permutation pass with one
 * O(n_shingles) scatter-min per doc. */
static PyObject *oph_bin_min64(PyObject *self, PyObject *args) {
    Py_buffer vals, counts;
    long k_arg;
    if (!PyArg_ParseTuple(args, "y*y*l", &vals, &counts, &k_arg))
        return NULL;
    size_t nv = (size_t)vals.len / 8, nb = (size_t)counts.len / 8;
    size_t k = (size_t)k_arg;
    const uint64_t *v = (const uint64_t *)vals.buf;
    const int64_t *c = (const int64_t *)counts.buf;
    size_t total = 0;
    for (size_t b = 0; b < nb; b++)
        if (c[b] > 0) total += (size_t)c[b];
    if (total != nv || k == 0) {
        PyBuffer_Release(&vals); PyBuffer_Release(&counts);
        PyErr_SetString(PyExc_ValueError, "oph_bin_min64: bad lengths");
        return NULL;
    }
    PyObject *out = PyByteArray_FromStringAndSize(
        NULL, (Py_ssize_t)(nb * k * 8));
    if (!out) {
        PyBuffer_Release(&vals); PyBuffer_Release(&counts);
        return NULL;
    }
    uint64_t *o = (uint64_t *)PyByteArray_AS_STRING(out);
    for (size_t i = 0; i < nb * k; i++) o[i] = UINT64_MAX;
    size_t vi = 0;
    for (size_t b = 0; b < nb; b++) {
        uint64_t *row = o + b * k;
        for (int64_t j = 0; j < c[b]; j++) {
            uint64_t h = v[vi++];
            uint64_t *slot = row + (h % (uint64_t)k);
            if (h < *slot) *slot = h;
        }
    }
    PyBuffer_Release(&vals); PyBuffer_Release(&counts);
    return out;
}

/* repeat_arange64(counts_i64le) -> int64le bytearray: [0]*c0 + [1]*c1 + ...
 * (np.repeat(np.arange(n), counts) without the numpy fancy-index cost). */
static PyObject *repeat_arange64(PyObject *self, PyObject *args) {
    Py_buffer counts;
    if (!PyArg_ParseTuple(args, "y*", &counts)) return NULL;
    size_t nb = (size_t)counts.len / 8;
    const int64_t *c = (const int64_t *)counts.buf;
    size_t total = 0;
    for (size_t b = 0; b < nb; b++)
        if (c[b] > 0) total += (size_t)c[b];
    PyObject *out = PyByteArray_FromStringAndSize(
        NULL, (Py_ssize_t)(total * 8));
    if (!out) { PyBuffer_Release(&counts); return NULL; }
    int64_t *o = (int64_t *)PyByteArray_AS_STRING(out);
    size_t oi = 0;
    for (size_t b = 0; b < nb; b++)
        for (int64_t j = 0; j < c[b]; j++) o[oi++] = (int64_t)b;
    PyBuffer_Release(&counts);
    return out;
}


/* ---- baseline-JPEG sequential entropy decode (hot path of the image
 * pipeline; mirrors jpeg_codec._decode_block sequential semantics
 * bit-for-bit, including the stuffed-byte/marker/EOF bit-feed rules).
 * Args:
 *   data (bytes), pos (n), units_x (n), units_y (n), ri (n),
 *   ncomp (i), cfg (bytes: int32[ncomp][5] = dcidx, acidx, h, v, gw),
 *   huff (bytes: 8 tables x (16 counts + 256 vals) uint8),
 *   outs (list of ncomp writable int32 buffers, nblocks*64 natural order)
 * Returns None; raises ValueError on an invalid Huffman code. */

static const uint8_t JPEG_ZZ[64] = {
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

typedef struct {
    const uint8_t *d;
    size_t len, p;
    uint32_t acc;
    int n;
} jbitrd;

static void jbr_fill(jbitrd *b) {
    while (b->n <= 24) {
        int byte;
        if (b->p >= b->len) {
            byte = 0;
        } else {
            byte = b->d[b->p];
            if (byte == 0xFF) {
                int nxt = (b->p + 1 < b->len) ? b->d[b->p + 1] : 0xD9;
                if (nxt == 0x00) {
                    b->p += 2;          /* stuffed 0xFF data byte */
                } else {
                    byte = 0;           /* marker (RST or end): feed 0s,
                                           leave position for align */
                }
            } else {
                b->p += 1;
            }
        }
        b->acc = (b->acc << 8) | (uint32_t)byte;
        b->n += 8;
    }
}

static int jbr_get(jbitrd *b, int k) {
    if (k == 0) return 0;
    if (b->n < k) jbr_fill(b);
    b->n -= k;
    return (int)((b->acc >> b->n) & ((1u << k) - 1));
}

static void jbr_align_restart(jbitrd *b) {
    b->acc = 0;
    b->n = 0;
    while (b->p < b->len && b->d[b->p] != 0xFF) b->p++;
    if (b->p + 1 < b->len && b->d[b->p + 1] >= 0xD0 &&
        b->d[b->p + 1] <= 0xD7)
        b->p += 2;
}

typedef struct {            /* T.81 F.16 canonical decode tables */
    int mincode[17], maxcode[17], valptr[17];
    const uint8_t *vals;
} jhuff;

static void jh_build(jhuff *t, const uint8_t *bits, const uint8_t *vals) {
    int code = 0, k = 0, l;
    t->vals = vals;
    for (l = 1; l <= 16; l++) {
        if (bits[l - 1]) {
            t->valptr[l] = k;
            t->mincode[l] = code;
            code += bits[l - 1];
            k += bits[l - 1];
            t->maxcode[l] = code - 1;
        } else {
            t->maxcode[l] = -1;
        }
        code <<= 1;
    }
}

static int jh_decode(jbitrd *b, const jhuff *t) {
    int code = jbr_get(b, 1), l = 1;
    while (l <= 16) {
        if (t->maxcode[l] >= 0 && code <= t->maxcode[l])
            return t->vals[t->valptr[l] + code - t->mincode[l]];
        code = (code << 1) | jbr_get(b, 1);
        l++;
    }
    return -1;
}

static int jext(int v, int s) {
    return (s && v < (1 << (s - 1))) ? v - (1 << s) + 1 : v;
}

static PyObject *jpeg_scan_sequential(PyObject *self, PyObject *args) {
    Py_buffer data, cfg, huff;
    Py_ssize_t pos, ux, uy, ri;
    int ncomp;
    PyObject *outs;
    if (!PyArg_ParseTuple(args, "y*nnnniy*y*O", &data, &pos, &ux, &uy,
                          &ri, &ncomp, &cfg, &huff, &outs))
        return NULL;
    Py_buffer ob[4];
    int nob = 0, c;
    int32_t *out[4];
    const int32_t *cf = (const int32_t *)cfg.buf;
    jhuff tabs[8];
    const uint8_t *hb = (const uint8_t *)huff.buf;
    int ok = 1;
    if (ncomp < 1 || ncomp > 4 ||
        cfg.len < (Py_ssize_t)(ncomp * 5 * sizeof(int32_t)) ||
        huff.len < 8 * 272 || !PyList_Check(outs) ||
        PyList_GET_SIZE(outs) != ncomp) {
        PyErr_SetString(PyExc_ValueError, "bad jpeg scan args");
        ok = 0;
    }
    for (c = 0; ok && c < ncomp; c++) {
        if (PyObject_GetBuffer(PyList_GET_ITEM(outs, c), &ob[nob],
                               PyBUF_WRITABLE) != 0) {
            ok = 0;
            break;
        }
        out[nob] = (int32_t *)ob[nob].buf;
        nob++;
    }
    if (ok) {
        int ti;
        for (ti = 0; ti < 8; ti++)
            jh_build(&tabs[ti], hb + ti * 272, hb + ti * 272 + 16);
        jbitrd br = {(const uint8_t *)data.buf, (size_t)data.len,
                     (size_t)pos, 0, 0};
        int32_t preds[4] = {0, 0, 0, 0};
        Py_ssize_t u, n_units = ux * uy;
        for (u = 0; ok && u < n_units; u++) {
            if (ri && u && u % ri == 0) {
                jbr_align_restart(&br);
                preds[0] = preds[1] = preds[2] = preds[3] = 0;
            }
            Py_ssize_t my = u / ux, mx = u % ux;
            for (c = 0; ok && c < ncomp; c++) {
                int dcx = cf[c * 5], acx = cf[c * 5 + 1];
                int ch = cf[c * 5 + 2], cv = cf[c * 5 + 3];
                int gw = cf[c * 5 + 4];
                if (dcx < 0 || dcx > 7 || acx < 0 || acx > 7) {
                    ok = 0;
                    break;
                }
                int vv, hh;
                for (vv = 0; ok && vv < cv; vv++) {
                    for (hh = 0; ok && hh < ch; hh++) {
                        Py_ssize_t bi = (my * cv + vv) * (Py_ssize_t)gw
                                        + (mx * ch + hh);
                        if ((bi + 1) * 64 * (Py_ssize_t)sizeof(int32_t)
                            > ob[c].len) {
                            ok = 0;
                            break;
                        }
                        int32_t *blk = out[c] + bi * 64;
                        int s = jh_decode(&br, &tabs[dcx]);
                        if (s < 0) { ok = 0; break; }
                        preds[c] += jext(jbr_get(&br, s), s);
                        blk[0] = preds[c];
                        int k = 1;
                        while (k < 64) {
                            int rs = jh_decode(&br, &tabs[acx]);
                            if (rs < 0) { ok = 0; break; }
                            int r = rs >> 4;
                            s = rs & 15;
                            if (s == 0) {
                                if (r == 15) { k += 16; continue; }
                                break;
                            }
                            k += r;
                            if (k > 63) { ok = 0; break; }
                            blk[JPEG_ZZ[k]] = jext(jbr_get(&br, s), s);
                            k++;
                        }
                    }
                }
            }
        }
        if (!ok && !PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError,
                            "invalid Huffman code in entropy stream");
    }
    for (c = 0; c < nob; c++) PyBuffer_Release(&ob[c]);
    PyBuffer_Release(&data);
    PyBuffer_Release(&cfg);
    PyBuffer_Release(&huff);
    if (!ok) return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef Methods[] = {
    {"repeat_arange64", repeat_arange64, METH_VARARGS,
     "repeat_arange64(counts_i64le) -> int64le bytearray of segment indices"},
    {"seg_ids64", seg_ids64, METH_VARARGS,
     "seg_ids64(gaps_u64le, firsts_u64le, counts_i64le) -> "
     "absolute ids uint64le bytearray"},
    {"seg_ids_inline64", seg_ids_inline64, METH_VARARGS,
     "seg_ids_inline64(vals_u64le, counts_i64le) -> "
     "absolute ids uint64le bytearray"},
    {"seg_prefix_sum64", seg_prefix_sum64, METH_VARARGS,
     "seg_prefix_sum64(vals_u64le, counts_i64le) -> per-segment running "
     "sums uint64le bytearray"},
    {"oph_bin_min64", oph_bin_min64, METH_VARARGS,
     "oph_bin_min64(hashes_u64le, counts_i64le, k) -> per-segment "
     "per-bin minima (n_segments x k uint64le; empty bins UINT64_MAX)"},
    {"varint_encode64", varint_encode64, METH_VARARGS,
     "varint_encode64(uint64le_buf) -> (payload bytearray, "
     "int64le end-offsets bytearray)"},
    {"varint_decode64", varint_decode64, METH_VARARGS,
     "varint_decode64(buf) -> bytearray of uint64-LE decoded values"},
    {"fnv1a64_offsets", fnv1a64_offsets, METH_VARARGS,
     "fnv1a64_offsets(offsets_bytes, data_bytes, wide=0) -> uint64 LE bytes"},
    {"fnv1a128_offsets", fnv1a128_offsets, METH_VARARGS,
     "fnv1a128_offsets(offsets_bytes, data_bytes, wide=0) -> "
     "per-string 16 LE bytes (lo64, hi64)"},
    {"shingle_hashes64", shingle_hashes64, METH_VARARGS,
     "shingle_hashes64(text, w=3) -> bytes of little-endian uint64 hashes"},
    {"shingle_hashes64_multi", shingle_hashes64_multi, METH_VARARGS,
     "shingle_hashes64_multi(offsets_bytes, data_bytes, wide=0, w=3) -> "
     "(hashes u64le, shingle counts i64le, token counts i64le)"},
    {"rolling_fingerprint64", rolling_fingerprint64, METH_VARARGS,
     "rolling_fingerprint64(text) -> int (order-sensitive doc fingerprint)"},
    {"jpeg_scan_sequential", jpeg_scan_sequential, METH_VARARGS,
     "jpeg_scan_sequential(data, pos, ux, uy, ri, ncomp, cfg_i32x5, "
     "hufftabs_8x272, [int32 out bufs]) -> None (fills coef arrays)"},
    {"count_ascii_terms", count_ascii_terms, METH_VARARGS,
     "count_ascii_terms(text, max_term_bytes=64) -> dict[term, wdf]"},
    {"count_ascii_terms_positions", count_ascii_terms_positions, METH_VARARGS,
     "count_ascii_terms_positions(text, max_term_bytes=64) -> "
     "dict[term, (wdf, varint position payload)]"},
    {"tokenize_ascii", tokenize_ascii, METH_VARARGS,
     "tokenize_ascii(text, max_term_bytes=64) -> list[str]"},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_mdq_ctok",
    "C fast path for the ASCII subset of the xapian tokenizer", -1, Methods};

PyMODINIT_FUNC PyInit__mdq_ctok(void) { return PyModule_Create(&moduledef); }
