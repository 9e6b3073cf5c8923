"""Text-analysis pipelines over the ``documents`` table — the
training-data-pipeline operators (language-ID, quality scoring, token
counting, fingerprinting) that complement the reference's IR stack.

All stages are vectorized ``map_batches`` transforms over Arrow batches;
aggregations pre-aggregate per batch before any groupby shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.rounding import round_half_up
from ..functions.tokenize import STOPWORDS_SIMPLE

# Marker words per language for the n-gram/function-word heuristic.
# Disjoint lists so the argmax (priority order on ties) is well-defined.
LANG_MARKERS = {
    "en": ("the", "a", "of", "and", "is"),
    "es": ("que", "los", "las", "una", "por"),
    "de": ("und", "der", "nicht", "ist", "ein"),
    "fr": ("les", "une", "est", "dans", "pour"),
}
LANG_PRIORITY = ("en", "es", "de", "fr")
CJK_RE = r"[一-鿿]"

_SPLIT_RE = "[^a-z0-9]+"


def _split_tokens(texts: pa.Array):
    lowered = pc.utf8_lower(texts)
    toks = pc.split_pattern_regex(lowered, _SPLIT_RE)
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy()
    keep = pc.greater_equal(pc.utf8_length(flat), 1).to_numpy(zero_copy_only=False)
    return parent[keep], pc.filter(flat, pa.array(keep))


def _per_row_hits(parent, flat, n_rows, wordset) -> np.ndarray:
    hits = pc.is_in(flat, value_set=pa.array(list(wordset), pa.string()))
    out = np.zeros(n_rows, dtype=np.int64)
    np.add.at(out, parent, hits.to_numpy(zero_copy_only=False).astype(np.int64))
    return out


def row_token_counts(batch: pa.Table) -> np.ndarray:
    """n_tokens per row — THE token-count definition every SQL twin
    mirrors (``len(_WORDS)``).  ``pack_sequences`` counts through this;
    ``token_stats_batch`` computes the same count inline because it
    also needs the flat tokens for stopword hits."""
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    parent, _ = _split_tokens(texts)
    n_tokens = np.zeros(batch.num_rows, dtype=np.int64)
    np.add.at(n_tokens, parent, 1)
    return n_tokens


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """Per-doc raw token count + stopword hits (quality inputs)."""
    texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
    parent, flat = _split_tokens(texts)
    n = batch.num_rows
    n_tokens = np.zeros(n, dtype=np.int64)
    np.add.at(n_tokens, parent, 1)
    stop_hits = _per_row_hits(parent, flat, n, STOPWORDS_SIMPLE)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "source": batch["source"],
            "n_chars": batch["n_chars"],
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "stop_hits": pa.array(stop_hits, pa.int64()),
        }
    )


def quality_batch(batch: pa.Table) -> pa.Table:
    """Quality scoring: length/punct/stopword ratios → [0,1] score.

    score = 0.5·min(1, n_tokens/50) + 0.3·(1−stop_ratio) + 0.2·(1−punct_ratio)
    (same closed form as the DuckDB oracle, rounded half-up to 4dp).
    """
    texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
    parent, flat = _split_tokens(texts)
    n = batch.num_rows
    n_tokens_i = np.zeros(n, dtype=np.int64)
    np.add.at(n_tokens_i, parent, 1)
    stop_hits = _per_row_hits(parent, flat, n, STOPWORDS_SIMPLE).astype(np.float64)
    n_chars = pc.utf8_length(texts).to_numpy().astype(np.float64)
    stripped = pc.replace_substring_regex(pc.utf8_lower(texts), "[a-z0-9 ]", "")
    n_punct = pc.utf8_length(stripped).to_numpy().astype(np.float64)
    n_tokens = n_tokens_i.astype(np.float64)
    stop_ratio = np.where(n_tokens > 0, stop_hits / np.maximum(n_tokens, 1), 0.0)
    punct_ratio = np.where(n_chars > 0, n_punct / np.maximum(n_chars, 1), 0.0)
    score = (
        0.5 * np.minimum(1.0, n_tokens / 50.0)
        + 0.3 * (1.0 - stop_ratio)
        + 0.2 * (1.0 - punct_ratio)
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tokens_i, pa.int64()),
            "stop_ratio": pa.array(round_half_up(stop_ratio, 4)),
            "punct_ratio": pa.array(round_half_up(punct_ratio, 4)),
            "quality": pa.array(round_half_up(score, 4)),
        }
    )


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """Language-ID heuristic: function-word hits per language + CJK char
    detection; argmax with fixed priority order, 'und' when nothing hits."""
    texts = batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
    parent, flat = _split_tokens(texts)
    n = batch.num_rows
    hits = {
        lang: _per_row_hits(parent, flat, n, words)
        for lang, words in LANG_MARKERS.items()
    }
    has_cjk = pc.match_substring_regex(texts, CJK_RE).to_numpy(zero_copy_only=False)
    best = np.full(n, "und", dtype=object)
    best_hits = np.zeros(n, dtype=np.int64)
    for lang in reversed(LANG_PRIORITY):  # earlier priority wins ties via >=
        h = hits[lang]
        take = h >= np.maximum(best_hits, 1)
        best[take] = lang
        best_hits = np.maximum(best_hits, h)
    best[has_cjk] = "zh"
    cols = {"doc_id": batch["doc_id"], "pred_lang": pa.array(best, pa.string())}
    for lang in LANG_PRIORITY:
        cols[f"{lang}_hits"] = pa.array(hits[lang], pa.int64())
    cols["has_cjk"] = pa.array(has_cjk, pa.bool_())
    return pa.table(cols)


class FingerprintStage:
    """Document fingerprinting: polynomial rolling hash (mod 2^64, FNV
    base) over the utf8 bytes, splitmix64-finalized per window;
    fingerprint = min over all 16-byte windows (winnowing's
    document-level reduction).  Fully vectorized across the WHOLE batch:
    one concatenated byte array, 16 shifted multiply-adds for every
    window hash at once, cross-document windows masked to MAX, then a
    per-doc ``np.minimum.reduceat``."""

    WINDOW = 16
    BASE = 0x100000001B3  # FNV-1a prime; odd, so invertible mod 2^64

    def _short_hash(self, data: bytes) -> int:
        """Docs shorter than one window: polynomial of the whole doc."""
        from ..functions.hashing import splitmix64

        h = np.uint64(0)
        with np.errstate(over="ignore"):
            for b in data:
                h = h * np.uint64(self.BASE) + np.uint64(b)
        return int(splitmix64(np.array([h]))[0]) if data else 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import splitmix64

        texts = [t.encode("utf-8") for t in batch["text"].to_pylist()]
        lens = np.array([len(t) for t in texts], dtype=np.int64)
        offs = np.concatenate([[0], np.cumsum(lens)])
        data = np.frombuffer(b"".join(texts), dtype=np.uint8).astype(np.uint64)
        W, n = self.WINDOW, len(data)
        n_docs = len(texts)
        out = np.zeros(n_docs, dtype=np.uint64)
        n_win = n - W + 1
        if n_win > 0:
            # Horner form, in place: H = ((b0·B + b1)·B + b2)·B ... — no
            # temporaries, 15 fused scalar-mul + adds over the batch
            H = data[0:n_win].copy()
            B = np.uint64(self.BASE)
            with np.errstate(over="ignore"):
                for j in range(1, W):
                    H *= B
                    H += data[j : n_win + j]
            H = splitmix64(H)
            # windows that straddle a document boundary are not valid
            # fingerprint windows: mask to MAX so they never win the min
            MAX = np.iinfo(np.uint64).max
            bounds = offs[1:-1]
            for j in range(1, W):
                idx = bounds - j
                ok = (idx >= 0) & (idx < n_win)
                H[idx[ok]] = MAX
            long_mask = lens >= W
            if long_mask.any():
                starts = np.minimum(offs[:-1], n_win - 1)
                mins = np.minimum.reduceat(H, starts)
                out[long_mask] = mins[long_mask]
        short = np.flatnonzero(lens < W)
        for i in short:
            out[i] = self._short_hash(texts[i])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "fingerprint": pa.array(out.view(np.int64), pa.int64()),
            }
        )


# ---------------------------------------------------------------------------
# Dataset-level pipelines
# ---------------------------------------------------------------------------

def token_count_by_source(sf_dir: str):
    """Per-source token totals: partial per-batch agg → tiny groupby."""
    import ray.data as rd
    from ray.data.aggregate import Sum, Count

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text", "n_chars"])
    per_doc = ds.map_batches(token_stats_batch, batch_format="pyarrow")
    return (
        per_doc.groupby("source")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_tokens", alias_name="total_tokens"),
            Sum("n_chars", alias_name="total_chars"),
        )
    )


def quality_scores(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text", "n_chars"])
    return ds.map_batches(quality_batch, batch_format="pyarrow")


def lang_id(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(lang_id_batch, batch_format="pyarrow")


def fingerprints(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(FingerprintStage, batch_format="pyarrow", concurrency=(1, 4))


# ---------------------------------------------------------------------------
# repetition filters (Gopher-style within-document quality signals)
# ---------------------------------------------------------------------------

_REP_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_lines", pa.int64()),
        ("dup_line_frac", pa.float64()),
        ("n_2grams", pa.int64()),
        ("dup_2gram_frac", pa.float64()),
        ("top_2gram_frac", pa.float64()),
        ("n_3grams", pa.int64()),
        ("dup_3gram_frac", pa.float64()),
        ("top_3gram_frac", pa.float64()),
    ]
)


def _seg_rep_counts(parents: np.ndarray, values: pa.Array, n_rows: int):
    """Per-row (total, distinct, top-run) counts of a flattened
    (parent, value) stream — the shared kernel behind every repetition
    signal.  Distinctness is exact: hash-table dictionary encode →
    int codes → one int lexsort; run lengths per (parent, code) segment
    give both the distinct count and the most-frequent-value count, all
    numpy (no per-row Python)."""
    total = np.bincount(parents, minlength=n_rows).astype(np.int64)
    distinct = np.zeros(n_rows, dtype=np.int64)
    top = np.zeros(n_rows, dtype=np.int64)
    if len(parents):
        codes = pc.dictionary_encode(values)
        if isinstance(codes, pa.ChunkedArray):
            codes = codes.combine_chunks()
        codes = codes.indices.to_numpy()
        order = np.lexsort((codes, parents))
        p, c = parents[order], codes[order]
        new = np.r_[True, (p[1:] != p[:-1]) | (c[1:] != c[:-1])]
        starts = np.flatnonzero(new)
        runlen = np.diff(np.r_[starts, len(p)]).astype(np.int64)
        seg_parent = p[starts]
        distinct = np.bincount(seg_parent, minlength=n_rows).astype(np.int64)
        # max run length per parent via reduceat over the (sorted)
        # parent-boundary starts — ufunc.at is the slow unbuffered path
        # and the segment count approaches the window count on
        # near-unique grams
        pnew = np.r_[True, seg_parent[1:] != seg_parent[:-1]]
        pstarts = np.flatnonzero(pnew)
        top[seg_parent[pstarts]] = np.maximum.reduceat(runlen, pstarts)
    return total, distinct, top


def repetition_batch(batch: pa.Table) -> pa.Table:
    """Per-doc repetition signals in the style of the Gopher repetition
    filters (Rae et al. 2021, "Scaling Language Models", §A1.1) — NOTE:
    these are COUNT fractions (duplicate windows / windows, duplicate
    lines / lines), not the paper's character fractions, so the
    published Gopher thresholds don't transplant verbatim:

    - ``dup_line_frac``: (lines − distinct lines) / lines (lines = text
      split on LF, empty lines dropped; no trimming — the SQL twin must
      see the same strings),
    - ``dup_{2,3}gram_frac``: (windows − distinct word-n-grams) / windows,
    - ``top_{2,3}gram_frac``: occurrences of the most frequent n-gram /
      windows (tokens: lower, split [^a-z0-9]+ — the shared ``_WORDS``
      definition every gram oracle uses; grams run over the whole token
      stream, newlines are just separators).

    Zero-denominator docs score 0.0 (no nullable columns reach the
    oracle compare); fractions are 4dp half-up.  Map-only: every signal
    is within-document, so the operator is one ``map_batches`` pass with
    NO shuffle — at 100 TB it scales with read bandwidth alone."""
    n = batch.num_rows
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    # lines: exact strings, split on LF, empties dropped (both sides)
    lines_nested = pc.split_pattern(texts, "\n")
    flat_lines = pc.list_flatten(lines_nested)
    line_parent = pc.list_parent_indices(lines_nested).to_numpy()
    keep = pc.not_equal(flat_lines, "").to_numpy(zero_copy_only=False)
    lt, ld, _ = _seg_rep_counts(line_parent[keep], flat_lines.filter(pa.array(keep)), n)
    # word n-grams: tokenize ONCE (the regex split is the dominant cost
    # of this pass), then window each width off the shared flat stream
    from .dedup import _flat_tokens, _grams_at, _window_starts

    flat, parent = _flat_tokens(texts)

    def frac(num: np.ndarray, den: np.ndarray) -> pa.Array:
        with np.errstate(invalid="ignore", divide="ignore"):
            f = np.where(den > 0, num / np.maximum(den, 1), 0.0)
        return pa.array(round_half_up(f, 4), pa.float64())

    cols = {
        "doc_id": batch["doc_id"],
        "n_lines": pa.array(lt, pa.int64()),
        "dup_line_frac": frac(lt - ld, lt),
    }
    for gn in (2, 3):
        starts = _window_starts(parent, gn)
        if len(starts):
            grams = _grams_at(flat, starts, gn)
            gram_parent = parent[starts].astype(np.int64)
        else:
            grams, gram_parent = pa.array([], pa.string()), np.empty(0, np.int64)
        gt, gd, gtop = _seg_rep_counts(gram_parent, grams, n)
        cols[f"n_{gn}grams"] = pa.array(gt, pa.int64())
        cols[f"dup_{gn}gram_frac"] = frac(gt - gd, gt)
        cols[f"top_{gn}gram_frac"] = frac(gtop, gt)
    return pa.table(cols)


def repetition_stats(sf_dir: str):
    """→ one ``_REP_SCHEMA`` row per document (see ``repetition_batch``)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(repetition_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# tf-idf keyword extraction
# ---------------------------------------------------------------------------

def _doc_term_rows(batch: pa.Table):
    """Distinct ``(doc_id, term, tf)`` rows of a batch, vectorized:
    regex split → dictionary-encode → int lexsort → boundary reduce.
    → (doc_ids int64, terms StringArray, tf int64), grouped by doc.
    (Same boundary trick as ``dedup._distinct_rows``, which returns
    first-occurrence indices only — this one also needs the segment
    lengths for tf, hence the local diff over starts.)"""
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    parent, flat = _split_tokens(texts)
    if not len(parent):
        return (np.empty(0, np.int64), pa.array([], pa.string()),
                np.empty(0, np.int64))
    codes = pc.dictionary_encode(flat)
    if isinstance(codes, pa.ChunkedArray):
        codes = codes.combine_chunks()
    idx = codes.indices.to_numpy()
    order = np.lexsort((idx, parent))
    p, c = parent[order], idx[order]
    first = np.r_[True, (p[1:] != p[:-1]) | (c[1:] != c[:-1])]
    starts = np.flatnonzero(first)
    tf = np.diff(np.r_[starts, len(p)]).astype(np.int64)
    doc_ids = batch["doc_id"].to_numpy()[p[starts]]
    terms = codes.dictionary.take(pa.array(c[starts], pa.int64()))
    return doc_ids, terms, tf


def _df_partial(batch: pa.Table) -> pa.Table:
    """Per-batch partial document frequencies (distinct docs per term
    within the batch) — the combiner before the tiny term groupby."""
    _, terms, _ = _doc_term_rows(batch)
    vc = pc.value_counts(terms)
    return pa.table(
        {"term": vc.field("values"), "partial_df": vc.field("counts").cast(pa.int64())}
    )


def _segmented_doc_topk(doc_ids, score, tiebreak, k):
    """Per-doc top-k selection shared by BOTH paths of ``tfidf_keywords``:
    one lexsort over (doc, floor(score·1e6+0.5) desc, ``tiebreak`` asc),
    then a segmented rank, keeping rank ≤ k.  The tie-break contract is
    the oracle-parity invariant — broadcast and join paths must stay
    bit-identical, so neither may inline its own copy of this block.
    Returns ``(selected_row_indices, ranks_kept)``."""
    if not len(doc_ids):
        e = np.array([], dtype=np.int64)
        return e, e
    rounded = np.floor(score * 1_000_000 + 0.5).astype(np.int64)
    order = np.lexsort((tiebreak, -rounded, doc_ids))
    d = doc_ids[order]
    newdoc = np.r_[True, d[1:] != d[:-1]]
    idxs = np.arange(len(d), dtype=np.int64)
    rank = idxs - np.maximum.accumulate(np.where(newdoc, idxs, 0)) + 1
    keep = rank <= k
    return order[keep], rank[keep]


def tfidf_keywords(sf_dir: str, k: int = 5, driver_cap: int | None = None):
    """→ (doc_id, term, rank, score): each document's top-``k`` keywords
    by ``tf · log10(N/df)`` (rank 1 = best; ties broken by the shared
    1e-6 rounded score then term ascending, so the Ray and SQL sides
    pick identical rows).

    Two passes, both vectorized: (1) per-batch partial df → one
    vocabulary-sized ``groupby(term)`` (the same dictionary-scale
    aggregate as the index build's I6 weight pass) → sorted-vocab df
    broadcast via the object store; (2) per-batch ``tf·idf`` scoring +
    per-doc top-k selection inside ``map_batches`` — document text never
    shuffles, and the only reduce is over the vocabulary, not the
    corpus.

    When the vocabulary exceeds ``driver_cap`` rows (default
    ``$GRAFT_DF_BROADCAST_CAP`` or 2M — the 10^12-turn TODO from
    BASELINE.md) the broadcast is replaced by a TERM JOIN: the
    (doc_id, term, tf) rows shuffle once on term to pick up df, then
    once on doc_id for the top-k — document text still never moves,
    and no single process ever holds the vocabulary."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..functions.limits import df_broadcast_cap

    driver_cap = df_broadcast_cap(driver_cap)

    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("term", pa.string()),
         ("rank", pa.int64()), ("score", pa.float64())]
    )
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_docs = ds.count()  # parquet metadata count — no scan
    df_agg = (
        ds.map_batches(_df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("partial_df", alias_name="df"))
        .materialize()
    )
    if df_agg.count() > driver_cap:
        return _tfidf_keywords_join(ds, df_agg, n_docs, k)
    df_rows = [t for t in ray.get(df_agg.to_arrow_refs()) if t.num_rows]
    if not df_rows:
        return out_schema.empty_table()
    df_tbl = pa.concat_tables(df_rows).sort_by("term")  # sorted ⇒ index = lex rank
    vocab = df_tbl["term"].combine_chunks()
    dfv = df_tbl["df"].to_numpy().astype(np.float64)
    lookup_ref = ray.put((vocab, dfv))

    def topk(batch: pa.Table) -> pa.Table:
        voc, dfs = ray.get(lookup_ref)
        doc_ids, terms, tf = _doc_term_rows(batch)
        if not len(doc_ids):
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "term": pa.array([], pa.string()),
                 "rank": pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
            )
        pos = pc.index_in(terms, value_set=voc).to_numpy(zero_copy_only=False).astype(np.int64)
        score = tf.astype(np.float64) * np.log10(n_docs / dfs[pos])
        # pos doubles as the lexicographic tie-break (vocab is sorted)
        sel, rank = _segmented_doc_topk(doc_ids, score, pos, k)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[sel], pa.int64()),
                "term": terms.take(pa.array(sel, pa.int64())),
                "rank": pa.array(rank, pa.int64()),
                "score": pa.array(round_half_up(score[sel], 4), pa.float64()),
            }
        )

    return ds.map_batches(topk, batch_format="pyarrow")


_JOIN_BUCKET_VOCAB = 100_000  # terms per term-bucket group
_JOIN_BUCKET_DOCS = 50_000    # docs per doc-bucket group


def _term_value_rows(ds, carrier, value_col: str, emit_zero_docs: bool = False):
    """Union + coarse-term-bucket groupby attaching a per-term VALUE
    (df, cf, ...) from the ``carrier`` aggregate to the exploded
    (doc_id, term, tf) token rows — Ray Data's term join without
    materializing either side, shared by ``_tfidf_keywords_join`` and
    ``_lm_score_join`` so the carrier-row marker (doc_id == -1), the
    bucket sizing and the factorize-and-scatter attach live in ONE
    place.  The groupby keys on ``hash(term) % B`` (one vectorized call
    per bucket instead of one Python call per term — the
    ``dedup._cc_star_bucket`` tiny-group-storm fix); a stop-word-grade
    head term still lands all its rows in one bucket (inherent to any
    per-term join), where the in-bucket work stays one factorize +
    scatter.  → Dataset (doc_id, term, tf, val) of token rows only;
    carrier rows are consumed inside their group.

    With ``emit_zero_docs`` the tokenize pass ALSO emits one (doc_id,
    tf=0, val=0) row per token-less document (bucket -1, passed through
    the attach untouched) — callers that must cover every doc
    (``lm_score``) get them without a second corpus read+tokenize."""
    from ..functions.hashing import hash_str_u64

    n_tbkt = max(64, int(carrier.count() // _JOIN_BUCKET_VOCAB) + 1)

    def tf_rows(batch: pa.Table) -> pa.Table:
        rows, codes, tf, dictionary, n_tokens = _row_term_rows(batch)
        doc_ids = batch["doc_id"].to_numpy()
        terms = dictionary.take(pa.array(codes, pa.int64()))
        out = pa.table(
            {
                "bkt": pa.array((hash_str_u64(terms.to_numpy(zero_copy_only=False))
                                 % n_tbkt).astype(np.int32), pa.int32()),
                "term": terms,
                "doc_id": pa.array(doc_ids[rows], pa.int64()),
                "tf": pa.array(tf, pa.int64()),
            }
        )
        if not emit_zero_docs:
            return out
        zero = np.flatnonzero(n_tokens == 0)
        z = pa.table(
            {"bkt": pa.array(np.full(len(zero), -1, np.int32), pa.int32()),
             "term": pa.array([""] * len(zero), pa.string()),
             "doc_id": pa.array(doc_ids[zero], pa.int64()),
             "tf": pa.array(np.zeros(len(zero), np.int64), pa.int64())}
        )
        return pa.concat_tables([out, z])

    def carrier_rows(batch: pa.Table) -> pa.Table:
        # value carrier rows: doc_id = -1 marks them inside the term group
        terms = batch["term"].combine_chunks() if isinstance(
            batch["term"], pa.ChunkedArray) else batch["term"]
        return pa.table(
            {
                "bkt": pa.array((hash_str_u64(terms.to_numpy(zero_copy_only=False))
                                 % n_tbkt).astype(np.int32), pa.int32()),
                "term": terms,
                "doc_id": pa.array(np.full(batch.num_rows, -1), pa.int64()),
                "tf": batch[value_col].cast(pa.int64()),
            }
        )

    def attach(group: pa.Table) -> pa.Table:
        """One term-bucket: factorize terms, scatter each term's carrier
        value into a per-code table, annotate every token row — all
        vectorized, no per-term dispatch."""
        doc = group["doc_id"].to_numpy()
        tf = group["tf"].to_numpy()
        bkt0 = group["bkt"].to_numpy()
        if len(bkt0) and bkt0[0] == -1:
            # bucket -1 carries only the zero-token doc rows: pass through
            return pa.table(
                {"doc_id": pa.array(doc, pa.int64()),
                 "term": group["term"],
                 "tf": pa.array(tf, pa.int64()),
                 "val": pa.array(np.zeros(len(doc)), pa.float64())}
            )
        is_c = doc == -1
        terms = group["term"]
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        codes = terms.dictionary_encode().indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        val_of_code = np.zeros(int(codes.max()) + 1 if len(codes) else 1, np.float64)
        val_of_code[codes[is_c]] = tf[is_c]
        keep = pa.array(np.flatnonzero(~is_c), pa.int64())
        return pa.table(
            {
                "doc_id": pa.array(doc[~is_c], pa.int64()),
                "term": terms.take(keep),
                "tf": pa.array(tf[~is_c], pa.int64()),
                "val": pa.array(val_of_code[codes[~is_c]], pa.float64()),
            }
        )

    tf_ds = ds.map_batches(tf_rows, batch_format="pyarrow")
    carrier_ds = carrier.map_batches(carrier_rows, batch_format="pyarrow")
    return (
        tf_ds.union(carrier_ds)
        .groupby("bkt")
        .map_groups(attach, batch_format="pyarrow")
    )


def _tfidf_keywords_join(ds, df_agg, n_docs: int, k: int):
    """Vocabulary-too-big-to-broadcast path of ``tfidf_keywords``: the
    shared ``_term_value_rows`` term join attaches df to the token rows,
    then a doc-bucket groupby selects each doc's top-k with the same
    (1e-6-rounded score desc, term asc) tie-break as the broadcast path
    — bit-identical output, two shuffles of token ROWS only."""
    n_dbkt = max(64, int(n_docs // _JOIN_BUCKET_DOCS) + 1)

    def score_rows(t: pa.Table) -> pa.Table:
        doc = t["doc_id"].to_numpy()
        score = t["tf"].to_numpy().astype(np.float64) * np.log10(
            n_docs / t["val"].to_numpy())
        return pa.table(
            {
                "dbkt": pa.array((doc % n_dbkt).astype(np.int32), pa.int32()),
                "doc_id": t["doc_id"],
                "term": t["term"],
                "score": pa.array(score, pa.float64()),
            }
        )

    def bucket_topk(group: pa.Table) -> pa.Table:
        """One doc-bucket: the shared ``_segmented_doc_topk`` with the
        raw term strings as tie-break (lex order — identical outcome to
        the broadcast path's sorted-vocab index tie-break)."""
        score = group["score"].to_numpy()
        terms = group["term"].to_numpy(zero_copy_only=False)
        doc = group["doc_id"].to_numpy()
        sel, rank = _segmented_doc_topk(doc, score, terms, k)
        sel_pa = pa.array(sel, pa.int64())
        return pa.table(
            {
                "doc_id": group["doc_id"].take(sel_pa),
                "term": group["term"].take(sel_pa),
                "rank": pa.array(rank, pa.int64()),
                "score": pa.array(round_half_up(score[sel], 4), pa.float64()),
            }
        )

    return (
        _term_value_rows(ds, df_agg, "df")
        .map_batches(score_rows, batch_format="pyarrow")
        .groupby("dbkt")
        .map_groups(bucket_topk, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# unigram-LM quality scoring (perplexity-filter proxy)
# ---------------------------------------------------------------------------

def _cf_partial(batch: pa.Table) -> pa.Table:
    """Per-batch partial collection frequencies (occurrence counts per
    term) — the combiner before the vocabulary-sized term groupby."""
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    _, flat = _split_tokens(texts)
    vc = pc.value_counts(flat)
    return pa.table(
        {"term": vc.field("values"), "partial_cf": vc.field("counts").cast(pa.int64())}
    )


def _row_term_rows(batch: pa.Table):
    """Distinct (row_index, term_code, tf) triples of a batch plus the
    batch dictionary and per-row token counts — the position-indexed
    sibling of ``_doc_term_rows`` (callers that scatter back into
    per-row accumulators need positions, not doc ids)."""
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    parent, flat = _split_tokens(texts)
    n_tokens = np.zeros(batch.num_rows, dtype=np.int64)
    if len(parent):
        np.add.at(n_tokens, parent, 1)
        codes = pc.dictionary_encode(flat)
        if isinstance(codes, pa.ChunkedArray):
            codes = codes.combine_chunks()
        idx = codes.indices.to_numpy()
        order = np.lexsort((idx, parent))
        p, c = parent[order], idx[order]
        first = np.r_[True, (p[1:] != p[:-1]) | (c[1:] != c[:-1])]
        starts = np.flatnonzero(first)
        tf = np.diff(np.r_[starts, len(p)]).astype(np.int64)
        return p[starts], c[starts], tf, codes.dictionary, n_tokens
    return (np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.int64), pa.array([], pa.string()), n_tokens)


def lm_score(sf_dir: str, driver_cap: int | None = None):
    """Unigram language-model quality score — the closed-form stand-in
    for the perplexity filter of a pretraining pipeline (no model in
    the container, and a corpus-fit unigram LM is the SQL-expressible
    member of that family): per doc,

        avg_logprob = Σ_terms tf · log10(cf(term)/total_tokens) / n_tokens

    (0.0 for token-less docs).  Near-zero ≈ stopword soup, very negative
    ≈ rare-token noise; training filters cut both tails.

    Two passes, both vectorized (the ``tfidf_keywords`` shape): (1)
    per-batch partial cf → vocabulary-sized term groupby → sorted-vocab
    log-prob broadcast; (2) per-batch tf·logprob scatter-add per row —
    document text never shuffles.  Past ``driver_cap`` vocabulary rows
    (default ``$GRAFT_DF_BROADCAST_CAP`` or 2M) the broadcast flips to
    the same bucketed TERM JOIN as ``_tfidf_keywords_join``."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..functions.limits import df_broadcast_cap

    driver_cap = df_broadcast_cap(driver_cap)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    cf_agg = (
        ds.map_batches(_cf_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("partial_cf", alias_name="cf"))
        .materialize()
    )
    total = cf_agg.sum("cf") or 0
    if cf_agg.count() > driver_cap:
        return _lm_score_join(ds, cf_agg, total)
    cf_rows = [t for t in ray.get(cf_agg.to_arrow_refs()) if t.num_rows]
    if cf_rows:
        cf_tbl = pa.concat_tables(cf_rows).sort_by("term")
        vocab = cf_tbl["term"].combine_chunks()
        lpv = np.log10(cf_tbl["cf"].to_numpy().astype(np.float64) / total)
    else:
        vocab, lpv = pa.array([], pa.string()), np.empty(0, np.float64)
    lookup_ref = ray.put((vocab, lpv))

    def score(batch: pa.Table) -> pa.Table:
        voc, lp = ray.get(lookup_ref)
        rows, codes, tf, dictionary, n_tokens = _row_term_rows(batch)
        lp_doc = np.zeros(batch.num_rows, dtype=np.float64)
        if len(rows):
            pos = pc.index_in(dictionary, value_set=voc).to_numpy(
                zero_copy_only=False).astype(np.int64)
            np.add.at(lp_doc, rows, tf.astype(np.float64) * lp[pos[codes]])
        avg = np.divide(lp_doc, n_tokens, out=np.zeros_like(lp_doc),
                        where=n_tokens > 0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "avg_logprob": pa.array(round_half_up(avg, 4), pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def _lm_score_join(ds, cf_agg, total: int):
    """Vocabulary-too-big-to-broadcast path of ``lm_score``: the shared
    ``_term_value_rows`` term join attaches cf to the token rows,
    per-doc partials reduce with a native Sum; token-less docs ride the
    SAME tokenize pass as zero rows (``emit_zero_docs``) — no second
    corpus read."""
    from ray.data.aggregate import Sum

    def partials(t: pa.Table) -> pa.Table:
        doc = t["doc_id"].to_numpy()
        tf = t["tf"].to_numpy().astype(np.float64)
        val = t["val"].to_numpy()
        # zero-doc carrier rows have tf=0, val=0 — no log on those
        lp = np.zeros(len(tf))
        pos = tf > 0
        lp[pos] = tf[pos] * np.log10(val[pos] / total)
        uniq, inv = np.unique(doc, return_inverse=True)
        return pa.table(
            {
                "doc_id": pa.array(uniq, pa.int64()),
                "lp_part": pa.array(np.bincount(inv, weights=lp), pa.float64()),
                "tok_part": pa.array(
                    np.bincount(inv, weights=tf).astype(np.int64), pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        lp = t["lp_part"].to_numpy()
        n = t["tok_part"].to_numpy().astype(np.int64)
        avg = np.divide(lp, n, out=np.zeros_like(lp), where=n > 0)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n, pa.int64()),
                "avg_logprob": pa.array(round_half_up(avg, 4), pa.float64()),
            }
        )

    joined = _term_value_rows(ds, cf_agg, "cf", emit_zero_docs=True).map_batches(
        partials, batch_format="pyarrow")
    return (
        joined
        .groupby("doc_id")
        .aggregate(Sum("lp_part", alias_name="lp_part"),
                   Sum("tok_part", alias_name="tok_part"))
        .map_batches(finish, batch_format="pyarrow")
    )
