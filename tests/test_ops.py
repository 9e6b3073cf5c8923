"""Dedup / ANN / analysis / multimodal operators against planted ground
truth (the non-SQL-checkable side of the ops suite)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from searchengine_ray.pipelines import analysis, ann, dedup
from searchengine_ray.stages.multimodal import DecodeStage, multimodal_meta

BASE = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa "
    "lambda mu nu xi omicron pi rho sigma tau upsilon"
).split()


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory):
    """documents-schema parquet with planted exact + near duplicates."""
    rng = np.random.default_rng(17)
    texts = []
    for i in range(40):
        texts.append(" ".join(rng.choice(BASE, size=30)))
    texts[2] = texts[1]                       # exact dup pair (1, 2)
    near = texts[3].split()
    near[-1] = "changed"                      # ~97% overlapping words (3, 4)
    texts[4] = " ".join(near)
    tbl = pa.table(
        {
            "doc_id": pa.array(range(40), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 40, pa.string()),
            "source": pa.array([f"s{i % 3}" for i in range(40)], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    d = tmp_path_factory.mktemp("planted")
    pq.write_table(tbl, str(d / "documents.parquet"))
    return str(d)


def test_dedup_exact_finds_planted(planted_dir):
    res = dedup.dedup_exact(planted_dir).to_pandas()
    assert len(res) == 39  # 40 docs, one exact dup collapsed
    dup = res[res.n_copies > 1]
    assert len(dup) == 1 and dup.iloc[0].keep_doc_id == 1 and dup.iloc[0].n_copies == 2


def test_minhash_finds_planted(planted_dir):
    res = dedup.minhash_lsh_pairs(planted_dir, threshold=0.5, verify=True).to_pandas()
    pairs = set(zip(res.doc_a, res.doc_b))
    assert (1, 2) in pairs
    assert (3, 4) in pairs
    exact = res[(res.doc_a == 1) & (res.doc_b == 2)]
    assert float(exact.est_jaccard.iloc[0]) == 1.0
    assert float(exact.jaccard.iloc[0]) == 1.0  # exact verify on candidates
    near = res[(res.doc_a == 3) & (res.doc_b == 4)]
    assert 0.5 <= float(near.jaccard.iloc[0]) < 1.0


def test_minhash_verified_equals_allpairs_jaccard(planted_dir):
    """minhash_verified_pairs (LSH blocking + exact-Jaccard filter) must
    return exactly the all-pairs n-gram Jaccard result — that equality is
    what makes it oracle-checkable."""
    lsh = dedup.minhash_verified_pairs(planted_dir, threshold=0.5).to_pandas()
    allp = (
        dedup.ngram_jaccard_pairs(planted_dir, threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert lsh.reset_index(drop=True).equals(allp)
    assert {(1, 2), (3, 4)} <= set(zip(lsh.doc_a, lsh.doc_b))


def test_simhash_finds_exact_dup(planted_dir):
    res = dedup.simhash_pairs(planted_dir, max_hamming=3).to_pandas()
    pairs = set(zip(res.doc_a, res.doc_b))
    assert (1, 2) in pairs
    assert int(res[(res.doc_a == 1) & (res.doc_b == 2)].hamming.iloc[0]) == 0


def test_ngram_jaccard_finds_planted(planted_dir):
    res = dedup.ngram_jaccard_pairs(planted_dir, threshold=0.5).to_pandas()
    pairs = set(zip(res.doc_a, res.doc_b))
    assert (1, 2) in pairs
    exact = res[(res.doc_a == 1) & (res.doc_b == 2)]
    assert float(exact.jaccard.iloc[0]) == 1.0


def test_dedup_verify_is_distributed(planted_dir, monkeypatch):
    """Regression (round-2 + round-3 VERDICT): the MinHash/SimHash
    candidate-verify steps must not materialize per-doc tables on the
    driver — with Dataset.to_pandas AND the driver-side
    pyarrow.dataset text fetch forbidden, the pipelines still produce
    their pairs via map_batches + broadcast-id joins and the
    distributed vectorized exact-verify."""
    import pyarrow.dataset
    import ray.data

    def _boom(self, *a, **k):
        raise AssertionError("Dataset.to_pandas() called inside a dedup pipeline")

    def _boom_pads(*a, **k):
        raise AssertionError(
            "driver-side pyarrow.dataset() text fetch inside a dedup pipeline"
        )

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", _boom)
    monkeypatch.setattr(pyarrow.dataset, "dataset", _boom_pads)
    mh = dedup.minhash_lsh_pairs(planted_dir, threshold=0.5, verify=True)
    assert (1, 2) in set(zip(mh["doc_a"].to_pylist(), mh["doc_b"].to_pylist()))
    mv = dedup.minhash_verified_pairs(planted_dir, threshold=0.5)
    assert (1, 2) in set(zip(mv["doc_a"].to_pylist(), mv["doc_b"].to_pylist()))
    sh = dedup.simhash_pairs(planted_dir, max_hamming=3)
    assert (1, 2) in set(zip(sh["doc_a"].to_pylist(), sh["doc_b"].to_pylist()))
    ng = dedup.ngram_jaccard_pairs(planted_dir, threshold=0.5)
    got = pa.concat_tables(
        [b for b in ng.iter_batches(batch_format="pyarrow")]
        or [pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()), ("jaccard", pa.float64())]).empty_table()]
    )
    assert (1, 2) in set(zip(got["doc_a"].to_pylist(), got["doc_b"].to_pylist()))


def test_fingerprint_deterministic_and_dup_sensitive(planted_dir):
    a = analysis.fingerprints(planted_dir).to_pandas().set_index("doc_id").fingerprint
    b = analysis.fingerprints(planted_dir).to_pandas().set_index("doc_id").fingerprint
    assert (a == b).all()
    assert a[1] == a[2]  # identical text ⇒ identical fingerprint


def test_lang_id_markers():
    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "the cat and the dog is a pet",
                    "los gatos que viven por las casas",
                    "der hund ist nicht hier und da",
                    "数据 processing 系统",
                ]
            ),
        }
    )
    res = analysis.lang_id_batch(batch).to_pandas()
    assert list(res.pred_lang) == ["en", "es", "de", "zh"]


def test_quality_monotonic():
    batch = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(
                ["word " * 60, "the the the of of!!??"],
            ),
        }
    )
    res = analysis.quality_batch(batch).to_pandas()
    assert res.quality[0] > res.quality[1]


def test_ann_brute_force_matches_numpy():
    res = ann.brute_force_topk("/root/testdata/sf0.001", n_queries=3, k=5).to_pandas()
    qids, qmat = ann.load_queries("/root/testdata/sf0.001", 3)
    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    ids = t["vec_id"].to_numpy()
    m = np.stack([np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()])
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    q = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    for i, qid in enumerate(qids):
        cos = m @ q[i]
        mask = ids != qid
        order = np.argsort(-np.floor(cos * 1e6 + 0.5) * 1000 + ids[mask].argsort().argsort()[0] * 0, kind="stable")
        expect = set(ids[mask][np.argsort(-cos[mask], kind="stable")[:5]].tolist())
        got = set(res[res.query_id == qid].vec_id.tolist())
        assert got == expect, qid


def test_ann_ivf_recall():
    bf = ann.brute_force_topk("/root/testdata/sf0.001", n_queries=5, k=10).to_pandas()
    recalls = {"medoid": [], "kmeans": []}
    for quant in recalls:
        ivf = ann.ivf_topk("/root/testdata/sf0.001", n_queries=5, k=10,
                           nprobe=8, quantizer=quant).to_pandas()
        for qid in bf.query_id.unique():
            b = set(bf[bf.query_id == qid].vec_id)
            v = set(ivf[ivf.query_id == qid].vec_id)
            recalls[quant].append(len(b & v) / len(b))
    # nprobe=8 of 16 clusters on random vectors
    assert np.mean(recalls["medoid"]) >= 0.5
    assert np.mean(recalls["kmeans"]) >= 0.5


def test_ann_reduce_is_distributed(monkeypatch):
    """Regression (round-2 VERDICT): the global top-k reduce must be a
    tree (partial top-k map_batches + bounded Arrow-ref remainder), not
    a driver-side to_pandas over every block's candidates."""
    import ray.data

    def _boom(self, *a, **k):
        raise AssertionError("Dataset.to_pandas() called inside an ANN pipeline")

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", _boom)
    bf = ann.brute_force_topk("/root/testdata/sf0.001", n_queries=2, k=5)
    assert bf.num_rows == 10
    ivf = ann.ivf_topk("/root/testdata/sf0.001", n_queries=2, k=5)
    assert ivf.num_rows == 10


def test_ann_sample_is_partition_order_independent(tmp_path):
    """Regression (round-2 VERDICT): the quantizer sample must not be a
    head slice of the first file — reversing/reshuffling the file layout
    must yield the same sampled rows."""
    src = "/root/testdata/sf0.001"
    t = pq.read_table(f"{src}/embeddings.parquet")
    # adversarial layout: rows in reverse order, split across two files
    rev = t.take(pa.array(np.arange(t.num_rows)[::-1], pa.int64()))
    alt = tmp_path / "alt"
    alt.mkdir()
    half = t.num_rows // 2
    # _sample_embeddings reads <dir>/embeddings.parquet, which may be a
    # DIRECTORY of part files: write the reversed rows as a genuine
    # two-file split so multi-file layouts are actually exercised
    (alt / "embeddings.parquet").mkdir()
    pq.write_table(rev.slice(0, half), str(alt / "embeddings.parquet" / "part-0.parquet"))
    pq.write_table(rev.slice(half), str(alt / "embeddings.parquet" / "part-1.parquet"))
    a = ann._sample_embeddings(src, 16)
    b = ann._sample_embeddings(str(alt), 16)
    assert sorted(a["vec_id"].to_pylist()) == sorted(b["vec_id"].to_pylist())
    assert a["vec_id"].to_pylist() == b["vec_id"].to_pylist()  # key order too


def test_curation_pipeline(planted_dir):
    """Composed curation: dedup keeps the min-doc_id copy, language and
    quality filters apply to the survivors."""
    from searchengine_ray.pipelines import curation

    res = curation.curate(planted_dir, langs=("en", "und"), min_quality=0.0).to_pandas()
    ids = set(res.doc_id)
    assert 1 in ids and 2 not in ids  # exact dup collapsed to keep-first
    assert len(res) == 39
    assert set(res.pred_lang) <= {"en", "und"}
    # every planted doc scores exactly 0.8 (30 clean tokens): a 0.81
    # threshold filters all, 0.8 keeps all
    assert (res.quality == 0.8).all()
    strict = curation.curate(planted_dir, langs=("en", "und"), min_quality=0.81).to_pandas()
    assert len(strict) == 0
    kept = curation.curate(planted_dir, langs=("en", "und"), min_quality=0.8).to_pandas()
    assert set(kept.doc_id) == ids


def test_ivf_partitioned_index(tmp_path):
    """ivf_build writes one directory per coarse cell; ivf_search reads
    only the probed cells and returns exactly ivf_topk's answer (same
    quantizer seed)."""
    import os

    sf = "/root/testdata/sf0.001"
    ivf_dir = str(tmp_path / "ivf")
    ann.ivf_build(sf, ivf_dir, n_clusters=8)
    cells = [d for d in os.listdir(ivf_dir) if d.startswith("cluster=")]
    assert 1 < len(cells) <= 8
    qids, qmat = ann.load_queries(sf, 3)
    got = ann.ivf_search(ivf_dir, qids, qmat, k=5, nprobe=2).to_pandas()
    want = ann.ivf_topk(sf, n_queries=3, k=5, n_clusters=8, nprobe=2).to_pandas()
    assert got.equals(want)


def test_decontaminate_finds_planted_dup(planted_dir):
    """The exact-dup pair (1, 2): doc 2 shares every 8-gram with eval doc
    1 (eval set = doc_id < 2), so it must be flagged; near-dup doc 4
    shares most of doc 3's grams only if 3 is in the eval set."""
    from searchengine_ray.pipelines import curation

    out = curation.decontaminate(planted_dir, eval_max_id=2, n=8).to_pandas()
    assert 2 in set(out.doc_id)
    hit = out[out.doc_id == 2]
    assert int(hit.n_hits.iloc[0]) == 30 - 8 + 1  # all 23 grams of a 30-word doc
    # only doc 2 duplicates an eval doc; everything else is clean
    assert set(out.doc_id) == {2}
    # with the dups swallowed INTO the eval set, nothing remains flagged
    out5 = curation.decontaminate(planted_dir, eval_max_id=5, n=8).to_pandas()
    assert len(out5) == 0


def test_stratified_sample_deterministic(planted_dir):
    from searchengine_ray.pipelines import sampling

    a = sampling.stratified_sample(planted_dir, {"s0": 1.0, "s1": 0.5}).to_pandas()
    b = sampling.stratified_sample(planted_dir, {"s0": 1.0, "s1": 0.5}).to_pandas()
    assert a.sort_values("doc_id").reset_index(drop=True).equals(
        b.sort_values("doc_id").reset_index(drop=True)
    )
    # frac 1.0 keeps every s0 doc; default 0.0 drops s2 entirely
    assert (a[a.source == "s0"].doc_id.nunique()) == 14  # ids 0,3,..39 % 3 == 0
    assert "s2" not in set(a.source)
    sub = sampling.stratified_sample(planted_dir, {"s1": 0.25}).to_pandas()
    assert set(sub.doc_id) <= set(a[a.source == "s1"].doc_id) | set()


def test_pack_sequences_budget(planted_dir):
    from searchengine_ray.pipelines import sampling

    out = sampling.pack_sequences(planted_dir, budget=100).to_pandas().sort_values("doc_id")
    # exclusive prefix sums: recompute serially
    excl = out.n_tokens.cumsum() - out.n_tokens
    assert (out.bin.values == (excl // 100).values).all()
    # bins are non-decreasing in doc order and start at 0
    assert out.bin.iloc[0] == 0
    assert (np.diff(out.bin.values) >= 0).all()


def test_multimodal_resize_and_frames(planted_dir):
    from searchengine_ray.stages.multimodal import resized_meta, sample_frames

    rz = resized_meta(planted_dir, max_side=100).to_pandas()
    assert (rz[["out_w", "out_h"]].max(axis=1) <= 100).all()
    assert (rz.out_w >= 1).all() and (rz.out_h >= 1).all()
    # no upscale: small images keep their dims
    small = rz[(rz.width <= 100) & (rz.height <= 100)]
    assert (small.out_w == small.width).all()

    fr = sample_frames(planted_dir, frame_size=64, every=3).to_pandas()
    assert (fr.frame_idx % 3 == 0).all()
    assert (fr.frame_off == fr.frame_idx * 64).all()
    assert (fr.frame_len > 0).all() and (fr.frame_len <= 64).all()
    # every doc contributes at least its frame 0
    assert set(fr[fr.frame_idx == 0].doc_id) == set(range(40))


def test_multimodal_stub(planted_dir):
    res = multimodal_meta(planted_dir).to_pandas()
    assert len(res) == 40
    row = res[res.doc_id == 1].iloc[0]
    row2 = res[res.doc_id == 2].iloc[0]
    assert row.payload_md5 == row2.payload_md5  # identical payloads
    assert row.width == row.n_bytes % 640 + 1
    # non-PPM real decode still needs the absent media libraries
    with pytest.raises(NotImplementedError):
        DecodeStage("real")(pa.table({"doc_id": pa.array([1]), "payload": pa.array([b"x"], pa.large_binary())}))


def test_multimodal_real_decode_and_resize():
    """mode='real' EXECUTES on generated PPM images (numpy codec):
    decode → real dims, resize → nearest-neighbour pixels, re-encoded
    output round-trips — run through an actual Ray actor-pool stage."""
    import ray.data as rd

    from searchengine_ray.stages.multimodal import (
        ResizeStage, decode_ppm, encode_ppm, resize_nearest)

    imgs = []
    for w, h in [(64, 48), (640, 320), (3, 5)]:
        y, x = np.mgrid[0:h, 0:w]
        img = np.stack([(x * 255 // max(w - 1, 1)).astype(np.uint8),
                        (y * 255 // max(h - 1, 1)).astype(np.uint8),
                        np.full((h, w), 7, np.uint8)], axis=-1)
        imgs.append(img)
    payloads = [encode_ppm(i) for i in imgs]
    # codec round-trip
    for img, p in zip(imgs, payloads):
        assert np.array_equal(decode_ppm(p), img)
    # comment + whitespace tolerant header parse
    hacked = b"P6\n# a comment\n 64  48\n255\n" + payloads[0].split(b"255\n", 1)[1]
    assert np.array_equal(decode_ppm(hacked), imgs[0])

    tbl = pa.table(
        {
            "doc_id": pa.array(range(3), pa.int64()),
            "payload": pa.array(payloads, pa.large_binary()),
        }
    )
    res = (
        rd.from_arrow(tbl)
        # real DecodeStage must carry the payload through so real stages
        # compose: decode (dims + md5) → resize (pixel work)
        .map_batches(DecodeStage, fn_constructor_args=("real",),
                     batch_format="pyarrow", batch_size=2, concurrency=1)
        .map_batches(ResizeStage, fn_constructor_kwargs={"max_side": 100, "mode": "real"},
                     batch_format="pyarrow", batch_size=2, concurrency=1)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(res.width) == [64, 640, 3] and list(res.height) == [48, 320, 5]
    assert list(res.out_w) == [64, 100, 3] and list(res.out_h) == [48, 50, 5]
    # the resized payload decodes and equals the reference numpy resize
    for i, img in enumerate(imgs):
        got = decode_ppm(res.resized[i])
        want = resize_nearest(img, int(res.out_w[i]), int(res.out_h[i]))
        assert np.array_equal(got, want)


def test_dedup_clusters_planted(planted_dir):
    res = dedup.dedup_clusters(planted_dir, threshold=0.8).to_pandas()
    assert len(res) == 40 and set(res.doc_id) == set(range(40))
    by = res.set_index("doc_id")
    # exact dup pair (1, 2) clusters under min id 1
    assert by.loc[1].cluster_id == 1 and by.loc[2].cluster_id == 1
    assert by.loc[1].cluster_size == 2 == by.loc[2].cluster_size
    assert bool(by.loc[1].keep) and not bool(by.loc[2].keep)
    # near-dup pair (3, 4) clusters under 3
    assert by.loc[4].cluster_id == 3 and by.loc[3].cluster_size == 2
    # everything else is a kept singleton
    rest = res[~res.doc_id.isin([1, 2, 3, 4])]
    assert (rest.cluster_id == rest.doc_id).all()
    assert (rest.cluster_size == 1).all() and rest.keep.all()


def test_cc_distributed_matches_driver_on_chain():
    """Distributed hash-to-min label propagation (dedup_clusters
    distributed=True path) on a planted 10k-edge chain: one component,
    min-id labels, identical to the driver union-find."""
    n_edges = 10_000
    pairs = pa.table(
        {
            "doc_a": pa.array(np.arange(n_edges, dtype=np.int64), pa.int64()),
            "doc_b": pa.array(np.arange(1, n_edges + 1, dtype=np.int64), pa.int64()),
        }
    )
    # add a second, disjoint component + a singleton-free sanity edge
    extra = pa.table(
        {
            "doc_a": pa.array([20_000, 20_001], pa.int64()),
            "doc_b": pa.array([20_001, 20_002], pa.int64()),
        }
    )
    pairs = pa.concat_tables([pairs, extra])
    kd, ld = dedup._cc_driver(pairs)
    kx, lx = dedup._cc_distributed(pairs)
    assert np.array_equal(kd, kx)
    assert np.array_equal(ld, lx)
    assert (ld[kd <= n_edges] == 0).all()
    assert (ld[kd >= 20_000] == 20_000).all()


def _star_contract_numpy(a, b):
    """Drive ``dedup._cc_star_bucket`` without Ray, one global bucket,
    until the state stops changing; every step must emit ≤ the rows it
    read (≤ 2·|E| directed rows).  → (keys, labels)."""
    a, b = np.asarray(a, np.int64), np.asarray(b, np.int64)
    state = pa.table({"bucket": pa.array(np.zeros(2 * len(a), np.int32)),
                      "u": np.concatenate([a, b]), "v": np.concatenate([b, a])})
    n_rows, prev = state.num_rows, None
    for _ in range(64):
        for large in (True, False):
            out = dedup._cc_star_bucket(state, large, 1)
            assert out.num_rows <= min(state.num_rows, n_rows)
            state = out
        u, v = state["u"].to_numpy(), state["v"].to_numpy()
        order = np.lexsort((v, u))
        cur = np.stack([u[order], v[order]])
        if prev is not None and np.array_equal(cur, prev):
            break
        prev = cur
    else:
        raise AssertionError("star contraction did not converge")
    u, lo = cur[0], np.minimum(cur[0], cur[1])
    first = np.r_[True, u[1:] != u[:-1]]
    return u[first], np.minimum.reduceat(lo, np.flatnonzero(first))


@pytest.mark.parametrize("graph", ["chain", "chain_shuffled", "star", "clique"])
def test_cc_star_kernels_bound_state_and_match_driver(graph):
    """The distributed CC kernels never hold more edges than they
    started with (a growing state, like hash-to-min's ~6,300× on the
    10k chain, spills the object store to disk) and converge to the
    driver union-find's labels."""
    n = 10_000
    a = np.r_[np.arange(n), 20_000, 20_001]
    b = np.r_[np.arange(1, n + 1), 20_001, 20_002]
    if graph == "chain_shuffled":
        perm = np.random.default_rng(5).permutation(30_000)
        a, b = perm[a], perm[b]
    elif graph == "star":  # 5k leaves around a hub with ids on both sides
        a = np.full(5_000, 2_500)
        b = np.r_[np.arange(2_500), np.arange(2_501, 5_001)]
    elif graph == "clique":
        a, b = np.triu_indices(120, 1)
    keys, labels = _star_contract_numpy(a, b)
    kd, ld = dedup._cc_driver(pa.table({"doc_a": pa.array(a, pa.int64()),
                                        "doc_b": pa.array(b, pa.int64())}))
    assert np.array_equal(keys, kd) and np.array_equal(labels, ld)


def test_dedup_clusters_distributed_equals_default(planted_dir):
    a = dedup.dedup_clusters(planted_dir, threshold=0.8).to_pandas()
    b = dedup.dedup_clusters(planted_dir, threshold=0.8, distributed=True).to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_dedup_clusters_transitive(tmp_path):
    """a~b and b~c but a!~c directly: one cluster via transitivity."""
    base = " ".join(f"w{i}" for i in range(40))
    mid = base.split(); mid[0] = "x0"; mid[1] = "x1"
    far = mid[:]; far[2] = "y2"; far[3] = "y3"
    texts = [base, " ".join(mid), " ".join(far), "solo unrelated words here"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(4), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 4, pa.string()),
            "source": pa.array(["s0"] * 4, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    res = dedup.dedup_clusters(str(tmp_path), threshold=0.8).to_pandas()
    by = res.set_index("doc_id")
    assert by.loc[0].cluster_id == by.loc[1].cluster_id == by.loc[2].cluster_id == 0
    assert by.loc[0].cluster_size == 3
    assert by.loc[3].cluster_id == 3 and by.loc[3].cluster_size == 1


def test_hot_block_salting_preserves_mega_cluster(tmp_path):
    """Round-3 VERDICT #5: an LSH band bucket larger than max_block used
    to be DROPPED, silently losing a mega-cluster's pairs.  With salting
    the bucket splits into capped sub-chunks + bridge pairs, so all 120
    planted near-identical docs still land in ONE cluster under a
    max_block far below the cluster size."""
    n = 120
    base = " ".join(f"w{i}" for i in range(30))
    texts = [base] * n + ["completely different other text here"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n + 1), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * (n + 1), pa.string()),
            "source": pa.array(["s0"] * (n + 1), pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    res = dedup.dedup_clusters(str(tmp_path), threshold=0.8, max_block=16).to_pandas()
    by = res.set_index("doc_id")
    assert (by.loc[range(n)].cluster_id == 0).all()
    assert (by.loc[range(n)].cluster_size == n).all()
    assert by.loc[n].cluster_id == n and by.loc[n].cluster_size == 1
    # the pair list is capped (partial), far below all-pairs n*(n-1)/2
    pairs = dedup.minhash_verified_pairs(str(tmp_path), threshold=0.8, max_block=16)
    assert 0 < pairs.num_rows < n * (n - 1) // 2


def test_tfidf_keywords_ranks_rare_terms(tmp_path):
    """A term unique to one doc must outrank corpus-wide terms there."""
    common = "alpha beta gamma delta"
    texts = [f"{common} zebra zebra", common, common, common]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(4), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 4, pa.string()),
            "source": pa.array(["s0"] * 4, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    res = analysis.tfidf_keywords(str(tmp_path), k=2).to_pandas()
    assert (res.groupby("doc_id")["rank"].max() <= 2).all()
    top0 = res[(res.doc_id == 0) & (res["rank"] == 1)]
    assert top0.term.iloc[0] == "zebra"
    # zebra: tf=2, df=1 -> 2*log10(4); any common term: tf=1, df=4 -> 0
    assert abs(float(top0.score.iloc[0]) - 2 * np.log10(4)) < 1e-3
    # docs of only corpus-wide terms still emit k rows (score 0, term-asc ties)
    d1 = res[res.doc_id == 1].sort_values("rank")
    assert list(d1.term) == ["alpha", "beta"]
    # term-join fallback (driver_cap=1 forces it): identical output
    joined = analysis.tfidf_keywords(str(tmp_path), k=2, driver_cap=1).to_pandas()
    cols = ["doc_id", "rank"]
    assert (res.sort_values(cols).reset_index(drop=True)
            .equals(joined.sort_values(cols).reset_index(drop=True)))


def test_dedup_family_unicode_case_parity(tmp_path):
    """U+0130 regression: python str.lower() expands 'İ' to 'i'+combining
    dot (full Unicode mapping) while Arrow/DuckDB use the simple mapping.
    The whole dedup family must tokenize via the Arrow kernels so engine
    output stays bit-exact against the HUGEINT SQL oracles on such text."""
    import duckdb
    from searchengine_ray.oracle.sql_ops import ops_sql

    texts = ["İstanbul visit İstanbul tour plan",
             "İstanbul visit İstanbul tour plans",
             "a completely different document here",
             "İstanbul visit İstanbul tour plan"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(4), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["tr"] * 4, pa.string()),
            "source": pa.array(["s0"] * 4, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    con = duckdb.connect()
    con.register("documents", tbl)
    sqls = ops_sql()
    for name, fn in [
        ("simhash_pairs", lambda: dedup.simhash_pairs(str(tmp_path), max_block=10**6)),
        ("minhash_lsh_pairs", lambda: dedup.minhash_lsh_pairs(str(tmp_path), verify=True, max_block=10**6)),
        ("dedup_clusters", lambda: dedup.dedup_clusters(str(tmp_path), threshold=0.8)),
        ("fingerprints", lambda: analysis.fingerprints(str(tmp_path))),
        ("tfidf_keywords", lambda: analysis.tfidf_keywords(str(tmp_path), k=5)),
    ]:
        r = fn()
        r = (r.to_pandas() if hasattr(r, "to_pandas") else r.to_pandas())
        o = con.execute(sqls[name]).fetchdf()
        r = r[sorted(r.columns)].sort_values(sorted(r.columns)).reset_index(drop=True)
        o = o[sorted(o.columns)].sort_values(sorted(o.columns)).reset_index(drop=True)
        assert list(r.columns) == list(o.columns), name
        assert len(r) == len(o), (name, len(r), len(o))
        for c in r.columns:
            if str(r[c].dtype).startswith("float"):
                assert np.allclose(r[c], o[c], rtol=0, atol=1e-9), (name, c)
            else:
                assert (r[c].astype(str).values == o[c].astype(str).values).all(), (name, c)


def test_redact_pii_planted(tmp_path):
    """Planted PII: counts and placeholders must match the chained-regex
    SQL twin exactly (the synthetic corpora contain no PII, so the
    replacement paths are only exercised here)."""
    import duckdb
    from searchengine_ray.pipelines import curation
    from searchengine_ray.oracle.sql_ops import ops_sql

    texts = [
        "reach me at jane.doe+spam@mail.example.org or https://ex.am/p?q=1 thanks",
        "ids 123456789 and 98765432101 but keep 12345678",
        "two mails a@b.co c@d.io one url http://h.tld/x",
        "clean document with nothing to hide",
        "",
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
            "source": pa.array(["s0"] * len(texts), pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    res = curation.redact_pii(str(tmp_path)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert res.loc[0, "clean_text"] == "reach me at <EMAIL> or <URL> thanks"
    assert res.loc[0, "n_emails"] == 1 and res.loc[0, "n_urls"] == 1
    assert res.loc[1, "clean_text"] == "ids <NUM> and <NUM> but keep 12345678"
    assert res.loc[1, "n_longnums"] == 2
    assert res.loc[2, "n_emails"] == 2 and res.loc[2, "n_urls"] == 1
    assert res.loc[3, "clean_text"] == texts[3]
    con = duckdb.connect()
    con.register("documents", tbl)
    ora = con.execute(ops_sql()["redact_pii"]).fetchdf().sort_values("doc_id").reset_index(drop=True)
    assert res[sorted(res.columns)].equals(ora[sorted(ora.columns)])


def test_ann_scorers_handle_empty_batch():
    """Zero-row blocks (empty parquet fragments) must not crash any
    scorer or the ivf_build assign stage (the empty-batch class the
    conversation-stats fix covered for events)."""
    import numpy as np
    import pyarrow as pa

    from searchengine_ray.pipelines.ann import (
        BruteForceScorer, IVFScorer, ProbeScorer, _normalize)

    qids = np.array([0, 1], dtype=np.int64)
    qmat = np.eye(2, 4)
    cent = _normalize(np.ones((2, 4)) + np.eye(2, 4))
    probes = {0: {0}, 1: {1}}
    empty = pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
        "cl": pa.array([], pa.int32()),
    })
    for scorer in (
        BruteForceScorer((qids, qmat), 3),
        IVFScorer((qids, qmat, cent, probes), 3),
        ProbeScorer((qids, qmat, probes), 3),
    ):
        out = scorer(empty)
        assert out.num_rows == 0
        assert out.schema.names == ["query_id", "vec_id", "cos"]


def test_ann_ivf_scorer_matches_pre_refactor_semantics():
    """The unified scorer must keep the probe-mask semantics: rows
    assigned to unprobed cells are excluded, self-matches dropped."""
    import numpy as np
    import pyarrow as pa

    from searchengine_ray.pipelines.ann import ProbeScorer

    qids = np.array([7], dtype=np.int64)
    qmat = np.array([[1.0, 0.0]])
    probes = {7: {1}}
    batch = pa.table({
        "vec_id": pa.array([7, 10, 11, 12], pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.8, 0.0]],
                              pa.list_(pa.float32())),
        "cl": pa.array([1, 1, 2, 1], pa.int32()),
    })
    out = ProbeScorer((qids, qmat, probes), 2)(batch)
    # vec 7 is the query itself (dropped), vec 11 is in an unprobed cell
    assert out["vec_id"].to_pylist() == [12, 10]


def test_dedup_clusters_auto_switches_past_edge_cap(planted_dir, monkeypatch):
    """distributed=None (the default) must auto-route to the distributed
    CC path once the edge list crosses limits.cc_driver_edge_cap —
    removing the driver-union-find foot-gun at scale (round-4 VERDICT
    #4).  Forced-low cap via the env knob; result identical either way."""
    calls = []
    orig = dedup._cc_distributed

    def spy(pairs, **kw):
        # the auto path hands _cc_distributed a Ray DATASET (edges never
        # visit the driver); only direct-Table callers see num_rows
        calls.append(type(pairs).__name__)
        return orig(pairs, **kw)

    monkeypatch.setattr(dedup, "_cc_distributed", spy)
    monkeypatch.setenv("GRAFT_CC_DRIVER_EDGE_CAP", "0")
    auto = dedup.dedup_clusters(planted_dir, threshold=0.8).to_pandas()
    assert calls, "edge count above the cap must take _cc_distributed"
    assert calls == ["MaterializedDataset"], (
        f"auto path must pass the edge DATASET, not a driver table: {calls}")
    calls.clear()
    monkeypatch.setenv("GRAFT_CC_DRIVER_EDGE_CAP", "1000000")
    driver = dedup.dedup_clusters(planted_dir, threshold=0.8).to_pandas()
    assert not calls, "below the cap the driver union-find runs"
    a = auto.sort_values("doc_id").reset_index(drop=True)
    b = driver.sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_minhash_join_fallback_matches_broadcast(planted_dir, monkeypatch):
    """Past GRAFT_CAND_BROADCAST_CAP candidate ids, the MinHash paths
    must flip from the driver-id-set + broadcast fetch to Dataset hash
    joins (round-4 VERDICT #5) — bit-identical output either way, and
    the broadcast plumbing must not run at all above the cap."""
    base_pairs = dedup.minhash_verified_pairs(planted_dir, threshold=0.8)
    base_lsh = dedup.minhash_lsh_pairs(planted_dir, threshold=0.7)
    base_lshv = dedup.minhash_lsh_pairs(planted_dir, threshold=0.7, verify=True)

    def boom(*a, **kw):
        raise AssertionError("broadcast path used above the cap")

    monkeypatch.setenv("GRAFT_CAND_BROADCAST_CAP", "0")
    monkeypatch.setattr(dedup, "_rows_for_ids", boom)
    monkeypatch.setattr(dedup, "_candidate_gram_lookup", boom)
    assert dedup.minhash_verified_pairs(planted_dir, threshold=0.8).equals(base_pairs)
    assert dedup.minhash_lsh_pairs(planted_dir, threshold=0.7).equals(base_lsh)
    assert dedup.minhash_lsh_pairs(
        planted_dir, threshold=0.7, verify=True).equals(base_lshv)
    assert base_pairs.num_rows > 0  # the parity check must not be vacuous


def test_minhash_lsh_pairs_respects_shingle(planted_dir):
    """Regression: the shingle argument must reach MinHashStage — it was
    silently dropped (signatures always 3-gram), so est_jaccard scored a
    different quantity than the one requested."""
    t3 = dedup.minhash_lsh_pairs(planted_dir, threshold=0.05)
    t8 = dedup.minhash_lsh_pairs(planted_dir, threshold=0.05, shingle=8)
    assert t3.num_rows > 0
    # different shingle width → different gram sets → different minhash
    # signatures → the est_jaccard values cannot all coincide
    assert not t3.equals(t8)


def test_repetition_batch_planted_values():
    """Hand-computed Gopher repetition signals: dup-line fraction over
    LF-split non-empty lines, dup/top word-2-gram fractions, zero
    denominators scoring 0.0."""
    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "x y\nx y\n\nz w",   # 3 non-empty lines, 1 dup
                    "a b a b a b",       # 5 2-grams: a-b x3, b-a x2
                    "",                   # nothing at all
                ]
            ),
        }
    )
    from searchengine_ray.pipelines.analysis import repetition_batch

    r = repetition_batch(batch).to_pandas().set_index("doc_id")
    assert r.loc[0].n_lines == 3 and abs(r.loc[0].dup_line_frac - round(1 / 3, 4)) < 1e-9
    # doc 0 grams run over the WHOLE token stream (LF is just a token
    # separator, exactly like the SQL twin): x-y, y-x, x-y, y-z, z-w
    assert r.loc[0].n_2grams == 5
    assert abs(r.loc[0].dup_2gram_frac - 0.2) < 1e-9  # 5 windows, 4 distinct
    assert abs(r.loc[0].top_2gram_frac - 0.4) < 1e-9  # "x y" occurs 2/5
    # doc 0 3-grams: x-y-x, y-x-y, x-y-z, y-z-w -> 4 windows, all distinct
    assert r.loc[0].n_3grams == 4
    assert r.loc[0].dup_3gram_frac == 0.0
    assert abs(r.loc[0].top_3gram_frac - 0.25) < 1e-9
    assert r.loc[1].n_lines == 1 and r.loc[1].dup_line_frac == 0.0
    assert r.loc[1].n_2grams == 5
    assert abs(r.loc[1].dup_2gram_frac - 0.6) < 1e-9  # 5 windows, 2 distinct
    assert abs(r.loc[1].top_2gram_frac - 0.6) < 1e-9  # "a b" occurs 3/5
    # doc 1 3-grams: a-b-a, b-a-b, a-b-a, b-a-b -> 4 windows, 2 distinct
    assert r.loc[1].n_3grams == 4
    assert abs(r.loc[1].dup_3gram_frac - 0.5) < 1e-9
    assert abs(r.loc[1].top_3gram_frac - 0.5) < 1e-9
    assert r.loc[2].n_lines == 0 and r.loc[2].n_2grams == 0 and r.loc[2].n_3grams == 0
    assert (r.loc[2][["dup_line_frac", "dup_2gram_frac", "top_2gram_frac",
                      "dup_3gram_frac", "top_3gram_frac"]] == 0.0).all()


def test_repetition_frac_rounding_boundary_matches_oracle():
    """Regression: the SQL twin must compute (total-distinct)/total like
    the engine, not 1 - distinct/total — the two float forms land on
    opposite sides of the 4dp half-up floor at denominators like 160
    (1/160 -> 0.0063 vs 0.0062)."""
    import duckdb

    from searchengine_ray.oracle.sql_ops import ops_sql
    from searchengine_ray.pipelines.analysis import repetition_batch

    txt = "\n".join([f"line {i}" for i in range(159)] + ["line 0"])
    tbl = pa.table({"doc_id": pa.array([0], pa.int64()), "text": pa.array([txt])})
    r = repetition_batch(tbl).to_pandas()
    con = duckdb.connect()
    con.register("documents", tbl)
    o = con.execute(ops_sql()["repetition_stats"]).fetchdf()
    assert float(r.dup_line_frac[0]) == 0.0063
    assert float(o.dup_line_frac[0]) == float(r.dup_line_frac[0])
    for c in ("dup_2gram_frac", "top_2gram_frac", "dup_3gram_frac", "top_3gram_frac"):
        assert abs(float(r[c][0]) - float(o[c][0])) < 1e-12, c
