import numpy as np
import pytest

from regemb import conv as conv_mod
from regemb import lstm as lstm_mod
from regemb.corpus import Dataset, StopwordList, TokenSequence, Vocabulary, target_vocab
from regemb.errors import DataError
from regemb.numkernel import ColumnGrad, RngSpec, precision
from regemb.optim import TrainConfig
from regemb.tvembed import (
    TvEmbedding,
    TvObjectiveSpec,
    _collect_targets,
    _Head,
    _head_terms,
    _sample_negatives_flat,
    apply_tv,
    attach,
    train_tv_cnn,
    train_tv_lstm,
)


def full_vocab(n):
    return Vocabulary([f"w{i}" for i in range(n)])


def successor_corpus(vocab_size=10, n_docs=200, doc_len=12, seed=0):
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        start = int(rng.integers(0, vocab_size))
        docs.append(TokenSequence(np.array([(start + k) % vocab_size
                                            for k in range(doc_len)])))
    return Dataset(docs, 0, [])


def _lstm_targets(ids, spec):
    """The LSTM-form targets of one document: {position: (target ids,
    counts)} for every position with a nonempty target."""
    tgt = _collect_targets([np.asarray(ids)], spec, _bare_emb("lstm"))[0]
    if tgt is None:
        return {}
    ends = np.cumsum(tgt.counts)
    return {int(t): (tgt.flat_ids[e - n:e], tgt.flat_vals[e - n:e])
            for t, n, e in zip(tgt.positions, tgt.counts, ends)}


class TestTvTargets:
    """What the tv-LSTM predicts at each position, as target collection
    finds it."""

    def test_next_two_words(self):
        vocab = full_vocab(10)
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=2, neg_samples=0)
        ids, vals = _lstm_targets([5, 9, 2, 7], spec)[0]
        np.testing.assert_array_equal(ids, [2, 9])
        np.testing.assert_array_equal(vals, [1, 1])

    def test_last_position_is_empty(self):
        vocab = full_vocab(10)
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=2, neg_samples=0)
        assert sorted(_lstm_targets([5, 9, 2, 7], spec)) == [0, 1, 2]

    def test_window_sizes_configurable(self):
        # protocol uses 5 for review data and 20 for news topics
        vocab = full_vocab(30)
        ids = np.arange(30)
        for k in (5, 20):
            spec = TvObjectiveSpec.build(vocab, vocab, k_next=k, neg_samples=0)
            assert _lstm_targets(ids, spec)[0][0].size == k

    def test_backward_direction(self):
        vocab = full_vocab(10)
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=2, neg_samples=0,
                                     direction="backward")
        found = _lstm_targets([5, 9, 2, 7], spec)
        np.testing.assert_array_equal(found[2][0], [5, 9])
        assert 0 not in found

    def test_restricted_to_target_vocab(self):
        source = full_vocab(6)
        target = Vocabulary(["w1", "w3"])
        spec = TvObjectiveSpec.build(source, target, k_next=3, neg_samples=0)
        ids, _ = _lstm_targets([0, 1, 2, 3], spec)[0]
        np.testing.assert_array_equal(ids, [0, 1])  # target ids of w1, w3

    def test_no_stopwords_in_targets(self):
        source = Vocabulary(["the", "good", "movie"], freq=[5, 3, 2])
        tgt = target_vocab(source, StopwordList(frozenset({"the"})), 10)
        spec = TvObjectiveSpec.build(source, tgt, k_next=3, neg_samples=0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            for ids, _ in _lstm_targets(rng.integers(0, 3, size=6), spec).values():
                assert all(tgt.words[tid] != "the" for tid in ids)
        assert spec.target_map[source.index["the"]] == -1


class TestSampleNegativesFlat:
    def test_small_target_vocabulary(self):
        # dim 8, neg 5: rows 0 and 2 have fewer than neg + 1 zero coordinates
        dim, neg = 8, 5
        positives = [np.arange(5), np.array([1, 6]), np.arange(3), np.array([], int),
                     np.array([7])]
        pos_keys = np.sort(np.concatenate(
            [row * dim + p for row, p in enumerate(positives)]).astype(np.int64))
        for seed in range(20):
            rows, coords = _sample_negatives_flat(pos_keys, len(positives), dim, neg,
                                                  np.random.default_rng(seed))
            keys = rows * dim + coords
            assert np.unique(keys).size == keys.size
            assert not np.isin(keys, pos_keys).any()
            for row, pos in enumerate(positives):
                got = np.sort(coords[rows == row])
                zeros = np.setdiff1d(np.arange(dim), pos)
                if zeros.size <= neg:
                    np.testing.assert_array_equal(got, zeros)
                else:
                    assert got.size == neg


class TestHeadTerms:
    def test_exhaustive_negatives_give_the_dense_targets(self):
        # with neg at least the target dimension every position takes all its
        # zero coordinates, so the head's loss is the plain square loss
        # against the dense bow targets
        source = full_vocab(9)
        target = Vocabulary(["w0", "w2", "w3", "w5", "w6", "w8"])
        dim = len(target)
        spec = TvObjectiveSpec.build(source, target, k_next=2, neg_samples=dim)
        rng = np.random.default_rng(1)
        docs = [rng.integers(0, 9, size=n) for n in (7, 1, 12, 4)]
        emb = _bare_emb("lstm")
        batch = [t for t in _collect_targets(docs, spec, emb) if t is not None]
        want = []  # per target position, its dense bow target
        for ref in (_reference_targets(ids, spec, emb) for ids in docs):
            if ref is not None:
                _, counts, flat_ids, flat_vals = ref
                dense = np.zeros((counts.size, dim))
                dense[np.repeat(np.arange(counts.size), counts), flat_ids] = flat_vals
                want.append(dense)
        want = np.concatenate(want)
        for neg in (dim, dim + 3):
            coords, rows, zvals, n_pos = _head_terms(batch, dim, neg,
                                                     np.random.default_rng(2))
            assert n_pos == want.shape[0]
            np.testing.assert_array_equal(np.sort(rows * dim + coords),
                                          np.arange(n_pos * dim))
            dense = np.zeros((n_pos, dim))
            dense[rows, coords] = zvals
            np.testing.assert_array_equal(dense, want)


class TestTrainTvLstm:
    def test_successor_corpus_objective_drops(self):
        ds = successor_corpus()
        vocab = full_vocab(10)
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=1, neg_samples=3)
        cfg = TrainConfig(lr=0.5, momentum=0.9, minibatch=20, epochs=10,
                          dropout_rate=0.0, seed=1)
        emb, logs = train_tv_lstm(ds, spec, dim=10, cfg=cfg)
        assert logs[0].epoch == 0
        assert logs[-1].loss < 0.2 * logs[0].loss
        assert emb.kind == "lstm" and emb.dim == 10 and emb.align_offset == 0

    def test_frozen_after_training(self):
        ds = successor_corpus(n_docs=30, doc_len=6)
        vocab = full_vocab(10)
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=1, neg_samples=2)
        cfg = TrainConfig(lr=0.3, minibatch=10, epochs=1, dropout_rate=0.0, seed=2)
        emb, _ = train_tv_lstm(ds, spec, dim=4, cfg=cfg)
        with pytest.raises(ValueError):
            emb.lstm_params.wx[0, 0] = 1.0

    def test_uses_all_four_gates(self):
        ds = successor_corpus(n_docs=20, doc_len=6)
        vocab = full_vocab(10)
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=1, neg_samples=2)
        cfg = TrainConfig(lr=0.1, minibatch=10, epochs=1, dropout_rate=0.0, seed=3)
        emb, _ = train_tv_lstm(ds, spec, dim=4, cfg=cfg)
        assert emb.lstm_params.variant == "full"
        assert set(emb.lstm_params.gates()) == {"i", "o", "f", "u"}

    def test_empty_corpus_rejected(self):
        vocab = full_vocab(4)
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=1, neg_samples=1)
        with pytest.raises(DataError):
            train_tv_lstm(Dataset([], 0, []), spec, 4,
                          TrainConfig(dropout_rate=0.0))


class TestTrainTvCnn:
    def test_context_objective_drops(self):
        ds = successor_corpus()
        vocab = full_vocab(10)
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=2, neg_samples=3)
        cfg = TrainConfig(lr=0.3, momentum=0.9, minibatch=20, epochs=10,
                          dropout_rate=0.0, seed=1)
        emb, logs = train_tv_cnn(ds, 3, 10, spec, cfg, input_kind="bow")
        assert logs[-1].loss < 0.2 * logs[0].loss
        assert emb.kind == "cnn"
        assert emb.align_offset == 1

    def test_region_size_alignment_metadata(self):
        ds = successor_corpus(n_docs=30)
        vocab = full_vocab(10)
        for region, offset in ((5, 2), (20, 9), (1, 0), (4, 1)):
            spec = TvObjectiveSpec.build(vocab, vocab, k_next=2, neg_samples=2)
            if region > 12:
                continue  # longer than every document: no training regions
            cfg = TrainConfig(lr=0.1, minibatch=10, epochs=0, dropout_rate=0.0)
            emb, _ = train_tv_cnn(ds, region, 4, spec, cfg)
            assert emb.align_offset == offset


class TestApplyTv:
    def _lstm_emb(self, seed=0, dim=3, vocab=6, direction="forward"):
        params = lstm_mod.LstmParams.create("full", dim, vocab, "one-hot",
                                            RngSpec(seed).stream("init"))
        return TvEmbedding(kind="lstm", dim=dim, name=f"L{seed}{direction[0]}",
                           lstm_params=params, direction=direction).freeze()

    def _cnn_emb(self, seed=0, dim=3, vocab=6, region=5):
        params = conv_mod.ConvParams.create(dim, region, "bow", vocab,
                                            RngSpec(seed).stream("init"))
        params.b.flags.writeable = True
        params.b += 0.05  # keep relu mostly active so shifts are observable
        return TvEmbedding(kind="cnn", dim=dim, name=f"C{seed}", conv_params=params,
                           region_size=region,
                           align_offset=(region - 1) // 2).freeze()

    def test_lstm_forward_matches_forward_sequence(self):
        emb = self._lstm_emb()
        ids = np.array([0, 3, 2, 5])
        np.testing.assert_array_equal(apply_tv(emb, [ids])[0],
                                      lstm_mod.forward_sequence(emb.lstm_params, ids))

    def test_lstm_backward_reindexed(self):
        emb = self._lstm_emb(direction="backward")
        ids = np.array([0, 3, 2, 5])
        want = lstm_mod.forward_sequence(emb.lstm_params, ids[::-1])[:, ::-1]
        np.testing.assert_array_equal(apply_tv(emb, [ids])[0], want)

    def test_cnn_center_alignment(self):
        # region of words 0..4 lands on position 2
        emb = self._cnn_emb(region=5)
        ids = np.arange(6) % 6
        out = apply_tv(emb, [ids])[0]
        assert out.shape == (3, 6)
        np.testing.assert_array_equal(out[:, :2], np.zeros((3, 2)))
        np.testing.assert_array_equal(out[:, 4:], np.zeros((3, 2)))
        pre = conv_mod.pre_activation(emb.conv_params, ids, [6])[:, 0]
        np.testing.assert_allclose(out[:, 2], np.maximum(pre, 0), rtol=1e-12)

    def test_region_one_is_positionwise(self):
        emb = self._cnn_emb(region=1)
        ids = np.array([1, 4, 0])
        out = apply_tv(emb, [ids])[0]
        full = conv_mod.conv_forward(emb.conv_params, [ids])[0][0]
        np.testing.assert_array_equal(out, full)

    def test_short_doc_all_zero(self):
        emb = self._cnn_emb(region=5)
        out = apply_tv(emb, [np.array([1, 2, 3])])[0]
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_cnn_shift_property(self):
        emb = self._cnn_emb(region=3)
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 6, size=9)
        shifted = np.concatenate([[2], ids])
        a = apply_tv(emb, [ids])[0]
        b = apply_tv(emb, [shifted])[0]
        # interior columns move right by one
        np.testing.assert_array_equal(b[:, 2:9], a[:, 1:8])


class TestAttach:
    def test_zero_side_matrices_reproduce_unattached(self):
        rng = RngSpec(0)
        params = lstm_mod.LstmParams.create("simplified", 3, 6, "one-hot",
                                            rng.stream("init"))
        base = params.copy()
        emb = TestApplyTv()._lstm_emb(seed=1)
        attach(params, [emb], rng)
        for sp in params.side:
            sp.w[:] = 0.0
        ids = np.array([0, 2, 4, 1])
        side = [apply_tv(emb, [ids])[0]]
        with_side = lstm_mod.forward_sequence(params, ids, side_seq=side)
        without = lstm_mod.forward_sequence(base, ids)
        np.testing.assert_array_equal(with_side, without)

    def test_lstm_gets_matrix_per_gate(self):
        rng = RngSpec(1)
        params = lstm_mod.LstmParams.create("full", 3, 6, "one-hot", rng.stream("init"))
        emb = TestApplyTv()._lstm_emb(seed=2)
        attach(params, [emb], rng)
        assert params.side[0].w.shape == (4 * 3, emb.dim)  # a row block per gate
        side_names = [name for name, _ in lstm_mod.gate_tensors(params)
                      if name.startswith("side.")]
        assert side_names == [f"side.{emb.name}.{g}" for g in ("i", "o", "f", "u")]

    def test_conv_gets_single_matrix(self):
        rng = RngSpec(2)
        params = conv_mod.ConvParams.create(4, 2, "seq", 6, rng.stream("init"))
        emb = TestApplyTv()._cnn_emb(seed=3)
        attach(params, [emb], rng)
        assert params.side[0].w.shape == (4, emb.dim)

    def test_duplicate_rejected(self):
        rng = RngSpec(3)
        params = lstm_mod.LstmParams.create("simplified", 2, 4, "one-hot",
                                            rng.stream("init"))
        emb = TestApplyTv()._lstm_emb(seed=4, vocab=4)
        attach(params, [emb], rng)
        with pytest.raises(ValueError):
            attach(params, [emb], rng)

    def test_five_embedding_combination(self):
        # two LSTM directions plus three CNN variants on one branch
        rng = RngSpec(4)
        params = lstm_mod.LstmParams.create("simplified", 3, 6, "one-hot",
                                            rng.stream("init"))
        helper = TestApplyTv()
        embs = [helper._lstm_emb(seed=10, direction="forward"),
                helper._lstm_emb(seed=11, direction="backward"),
                helper._cnn_emb(seed=12, region=1),
                helper._cnn_emb(seed=13, region=3),
                helper._cnn_emb(seed=14, region=5)]
        attach(params, embs, rng)
        assert [sp.tv_id for sp in params.side] == [e.name for e in embs]
        ids = np.arange(8) % 6
        side = [apply_tv(e, [ids])[0] for e in embs]
        h = lstm_mod.forward_sequence(params, ids, side_seq=side)
        assert h.shape == (3, 8)

    def test_frozen_through_downstream_training(self, tmp_path):
        # serialized tv parameters are byte-identical before and after any
        # amount of supervised training that uses them as side input
        from regemb.corpus import Dataset
        from regemb.model import (LstmBranch, ModelSpec, PoolingSpec,
                                  TopLayerParams, attach_embeddings)
        from regemb.serialize import save_tv
        from regemb.optim import TrainConfig, train

        rng = RngSpec(6)
        emb = TestApplyTv()._lstm_emb(seed=7, vocab=6)
        before = tmp_path / "before.tv"
        save_tv(before, emb)
        gen = rng.stream("init")
        branch = LstmBranch(
            "forward", PoolingSpec("max", 1),
            lstm_mod.LstmParams.create("simplified", 3, 6, "one-hot", gen))
        spec = ModelSpec([branch], TopLayerParams.create(2, 3, gen), 2, 6)
        attach_embeddings(spec, [emb], gen)
        docs = [TokenSequence(np.array([0, 2, 4, 1]), label=0),
                TokenSequence(np.array([5, 3, 1]), label=1)]
        cfg = TrainConfig(lr=0.2, epochs=5, minibatch=2, dropout_rate=0.0, seed=1)
        train(spec, Dataset(docs, 2, ["a", "b"]), None, cfg)
        after = tmp_path / "after.tv"
        save_tv(after, emb)
        assert before.read_bytes() == after.read_bytes()

    def test_side_linearity_in_matrices(self):
        # gate pre-activations are affine in the side matrices: doubling the
        # matrices exactly doubles the side contribution
        rng = RngSpec(5)
        params = conv_mod.ConvParams.create(3, 2, "seq", 5, rng.stream("init"))
        emb = TestApplyTv()._cnn_emb(seed=6, vocab=5, region=1)
        attach(params, [emb], rng)
        ids = np.array([0, 4, 2, 1])
        sv = [apply_tv(emb, [ids])[0]]
        pre1 = conv_mod.pre_activation(params, ids, [4], sv)
        saved = params.side[0].w.copy()
        params.side[0].w[:] = 0.0
        pre0 = conv_mod.pre_activation(params, ids, [4], sv)
        params.side[0].w[:] = 2.0 * saved
        pre2 = conv_mod.pre_activation(params, ids, [4], sv)
        np.testing.assert_allclose(pre2 - pre0, 2.0 * (pre1 - pre0), rtol=1e-12)


def _bare_emb(kind, region=None, direction="forward"):
    """Alignment metadata only: all that target collection reads."""
    if kind == "lstm":
        return TvEmbedding(kind="lstm", dim=2, name="L", direction=direction)
    return TvEmbedding(kind="cnn", dim=2, name="C", region_size=region,
                       align_offset=(region - 1) // 2)


def _reference_targets(ids, spec, emb):
    """Per-position targets, one window at a time: for the LSTM form, the k
    words after position t (forward) or before it (backward); for the CNN
    form, the k words on each side of the region starting at l, placed at
    l + align_offset.  Windows stop at the document's ends."""
    k = spec.k_next
    windows = []
    if emb.kind == "lstm":
        for t in range(len(ids)):
            window = ids[t + 1:t + 1 + k] if spec.direction == "forward" \
                else ids[max(0, t - k):t]
            windows.append((t, window))
    else:
        size = emb.region_size
        for start in range(len(ids) - size + 1):
            windows.append((start + emb.align_offset,
                            np.concatenate([ids[max(0, start - k):start],
                                            ids[start + size:start + size + k]])))
    found = []
    for t, window in windows:
        mapped = spec.target_map[window]
        uniq, counts = np.unique(mapped[mapped >= 0], return_counts=True)
        if uniq.size:
            found.append((t, uniq, counts))
    if not found:
        return None
    return (np.array([t for t, _, _ in found], dtype=np.int64),
            np.array([len(i) for _, i, _ in found], dtype=np.int64),
            np.concatenate([i for _, i, _ in found]).astype(np.int64),
            np.concatenate([v for _, _, v in found]).astype(float))


class TestCollectTargets:
    # lengths 0-2 and shorter than every region, among longer documents
    LENGTHS = (7, 0, 1, 2, 12, 3, 0, 9)

    def _case(self, k):
        source = full_vocab(9)
        target = Vocabulary(["w0", "w2", "w3", "w5", "w6", "w8"])  # others map to -1
        spec = TvObjectiveSpec.build(source, target, k_next=k, neg_samples=2)
        rng = np.random.default_rng(k)
        docs = [rng.integers(0, 9, size=n) for n in self.LENGTHS]
        return spec, docs

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("kind,region,direction", [
        ("lstm", None, "forward"), ("lstm", None, "backward"),
        ("cnn", 1, "forward"), ("cnn", 3, "forward"), ("cnn", 5, "forward"),
        ("cnn", 4, "backward"),
    ])
    def test_matches_window_by_window(self, k, kind, region, direction):
        spec, docs = self._case(k)
        spec.direction = direction
        emb = _bare_emb(kind, region, direction)
        got = _collect_targets(docs, spec, emb)
        assert len(got) == len(docs)
        assert got[1] is None and got[6] is None  # empty documents
        for ids, tgt in zip(docs, got):
            want = _reference_targets(ids, spec, emb)
            if want is None:
                assert tgt is None
                continue
            for have, expect in zip((tgt.positions, tgt.counts, tgt.flat_ids,
                                     tgt.flat_vals), want):
                assert have.dtype == expect.dtype
                np.testing.assert_array_equal(have, expect)

    def test_no_documents(self):
        spec, _ = self._case(2)
        assert _collect_targets([], spec, _bare_emb("lstm")) == []


def _emb(kind, seed, std=0.5, direction="forward", region=3, input_kind="bow",
         dim=3, vocab=7):
    gen = RngSpec(seed).stream("init")
    if kind == "lstm":
        params = lstm_mod.LstmParams.create("full", dim, vocab, "one-hot", gen,
                                            std=std)
        return TvEmbedding(kind="lstm", dim=dim, name="L", lstm_params=params,
                           direction=direction)
    params = conv_mod.ConvParams.create(dim, region, input_kind, vocab, gen,
                                        std=std)
    params.b += 0.1  # most pre-activations positive, none near the relu kink
    return TvEmbedding(kind="cnn", dim=dim, name="C", conv_params=params,
                       region_size=region, align_offset=(region - 1) // 2)


EMBEDDINGS = [("lstm", "forward", 3, "bow"), ("lstm", "backward", 3, "bow"),
              ("cnn", "forward", 3, "seq"), ("cnn", "forward", 4, "bow"),
              ("cnn", "forward", 5, "seq")]
EMB_IDS = [f"{k}-{d}-{r}-{i}" for k, d, r, i in EMBEDDINGS]


class TestApplyTvBatched:
    @pytest.mark.parametrize("kind,direction,region,input_kind", EMBEDDINGS,
                             ids=EMB_IDS)
    def test_list_matches_one_document_calls(self, kind, direction, region,
                                             input_kind):
        with precision("float64"):
            emb = _emb(kind, 3, direction=direction, region=region,
                       input_kind=input_kind).freeze()
            rng = np.random.default_rng(4)
            docs = [rng.integers(0, 7, size=n) for n in (6, 0, 2, 11, 1, 4, 9)]
            batched = apply_tv(emb, docs)
            assert len(batched) == len(docs)
            for ids, out in zip(docs, batched):
                alone = apply_tv(emb, [ids])[0]
                assert out.shape == alone.shape == (emb.dim, len(ids))
                np.testing.assert_allclose(out, alone, rtol=1e-12, atol=0)

    def test_more_documents_than_one_block(self, monkeypatch):
        import regemb.model as model_mod

        monkeypatch.setattr(model_mod, "SCORE_BLOCK", 3)
        with precision("float64"):
            emb = _emb("lstm", 5).freeze()
            rng = np.random.default_rng(6)
            docs = [rng.integers(0, 7, size=n) for n in (4, 2, 5, 3, 0, 6, 1)]
            for ids, out in zip(docs, apply_tv(emb, docs)):
                np.testing.assert_allclose(out, apply_tv(emb, [ids])[0],
                                           rtol=1e-12, atol=0)


class TestTvEmbeddingGradients:
    @pytest.mark.parametrize("kind,direction,region,input_kind,seg_len,overlap", [
        (*e, None, 0) for e in EMBEDDINGS] + [("lstm", "backward", 3, "bow", 3, 1)],
        ids=EMB_IDS + ["lstm-backward-chop3-overlap1"])
    def test_matches_central_differences(self, kind, direction, region, input_kind,
                                         seg_len, overlap):
        with precision("float64"):
            emb = _emb(kind, 8, direction=direction, region=region,
                       input_kind=input_kind)
            rng = np.random.default_rng(9)
            docs = [rng.integers(0, 7, size=n) for n in (7, 2, 0, 5)]
            ups = [rng.standard_normal((emb.dim, len(ids))) for ids in docs]

            def objective():
                outs, _ = emb.outputs(docs, seg_len, overlap)
                return sum(float(np.sum(u * h)) for u, h in zip(ups, outs))

            _, run = emb.outputs(docs, seg_len, overlap)
            grads = emb.gradients(run, ups)
            tensors = dict(emb.tensors())
            assert list(grads) == list(tensors)
            eps = 1e-6
            for name, param in tensors.items():
                analytic = np.asarray(grads[name]).reshape(param.shape)
                flat = param.reshape(-1)  # a view: the rows of a stacked tensor
                numeric = np.zeros(flat.size)
                for c in range(flat.size):
                    orig = flat[c]
                    flat[c] = orig + eps
                    up = objective()
                    flat[c] = orig - eps
                    down = objective()
                    flat[c] = orig
                    numeric[c] = (up - down) / (2 * eps)
                np.testing.assert_allclose(analytic.reshape(-1), numeric,
                                           rtol=1e-5, atol=1e-7, err_msg=name)

    def test_cnn_upstream_outside_regions_is_ignored(self):
        # positions no complete region lands on carry no output, so their
        # upstream changes no gradient
        with precision("float64"):
            emb = _emb("cnn", 10, region=5, input_kind="seq")
            ids = np.array([1, 4, 2, 6, 0, 3, 5])
            _, run = emb.outputs([ids])
            up = np.random.default_rng(11).standard_normal((emb.dim, len(ids)))
            grads = emb.gradients(run, [up])
            up[:, :2] = 7.0
            up[:, 5:] = -7.0
            moved = emb.gradients(run, [up])
            for name in grads:
                np.testing.assert_array_equal(np.asarray(moved[name]),
                                              np.asarray(grads[name]))


class TestHead:
    def test_gradients_match_central_differences(self):
        # the training loss sum((p - z)^2) over a minibatch's active
        # coordinates; coordinates repeat across positions
        with precision("float64"):
            gen = np.random.default_rng(12)
            head = _Head(9, 3, gen, np.float64)
            head.b[:] = gen.standard_normal(9)
            h_all = gen.standard_normal((3, 4))
            coords = np.array([2, 5, 2, 8, 0, 5, 5])
            rows = np.array([0, 0, 1, 1, 2, 3, 2])
            z = gen.standard_normal(coords.size)

            def loss():
                diff = head.forward(h_all, coords, rows) - z
                return float(np.sum(diff * diff))

            dp = 2.0 * (head.forward(h_all, coords, rows) - z)
            dw, db, dh_all = head.backward(h_all, coords, rows, dp)
            assert isinstance(dw, ColumnGrad)
            np.testing.assert_array_equal(dw.cols, [0, 2, 5, 8])
            eps = 1e-6
            for name, param, grad in (("w", head.w, dw), ("b", head.b, db),
                                      ("h", h_all, dh_all)):
                numeric = np.zeros(param.shape)
                for c in np.ndindex(param.shape):
                    orig = param[c]
                    param[c] = orig + eps
                    up = loss()
                    param[c] = orig - eps
                    down = loss()
                    param[c] = orig
                    numeric[c] = (up - down) / (2 * eps)
                np.testing.assert_allclose(np.asarray(grad), numeric,
                                           rtol=1e-5, atol=1e-7, err_msg=name)
