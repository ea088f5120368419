import numpy as np
import pytest

from regemb import conv as conv_mod
from regemb import lstm as lstm_mod
from regemb.corpus import Dataset, StopwordList, TokenSequence, Vocabulary, target_vocab
from regemb.errors import DataError
from regemb.numkernel import RngSpec, SparseVector
from regemb.optim import TrainConfig
from regemb.tvembed import (
    TvEmbedding,
    TvObjectiveSpec,
    _sample_negatives_flat,
    apply_tv,
    attach,
    sample_negative_weights,
    train_tv_cnn,
    train_tv_lstm,
    tv_targets,
    weighted_square_loss,
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


class TestTvTargets:
    def test_next_two_words(self):
        vocab = full_vocab(10)
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=2, neg_samples=0)
        z = tv_targets(np.array([5, 9, 2, 7]), 0, spec)
        np.testing.assert_array_equal(z.indices, [2, 9])
        np.testing.assert_array_equal(z.values, [1, 1])

    def test_last_position_is_empty(self):
        vocab = full_vocab(10)
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=2, neg_samples=0)
        z = tv_targets(np.array([5, 9, 2, 7]), 3, spec)
        assert z.nnz == 0

    def test_window_sizes_configurable(self):
        # protocol uses 5 for review data and 20 for news topics
        vocab = full_vocab(30)
        ids = np.arange(30)
        for k in (5, 20):
            spec = TvObjectiveSpec.build(vocab, vocab, k_next=k, neg_samples=0)
            z = tv_targets(ids, 0, spec)
            assert z.nnz == k

    def test_backward_direction(self):
        vocab = full_vocab(10)
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=2, neg_samples=0,
                                     direction="backward")
        z = tv_targets(np.array([5, 9, 2, 7]), 2, spec)
        np.testing.assert_array_equal(z.indices, [5, 9])
        z0 = tv_targets(np.array([5, 9, 2, 7]), 0, spec)
        assert z0.nnz == 0

    def test_restricted_to_target_vocab(self):
        source = full_vocab(6)
        target = Vocabulary(["w1", "w3"])
        spec = TvObjectiveSpec.build(source, target, k_next=3, neg_samples=0)
        z = tv_targets(np.array([0, 1, 2, 3]), 0, spec)
        np.testing.assert_array_equal(z.indices, [0, 1])  # target ids of w1, w3

    def test_no_stopwords_in_targets(self):
        source = Vocabulary(["the", "good", "movie"], freq=[5, 3, 2])
        tgt = target_vocab(source, StopwordList(frozenset({"the"})), 10)
        spec = TvObjectiveSpec.build(source, tgt, k_next=3, neg_samples=0)
        stop_source_id = source.id_of("the")
        rng = np.random.default_rng(0)
        for _ in range(20):
            ids = rng.integers(0, 3, size=6)
            for t in range(6):
                z = tv_targets(ids, t, spec)
                for tid in z.indices:
                    assert tgt.words[tid] != "the"
        assert spec.target_map[stop_source_id] == -1

    def test_position_out_of_range(self):
        vocab = full_vocab(4)
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=1, neg_samples=0)
        with pytest.raises(ValueError):
            tv_targets(np.array([0, 1]), 2, spec)


class TestWeightedSquareLoss:
    def test_zero_at_exact_prediction(self):
        z = SparseVector(5, np.array([1, 3]), np.array([2.0, 1.0]))
        weights = SparseVector(5, np.arange(5), np.ones(5))
        loss, grad = weighted_square_loss(z.densify(), z, weights)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(5))

    def test_single_positive_single_negative(self):
        p = np.zeros(3)
        z = SparseVector(3, np.array([0]), np.array([1.0]))
        weights = SparseVector(3, np.array([0, 2]), np.array([1.0, 1.0]))
        loss, grad = weighted_square_loss(p, z, weights)
        assert loss == 1.0
        np.testing.assert_array_equal(grad, [-2.0, 0.0, 0.0])

    def test_gradient_supported_on_weights_only(self):
        rng = np.random.default_rng(1)
        p = rng.standard_normal(8)
        z = SparseVector(8, np.array([2, 5]), np.array([1.0, 2.0]))
        weights = SparseVector(8, np.array([1, 2, 5]), np.ones(3))
        _, grad = weighted_square_loss(p, z, weights)
        assert set(np.nonzero(grad)[0]).issubset({1, 2, 5})

    def test_exhaustive_weights_equal_plain_square_loss(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal(6)
        z = SparseVector(6, np.array([1, 4]), np.array([1.0, 3.0]))
        weights = sample_negative_weights(z, 6 - z.nnz, rng)
        loss, _ = weighted_square_loss(p, z, weights)
        np.testing.assert_allclose(loss, float(np.sum((z.densify() - p) ** 2)),
                                   rtol=1e-12)

    def test_dim_mismatch(self):
        z = SparseVector(4, np.array([0]), np.array([1.0]))
        w = SparseVector(4, np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            weighted_square_loss(np.zeros(5), z, w)


class TestSampleNegatives:
    def test_counts_and_exclusion(self):
        rng = np.random.default_rng(3)
        z = SparseVector(50, np.array([3, 10, 12]), np.ones(3))
        for _ in range(20):
            w = sample_negative_weights(z, 5, rng)
            assert w.nnz == 8
            assert set(z.indices).issubset(set(w.indices))
            negatives = set(w.indices) - set(z.indices)
            assert len(negatives) == 5

    def test_exhaustive_when_requesting_all(self):
        rng = np.random.default_rng(4)
        z = SparseVector(10, np.array([0]), np.ones(1))
        w = sample_negative_weights(z, 9, rng)
        np.testing.assert_array_equal(w.indices, np.arange(10))


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
        spec = TvObjectiveSpec.build(vocab, vocab, k_next=2, neg_samples=3,
                                     region_size=3)
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
            spec = TvObjectiveSpec.build(vocab, vocab, k_next=2, neg_samples=2,
                                         region_size=region)
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
        np.testing.assert_array_equal(apply_tv(emb, ids),
                                      lstm_mod.forward_sequence(emb.lstm_params, ids))

    def test_lstm_backward_reindexed(self):
        emb = self._lstm_emb(direction="backward")
        ids = np.array([0, 3, 2, 5])
        want = lstm_mod.forward_sequence(emb.lstm_params, ids[::-1])[:, ::-1]
        np.testing.assert_array_equal(apply_tv(emb, ids), want)

    def test_cnn_center_alignment(self):
        # region of words 0..4 lands on position 2
        emb = self._cnn_emb(region=5)
        ids = np.arange(6) % 6
        out = apply_tv(emb, ids)
        assert out.shape == (3, 6)
        np.testing.assert_array_equal(out[:, :2], np.zeros((3, 2)))
        np.testing.assert_array_equal(out[:, 4:], np.zeros((3, 2)))
        pre = conv_mod.pre_activation(emb.conv_params, ids)[:, 0]
        np.testing.assert_allclose(out[:, 2], np.maximum(pre, 0), rtol=1e-12)

    def test_region_one_is_positionwise(self):
        emb = self._cnn_emb(region=1)
        ids = np.array([1, 4, 0])
        out = apply_tv(emb, ids)
        full = conv_mod.conv_forward(emb.conv_params, ids)
        np.testing.assert_array_equal(out, full)

    def test_short_doc_all_zero(self):
        emb = self._cnn_emb(region=5)
        out = apply_tv(emb, np.array([1, 2, 3]))
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_cnn_shift_property(self):
        emb = self._cnn_emb(region=3)
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 6, size=9)
        shifted = np.concatenate([[2], ids])
        a = apply_tv(emb, ids)
        b = apply_tv(emb, shifted)
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
        side = [apply_tv(emb, ids)]
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
        side = [apply_tv(e, ids) for e in embs]
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
        sv = [apply_tv(emb, ids)]
        pre1 = conv_mod.pre_activation(params, ids, sv)
        saved = params.side[0].w.copy()
        params.side[0].w[:] = 0.0
        pre0 = conv_mod.pre_activation(params, ids, sv)
        params.side[0].w[:] = 2.0 * saved
        pre2 = conv_mod.pre_activation(params, ids, sv)
        np.testing.assert_allclose(pre2 - pre0, 2.0 * (pre1 - pre0), rtol=1e-12)
