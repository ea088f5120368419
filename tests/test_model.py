import tracemalloc

import numpy as np
import pytest

from regemb import conv as conv_mod
from regemb import lstm as lstm_mod
from regemb import model as model_mod
from regemb.corpus import Dataset, TokenSequence
from regemb.errors import DataError
from regemb.model import (
    ConvBranch,
    LstmBranch,
    ModelSpec,
    PoolingSpec,
    TopLayerParams,
    attach_embeddings,
    batch_forward_backward,
    batch_scores,
    error_rate,
    iter_params,
    model_forward,
    pool,
    pool_backward,
    predict,
    square_loss,
)
from regemb.numkernel import RngSpec
from regemb.tvembed import TvEmbedding

from oracles import by_doc, pool_doc, pool_doc_backward, region_bounds


def make_lstm_branch(rng, direction="bidirectional", units=3, vocab=6,
                     variant="simplified", pooling=None, scale=0.5):
    def cell():
        p = lstm_mod.LstmParams.create(variant, units, vocab, "one-hot",
                                       rng)
        p.wx[:] = scale * (p.wx / 0.01)
        p.wh[:] = scale * (p.wh / 0.01)
        return p

    fwd = cell() if direction in ("forward", "bidirectional") else None
    bwd = cell() if direction in ("backward", "bidirectional") else None
    return LstmBranch(direction, pooling or PoolingSpec("max", 1), fwd, bwd)


def make_model(seed=0, vocab=6, n_classes=2, branches=None, encoding="01"):
    rng = RngSpec(seed).stream("init")
    if branches is None:
        branches = [make_lstm_branch(rng, vocab=vocab)]
    doc_dim = sum(b.out_dim * b.pooling.regions for b in branches)
    top = TopLayerParams.create(n_classes, doc_dim, rng, std=0.5)
    return ModelSpec(branches, top, n_classes, vocab)


def pool_one(h, spec):
    """pool of one document: its (q*regions,) vector."""
    return pool(h, spec, [h.shape[1]])[:, 0]


def coverage_model(case):
    """oh-2lstmp; wv-2lstmp with a trained or a frozen embedding; or a
    bi-LSTM plus a seq-CNN, both reading a tv side channel."""
    rng = RngSpec(10).stream("init")
    if case == "oh-2lstmp":
        return make_model(seed=10)
    if case.startswith("wv-2lstmp"):
        fwd, bwd = (lstm_mod.LstmParams.create("full", 2, 3, "dense", rng, std=0.5)
                    for _ in range(2))
        branch = LstmBranch("bidirectional", PoolingSpec("max", 2), fwd, bwd,
                            embedding=0.5 * rng.standard_normal((3, 6)),
                            train_embedding=case.endswith("trained"))
        return make_model(branches=[branch])
    spec = make_model(branches=[
        make_lstm_branch(rng, units=2),
        ConvBranch(PoolingSpec("avg", 2), conv_mod.ConvParams.create(3, 2, "seq", 6, rng))])
    emb = TvEmbedding(kind="lstm", dim=2, name="tv0", direction="forward",
                      lstm_params=lstm_mod.LstmParams.create(
                          "full", 2, 6, "one-hot", rng, std=0.5)).freeze()
    attach_embeddings(spec, [emb], rng)
    return spec


class TestPooling:
    def test_max_single_region(self):
        h = np.array([[1.0, 3.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(pool_one(h, PoolingSpec("max", 1)), [3, 0])

    def test_avg_single_region(self):
        h = np.array([[1.0, 3.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(pool_one(h, PoolingSpec("avg", 1)), [2, -1])

    def test_boundary_rule_floor(self):
        assert region_bounds(10, 3) == [(0, 3), (3, 6), (6, 10)]
        assert region_bounds(2, 3) == [(0, 0), (0, 1), (1, 2)]
        assert region_bounds(7, 2) == [(0, 3), (3, 7)]
        # pool uses the same bounds: max pooling the positions gives each
        # region's last position, pooling their negatives its first
        for total, regions in ((10, 3), (7, 2)):
            pos = np.arange(total, dtype=float)[None]
            spec = PoolingSpec("max", regions)
            bounds = region_bounds(total, regions)
            assert list(pool_one(pos, spec)) == [hi - 1 for _, hi in bounds]
            assert list(-pool_one(-pos, spec)) == [lo for lo, _ in bounds]

    def test_paper_configurations_shape(self):
        h = np.random.default_rng(0).standard_normal((4, 30))
        assert pool(h, PoolingSpec("max", 1), [30]).shape == (4, 1)
        assert pool(h, PoolingSpec("avg", 10), [30]).shape == (40, 1)
        assert pool(h, PoolingSpec("max", 10), [12, 18]).shape == (40, 2)

    def test_k1_max_is_global_max(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((5, 17))
        np.testing.assert_array_equal(pool_one(h, PoolingSpec("max", 1)), h.max(axis=1))

    def test_permutation_invariance_within_regions(self):
        # max is exactly invariant; avg reassociates the sum, so allow rounding
        rng = np.random.default_rng(2)
        for kind in ("max", "avg"):
            for k in (1, 3):
                h = rng.standard_normal((3, 12))
                spec = PoolingSpec(kind, k)
                base = pool_one(h, spec)
                shuffled = h.copy()
                for lo, hi in region_bounds(12, k):
                    perm = rng.permutation(hi - lo)
                    shuffled[:, lo:hi] = shuffled[:, lo:hi][:, perm]
                if kind == "max":
                    np.testing.assert_array_equal(pool_one(shuffled, spec), base)
                else:
                    np.testing.assert_allclose(pool_one(shuffled, spec), base,
                                               rtol=1e-12, atol=1e-15)

    def test_short_document_zero_regions(self):
        h = np.ones((2, 2))
        out = pool_one(h, PoolingSpec("max", 4))
        # bounds for T=2, k=4: (0,0),(0,1),(1,2),(1,2) -> first region empty
        assert out.shape == (8,)
        np.testing.assert_array_equal(out[:2], [0, 0])

    def test_empty_document(self):
        out = pool_one(np.zeros((3, 0)), PoolingSpec("avg", 2))
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_backward_max_routes_to_argmax(self):
        h = np.array([[1.0, 3.0, 2.0]])
        dh = pool_backward(h, PoolingSpec("max", 1), [3], np.array([[5.0]]))
        np.testing.assert_array_equal(dh, [[0.0, 5.0, 0.0]])

    def test_backward_max_tie_goes_first(self):
        h = np.array([[2.0, 2.0]])
        dh = pool_backward(h, PoolingSpec("max", 1), [2], np.array([[1.0]]))
        np.testing.assert_array_equal(dh, [[1.0, 0.0]])

    def test_backward_avg_spreads(self):
        h = np.zeros((1, 4))
        dh = pool_backward(h, PoolingSpec("avg", 2), [4], np.array([[2.0], [4.0]]))
        np.testing.assert_array_equal(dh, [[1.0, 1.0, 2.0, 2.0]])


class TestBatchedPooling:
    """pool and pool_backward over ragged batches against the per-document
    reference: max bit for bit, avg up to the order of its sum."""

    TOTALS = [5, 0, 1, 12, 2, 0, 30, 3, 7]  # empty documents, T < regions

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["max", "avg"])
    @pytest.mark.parametrize("regions", [1, 2, 3, 10])
    def test_matches_per_document_reference(self, regions, kind, dtype):
        rng = np.random.default_rng(regions)
        n = sum(self.TOTALS)
        h = rng.standard_normal((5, n))
        h[:3] = rng.integers(-2, 3, size=(3, n))  # rows full of ties
        h = h.astype(dtype)
        dpooled = rng.standard_normal((5 * regions, len(self.TOTALS))).astype(dtype)
        spec = PoolingSpec(kind, regions)
        docs = by_doc(h, self.TOTALS)
        want = np.stack([pool_doc(x, kind, regions) for x in docs], axis=1)
        want_dh = np.concatenate([pool_doc_backward(x, kind, regions, dpooled[:, d])
                                  for d, x in enumerate(docs)], axis=1)
        got = pool(h, spec, self.TOTALS)
        got_dh = pool_backward(h, spec, self.TOTALS, dpooled)
        assert got.shape == want.shape and got.dtype == dtype
        assert got_dh.shape == h.shape and got_dh.dtype == dtype
        if kind == "max":
            np.testing.assert_array_equal(got, want)
        else:
            rtol, atol = (1e-6, 1e-7) if dtype == np.float32 else (1e-12, 1e-15)
            np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)
        np.testing.assert_array_equal(got_dh, want_dh)

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_batches_without_positions(self, kind):
        spec = PoolingSpec(kind, 3)
        for totals in ([], [0], [0, 0]):
            h = np.zeros((2, 0))
            np.testing.assert_array_equal(pool(h, spec, totals), np.zeros((6, len(totals))))
            dh = pool_backward(h, spec, totals, np.ones((6, len(totals))))
            assert dh.shape == (2, 0)


class TestSquareLoss:
    def test_value(self):
        loss, _ = square_loss(np.array([0.2, 0.8]), 1)
        np.testing.assert_allclose(loss, 0.08)

    def test_zero_at_target(self):
        loss, grad = square_loss(np.array([0.0, 1.0, 0.0]), 1)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_gradient(self):
        _, grad = square_loss(np.array([0.0, 0.0]), 0)
        np.testing.assert_array_equal(grad, [-2.0, 0.0])

    def test_pm1_encoding(self):
        loss, _ = square_loss(np.array([1.0, -1.0]), 0, encoding="pm1")
        assert loss == 0.0

    def test_label_range(self):
        with pytest.raises(ValueError):
            square_loss(np.array([0.0, 0.0]), 2)


class TestPredict:
    def test_argmax(self):
        assert predict(np.array([0.1, 0.9])) == 1

    def test_tie_breaks_low(self):
        assert predict(np.array([0.5, 0.5])) == 0

    def test_many_classes(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(55)
        assert 0 <= predict(scores) < 55

    def test_one_class_per_document_column(self):
        scores = np.array([[0.1, 0.7, 0.5], [0.9, 0.2, 0.5]])
        np.testing.assert_array_equal(predict(scores), [1, 0, 0])


class TestModelForward:
    def test_hand_computed_conv_model(self):
        # tiny seq-CNN, all numbers reproduced with explicit arithmetic
        vocab = 3
        w = np.array([[1.0, 0.0, 0.0, 0.0, 2.0, 0.0],   # region (word0, word1*2)
                      [0.0, -1.0, 0.0, 0.0, 0.0, 1.0]])
        b = np.array([0.5, 0.0])
        params = conv_mod.ConvParams(2, 2, "seq", vocab, w, b)
        branch = ConvBranch(PoolingSpec("max", 1), params)
        top = TopLayerParams(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.1, -0.1]))
        spec = ModelSpec([branch], top, 2, vocab)
        doc = TokenSequence(np.array([0, 1, 2]))
        # location 0: regions (0,1): pre = [1 + 2 + .5, -1 + 0] -> relu [3.5, 0]
        # location 1: regions (1,2): pre = [0 + .5, -1 + 1] -> relu [.5, 0]
        # location 2: region (2,pad): pre = [.5, 0] -> relu [.5, 0]
        # max-pool k=1 -> [3.5, 0]; scores = I @ [3.5, 0] + [.1, -.1]
        scores = model_forward(spec, doc)
        np.testing.assert_allclose(scores, [3.6, -0.1], rtol=1e-12)

    def test_eval_deterministic(self):
        spec = make_model(seed=3)
        doc = TokenSequence(np.array([1, 4, 2, 0, 5]))
        a = model_forward(spec, doc)
        b = model_forward(spec, doc)
        np.testing.assert_array_equal(a, b)

    def test_bidirectional_dims(self):
        rng = RngSpec(1).stream("init")
        branch = make_lstm_branch(rng, "bidirectional", units=5, vocab=6)
        assert branch.out_dim == 10
        conv = ConvBranch(PoolingSpec("max", 1),
                          conv_mod.ConvParams.create(7, 2, "seq", 6, rng))
        spec = make_model(branches=[branch, conv], vocab=6)
        assert spec.doc_dim == 17
        doc = TokenSequence(np.array([0, 1, 2, 3]))
        assert model_forward(spec, doc).shape == (2,)

    def test_empty_doc_gives_top_of_zero(self):
        spec = make_model(seed=4)
        scores = model_forward(spec, TokenSequence(np.zeros(0, np.int64)))
        np.testing.assert_array_equal(scores, spec.top.b)

    def test_dropout_mask_applied(self):
        # an all-zero mask leaves the top bias as the scores: no gradient
        # reaches the top weights or any branch
        spec = make_model(seed=6)
        doc = TokenSequence(np.array([2, 3, 1]))
        mask = np.zeros((spec.doc_dim, 1))
        _, grads = batch_forward_backward(spec, [doc], [1], dropout_masks=mask)
        np.testing.assert_array_equal(grads["top.b"], 2.0 * (spec.top.b - [0.0, 1.0]))
        for name, grad in grads.items():
            if name != "top.b":
                np.testing.assert_array_equal(np.asarray(grad), 0.0)

    def test_chopping_applies_only_in_train_mode(self):
        spec = make_model(seed=11)
        rng = np.random.default_rng(3)
        doc = TokenSequence(rng.integers(0, 6, size=20))
        train_loss, _ = batch_forward_backward(spec, [doc], [0], chop_len=4)
        plain_loss, _ = batch_forward_backward(spec, [doc], [0])
        eval_loss = square_loss(model_forward(spec, doc), 0)[0]
        np.testing.assert_allclose(plain_loss, eval_loss, rtol=1e-10)
        assert train_loss != plain_loss

    def test_batch_scores_matches_per_doc(self):
        spec = make_model(seed=7)
        rng = np.random.default_rng(0)
        docs = [TokenSequence(rng.integers(0, 6, size=int(rng.integers(1, 9))))
                for _ in range(7)]
        scores = batch_scores(spec, docs)
        for i, doc in enumerate(docs):
            np.testing.assert_allclose(scores[:, i], model_forward(spec, doc),
                                       rtol=1e-12, atol=1e-13)

    def test_batch_scores_in_blocks_with_tv(self, monkeypatch):
        # more documents than one block; each block computes its own tv
        # outputs unless all of them are given
        monkeypatch.setattr(model_mod, "SCORE_BLOCK", 3)
        spec = make_model(seed=9)
        gen = RngSpec(10).stream("init")
        emb = TvEmbedding(kind="lstm", dim=2, name="tv0", direction="backward",
                          lstm_params=lstm_mod.LstmParams.create(
                              "full", 2, 6, "one-hot", gen, std=0.5)).freeze()
        attach_embeddings(spec, [emb], gen)
        rng = np.random.default_rng(1)
        docs = [TokenSequence(rng.integers(0, 6, size=n)) for n in (5, 1, 7, 3, 0, 4, 2)]
        scores = batch_scores(spec, docs)
        for i, doc in enumerate(docs):
            np.testing.assert_allclose(scores[:, i], model_forward(spec, doc),
                                       rtol=1e-12, atol=1e-13)
        given = batch_scores(spec, docs, model_mod.tv_outputs(spec, docs))
        np.testing.assert_array_equal(given, scores)


def two_tv_embeddings(rng, vocab=6):
    """A frozen LSTM and a frozen bow-CNN embedding."""
    lstm_tv = TvEmbedding(kind="lstm", dim=2, name="tvL", direction="backward",
                          lstm_params=lstm_mod.LstmParams.create(
                              "full", 2, vocab, "one-hot", rng, std=0.5)).freeze()
    params = conv_mod.ConvParams.create(3, 3, "bow", vocab, rng, std=0.5)
    cnn_tv = TvEmbedding(kind="cnn", dim=3, name="tvC", conv_params=params,
                         region_size=3, align_offset=1).freeze()
    return [lstm_tv, cnn_tv]


def scoring_model(case):
    rng = RngSpec(21).stream("init")
    if case in ("bi-k3-max", "bi-k3-avg"):
        return make_model(branches=[make_lstm_branch(
            rng, units=4, pooling=PoolingSpec(case[-3:], 3))])
    if case == "full-two-tv":
        spec = make_model(branches=[make_lstm_branch(
            rng, units=3, variant="full", pooling=PoolingSpec("max", 3))])
        return attach_embeddings(spec, two_tv_embeddings(rng), rng)
    if case == "multi":
        spec = make_model(n_classes=3, branches=[
            ConvBranch(PoolingSpec("max", 2), conv_mod.ConvParams.create(4, 3, "seq", 6, rng)),
            make_lstm_branch(rng, units=3, pooling=PoolingSpec("avg", 2))])
        return attach_embeddings(spec, two_tv_embeddings(rng), rng)
    fwd, bwd = (lstm_mod.LstmParams.create("full", 3, 4, "dense", rng, std=0.5)
                for _ in range(2))
    return make_model(branches=[LstmBranch(
        "bidirectional", PoolingSpec("max", 2), fwd, bwd,
        embedding=0.5 * rng.standard_normal((4, 6)))])


def concatenated_pooled_input(spec, docs):
    """The top-layer input as the model built it before it pooled each part
    on its own: every part runs with its backward state, the parts'
    outputs are concatenated and the branch output is pooled once."""
    totals = [doc.ids.size for doc in docs]
    tv_outs = model_mod.tv_outputs(spec, docs)
    pooled = []
    for branch in spec.branches:
        if isinstance(branch, ConvBranch):
            h, _ = conv_mod.conv_forward(branch.params, docs,
                                         [tv_outs[sp.tv_id] for sp in branch.params.side])
        else:
            inputs = [doc.ids if branch.embedding is None else branch.embedding[:, doc.ids]
                      for doc in docs]
            h = np.concatenate([lstm_mod.batch_forward_docs(
                params, inputs, [tv_outs[sp.tv_id] for sp in params.side],
                reverse=reverse)[0] for _, params, reverse in branch.parts()])
        pooled.append(pool(h, branch.pooling, totals))
    return np.concatenate(pooled)


class TestScoringPass:
    """Scoring runs each LSTM part without its backward state and pools it
    before the next part runs; its scores are those of the training
    forward pass, bit for bit."""

    CASES = ["bi-k3-max", "bi-k3-avg", "full-two-tv", "multi", "wv-2lstmp"]

    @pytest.mark.parametrize("block", [3, model_mod.SCORE_BLOCK])
    @pytest.mark.parametrize("case", CASES)
    def test_scores_equal_the_training_forward(self, monkeypatch, case, block):
        monkeypatch.setattr(model_mod, "SCORE_BLOCK", block)
        spec = scoring_model(case)
        rng = np.random.default_rng(22)
        docs = [TokenSequence(rng.integers(0, 6, size=n))
                for n in (9, 0, 1, 2, 14, 5, 7, 3, 11, 4)]
        want = np.empty((spec.n_classes, len(docs)))
        for lo in range(0, len(docs), block):
            part = docs[lo:lo + block]
            P = concatenated_pooled_input(spec, part)
            trained, _ = model_mod._pooled_forward(
                spec, part, [d.ids.size for d in part], model_mod.tv_outputs(spec, part),
                None, 0, for_backward=True)
            np.testing.assert_array_equal(trained, P, strict=True)
            want[:, lo:lo + block] = spec.top.w @ P + spec.top.b[:, None]
        np.testing.assert_array_equal(batch_scores(spec, docs), want, strict=True)

    def test_peak_memory_is_one_part_without_backward_state(self):
        """tracemalloc sees numpy's allocations.  Scoring an oh-2lstmp model
        holds at most one part's gate buffer and h (the gate buffer is
        dropped before the outputs are gathered), plus 25%: keeping both
        parts' runs, every step's c and tanh(c), or the gate buffer until
        the outputs are gathered all exceed it."""
        rng = RngSpec(23).stream("init")
        spec = make_model(vocab=50, branches=[make_lstm_branch(rng, units=30, vocab=50)])
        docs = [TokenSequence(np.random.default_rng(i).integers(0, 50, size=200))
                for i in range(40)]
        batch_scores(spec, docs[:2])  # one-time allocations outside the measure
        fwd = spec.branches[0].fwd
        n_pos, item = 40 * 200, fwd.wx.itemsize
        gates, h = n_pos * fwd.wx.shape[0] * item, n_pos * fwd.units * item
        tracemalloc.start()
        try:
            batch_scores(spec, docs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (gates + h), (peak, gates, h)


class TestErrorRate:
    def _constant_model(self, cls, n_classes=2):
        # top layer bias fixes the prediction regardless of input
        spec = make_model(seed=8, n_classes=n_classes)
        for name, arr in iter_params(spec):
            arr[:] = 0
        spec.top.b[cls] = 1.0
        return spec

    def test_all_correct(self):
        spec = self._constant_model(0)
        docs = [TokenSequence(np.array([1, 2]), label=0) for _ in range(4)]
        assert error_rate(spec, Dataset(docs, 2)) == 0.0

    def test_one_wrong_of_four(self):
        spec = self._constant_model(0)
        docs = [TokenSequence(np.array([1, 2]), label=0) for _ in range(3)]
        docs.append(TokenSequence(np.array([1, 2]), label=1))
        assert error_rate(spec, Dataset(docs, 2)) == 25.0

    def test_empty_dataset_rejected(self):
        spec = self._constant_model(0)
        with pytest.raises(DataError):
            error_rate(spec, Dataset([], 2))

    def test_unlabeled_rejected(self):
        spec = self._constant_model(0)
        with pytest.raises(DataError):
            error_rate(spec, Dataset([TokenSequence(np.array([1]))], 2))


class TestBatchForwardBackward:
    def test_loss_matches_single_doc_average(self):
        spec = make_model(seed=9)
        rng = np.random.default_rng(1)
        docs = [TokenSequence(rng.integers(0, 6, size=5), label=int(rng.integers(0, 2)))
                for _ in range(4)]
        labels = [d.label for d in docs]
        loss, _ = batch_forward_backward(spec, docs, labels)
        per_doc = [square_loss(model_forward(spec, d), d.label)[0] for d in docs]
        np.testing.assert_allclose(loss, np.mean(per_doc), rtol=1e-10)

    def test_grads_cover_all_params(self):
        # each layer's backward pass names every tensor it trains, in that
        # tensor's shape, also for a minibatch holding an empty document
        docs = [TokenSequence(np.array(ids, dtype=np.int64), label=label)
                for ids, label in (([1, 2, 3, 5], 1), ([], 0), ([4, 0], 1))]
        for case in ("oh-2lstmp", "wv-2lstmp-trained", "wv-2lstmp-frozen", "multi-tv"):
            spec = coverage_model(case)
            _, grads = batch_forward_backward(spec, docs, [d.label for d in docs])
            params = dict(iter_params(spec))
            assert set(grads) == set(params), case
            for name, param in params.items():
                assert np.asarray(grads[name]).shape == param.shape, (case, name)
            if case.startswith("wv"):
                assert ("br0.emb" in grads) == case.endswith("trained")

    def test_composite_gradient_vs_finite_differences(self):
        # bidirectional LSTM + conv + pooling + top, end to end
        eps = 1e-4
        rng = RngSpec(12).stream("init")
        branches = [make_lstm_branch(rng, "bidirectional", units=2, vocab=5),
                    ConvBranch(PoolingSpec("avg", 2),
                               conv_mod.ConvParams.create(3, 2, "seq", 5, rng))]
        spec = make_model(branches=branches, vocab=5, n_classes=3)
        doc = TokenSequence(np.array([0, 3, 1, 4, 2]), label=2)
        _, grads = batch_forward_backward(spec, [doc], [2])

        def loss():
            return square_loss(model_forward(spec, doc), 2)[0]

        for name, arr in iter_params(spec):
            flat = arr.reshape(-1)
            gflat = np.asarray(grads[name]).reshape(-1)
            for c in range(flat.size):
                orig = flat[c]
                flat[c] = orig + eps
                up = loss()
                flat[c] = orig - eps
                down = loss()
                flat[c] = orig
                numeric = (up - down) / (2 * eps)
                err = abs(gflat[c] - numeric) / max(abs(gflat[c]), abs(numeric), 1e-8)
                assert err < 1e-4, (name, c)
