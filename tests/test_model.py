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
    batch_forward_backward,
    batch_scores,
    error_rate,
    iter_params,
    model_forward,
    pool,
    pool_backward,
    predict,
    region_bounds,
    square_loss,
)
from regemb.numkernel import RngSpec


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


class TestPooling:
    def test_max_single_region(self):
        h = np.array([[1.0, 3.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(pool(h, PoolingSpec("max", 1)), [3, 0])

    def test_avg_single_region(self):
        h = np.array([[1.0, 3.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(pool(h, PoolingSpec("avg", 1)), [2, -1])

    def test_boundary_rule_floor(self):
        assert region_bounds(10, 3) == [(0, 3), (3, 6), (6, 10)]
        assert region_bounds(2, 3) == [(0, 0), (0, 1), (1, 2)]
        assert region_bounds(7, 2) == [(0, 3), (3, 7)]

    def test_paper_configurations_shape(self):
        h = np.random.default_rng(0).standard_normal((4, 30))
        assert pool(h, PoolingSpec("max", 1)).shape == (4,)
        assert pool(h, PoolingSpec("avg", 10)).shape == (40,)
        assert pool(h, PoolingSpec("max", 10)).shape == (40,)

    def test_k1_max_is_global_max(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((5, 17))
        np.testing.assert_array_equal(pool(h, PoolingSpec("max", 1)), h.max(axis=1))

    def test_permutation_invariance_within_regions(self):
        # max is exactly invariant; avg reassociates the sum, so allow rounding
        rng = np.random.default_rng(2)
        for kind in ("max", "avg"):
            for k in (1, 3):
                h = rng.standard_normal((3, 12))
                spec = PoolingSpec(kind, k)
                base = pool(h, spec)
                shuffled = h.copy()
                for lo, hi in region_bounds(12, k):
                    perm = rng.permutation(hi - lo)
                    shuffled[:, lo:hi] = shuffled[:, lo:hi][:, perm]
                if kind == "max":
                    np.testing.assert_array_equal(pool(shuffled, spec), base)
                else:
                    np.testing.assert_allclose(pool(shuffled, spec), base,
                                               rtol=1e-12, atol=1e-15)

    def test_short_document_zero_regions(self):
        h = np.ones((2, 2))
        out = pool(h, PoolingSpec("max", 4))
        # bounds for T=2, k=4: (0,0),(0,1),(1,2),(1,2) -> first region empty
        assert out.shape == (8,)
        np.testing.assert_array_equal(out[:2], [0, 0])

    def test_empty_document(self):
        out = pool(np.zeros((3, 0)), PoolingSpec("avg", 2))
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_backward_max_routes_to_argmax(self):
        h = np.array([[1.0, 3.0, 2.0]])
        dh = pool_backward(h, PoolingSpec("max", 1), np.array([5.0]))
        np.testing.assert_array_equal(dh, [[0.0, 5.0, 0.0]])

    def test_backward_max_tie_goes_first(self):
        h = np.array([[2.0, 2.0]])
        dh = pool_backward(h, PoolingSpec("max", 1), np.array([1.0]))
        np.testing.assert_array_equal(dh, [[1.0, 0.0]])

    def test_backward_avg_spreads(self):
        h = np.zeros((1, 4))
        dh = pool_backward(h, PoolingSpec("avg", 2), np.array([2.0, 4.0]))
        np.testing.assert_array_equal(dh, [[1.0, 1.0, 2.0, 2.0]])


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
        spec = make_model(seed=10)
        doc = TokenSequence(np.array([1, 2, 3]), label=1)
        _, grads = batch_forward_backward(spec, [doc], [1])
        names = {name for name, _ in iter_params(spec)}
        assert set(grads) == names

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
