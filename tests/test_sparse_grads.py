"""Column-sparse gradients of one-hot-indexed matrices.

Each ColumnGrad is compared bit for bit against the dense computation it
replaces: the same per-document values scattered into a zero matrix of the
full shape and summed densely in the same order.
"""

import numpy as np
import pytest

import regemb.lstm as lstm_mod
import regemb.model as model_mod
from regemb.conv import ConvParams, backward_from_mask, pre_activation
from regemb.corpus import TokenSequence
from regemb.lstm import LstmParams, SideInputParams, batch_backward, batch_forward
from regemb.model import (
    ConvBranch,
    LstmBranch,
    ModelSpec,
    PoolingSpec,
    TopLayerParams,
    batch_forward_backward,
)
from regemb.numkernel import ColumnGrad, RngSpec, precision, scatter_add_columns
from regemb.optim import TrainConfig, Updater

PRECISIONS = ("float64", "float32")


@pytest.fixture(params=PRECISIONS)
def mode(request):
    with precision(request.param):
        yield request.param


def _docs(gen, n, vocab, lo=1, hi=12):
    return [gen.integers(0, vocab, size=int(gen.integers(lo, hi))) for _ in range(n)]


class TestColumnGrad:
    def test_dense_form(self):
        cg = ColumnGrad((2, 5), np.array([1, 4]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(
            np.asarray(cg), [[0, 1, 0, 0, 2], [0, 3, 0, 0, 4]])
        assert np.asarray(cg, dtype=np.float32).dtype == np.float32
        with pytest.raises(ValueError):
            np.array(cg, copy=False)

    def test_over_collects_unique_sorted_columns(self):
        cg = ColumnGrad.over((3, 10), [np.array([7, 2, 7]), np.array([2, 0])],
                             np.float32)
        np.testing.assert_array_equal(cg.cols, [0, 2, 7])
        assert cg.block.shape == (3, 3) and cg.block.dtype == np.float32
        assert not cg.block.any()
        np.testing.assert_array_equal(cg.slots([7, 0, 2]), [2, 0, 1])
        empty = ColumnGrad.over((3, 10), [], np.float64)
        np.testing.assert_array_equal(np.asarray(empty), np.zeros((3, 10)))

    def test_sum_equals_dense_sum(self, mode):
        gen = np.random.default_rng(0)
        dt = np.dtype(mode)
        for _ in range(20):
            grads = []
            for _ in range(int(gen.integers(1, 6))):
                cols = np.unique(gen.integers(0, 15, size=int(gen.integers(0, 8))))
                grads.append(ColumnGrad((4, 15), cols,
                                        gen.standard_normal((4, cols.size)).astype(dt)))
            dense = np.zeros((4, 15), dtype=dt)
            for g in grads:
                dense += np.asarray(g)
            np.testing.assert_array_equal(np.asarray(ColumnGrad.sum(grads)), dense)


class TestConvColumnGrad:
    @pytest.mark.parametrize("input_kind", ["seq", "bow"])
    def test_matches_dense_scatter_oracle(self, mode, input_kind):
        gen = np.random.default_rng(1)
        vocab, maps, region = 9, 4, 3
        params = ConvParams.create(maps, region, input_kind, vocab, gen, std=0.5)
        params.side.append(SideInputParams(
            "tv0", 2, {"w": gen.standard_normal((maps, 2)).astype(params.dtype)}))
        docs = _docs(gen, 6, vocab)
        w_dense = np.zeros_like(params.w)
        side_dense = np.zeros_like(params.side[0].w["w"])
        w_grads, side_sum = [], np.zeros_like(side_dense)
        for ids in docs:
            sv = [gen.standard_normal((2, len(ids))).astype(params.dtype)]
            upstream = gen.standard_normal((maps, len(ids))).astype(params.dtype)
            mask = pre_activation(params, ids, sv) > 0
            cg, _ = backward_from_mask(params, ids, mask, upstream, sv)
            assert isinstance(cg.w, ColumnGrad)
            w_grads.append(cg.w)
            side_sum += cg.side[0]["w"]
            # dense per-document oracle: the full-width scatter it replaces
            dpre = upstream * mask
            doc = np.zeros_like(params.w)
            for offset in range(min(region, len(ids))):
                block = doc if input_kind == "bow" else \
                    doc[:, offset * vocab:(offset + 1) * vocab]
                scatter_add_columns(block, ids[offset:], dpre[:, :len(ids) - offset])
            w_dense += doc
            side_dense += dpre @ sv[0].T
            np.testing.assert_array_equal(np.asarray(cg.w), doc)
        np.testing.assert_array_equal(np.asarray(ColumnGrad.sum(w_grads)), w_dense)
        np.testing.assert_array_equal(side_sum, side_dense)


class TestLstmColumnGrad:
    @pytest.mark.parametrize("variant", ["simplified", "full"])
    def test_wx_matches_dense_scatter_oracle(self, mode, monkeypatch, variant):
        gen = np.random.default_rng(2)
        vocab, units = 11, 3
        params = LstmParams.create(variant, units, vocab, "one-hot", gen, std=0.5)
        seqs = _docs(gen, 5, vocab)
        ups = [gen.standard_normal((units, len(s))).astype(params.dtype) for s in seqs]
        _, cache = batch_forward(params, seqs)
        scattered = []  # the per-position gate gradients, in gate order

        def recording(dest, idx, cols):
            scattered.append(cols.copy())
            return scatter_add_columns(dest, idx, cols)

        monkeypatch.setattr(lstm_mod, "scatter_add_columns", recording)
        grads, _, _ = batch_backward(cache, ups)
        assert len(scattered) == len(params.gates())
        for g, cols in zip(params.gates(), scattered):
            assert isinstance(grads.wx[g], ColumnGrad)
            dense = np.zeros_like(params.wx[g])
            scatter_add_columns(dense, cache.flat_ids, cols)
            np.testing.assert_array_equal(np.asarray(grads.wx[g]), dense)
            np.testing.assert_array_equal(grads.wx[g].cols,
                                          np.unique(np.concatenate(seqs)))

    def test_empty_batch_is_zero(self):
        params = LstmParams.create("simplified", 2, 6, "one-hot", RngSpec(0))
        _, cache = batch_forward(params, [np.zeros(0, np.int64)])
        grads, _, _ = batch_backward(cache, [np.zeros((2, 0))])
        for g in params.gates():
            np.testing.assert_array_equal(np.asarray(grads.wx[g]), np.zeros((2, 6)))


def _embedding_model(gen, vocab, dim=3, units=2):
    rng = RngSpec(3).stream("init")
    fwd = LstmParams.create("full", units, dim, "dense", rng, std=0.5)
    bwd = LstmParams.create("full", units, dim, "dense", rng, std=0.5)
    emb = (0.5 * gen.standard_normal((dim, vocab))).astype(fwd.dtype)
    branch = LstmBranch("bidirectional", PoolingSpec("max", 1), fwd, bwd, emb)
    top = TopLayerParams.create(2, branch.out_dim, rng, std=0.5)
    return ModelSpec([branch], top, 2, vocab)


class TestEmbeddingColumnGrad:
    def test_matches_dense_scatter_oracle(self, mode, monkeypatch):
        gen = np.random.default_rng(4)
        vocab = 13
        spec = _embedding_model(gen, vocab)
        docs = [TokenSequence(ids, label=int(gen.integers(0, 2)))
                for ids in _docs(gen, 5, vocab, lo=2)]
        scattered = []  # input gradients per part and document

        def recording(dest, idx, cols):
            scattered.append(cols.copy())
            return scatter_add_columns(dest, idx, cols)

        monkeypatch.setattr(model_mod, "scatter_add_columns", recording)
        _, grads = batch_forward_backward(spec, docs, [d.label for d in docs])
        emb_grad = grads["br0.emb"]
        assert isinstance(emb_grad, ColumnGrad)
        dense = np.zeros_like(spec.branches[0].embedding)
        order = [(d.ids, False) for d in docs] + [(d.ids, True) for d in docs]
        assert len(scattered) == len(order)
        for (ids, reverse), cols in zip(order, scattered):
            scatter_add_columns(dense, ids[::-1] if reverse else ids, cols)
        np.testing.assert_array_equal(np.asarray(emb_grad), dense)


class TestUpdaterOnColumns:
    @pytest.mark.parametrize("rule", [{"momentum": 0.0}, {"momentum": 0.5},
                                      {"momentum": 0.9}, {"rmsprop": True}])
    def test_bit_identical_to_dense(self, mode, rule):
        gen = np.random.default_rng(5)
        dt = np.dtype(mode)
        cfg = TrainConfig(lr=0.1, dropout_rate=0.0, **rule)
        shape = (4, 40)
        start = gen.standard_normal(shape).astype(dt)
        sparse_p, dense_p = start.copy(), start.copy()
        sparse_u, dense_u = Updater(cfg), Updater(cfg)
        for _ in range(30):
            cols = np.unique(gen.integers(0, shape[1], size=int(gen.integers(0, 12))))
            grad = ColumnGrad(shape, cols,
                              gen.standard_normal((shape[0], cols.size)).astype(dt))
            sparse_u.apply("w", sparse_p, grad)
            dense_u.apply("w", dense_p, np.asarray(grad))
            np.testing.assert_array_equal(sparse_p, dense_p)
            np.testing.assert_array_equal(sparse_u.state["w"], dense_u.state["w"])
        assert sparse_p.dtype == dt


def _conv_lstm_model(vocab):
    rng = RngSpec(6).stream("init")
    lstm = LstmBranch("bidirectional", PoolingSpec("max", 1),
                      LstmParams.create("simplified", 3, vocab, "one-hot", rng, std=0.5),
                      LstmParams.create("simplified", 3, vocab, "one-hot", rng, std=0.5))
    conv = ConvBranch(PoolingSpec("avg", 2),
                      ConvParams.create(4, 3, "seq", vocab, rng, std=0.5))
    top = TopLayerParams.create(2, lstm.out_dim + 2 * conv.out_dim, rng, std=0.5)
    return ModelSpec([lstm, conv], top, 2, vocab)


class TestWorkers:
    def test_shard_merging_matches_one_worker(self, mode):
        gen = np.random.default_rng(7)
        vocab = 12
        spec = _conv_lstm_model(vocab)
        docs = [TokenSequence(ids, label=int(gen.integers(0, 2)))
                for ids in _docs(gen, 9, vocab, lo=2)]
        labels = [d.label for d in docs]
        loss1, g1 = batch_forward_backward(spec, docs, labels, workers=1)
        loss4, g4 = batch_forward_backward(spec, docs, labels, workers=4)
        tol = {"rtol": 1e-9, "atol": 1e-11} if mode == "float64" else \
            {"rtol": 1e-4, "atol": 1e-6}
        np.testing.assert_allclose(loss1, loss4, **tol)
        for name in g1:
            sparse = name == "br1.w" or ".wx." in name
            assert isinstance(g1[name], ColumnGrad) == sparse, name
            if name.startswith("br1."):  # conv: one sequential pass either way
                np.testing.assert_array_equal(np.asarray(g1[name]),
                                              np.asarray(g4[name]))
            else:
                np.testing.assert_allclose(np.asarray(g1[name]),
                                           np.asarray(g4[name]), **tol)
