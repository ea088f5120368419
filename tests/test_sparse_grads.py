"""Column-sparse gradients of one-hot-indexed matrices.

Each ColumnGrad is compared bit for bit against the dense computation it
replaces: the same values scattered into a zero matrix of the full shape in
the same order.
"""

import numpy as np
import pytest

import regemb.conv as conv_mod
import regemb.lstm as lstm_mod
import regemb.model as model_mod
from regemb.conv import ConvParams, backward_from_mask, conv_forward
from regemb.corpus import TokenSequence
from regemb.lstm import (
    LstmParams,
    SideInputParams,
    batch_backward_docs,
    batch_forward_docs,
)
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


class TestConvColumnGrad:
    @pytest.mark.parametrize("input_kind", ["seq", "bow"])
    def test_matches_dense_scatter_oracle(self, mode, monkeypatch, input_kind):
        gen = np.random.default_rng(1)
        vocab, maps, region = 9, 4, 3
        params = ConvParams.create(maps, region, input_kind, vocab, gen, std=0.5)
        params.side.append(SideInputParams(
            "tv0", 2, gen.standard_normal((maps, 2)).astype(params.dtype)))
        docs = _docs(gen, 6, vocab)
        n = sum(len(ids) for ids in docs)
        sv = gen.standard_normal((2, n)).astype(params.dtype)
        ups = gen.standard_normal((maps, n)).astype(params.dtype)
        h, run = conv_forward(params, docs, [sv])
        scattered = []  # (block slots, values) of every scatter

        def recording(dest, idx, cols):
            scattered.append((idx.copy(), cols.copy()))
            return scatter_add_columns(dest, idx, cols)

        monkeypatch.setattr(conv_mod, "scatter_add_columns", recording)
        grads = backward_from_mask(run, ups)
        assert len(scattered) == region  # one scatter per region offset
        assert isinstance(grads.w, ColumnGrad)
        # dense oracle: the same scatters into the full-width matrix
        w_dense = np.zeros_like(params.w)
        for slots, cols in scattered:
            scatter_add_columns(w_dense, grads.w.cols[slots], cols)
        np.testing.assert_array_equal(np.asarray(grads.w), w_dense)
        np.testing.assert_array_equal(grads.side[0], (ups * (h > 0)) @ sv.T)


class TestLstmColumnGrad:
    @pytest.mark.parametrize("variant", ["simplified", "full"])
    def test_wx_matches_dense_scatter_oracle(self, mode, monkeypatch, variant):
        gen = np.random.default_rng(2)
        vocab, units = 11, 3
        params = LstmParams.create(variant, units, vocab, "one-hot", gen, std=0.5)
        seqs = _docs(gen, 5, vocab)
        ups = gen.standard_normal((units, sum(len(s) for s in seqs))).astype(params.dtype)
        _, run = batch_forward_docs(params, seqs)
        scattered = []  # the per-position gradients of the stacked gates

        def recording(dest, idx, cols):
            scattered.append(cols.copy())
            return scatter_add_columns(dest, idx, cols)

        monkeypatch.setattr(lstm_mod, "scatter_add_columns", recording)
        grads, _ = batch_backward_docs(run, ups)
        assert len(scattered) == 1  # one scatter for every gate at once
        assert isinstance(grads.wx, ColumnGrad)
        dense = np.zeros_like(params.wx)
        scatter_add_columns(dense, run.flat_ids, scattered[0])
        np.testing.assert_array_equal(np.asarray(grads.wx), dense)
        np.testing.assert_array_equal(grads.wx.cols, np.unique(np.concatenate(seqs)))

    def test_empty_batch_is_zero(self):
        params = LstmParams.create("simplified", 2, 6, "one-hot", RngSpec(0).stream("init"))
        _, run = batch_forward_docs(params, [np.zeros(0, np.int64)])
        grads, _ = batch_backward_docs(run, np.zeros((2, 0)))
        np.testing.assert_array_equal(np.asarray(grads.wx), np.zeros((4, 6)))


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
        scattered = []  # the input gradient of each part

        def recording(dest, idx, cols):
            scattered.append(cols.copy())
            return scatter_add_columns(dest, idx, cols)

        monkeypatch.setattr(model_mod, "scatter_add_columns", recording)
        _, grads = batch_forward_backward(spec, docs, [d.label for d in docs])
        emb_grad = grads["br0.emb"]
        assert isinstance(emb_grad, ColumnGrad)
        assert len(scattered) == 2  # one scatter per part
        dense = np.zeros_like(spec.branches[0].embedding)
        ids = np.concatenate([d.ids for d in docs])  # the documents side by side
        for cols in scattered:
            scatter_add_columns(dense, ids, cols)
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


class TestModelGrads:
    def test_one_hot_matrices_get_column_grads(self, mode):
        gen = np.random.default_rng(7)
        vocab = 12
        spec = _conv_lstm_model(vocab)
        docs = [TokenSequence(ids, label=int(gen.integers(0, 2)))
                for ids in _docs(gen, 9, vocab, lo=2)]
        labels = [d.label for d in docs]
        _, grads = batch_forward_backward(spec, docs, labels)
        for name in grads:
            sparse = name == "br1.w" or ".wx." in name
            assert isinstance(grads[name], ColumnGrad) == sparse, name
