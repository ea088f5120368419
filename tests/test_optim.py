import importlib.util
from pathlib import Path

import numpy as np
import pytest

import regemb.model as model_mod
from regemb.corpus import Dataset, TokenSequence
from regemb.errors import NumericError
from regemb.lstm import LstmParams
from regemb.model import (
    ConvBranch,
    LstmBranch,
    ModelSpec,
    PoolingSpec,
    TopLayerParams,
    iter_params,
)
from regemb.conv import ConvParams
from regemb.numkernel import RngSpec, precision
from regemb.optim import (
    EpochLog,
    TrainConfig,
    dropout_mask,
    grad_check,
    rmsprop_step,
    sgd_step,
    train,
)


def tiny_model(seed=0, vocab=6, n_classes=2, units=3, conv=False, std=0.4):
    # gradient checks need O(0.1..1) weights; the training init std of 0.01
    # leaves gradients below finite-difference resolution
    rng = RngSpec(seed).stream("init")
    if conv:
        branch = ConvBranch(PoolingSpec("max", 1),
                            ConvParams.create(4, 2, "seq", vocab, rng, std=std))
    else:
        branch = LstmBranch(
            "bidirectional", PoolingSpec("max", 1),
            LstmParams.create("simplified", units, vocab, "one-hot", rng, std=std),
            LstmParams.create("simplified", units, vocab, "one-hot", rng, std=std))
    doc_dim = branch.out_dim * branch.pooling.regions
    top = TopLayerParams.create(n_classes, doc_dim, rng, std=std)
    return ModelSpec([branch], top, n_classes, vocab)


def toy_dataset(seed=0, n=24, vocab=6, length=6):
    # linearly separable: class decided by which marker word appears
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n):
        label = i % 2
        ids = rng.integers(2, vocab, size=length)
        ids[rng.integers(0, length)] = label  # word 0 or 1 marks the class
        docs.append(TokenSequence(ids, label=label))
    return Dataset(docs, 2, ["a", "b"])


class TestSgdStep:
    def test_plain_sgd_without_momentum(self):
        cfg = TrainConfig(lr=0.1, momentum=0.0, dropout_rate=0.0)
        p = np.array([1.0, 2.0])
        v = np.zeros(2)
        sgd_step(p, np.array([1.0, -1.0]), v, cfg)
        np.testing.assert_allclose(p, [0.9, 2.1])

    def test_velocity_decays_geometrically(self):
        cfg = TrainConfig(lr=0.1, momentum=0.5, dropout_rate=0.0)
        p = np.array([0.0])
        v = np.array([1.0])
        for expected in (0.5, 0.25, 0.125):
            sgd_step(p, np.zeros(1), v, cfg)
            np.testing.assert_allclose(v, [expected])

    def test_hand_iterated_example(self):
        cfg = TrainConfig(lr=0.1, momentum=0.9, dropout_rate=0.0)
        p = np.array([1.0])
        v = np.array([0.0])
        g = np.array([1.0])
        sgd_step(p, g, v, cfg)
        np.testing.assert_allclose(v, [-0.1])
        np.testing.assert_allclose(p, [0.9])
        sgd_step(p, g, v, cfg)
        np.testing.assert_allclose(v, [-0.19])
        np.testing.assert_allclose(p, [0.71])

    def test_shape_mismatch(self):
        cfg = TrainConfig(dropout_rate=0.0)
        with pytest.raises(ValueError):
            sgd_step(np.zeros(2), np.zeros(3), np.zeros(2), cfg)


class TestRmspropStep:
    def test_constant_gradient_step_approaches_lr(self):
        cfg = TrainConfig(lr=0.01, rmsprop=True, rmsprop_decay=0.9,
                          rmsprop_eps=1e-6, dropout_rate=0.0)
        p = np.array([0.0])
        r = np.zeros(1)
        g = np.array([4.0])
        prev = p.copy()
        for _ in range(400):
            prev = p.copy()
            rmsprop_step(p, g, r, cfg)
        # cache -> g^2, so the per-step move approaches lr * sign(g)
        np.testing.assert_allclose(prev - p, [cfg.lr], rtol=1e-3)

    def test_zero_gradient_is_identity(self):
        cfg = TrainConfig(lr=0.1, rmsprop=True, dropout_rate=0.0)
        p = np.array([3.0])
        r = np.array([0.5])
        rmsprop_step(p, np.zeros(1), r, cfg)
        np.testing.assert_allclose(p, [3.0])

    def test_eps_prevents_blowup_on_first_step(self):
        cfg = TrainConfig(lr=0.1, rmsprop=True, rmsprop_decay=0.9,
                          rmsprop_eps=1e-6, dropout_rate=0.0)
        p = np.array([0.0])
        r = np.zeros(1)
        rmsprop_step(p, np.array([1e-12]), r, cfg)
        assert np.isfinite(p).all()


class TestDropoutMask:
    def test_rate_zero_all_ones(self):
        np.testing.assert_array_equal(
            dropout_mask(16, 0.0, RngSpec(0).stream("dropout")), np.ones(16))

    def test_mean_near_one(self):
        gen = RngSpec(1).stream("dropout")
        m = dropout_mask(100000, 0.5, gen)
        assert 0.98 <= m.mean() <= 1.02
        assert set(np.unique(m)).issubset({0.0, 2.0})

    def test_same_seed_same_mask(self):
        a = dropout_mask(64, 0.3, RngSpec(5).stream("dropout"))
        b = dropout_mask(64, 0.3, RngSpec(5).stream("dropout"))
        np.testing.assert_array_equal(a, b)

    def test_rate_range_checked(self):
        with pytest.raises(ValueError):
            dropout_mask(4, 1.0, RngSpec(0).stream("dropout"))


class TestTrain:
    def test_lr_zero_keeps_parameters(self):
        spec = tiny_model(seed=1)
        before = {name: arr.copy() for name, arr in iter_params(spec)}
        cfg = TrainConfig(lr=0.0, epochs=2, minibatch=8, dropout_rate=0.0, seed=3)
        train(spec, toy_dataset(), None, cfg)
        for name, arr in iter_params(spec):
            np.testing.assert_array_equal(arr, before[name])

    def test_loss_decreases_on_tiny_model(self):
        spec = tiny_model(seed=2)
        data = toy_dataset(seed=2)
        cfg = TrainConfig(lr=0.05, epochs=5, minibatch=24, dropout_rate=0.0, seed=3)
        _, logs = train(spec, data, None, cfg)
        assert logs[-1].loss < logs[0].loss

    def test_full_batch_loss_non_increasing(self):
        spec = tiny_model(seed=3)
        data = toy_dataset(seed=3)
        cfg = TrainConfig(lr=0.02, momentum=0.0, epochs=10, minibatch=len(data.docs),
                          dropout_rate=0.0, seed=4)
        _, logs = train(spec, data, None, cfg)
        losses = [e.loss for e in logs]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            spec = tiny_model(seed=4)
            cfg = TrainConfig(lr=0.05, epochs=3, minibatch=8, dropout_rate=0.5,
                              seed=9)
            train(spec, toy_dataset(seed=4), None, cfg)
            results.append({name: arr.copy() for name, arr in iter_params(spec)})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_dev_error_logged(self):
        spec = tiny_model(seed=5)
        data = toy_dataset(seed=5)
        cfg = TrainConfig(lr=0.05, epochs=2, minibatch=8, dropout_rate=0.0, seed=1)
        _, logs = train(spec, data, data, cfg)
        assert all(np.isfinite(e.dev_err) for e in logs)
        line = logs[0].line()
        assert line.startswith("epoch=1 loss=") and "dev_err=" in line \
            and "seconds=" in line

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_aborts_with_location(self):
        spec = tiny_model(seed=6)
        data = toy_dataset(seed=6)
        cfg = TrainConfig(lr=1e9, epochs=50, minibatch=8, dropout_rate=0.0, seed=1)
        with pytest.raises(NumericError, match=r"epoch \d+ batch \d+"):
            train(spec, data, None, cfg)

    def test_unlabeled_docs_rejected(self):
        spec = tiny_model(seed=7)
        docs = [TokenSequence(np.array([1, 2]))]
        with pytest.raises(ValueError):
            train(spec, Dataset(docs, 2, ["a", "b"]), None,
                  TrainConfig(dropout_rate=0.0))


class TestGradCheck:
    def test_requires_float64(self):
        spec = tiny_model(seed=8)
        doc = TokenSequence(np.array([1, 2, 3]), label=0)
        with precision("float32"):
            spec32 = tiny_model(seed=8)
            with pytest.raises(NumericError):
                grad_check(spec32, doc, 0)

    def test_linear_model_at_numerical_floor(self):
        # avg pooling + relu held active by a large bias: loss is quadratic,
        # so central differences are exact up to roundoff
        rng = RngSpec(9).stream("init")
        params = ConvParams.create(3, 2, "seq", 5, rng)
        params.b += 5.0
        branch = ConvBranch(PoolingSpec("avg", 1), params)
        top = TopLayerParams.create(2, 3, rng)
        spec = ModelSpec([branch], top, 2, 5)
        doc = TokenSequence(np.array([0, 2, 4]), label=1)
        report = grad_check(spec, doc, 1, eps=1e-4)
        assert report.passed
        assert report.max_rel_err < 1e-9

    def test_composite_passes(self):
        spec = tiny_model(seed=10)
        doc = TokenSequence(np.array([0, 1, 5, 2]), label=1)
        report = grad_check(spec, doc, 1)
        assert report.passed
        assert report.max_rel_err < 1e-4
        assert set(report.per_tensor) == {n for n, _ in iter_params(spec)}

    def test_corrupted_gradient_is_flagged(self, monkeypatch):
        spec = tiny_model(seed=11)
        doc = TokenSequence(np.array([0, 1, 5, 2]), label=1)
        bad = "br0.fwd.wx.f"
        original = model_mod.batch_forward_backward

        def corrupted(*args, **kwargs):
            loss, grads = original(*args, **kwargs)
            grads[bad] = np.asarray(grads[bad]) * 1.1
            return loss, grads

        monkeypatch.setattr(model_mod, "batch_forward_backward", corrupted)
        report = grad_check(spec, doc, 1)
        assert not report.passed
        assert report.per_tensor[bad] > 1e-4
        clean = {k: v for k, v in report.per_tensor.items() if k != bad}
        assert max(clean.values()) < 1e-4

    def test_report_lines(self):
        spec = tiny_model(seed=12, conv=True)
        doc = TokenSequence(np.array([3, 1]), label=0)
        report = grad_check(spec, doc, 0)
        lines = report.lines()
        assert lines[-1].startswith("gradcheck PASS")


def _fixture_recipe():
    """tests/data/make_format_fixture.py, loaded as a module."""
    path = Path(__file__).parent / "data" / "make_format_fixture.py"
    spec = importlib.util.spec_from_file_location("make_format_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLoopsReproduceTheFixture:
    """The tv-LSTM and classifier files and epoch lines were written by the
    code before the classifier and tv-embedding epoch loops became one (see
    tests/data/make_format_fixture.py); both loops still write them byte
    for byte."""

    DATA = Path(__file__).parent / "data" / "format"

    def test_tv_lstm(self, tmp_path):
        recipe = _fixture_recipe()
        recipe.write_corpus(tmp_path)
        log = recipe.train_tv(tmp_path, tmp_path / "tvl.tv", "--kind", "lstm",
                              "--dim", "3")
        assert log == (self.DATA / "tvl.log").read_text()
        assert (tmp_path / "tvl.tv").read_bytes() == (self.DATA / "tvl.tv").read_bytes()

    def test_classifier_with_dropout_dev_split_and_rmsprop(self, tmp_path):
        recipe = _fixture_recipe()
        recipe.write_corpus(tmp_path)
        log = recipe.train_classifier(tmp_path, self.DATA / "tvl.tv",
                                      tmp_path / "clf.rgem")
        assert log == (self.DATA / "clf.log").read_text()
        assert (tmp_path / "clf.rgem").read_bytes() == \
            (self.DATA / "clf.rgem").read_bytes()
