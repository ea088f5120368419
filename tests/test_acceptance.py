"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Criteria 7 and 8 share one expensive fixture (corpus, frozen embeddings,
and the 5-seed supervised runs).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from regemb import conv as conv_mod
from regemb import model as model_mod
from regemb import tvembed as tv_mod
from regemb.corpus import TokenSequence, Vocabulary
from regemb.errors import NumericError
from regemb.lstm import (
    GateOverride,
    LstmParams,
    fold_embedding,
    forward_sequence,
    sequence_gradients,
)
from regemb.model import (
    ConvBranch,
    LstmBranch,
    ModelSpec,
    PoolingSpec,
    TopLayerParams,
    attach_embeddings,
    error_rate,
    pool,
)
from regemb.numkernel import RngSpec, precision
from regemb.optim import TrainConfig, grad_check, train
from regemb.serialize import load_model, load_tv, save_model, save_tv
from regemb.tvembed import TvObjectiveSpec, train_tv_cnn, train_tv_lstm

import generators as gen
from test_serialize import random_model, random_tv


@contextmanager
def criterion(number, label):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nCRITERION {number:2d} FAIL  {label}")
        raise
    print(f"\nCRITERION {number:2d} PASS  {label}"
          f" ({time.perf_counter() - started:.1f}s)")


def _stacked(rng, n_gates, *shape, scale=1.0):
    """n_gates row blocks drawn one after another, stacked."""
    return np.concatenate([scale * rng.standard_normal(shape) for _ in range(n_gates)])


def _random_full_dense(rng, units, input_dim, scale=0.5):
    return LstmParams(
        "full", units, input_dim, "dense",
        _stacked(rng, 4, units, input_dim, scale=scale),
        _stacked(rng, 4, units, units, scale=scale),
        _stacked(rng, 4, units, scale=scale),
    )


def test_criterion_01_fold_equivalence():
    with criterion(1, "word-vector LSTM == folded one-hot LSTM"):
        started = time.perf_counter()
        for i in range(50):
            rng = np.random.default_rng(1000 + i)
            units = int(rng.integers(1, 9))
            d = int(rng.integers(1, 9))
            vocab = int(rng.integers(2, 17))
            total = int(rng.integers(1, 31))
            params = _random_full_dense(rng, units, d)
            emb = rng.standard_normal((d, vocab))
            ids = rng.integers(0, vocab, size=total)
            folded = fold_embedding(params, emb)
            h_folded = forward_sequence(folded, ids)
            h_dense = forward_sequence(params, emb[:, ids])
            denom = np.maximum(np.abs(h_dense), 1e-3)
            assert (np.abs(h_folded - h_dense) / denom).max() < 1e-10
        assert time.perf_counter() - started < 10.0


def test_criterion_02_gate_removal_equivalence():
    with criterion(2, "full cell with i=o=1 == simplified cell"):
        started = time.perf_counter()
        override = GateOverride(input_gate_one=True, output_gate_one=True)
        for i in range(50):
            rng = np.random.default_rng(2000 + i)
            units = int(rng.integers(1, 9))
            vocab = int(rng.integers(2, 13))
            total = int(rng.integers(1, 25))
            # the f and u blocks, shared; the full cell puts i and o above them
            shared = [_stacked(rng, 2, units, vocab, scale=0.5),
                      _stacked(rng, 2, units, units, scale=0.5),
                      _stacked(rng, 2, units, scale=0.5)]
            simple = LstmParams("simplified", units, vocab, "one-hot",
                                *(m.copy() for m in shared))
            io = [_stacked(rng, 2, units, vocab), _stacked(rng, 2, units, units),
                  _stacked(rng, 2, units)]
            full = LstmParams("full", units, vocab, "one-hot",
                              *(np.concatenate([a, b]) for a, b in zip(io, shared)))
            ids = rng.integers(0, vocab, size=total)
            h_full = forward_sequence(full, ids, override=override)
            h_simple = forward_sequence(simple, ids)
            assert np.abs(h_full - h_simple).max() < 1e-12
        assert time.perf_counter() - started < 5.0


def _gradcheck_model(kind, seed):
    rng = RngSpec(seed)
    gen_ = rng.stream("init")
    r = np.random.default_rng(seed)
    vocab = int(r.integers(3, 7))
    std = 0.4
    pooling = PoolingSpec(("max", "avg")[seed % 2], int(r.integers(1, 3)))
    if kind == "conv":
        branch = ConvBranch(pooling, conv_mod.ConvParams.create(
            3, int(r.integers(1, 4)), ("seq", "bow")[seed % 2], vocab, gen_, std=std))
    elif kind in ("simplified", "full"):
        units = int(r.integers(1, 5))
        branch = LstmBranch("forward", pooling, LstmParams.create(
            kind, units, vocab, "one-hot", gen_, std=std))
    else:  # bidirectional composite (optionally with embeddings attached)
        units = int(r.integers(1, 4))
        branch = LstmBranch(
            "bidirectional", pooling,
            LstmParams.create("simplified", units, vocab, "one-hot", gen_, std=std),
            LstmParams.create("simplified", units, vocab, "one-hot", gen_, std=std))
    n_classes = int(r.integers(2, 4))
    doc_dim = branch.out_dim * pooling.regions
    top = TopLayerParams.create(n_classes, doc_dim, gen_, std=std)
    spec = ModelSpec([branch], top, n_classes, vocab)
    if kind == "tv":
        lstm_tv = tv_mod.TvEmbedding(
            kind="lstm", dim=3, name="tvA", direction="forward",
            lstm_params=_random_one_hot_full(r, 3, vocab)).freeze()
        cnn_params = conv_mod.ConvParams(
            2, 2, "bow", vocab, 0.5 * r.standard_normal((2, vocab)),
            0.5 * r.standard_normal(2))
        cnn_tv = tv_mod.TvEmbedding(kind="cnn", dim=2, name="tvB",
                                    conv_params=cnn_params, region_size=2,
                                    align_offset=0).freeze()
        attach_embeddings(spec, [lstm_tv, cnn_tv], gen_)
        for branch_ in spec.branches:
            for _, params, _ in branch_.parts():
                for sp in params.side:
                    sp.w *= 40.0  # lift side weights to checkable scale
    doc = TokenSequence(r.integers(0, vocab, size=int(r.integers(1, 6))),
                        label=int(r.integers(0, n_classes)))
    return spec, doc


def _random_one_hot_full(r, units, vocab):
    return LstmParams(
        "full", units, vocab, "one-hot",
        _stacked(r, 4, units, vocab, scale=0.5),
        _stacked(r, 4, units, units, scale=0.5),
        _stacked(r, 4, units, scale=0.5),
    )


def test_criterion_03_gradient_oracle():
    with criterion(3, "finite-difference gradient checks, 5 configs x 20 seeds"):
        started = time.perf_counter()
        for kind in ("conv", "simplified", "full", "bidir", "tv"):
            for seed in range(20):
                spec, doc = _gradcheck_model(kind, 100 * (seed + 1) + 7)
                report = grad_check(spec, doc, doc.label, eps=1e-4, threshold=1e-4)
                assert report.passed, (kind, seed, report.max_rel_err)
        assert time.perf_counter() - started < 120.0


def test_criterion_04_chopping_semantics():
    with criterion(4, "chopping: identity, locality, and epoch wall time"):
        started = time.perf_counter()
        # (a) seg_len >= T is bit-identical to unchopped
        for seed in range(10):
            rng = np.random.default_rng(4000 + seed)
            params = _random_one_hot_full(rng, int(rng.integers(1, 5)), 8)
            ids = rng.integers(0, 8, size=int(rng.integers(1, 20)))
            upstream = rng.standard_normal((params.units, len(ids)))
            h_plain = forward_sequence(params, ids)
            g_plain = sequence_gradients(params, ids, upstream)
            for seg in (len(ids), len(ids) + 13):
                np.testing.assert_array_equal(h_plain,
                                              forward_sequence(params, ids, seg_len=seg))
                g_seg = sequence_gradients(params, ids, upstream, seg_len=seg)
                np.testing.assert_array_equal(np.asarray(g_plain.wx),
                                              np.asarray(g_seg.wx))
                np.testing.assert_array_equal(g_plain.wh, g_seg.wh)
        # (b) perturbing ids inside one segment leaves other segments unchanged
        for seed in range(10):
            rng = np.random.default_rng(4100 + seed)
            params = _random_one_hot_full(rng, 3, 9)
            ids = rng.integers(0, 9, size=17)
            h1 = forward_sequence(params, ids, seg_len=5)
            other = ids.copy()
            other[7] = (other[7] + 1) % 9  # inside segment [5, 10)
            h2 = forward_sequence(params, other, seg_len=5)
            np.testing.assert_array_equal(h1[:, :5], h2[:, :5])
            np.testing.assert_array_equal(h1[:, 10:], h2[:, 10:])
        # (c) chopped epochs are faster than unchopped
        with precision("float32"):
            data = gen.length_varied_corpus(2000, 42)

            def one_epoch(chop):
                rng = RngSpec(5).stream("init")
                branch = LstmBranch(
                    "bidirectional", PoolingSpec("max", 1),
                    LstmParams.create("simplified", 50, gen.LENGTH_VOCAB,
                                      "one-hot", rng),
                    LstmParams.create("simplified", 50, gen.LENGTH_VOCAB,
                                      "one-hot", rng))
                spec = ModelSpec([branch],
                                 TopLayerParams.create(2, 100, rng), 2,
                                 gen.LENGTH_VOCAB)
                cfg = TrainConfig(lr=0.01, momentum=0.9, minibatch=64, epochs=1,
                                  chop_len=chop, dropout_rate=0.0, seed=5)
                t0 = time.perf_counter()
                train(spec, data, None, cfg)
                return time.perf_counter() - t0

            chopped = one_epoch(50)
            unchopped = one_epoch(None)
        print(f"\n  chopped epoch {chopped:.1f}s vs unchopped {unchopped:.1f}s "
              f"({unchopped / chopped:.2f}x)")
        assert chopped < unchopped
        assert time.perf_counter() - started < 300.0


def test_criterion_05_pooling_properties():
    with criterion(5, "pooling: region permutation invariance, floor bounds, "
                      "k=1 max"):
        started = time.perf_counter()
        rng = np.random.default_rng(5)
        for total in (1, 2, 5, 12, 30):
            for regions in (1, 2, 3, 10):
                bounds = [(i * total // regions, (i + 1) * total // regions)
                          for i in range(regions)]
                # pool reads these bounds: max pooling the positions gives
                # each nonempty region's last position, their negatives its first
                pos = np.arange(total, dtype=float)[None]
                spec = PoolingSpec("max", regions)
                assert list(pool(pos, spec, [total])[:, 0]) == \
                    [hi - 1 if hi > lo else 0 for lo, hi in bounds]
                assert list(-pool(-pos, spec, [total])[:, 0]) == \
                    [lo if hi > lo else 0 for lo, hi in bounds]
                h = rng.standard_normal((4, total))
                for kind in ("max", "avg"):
                    spec = PoolingSpec(kind, regions)
                    base = pool(h, spec, [total])
                    shuffled = h.copy()
                    for lo, hi in bounds:
                        perm = rng.permutation(hi - lo)
                        shuffled[:, lo:hi] = shuffled[:, lo:hi][:, perm]
                    if kind == "max":
                        np.testing.assert_array_equal(pool(shuffled, spec, [total]), base)
                    else:
                        np.testing.assert_allclose(pool(shuffled, spec, [total]), base,
                                                   rtol=1e-12, atol=1e-15)
            h = rng.standard_normal((6, total))
            np.testing.assert_array_equal(pool(h, PoolingSpec("max", 1), [total]),
                                          h.max(axis=1, keepdims=True))
        assert time.perf_counter() - started < 5.0


def _train_grid(make_spec, train_set, test_set, lr_grid, epochs, target):
    """Best per-epoch dev error over a learning-rate grid; diverged points
    count as failed."""
    best = float("inf")
    for lr in lr_grid:
        spec = make_spec()
        cfg = TrainConfig(lr=lr, momentum=0.9, minibatch=50, epochs=epochs,
                          dropout_rate=0.0, seed=1)
        try:
            _, logs = train(spec, train_set, test_set, cfg)
        except NumericError:
            continue
        best = min(best, min(entry.dev_err for entry in logs))
        if best <= target:
            break
    return best


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # lr=0.25 may diverge
def test_criterion_06_word_order_task():
    with criterion(6, "word order: bow at chance, LSTM and seq-CNN <= 5%"):
        started = time.perf_counter()
        with precision("float32"):
            train_set = gen.word_order_corpus(2000, 100)
            test_set = gen.word_order_corpus(1000, 200)
            vocab = gen.WORD_ORDER_VOCAB

            def bow_spec():
                rng = RngSpec(1).stream("init")
                branch = ConvBranch(PoolingSpec("avg", 1),
                                    conv_mod.ConvParams.create(50, 1, "bow",
                                                               vocab, rng))
                return ModelSpec([branch], TopLayerParams.create(2, 50, rng),
                                 2, vocab)

            def cnn_spec():
                rng = RngSpec(1).stream("init")
                branch = ConvBranch(PoolingSpec("max", 1),
                                    conv_mod.ConvParams.create(100, 3, "seq",
                                                               vocab, rng))
                return ModelSpec([branch], TopLayerParams.create(2, 100, rng),
                                 2, vocab)

            def lstm_spec():
                rng = RngSpec(1).stream("init")
                branch = LstmBranch(
                    "bidirectional", PoolingSpec("max", 1),
                    LstmParams.create("simplified", 100, vocab, "one-hot", rng),
                    LstmParams.create("simplified", 100, vocab, "one-hot", rng))
                return ModelSpec([branch], TopLayerParams.create(2, 200, rng),
                                 2, vocab)

            spec = bow_spec()
            cfg = TrainConfig(lr=0.05, momentum=0.9, minibatch=50, epochs=10,
                              dropout_rate=0.0, seed=1)
            train(spec, train_set, None, cfg)
            bow_err = error_rate(spec, test_set)
            print(f"\n  bow-linear test error: {bow_err:.1f}%")
            assert 45.0 <= bow_err <= 55.0

            grid = (0.25, 0.05, 0.01)
            cnn_best = _train_grid(cnn_spec, train_set, test_set, grid, 30, 5.0)
            print(f"  seq-CNN best test error: {cnn_best:.1f}%")
            assert cnn_best <= 5.0
            lstm_best = _train_grid(lstm_spec, train_set, test_set, grid, 30, 5.0)
            print(f"  oh-2LSTMp best test error: {lstm_best:.1f}%")
            assert lstm_best <= 5.0
        assert time.perf_counter() - started < 600.0


@pytest.fixture(scope="module")
def semi_supervised_runs():
    """Shared by criteria 7 and 8: corpus, frozen embeddings, 5-seed runs."""
    with precision("float32"):
        vocab, target = gen.topic_vocabularies()
        labeled = gen.topic_corpus(100, 10)
        test_set = gen.topic_corpus(1000, 11)
        unlabeled = gen.topic_corpus(20000, 12, labeled=False)

        lstm_cfg = TrainConfig(lr=1.0, momentum=0.9, minibatch=100, epochs=4,
                               dropout_rate=0.0, seed=77)
        cnn_cfg = TrainConfig(lr=1.0, momentum=0.9, minibatch=100, epochs=10,
                              dropout_rate=0.0, seed=78)
        lstm_tvs = []
        for direction in ("forward", "backward"):
            objective = TvObjectiveSpec.build(vocab, target, k_next=5,
                                              neg_samples=5, direction=direction)
            emb, _ = train_tv_lstm(unlabeled, objective, dim=50, cfg=lstm_cfg,
                                   name=f"tvL-{direction[0]}")
            lstm_tvs.append(emb)
        objective = TvObjectiveSpec.build(vocab, target, k_next=5, neg_samples=5)
        cnn_tv, _ = train_tv_cnn(unlabeled, 5, 50, objective, cnn_cfg,
                                 input_kind="bow", name="tvC")

        def supervised(seed, embeddings):
            rng = RngSpec(seed)
            init = rng.stream("init")
            branch = LstmBranch(
                "bidirectional", PoolingSpec("max", 1),
                LstmParams.create("simplified", 50, gen.TOPIC_VOCAB, "one-hot",
                                  init),
                LstmParams.create("simplified", 50, gen.TOPIC_VOCAB, "one-hot",
                                  init))
            spec = ModelSpec([branch], TopLayerParams.create(2, 100, init), 2,
                             gen.TOPIC_VOCAB)
            if embeddings:
                attach_embeddings(spec, embeddings, rng.stream("init", 1))
            cfg = TrainConfig(lr=0.05, momentum=0.9, minibatch=25, epochs=100,
                              dropout_rate=0.5, seed=seed)
            train(spec, labeled, None, cfg)
            return error_rate(spec, test_set)

        rows = []
        for seed in (1, 2, 3, 4, 5):
            base = supervised(seed, [])
            with_two = supervised(seed, lstm_tvs)
            with_three = supervised(seed, lstm_tvs + [cnn_tv])
            rows.append((base, with_two, with_three))
    return rows


def test_criterion_07_semi_supervised_lift(semi_supervised_runs):
    with criterion(7, "two LSTM tv-embeddings beat supervised-only by >= 3 pts"):
        rows = semi_supervised_runs
        lifts = [base - two for base, two, _ in rows]
        print("\n  per-seed (base, +2 lstm-tv): "
              + " ".join(f"({b:.1f},{t:.1f})" for b, t, _ in rows))
        assert float(np.median(lifts)) >= 3.0


def test_criterion_08_combination_lift(semi_supervised_runs):
    with criterion(8, "adding a CNN tv-embedding helps (>=3/5 seeds, median)"):
        rows = semi_supervised_runs
        deltas = [two - three for _, two, three in rows]
        improved = sum(1 for d in deltas if d > 0)
        print("\n  per-seed (+2 lstm-tv, +cnn-tv): "
              + " ".join(f"({t:.1f},{c:.1f})" for _, t, c in rows))
        assert float(np.median(deltas)) >= -0.5
        assert improved >= 3


def test_criterion_09_tv_objective_sanity():
    with criterion(9, "tv objective falls below 10% of its initial value"):
        with precision("float32"):
            data = gen.successor_corpus()
            succ_vocab = Vocabulary([f"w{i}" for i in range(gen.SUCCESSOR_VOCAB)])
            objective = TvObjectiveSpec.build(succ_vocab, succ_vocab, k_next=1,
                                              neg_samples=3)
            cfg = TrainConfig(lr=0.5, momentum=0.9, minibatch=20, epochs=20,
                              dropout_rate=0.0, seed=1)
            _, logs = train_tv_lstm(data, objective, dim=10, cfg=cfg)
        assert logs[0].epoch == 0
        print(f"\n  objective: {logs[0].loss:.4f} -> {logs[-1].loss:.4f}")
        assert logs[-1].loss < 0.10 * logs[0].loss


def test_criterion_10_serialization(tmp_path):
    with criterion(10, "100 byte-identical round trips, bit-identical scores"):
        with precision("float32"):
            rng = np.random.default_rng(0)
            for i in range(60):
                spec = random_model(i, with_tv=(i % 3 == 0), with_emb=(i % 4 == 0))
                p1 = tmp_path / f"m{i}.a"
                p2 = tmp_path / f"m{i}.b"
                save_model(p1, spec)
                loaded = load_model(p1)
                save_model(p2, loaded)
                assert p1.read_bytes() == p2.read_bytes(), f"model {i}"
                doc = TokenSequence(rng.integers(0, 7, size=int(rng.integers(0, 12))))
                np.testing.assert_array_equal(
                    model_mod.model_forward(loaded, doc),
                    model_mod.model_forward(spec, doc))
            for i in range(40):
                emb = random_tv(i, "lstm" if i % 2 else "cnn")
                p1 = tmp_path / f"t{i}.a"
                p2 = tmp_path / f"t{i}.b"
                save_tv(p1, emb)
                save_tv(p2, load_tv(p1))
                assert p1.read_bytes() == p2.read_bytes(), f"tv {i}"
