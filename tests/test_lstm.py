import numpy as np
import pytest

from regemb.corpus import TokenSequence
from regemb.lstm import (
    GateOverride,
    LstmParams,
    SideInputParams,
    batch_backward_docs,
    batch_forward_docs,
    fold_embedding,
    forward_sequence,
    plan_segments,
    sequence_gradients,
)

from oracles import lstm_step, one_hot


def random_params(rng, variant, units, input_dim, input_kind="one-hot",
                  n_side=0, side_dim=2, scale=0.5):
    gates = ("i", "o", "f", "u") if variant == "full" else ("f", "u")

    def stacked(*shape):  # one draw per gate, stacked as row blocks
        return np.concatenate([scale * rng.standard_normal(shape) for _ in gates])

    wx = stacked(units, input_dim)
    wh = stacked(units, units)
    bias = stacked(units)
    side = [SideInputParams(f"tv{j}", side_dim, stacked(units, side_dim))
            for j in range(n_side)]
    return LstmParams(variant, units, input_dim, input_kind, wx, wh, bias, side)


def param_arrays(params):
    yield "wx", params.wx
    yield "wh", params.wh
    yield "bias", params.bias
    for j, sp in enumerate(params.side):
        yield f"side{j}", sp.w


def grad_arrays(params, grads):
    yield "wx", grads.wx
    yield "wh", grads.wh
    yield "bias", grads.bias
    for j, w in enumerate(grads.side):
        yield f"side{j}", w


def rel_err(a, n):
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


class TestLstmStep:
    """The step oracle itself, against hand-evaluated and exact cases."""

    def test_zero_weight_fixed_point(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, "simplified", 3, 4, scale=0.0)
        c, h = lstm_step(p, one_hot(4, 2), np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_scalar_cell_hand_evaluated(self):
        # f = sig(0) = 0.5, u = 0, c = 0 + 0.5*2 = 1, h = tanh(1)
        rng = np.random.default_rng(0)
        p = random_params(rng, "simplified", 1, 2, scale=0.0)
        c, h = lstm_step(p, one_hot(2, 0), np.array([2.0]), np.array([0.0]))
        np.testing.assert_allclose(c, [1.0])
        np.testing.assert_allclose(h, [0.7615941], atol=1e-7)
        np.testing.assert_array_equal(h, np.tanh(c))

    def test_gate_override_matches_simplified(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            rr = np.random.default_rng(seed)
            simple = random_params(rr, "simplified", 4, 6)
            full = random_params(rng, "full", 4, 6)
            # f and u are the last two row blocks of either variant
            full.wx[8:] = simple.wx
            full.wh[8:] = simple.wh
            full.bias[8:] = simple.bias
            c, h = rr.standard_normal(4), np.tanh(rr.standard_normal(4))
            x = one_hot(6, int(rr.integers(0, 6)))
            ov = GateOverride(input_gate_one=True, output_gate_one=True)
            a = lstm_step(full, x, c, h, override=ov)
            b = lstm_step(simple, x, c, h)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    def test_dense_input(self):
        rng = np.random.default_rng(2)
        p = random_params(rng, "full", 3, 5, input_kind="dense")
        x = rng.standard_normal(5)
        _, h = lstm_step(p, x, np.zeros(3), np.zeros(3))
        assert h.shape == (3,)
        assert np.all(np.abs(h) < 1)


class TestForwardSequence:
    def test_matches_iterated_step(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            variant = "full" if seed % 2 else "simplified"
            p = random_params(rng, variant, 3, 5, n_side=1, side_dim=2)
            ids = rng.integers(0, 5, size=6)
            side = [rng.standard_normal((2, 6))]
            h = forward_sequence(p, ids, side_seq=side)
            c, h_t = np.zeros(3), np.zeros(3)
            for t, i in enumerate(ids):
                c, h_t = lstm_step(p, one_hot(5, i), c, h_t, side_vals=[side[0][:, t]])
                np.testing.assert_allclose(h[:, t], h_t, rtol=1e-12, atol=1e-14)

    def test_empty_sequence(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, "simplified", 3, 4)
        assert forward_sequence(p, np.zeros(0, np.int64)).shape == (3, 0)

    def test_seg_len_longer_than_doc_is_bit_identical(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, "simplified", 4, 6)
        ids = rng.integers(0, 6, size=9)
        np.testing.assert_array_equal(forward_sequence(p, ids),
                                      forward_sequence(p, ids, seg_len=9))
        np.testing.assert_array_equal(forward_sequence(p, ids),
                                      forward_sequence(p, ids, seg_len=50))

    def test_chopping_resets_state(self):
        # with seg_len=3, h_4 depends only on ids[3..4]
        rng = np.random.default_rng(5)
        p = random_params(rng, "simplified", 3, 6)
        ids = rng.integers(0, 6, size=7)
        h = forward_sequence(p, ids, seg_len=3)
        np.testing.assert_allclose(h[:, 3:6], forward_sequence(p, ids[3:6]),
                                   rtol=1e-12, atol=1e-14)

    def test_chopping_locality(self):
        rng = np.random.default_rng(6)
        p = random_params(rng, "full", 3, 6)
        ids = rng.integers(0, 6, size=11)
        h1 = forward_sequence(p, ids, seg_len=4)
        other = ids.copy()
        other[5] = (other[5] + 1) % 6  # perturb inside second segment
        h2 = forward_sequence(p, other, seg_len=4)
        np.testing.assert_array_equal(h1[:, 0:4], h2[:, 0:4])
        np.testing.assert_array_equal(h1[:, 8:], h2[:, 8:])
        assert not np.array_equal(h1[:, 4:8], h2[:, 4:8])

    def test_overlap_warmup(self):
        rng = np.random.default_rng(7)
        p = random_params(rng, "simplified", 2, 5)
        ids = rng.integers(0, 5, size=7)
        h = forward_sequence(p, ids, seg_len=3, overlap=2)
        # second segment covers [1, 6) and emits [3, 6)
        np.testing.assert_allclose(h[:, 3:6], forward_sequence(p, ids[1:6])[:, 2:],
                                   rtol=1e-12, atol=1e-14)

    def test_simplified_outputs_inside_tanh_range(self):
        rng = np.random.default_rng(8)
        p = random_params(rng, "simplified", 4, 5, scale=2.0)
        ids = rng.integers(0, 5, size=200)
        h = forward_sequence(p, ids)
        assert np.all(h > -1) and np.all(h < 1)


class TestReverseForward:
    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(9)
        p = random_params(rng, "simplified", 3, 4)
        half = rng.integers(0, 4, size=5)
        ids = np.concatenate([half, half[::-1]])
        fwd = forward_sequence(p, ids)
        bwd = forward_sequence(p, ids, reverse=True)
        for t in range(len(ids)):
            np.testing.assert_allclose(bwd[:, t], fwd[:, len(ids) - 1 - t],
                                       rtol=1e-12, atol=1e-14)

    def test_single_step_equals_forward(self):
        rng = np.random.default_rng(10)
        p = random_params(rng, "full", 3, 4)
        ids = np.array([2])
        np.testing.assert_array_equal(forward_sequence(p, ids, reverse=True),
                                      forward_sequence(p, ids))

    def test_is_forward_of_reversed(self):
        rng = np.random.default_rng(11)
        p = random_params(rng, "simplified", 3, 5, n_side=1, side_dim=2)
        ids = rng.integers(0, 5, size=8)
        side = [rng.standard_normal((2, 8))]
        got = forward_sequence(p, ids, side_seq=side, reverse=True)
        want = forward_sequence(p, ids[::-1], side_seq=[side[0][:, ::-1]])[:, ::-1]
        np.testing.assert_array_equal(got, want)


class TestBatchEngine:
    def test_ragged_batch_matches_single(self):
        rng = np.random.default_rng(12)
        p = random_params(rng, "full", 4, 7, n_side=2, side_dim=3)
        lengths = [5, 1, 9, 3, 9, 2]
        seqs = [rng.integers(0, 7, size=n) for n in lengths]
        sides = [[rng.standard_normal((3, n)) for _ in range(2)] for n in lengths]
        outs, _ = batch_forward_docs(p, seqs, sides)
        for seq, sv, out in zip(seqs, sides, outs):
            np.testing.assert_allclose(out, forward_sequence(p, seq, side_seq=sv),
                                       rtol=1e-12, atol=1e-14)

    def test_batch_backward_matches_single(self):
        rng = np.random.default_rng(13)
        p = random_params(rng, "simplified", 3, 5)
        lengths = [4, 6, 2]
        seqs = [rng.integers(0, 5, size=n) for n in lengths]
        ups = [rng.standard_normal((3, n)) for n in lengths]
        _, run = batch_forward_docs(p, seqs)
        got, _ = batch_backward_docs(run, ups)
        want = {name: np.zeros_like(arr) for name, arr in param_arrays(p)}
        for seq, up in zip(seqs, ups):
            single = sequence_gradients(p, seq, up)
            for name, arr in grad_arrays(p, single):
                want[name] += arr
        for name, arr in grad_arrays(p, got):
            np.testing.assert_allclose(arr, want[name], rtol=1e-10, atol=1e-12)

    def test_docs_wrapper_chops(self):
        rng = np.random.default_rng(14)
        p = random_params(rng, "simplified", 2, 4)
        docs = [rng.integers(0, 4, size=n) for n in (7, 3)]
        h_docs, _ = batch_forward_docs(p, docs, seg_len=3)
        # batch width differs from the single-doc pass, so results agree to
        # rounding rather than bit-exactly
        for doc, h in zip(docs, h_docs):
            np.testing.assert_allclose(h, forward_sequence(p, doc, seg_len=3),
                                       rtol=1e-12, atol=1e-14)

    def test_zero_length_doc_in_batch(self):
        rng = np.random.default_rng(15)
        p = random_params(rng, "simplified", 2, 4)
        h_docs, run = batch_forward_docs(p, [np.zeros(0, np.int64),
                                             rng.integers(0, 4, size=3)])
        assert h_docs[0].shape == (2, 0)
        assert h_docs[1].shape == (2, 3)


def oracle_forward(p, inputs, sides, seg_len, overlap, reverse):
    """lstm_step loop over one document: the state resets at every segment
    start, and only positions past a segment's warm-up keep their output."""
    is_one_hot = p.input_kind == "one-hot"
    total = len(inputs) if is_one_hot else inputs.shape[1]
    seg_len = seg_len or max(total, 1)
    h = np.zeros((p.units, total))
    for emit in range(0, total, seg_len):
        c = h_t = np.zeros(p.units)
        for r in range(max(emit - overlap, 0), min(emit + seg_len, total)):
            t = total - 1 - r if reverse else r
            x = one_hot(p.input_dim, inputs[t]) if is_one_hot else inputs[:, t]
            c, h_t = lstm_step(p, x, c, h_t, side_vals=[sv[:, t] for sv in sides])
            if r >= emit:
                h[:, t] = h_t
    return h


def ragged_batch(rng, input_kind, n_side, dim=4, side_dim=2):
    """Documents of lengths 5, 0, 1, 9, 4 and 7 with their side values."""
    lengths = [5, 0, 1, 9, 4, 7]
    if input_kind == "one-hot":
        docs = [rng.integers(0, dim, size=n) for n in lengths]
    else:
        docs = [rng.standard_normal((dim, n)) for n in lengths]
    sides = [[rng.standard_normal((side_dim, n)) for _ in range(n_side)]
             for n in lengths]
    return docs, sides


class TestEngineAgainstStepOracle:
    @pytest.mark.parametrize("variant", ["simplified", "full"])
    @pytest.mark.parametrize("n_side", [0, 2])
    @pytest.mark.parametrize("input_kind", ["one-hot", "dense"])
    @pytest.mark.parametrize("seg_len,overlap", [(None, 0), (3, 0), (4, 2)])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_outputs(self, reverse, seg_len, overlap, input_kind, n_side, variant):
        rng = np.random.default_rng(40)
        p = random_params(rng, variant, 3, 4, input_kind, n_side)
        docs, sides = ragged_batch(rng, input_kind, n_side)
        h_docs, _ = batch_forward_docs(p, docs, sides if n_side else None, seg_len,
                                       overlap, reverse=reverse)
        assert [h.shape for h in h_docs] == [(3, np.shape(d)[-1]) for d in docs]
        for doc, sv, h in zip(docs, sides, h_docs):
            np.testing.assert_allclose(
                h, oracle_forward(p, doc, sv, seg_len, overlap, reverse),
                rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("input_kind", ["one-hot", "dense"])
    def test_gradients_reverse_overlap_side(self, input_kind):
        eps = 1e-4
        seg_len, overlap = 4, 2
        rng = np.random.default_rng(41)
        p = random_params(rng, "full", 2, 4, input_kind, n_side=2)
        docs, sides = ragged_batch(rng, input_kind, 2)
        ups = [rng.standard_normal((2, np.shape(d)[-1])) for d in docs]
        dense = input_kind == "dense"

        def loss():
            return sum(float(np.sum(up * oracle_forward(p, d, sv, seg_len, overlap,
                                                        True)))
                       for d, sv, up in zip(docs, sides, ups))

        _, run = batch_forward_docs(p, docs, sides, seg_len, overlap, reverse=True)
        grads, dx = batch_backward_docs(run, ups, want_input_grad=dense)
        checked = [(name, arr, np.asarray(g)) for (name, arr), (_, g) in
                   zip(param_arrays(p), grad_arrays(p, grads))]
        if dense:  # dx holds the documents side by side
            bounds = np.cumsum([0] + [d.shape[1] for d in docs])
            checked += [(f"x{i}", d, dx[:, lo:hi]) for i, (d, lo, hi) in
                        enumerate(zip(docs, bounds[:-1], bounds[1:]))]
        for name, arr, analytic in checked:
            flat, aflat = arr.reshape(-1), analytic.reshape(-1)
            for c in range(flat.size):
                orig = flat[c]
                flat[c] = orig + eps
                up = loss()
                flat[c] = orig - eps
                down = loss()
                flat[c] = orig
                assert rel_err(aflat[c], (up - down) / (2 * eps)) < 1e-4, (name, c)


class TestSequenceGradients:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(16)
        p = random_params(rng, "full", 3, 5, n_side=1)
        ids = rng.integers(0, 5, size=4)
        side = [rng.standard_normal((2, 4))]
        grads = sequence_gradients(p, ids, np.zeros((3, 4)), side_seq=side)
        for _, arr in grad_arrays(p, grads):
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    @pytest.mark.parametrize("variant,input_kind,n_side,seg_len", [
        ("simplified", "one-hot", 0, None),
        ("simplified", "one-hot", 1, 2),
        ("simplified", "dense", 0, None),
        ("full", "one-hot", 0, None),
        ("full", "one-hot", 2, 3),
        ("full", "dense", 1, None),
    ])
    def test_matches_finite_differences(self, variant, input_kind, n_side, seg_len):
        eps = 1e-4
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            units = int(rng.integers(1, 5))
            dim = int(rng.integers(2, 7))
            total = int(rng.integers(1, 6))
            p = random_params(rng, variant, units, dim, input_kind, n_side, 2)
            if input_kind == "one-hot":
                inputs = rng.integers(0, dim, size=total)
            else:
                inputs = rng.standard_normal((dim, total))
            side = [rng.standard_normal((2, total)) for _ in range(n_side)] or None
            upstream = rng.standard_normal((units, total))

            def loss():
                h = forward_sequence(p, inputs, seg_len=seg_len, side_seq=side)
                return float(np.sum(upstream * h))

            grads = sequence_gradients(p, inputs, upstream, seg_len=seg_len,
                                       side_seq=side)
            analytic = dict(grad_arrays(p, grads))
            for name, arr in param_arrays(p):
                flat = arr.reshape(-1)
                aflat = np.asarray(analytic[name]).reshape(-1)
                for c in range(flat.size):
                    orig = flat[c]
                    flat[c] = orig + eps
                    up = loss()
                    flat[c] = orig - eps
                    down = loss()
                    flat[c] = orig
                    numeric = (up - down) / (2 * eps)
                    assert rel_err(aflat[c], numeric) < 1e-4, (name, c)

    def test_input_grads_for_dense(self):
        eps = 1e-4
        rng = np.random.default_rng(17)
        p = random_params(rng, "simplified", 3, 4, input_kind="dense")
        x = rng.standard_normal((4, 5))
        upstream = rng.standard_normal((3, 5))
        _, run = batch_forward_docs(p, [x])
        _, dx = batch_backward_docs(run, [upstream], want_input_grad=True)
        flat = x.reshape(-1)
        dflat = dx.reshape(-1)
        for c in range(flat.size):
            orig = flat[c]
            flat[c] = orig + eps
            up = float(np.sum(upstream * forward_sequence(p, x)))
            flat[c] = orig - eps
            down = float(np.sum(upstream * forward_sequence(p, x)))
            flat[c] = orig
            assert rel_err(dflat[c], (up - down) / (2 * eps)) < 1e-4

    def test_chopped_equals_sum_of_segments(self):
        rng = np.random.default_rng(18)
        p = random_params(rng, "simplified", 3, 5)
        ids = rng.integers(0, 5, size=8)
        upstream = rng.standard_normal((3, 8))
        whole = sequence_gradients(p, ids, upstream, seg_len=3)
        summed = {name: np.zeros_like(arr) for name, arr in param_arrays(p)}
        for lo in range(0, 8, 3):
            part = sequence_gradients(p, ids[lo:lo + 3], upstream[:, lo:lo + 3])
            for name, arr in grad_arrays(p, part):
                summed[name] += arr
        for name, arr in grad_arrays(p, whole):
            np.testing.assert_allclose(arr, summed[name], rtol=1e-10, atol=1e-12)

    def test_override_freezes_gate_grads(self):
        rng = np.random.default_rng(19)
        p = random_params(rng, "full", 3, 5)
        ids = rng.integers(0, 5, size=4)
        upstream = rng.standard_normal((3, 4))
        ov = GateOverride(input_gate_one=True, output_gate_one=True)
        grads = sequence_gradients(p, ids, upstream, override=ov)
        wx = np.asarray(grads.wx)
        # rows 0-5 are the i and o blocks, rows 6-8 the f block
        np.testing.assert_array_equal(wx[:6], np.zeros((6, 5)))
        np.testing.assert_array_equal(grads.wh[:6], np.zeros((6, 3)))
        assert np.any(wx[6:9] != 0)


class TestFoldEmbedding:
    def test_identity_embedding_keeps_weights(self):
        rng = np.random.default_rng(20)
        p = random_params(rng, "full", 3, 4, input_kind="dense")
        folded = fold_embedding(p, np.eye(4))
        np.testing.assert_allclose(folded.wx, p.wx, rtol=1e-15)
        assert folded.input_kind == "one-hot"

    def test_two_path_equivalence(self):
        for seed in range(5):
            rng = np.random.default_rng(30 + seed)
            d, vocab, units, total = 8, 12, 6, 20
            p = random_params(rng, "full", units, d, input_kind="dense")
            emb = rng.standard_normal((d, vocab))
            ids = rng.integers(0, vocab, size=total)
            folded = fold_embedding(p, emb)
            h_onehot = forward_sequence(folded, ids)
            x = emb[:, ids]
            h_dense = forward_sequence(p, x)
            err = np.abs(h_onehot - h_dense) / np.maximum(np.abs(h_dense), 1e-300)
            assert err.max() < 1e-10

    def test_zero_embedding_kills_input(self):
        rng = np.random.default_rng(21)
        p = random_params(rng, "simplified", 2, 3, input_kind="dense")
        folded = fold_embedding(p, np.zeros((3, 5)))
        np.testing.assert_array_equal(folded.wx, np.zeros((4, 5)))

    def test_requires_dense_cell(self):
        rng = np.random.default_rng(22)
        p = random_params(rng, "simplified", 2, 3)
        with pytest.raises(ValueError):
            fold_embedding(p, np.eye(3))


class TestPlanSegments:
    def test_no_chop(self):
        assert plan_segments(5, None) == [(0, 0, 5)]
        assert plan_segments(5, 9) == [(0, 0, 5)]

    def test_plain_chop(self):
        assert plan_segments(7, 3) == [(0, 0, 3), (3, 3, 6), (6, 6, 7)]

    def test_overlap(self):
        assert plan_segments(7, 3, overlap=2) == [(0, 0, 3), (1, 3, 6), (4, 6, 7)]

    def test_overlap_must_be_smaller(self):
        with pytest.raises(ValueError):
            plan_segments(9, 3, overlap=3)
