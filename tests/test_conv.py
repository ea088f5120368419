import numpy as np
import pytest

import regemb.conv as conv_mod
from regemb.conv import ConvParams, backward_from_mask, conv_forward
from regemb.corpus import TokenSequence
from regemb.lstm import SideInputParams
from regemb.numkernel import RngSpec, scatter_add_columns

from oracles import region_vector


def random_conv(rng, maps, region, input_kind, vocab, n_side=0, side_dim=2, scale=0.5):
    cols = vocab * (region if input_kind == "seq" else 1)
    side = [SideInputParams(f"tv{j}", side_dim,
                            scale * rng.standard_normal((maps, side_dim)))
            for j in range(n_side)]
    return ConvParams(maps, region, input_kind, vocab,
                      scale * rng.standard_normal((maps, cols)),
                      scale * rng.standard_normal(maps), side)


def rel_err(a, n):
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def forward_one(p, ids, side=None):
    """One document through the batched engine: (maps, T)."""
    return conv_forward(p, [ids], None if side is None else [side])[0][0]


def gradients_one(p, ids, upstream, side=None):
    _, run = conv_forward(p, [ids], None if side is None else [side])
    return backward_from_mask(run, [upstream])


def batch_loss(p, docs, sides, ups):
    outs, _ = conv_forward(p, docs, sides)
    return float(sum(np.sum(up * out) for up, out in zip(ups, outs)))


class TestConvForward:
    def test_matches_per_location_region_vectors(self):
        # oracle: out[:, l] = relu(w @ region_vector(l) + b)
        rng = np.random.default_rng(0)
        for input_kind in ("seq", "bow"):
            p = random_conv(rng, 3, 3, input_kind, 5)
            ids = rng.integers(0, 5, size=7)
            out = forward_one(p, ids)
            for loc in range(7):
                x = region_vector(ids, loc, 3, 5, input_kind)
                np.testing.assert_allclose(out[:, loc], np.maximum(p.w @ x + p.b, 0),
                                           rtol=1e-12, atol=1e-12)

    def test_region_one_seq_equals_bow(self):
        rng = np.random.default_rng(1)
        seq = random_conv(rng, 4, 1, "seq", 6)
        bow = ConvParams(4, 1, "bow", 6, seq.w.copy(), seq.b.copy())
        ids = rng.integers(0, 6, size=9)
        np.testing.assert_array_equal(forward_one(seq, ids), forward_one(bow, ids))

    def test_negative_bias_clamps_to_zero(self):
        p = ConvParams(2, 2, "seq", 3, np.zeros((2, 6)), np.array([-1.0, -2.0]))
        out = forward_one(p, np.array([0, 1, 2]))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_protocol_shapes(self):
        # seq region 3 and bow region 20 parameter layouts
        rng = RngSpec(0).stream("init")
        seq = ConvParams.create(10, 3, "seq", 100, rng)
        assert seq.w.shape == (10, 300)
        bow = ConvParams.create(10, 20, "bow", 100, rng)
        assert bow.w.shape == (10, 100)

    def test_empty_doc(self):
        rng = np.random.default_rng(2)
        p = random_conv(rng, 2, 3, "seq", 4)
        assert forward_one(p, np.zeros(0, np.int64)).shape == (2, 0)

    def test_out_of_range_ids_rejected(self):
        # the gather clips indices, so the engine refuses them up front
        rng = np.random.default_rng(7)
        for input_kind in ("seq", "bow"):
            p = random_conv(rng, 2, 2, input_kind, 4)
            for bad in (4, -1):
                with pytest.raises(ValueError):
                    conv_forward(p, [np.array([0, 1]), np.array([2, bad])])

    def test_location_shift(self):
        # inserting a token at the front shifts interior columns by one
        rng = np.random.default_rng(3)
        p = random_conv(rng, 3, 3, "seq", 5)
        ids = rng.integers(0, 5, size=8)
        longer = np.concatenate([[4], ids])
        a = forward_one(p, ids)
        b = forward_one(p, longer)
        np.testing.assert_array_equal(b[:, 1:9], a)

    def test_side_input_added(self):
        rng = np.random.default_rng(4)
        p = random_conv(rng, 3, 2, "seq", 5, n_side=1, side_dim=2)
        ids = rng.integers(0, 5, size=6)
        sv = rng.standard_normal((2, 6))
        base = random_conv(rng, 3, 2, "seq", 5)
        base.w[:] = p.w
        base.b[:] = p.b
        with_side = forward_one(p, ids, [sv])
        plain = forward_one(base, ids)
        assert not np.array_equal(with_side, plain)
        zero = forward_one(p, ids, [np.zeros((2, 6))])
        np.testing.assert_array_equal(zero, plain)


class TestConvGradients:
    def test_zero_upstream(self):
        rng = np.random.default_rng(5)
        p = random_conv(rng, 3, 2, "seq", 4, n_side=1)
        ids = rng.integers(0, 4, size=5)
        sv = [rng.standard_normal((2, 5))]
        grads = gradients_one(p, ids, np.zeros((3, 5)), sv)
        np.testing.assert_array_equal(grads.w, np.zeros_like(p.w))
        np.testing.assert_array_equal(grads.b, np.zeros_like(p.b))

    @pytest.mark.parametrize("input_kind,n_side", [("seq", 0), ("bow", 0), ("seq", 1)])
    def test_matches_finite_differences(self, input_kind, n_side):
        eps = 1e-4
        for seed in range(6):
            rng = np.random.default_rng(50 + seed)
            maps = int(rng.integers(1, 4))
            region = int(rng.integers(1, 4))
            vocab = int(rng.integers(2, 6))
            total = int(rng.integers(1, 7))
            p = random_conv(rng, maps, region, input_kind, vocab, n_side)
            ids = rng.integers(0, vocab, size=total)
            side = [rng.standard_normal((2, total)) for _ in range(n_side)] or None
            upstream = rng.standard_normal((maps, total))

            def loss():
                return float(np.sum(upstream * forward_one(p, ids, side)))

            grads = gradients_one(p, ids, upstream, side)
            tensors = [("w", p.w, grads.w), ("b", p.b, grads.b)]
            for j in range(n_side):
                tensors.append((f"side{j}", p.side[j].w, grads.side[j]))
            for name, arr, g in tensors:
                flat = arr.reshape(-1)
                gflat = np.asarray(g).reshape(-1)
                for c in range(flat.size):
                    orig = flat[c]
                    flat[c] = orig + eps
                    up = loss()
                    flat[c] = orig - eps
                    down = loss()
                    flat[c] = orig
                    numeric = (up - down) / (2 * eps)
                    assert rel_err(gflat[c], numeric) < 1e-4, (name, c)

    def test_zero_preactivation_contributes_nothing(self):
        # relu subgradient at exactly 0 is 0
        p = ConvParams(2, 2, "seq", 3, np.zeros((2, 6)), np.zeros(2))
        ids = np.array([0, 1, 2])
        grads = gradients_one(p, ids, np.ones((2, 3)))
        np.testing.assert_array_equal(grads.w, np.zeros_like(p.w))
        np.testing.assert_array_equal(grads.b, np.zeros_like(p.b))

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(6)
        p = random_conv(rng, 2, 2, "seq", 3)
        with pytest.raises(ValueError):
            gradients_one(p, np.array([0, 1]), np.zeros((2, 3)))


def ragged_batch(rng, region, vocab, n_side, side_dim=2):
    """Id arrays of lengths 0, 1, 2, region and 9; the same documents with
    one of them as a TokenSequence; per-document side values."""
    ids = [rng.integers(0, vocab, size=n) for n in (0, 1, 2, region, 9)]
    docs = ids[:2] + [TokenSequence(ids[2])] + ids[3:]
    sides = [[rng.standard_normal((side_dim, len(x))) for _ in range(n_side)]
             for x in ids]
    return ids, docs, (sides if n_side else None)


class TestConvEngine:
    """A ragged batch through one engine pass, against per-location and
    per-document references."""

    @pytest.mark.parametrize("input_kind", ["seq", "bow"])
    @pytest.mark.parametrize("n_side", [0, 2])
    def test_outputs_match_per_location_oracle(self, input_kind, n_side):
        for region in range(1, 6):
            rng = np.random.default_rng(100 + region)
            p = random_conv(rng, 3, region, input_kind, 6, n_side)
            id_list, docs, sides = ragged_batch(rng, region, 6, n_side)
            outs, _ = conv_forward(p, docs, sides)
            for i, ids in enumerate(id_list):
                assert outs[i].shape == (3, len(ids))
                for loc in range(len(ids)):
                    pre = p.w @ region_vector(ids, loc, region, 6, input_kind) + p.b
                    for sp, sv in zip(p.side, sides[i] if sides else ()):
                        pre += sp.w @ sv[:, loc]
                    np.testing.assert_allclose(outs[i][:, loc], np.maximum(pre, 0),
                                               rtol=1e-12, atol=1e-12)
                if not n_side:  # the batch changes no document's bytes
                    np.testing.assert_array_equal(outs[i], forward_one(p, ids))

    @pytest.mark.parametrize("input_kind", ["seq", "bow"])
    def test_gradients_match_finite_differences(self, input_kind):
        eps = 1e-4
        for region in range(1, 6):
            rng = np.random.default_rng(200 + region)
            p = random_conv(rng, 2, region, input_kind, 4, n_side=2)
            id_list, docs, sides = ragged_batch(rng, region, 4, 2)
            ups = [rng.standard_normal((2, len(ids))) for ids in id_list]
            _, run = conv_forward(p, docs, sides)
            grads = backward_from_mask(run, ups)
            tensors = [("w", p.w, grads.w), ("b", p.b, grads.b)]
            tensors += [(f"side{j}", sp.w, g) for j, (sp, g) in
                        enumerate(zip(p.side, grads.side))]
            for name, arr, g in tensors:
                flat = arr.reshape(-1)
                gflat = np.asarray(g).reshape(-1)
                for c in range(flat.size):
                    orig = flat[c]
                    flat[c] = orig + eps
                    up = batch_loss(p, docs, sides, ups)
                    flat[c] = orig - eps
                    down = batch_loss(p, docs, sides, ups)
                    flat[c] = orig
                    numeric = (up - down) / (2 * eps)
                    assert rel_err(gflat[c], numeric) < 1e-4, (region, name, c)

    @pytest.mark.parametrize("input_kind", ["seq", "bow"])
    def test_backward_scatters_once_per_offset(self, monkeypatch, input_kind):
        calls = []

        def counting(dest, idx, cols):
            calls.append(idx.size)
            return scatter_add_columns(dest, idx, cols)

        monkeypatch.setattr(conv_mod, "scatter_add_columns", counting)
        for region in range(1, 6):
            rng = np.random.default_rng(300 + region)
            p = random_conv(rng, 2, region, input_kind, 5)
            docs = [rng.integers(0, 5, size=n) for n in (3, 0, 7, 1, 12, 4)]
            _, run = conv_forward(p, docs)
            calls.clear()
            backward_from_mask(run, [np.ones((2, len(d))) for d in docs])
            assert len(calls) <= region
