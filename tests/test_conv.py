import numpy as np
import pytest

from regemb.conv import ConvParams, conv_forward, conv_gradients
from regemb.corpus import region_bow, region_concat
from regemb.lstm import SideInputParams
from regemb.numkernel import RngSpec, relu


def random_conv(rng, maps, region, input_kind, vocab, n_side=0, side_dim=2, scale=0.5):
    cols = vocab * (region if input_kind == "seq" else 1)
    side = [SideInputParams(f"tv{j}", side_dim,
                            {"w": scale * rng.standard_normal((maps, side_dim))})
            for j in range(n_side)]
    return ConvParams(maps, region, input_kind, vocab,
                      scale * rng.standard_normal((maps, cols)),
                      scale * rng.standard_normal(maps), side)


def rel_err(a, n):
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


class TestConvForward:
    def test_matches_per_location_region_vectors(self):
        # oracle: out[:, l] = relu(w @ region_vec(l) + b) via the corpus ops
        rng = np.random.default_rng(0)
        for input_kind in ("seq", "bow"):
            p = random_conv(rng, 3, 3, input_kind, 5)
            ids = rng.integers(0, 5, size=7)
            out = conv_forward(p, ids)
            build = region_concat if input_kind == "seq" else region_bow
            for loc in range(7):
                x = build(ids, loc, 3, 5).densify()
                np.testing.assert_allclose(out[:, loc], relu(p.w @ x + p.b),
                                           rtol=1e-12, atol=1e-12)

    def test_region_one_seq_equals_bow(self):
        rng = np.random.default_rng(1)
        seq = random_conv(rng, 4, 1, "seq", 6)
        bow = ConvParams(4, 1, "bow", 6, seq.w.copy(), seq.b.copy())
        ids = rng.integers(0, 6, size=9)
        np.testing.assert_array_equal(conv_forward(seq, ids), conv_forward(bow, ids))

    def test_negative_bias_clamps_to_zero(self):
        p = ConvParams(2, 2, "seq", 3, np.zeros((2, 6)), np.array([-1.0, -2.0]))
        out = conv_forward(p, np.array([0, 1, 2]))
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
        assert conv_forward(p, np.zeros(0, np.int64)).shape == (2, 0)

    def test_location_shift(self):
        # inserting a token at the front shifts interior columns by one
        rng = np.random.default_rng(3)
        p = random_conv(rng, 3, 3, "seq", 5)
        ids = rng.integers(0, 5, size=8)
        longer = np.concatenate([[4], ids])
        a = conv_forward(p, ids)
        b = conv_forward(p, longer)
        np.testing.assert_array_equal(b[:, 1:9], a)

    def test_side_input_added(self):
        rng = np.random.default_rng(4)
        p = random_conv(rng, 3, 2, "seq", 5, n_side=1, side_dim=2)
        ids = rng.integers(0, 5, size=6)
        sv = rng.standard_normal((2, 6))
        base = random_conv(rng, 3, 2, "seq", 5)
        base.w[:] = p.w
        base.b[:] = p.b
        with_side = conv_forward(p, ids, [sv])
        plain = conv_forward(base, ids)
        assert not np.array_equal(with_side, plain)
        zero = conv_forward(p, ids, [np.zeros((2, 6))])
        np.testing.assert_array_equal(zero, plain)


class TestConvGradients:
    def test_zero_upstream(self):
        rng = np.random.default_rng(5)
        p = random_conv(rng, 3, 2, "seq", 4, n_side=1)
        ids = rng.integers(0, 4, size=5)
        sv = [rng.standard_normal((2, 5))]
        grads, _ = conv_gradients(p, ids, np.zeros((3, 5)), sv)
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
                return float(np.sum(upstream * conv_forward(p, ids, side)))

            grads, dsv = conv_gradients(p, ids, upstream, side,
                                        want_side_values_grad=bool(n_side))
            tensors = [("w", p.w, grads.w), ("b", p.b, grads.b)]
            for j in range(n_side):
                tensors.append((f"side{j}", p.side[j].w["w"], grads.side[j]["w"]))
                tensors.append((f"sv{j}", side[j], dsv[j]))
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
        grads, _ = conv_gradients(p, ids, np.ones((2, 3)))
        np.testing.assert_array_equal(grads.w, np.zeros_like(p.w))
        np.testing.assert_array_equal(grads.b, np.zeros_like(p.b))

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(6)
        p = random_conv(rng, 2, 2, "seq", 3)
        with pytest.raises(ValueError):
            conv_gradients(p, np.array([0, 1]), np.zeros((2, 3)))
