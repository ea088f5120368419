import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from regemb import conv as conv_mod
from regemb import lstm as lstm_mod
from regemb import model as model_mod
from regemb import tvembed as tv_mod
from regemb.corpus import TokenSequence, Vocabulary, encode, load_token_file
from regemb.errors import DataError
from regemb.numkernel import RngSpec, precision
from regemb.serialize import (
    MAGIC,
    VERSION,
    load_model,
    load_tensors,
    load_tv,
    save_model,
    save_tensors,
    save_tv,
)


def random_tv(seed, kind="lstm", dim=3, vocab=6):
    gen = RngSpec(seed).stream("init")
    if kind == "lstm":
        params = lstm_mod.LstmParams.create("full", dim, vocab, "one-hot", gen)
        return tv_mod.TvEmbedding(
            kind="lstm", dim=dim, name=f"tv{seed}", lstm_params=params,
            direction="forward" if seed % 2 else "backward",
            target_vocab_hash="t" * 8, source_vocab_hash="s" * 8).freeze()
    params = conv_mod.ConvParams.create(dim, 3, "bow", vocab, gen)
    return tv_mod.TvEmbedding(
        kind="cnn", dim=dim, name=f"tv{seed}", conv_params=params,
        region_size=3, align_offset=1,
        target_vocab_hash="t" * 8, source_vocab_hash="s" * 8).freeze()


def random_model(seed, vocab_size=7, with_tv=False, with_emb=False):
    rng = RngSpec(seed)
    gen = rng.stream("init")
    r = np.random.default_rng(seed)
    branches = []
    if with_emb:
        d = 4
        emb = gen.standard_normal((d, vocab_size))
        branches.append(model_mod.LstmBranch(
            "bidirectional", model_mod.PoolingSpec("max", 1),
            lstm_mod.LstmParams.create("full", 3, d, "dense", gen),
            lstm_mod.LstmParams.create("full", 3, d, "dense", gen),
            embedding=emb, train_embedding=bool(seed % 2)))
    else:
        direction = ("forward", "backward", "bidirectional")[seed % 3]
        variant = "simplified" if seed % 2 else "full"
        fwd = lstm_mod.LstmParams.create(variant, 3, vocab_size, "one-hot", gen) \
            if direction != "backward" else None
        bwd = lstm_mod.LstmParams.create(variant, 3, vocab_size, "one-hot", gen) \
            if direction != "forward" else None
        branches.append(model_mod.LstmBranch(
            direction, model_mod.PoolingSpec("max", 1), fwd, bwd))
    branches.append(model_mod.ConvBranch(
        model_mod.PoolingSpec("avg", 2),
        conv_mod.ConvParams.create(4, 2, "seq" if seed % 2 else "bow",
                                   vocab_size, gen)))
    doc_dim = sum(b.out_dim * b.pooling.regions for b in branches)
    n_classes = 2 + seed % 3
    top = model_mod.TopLayerParams.create(n_classes, doc_dim, gen, dropout_rate=0.5)
    vocab = Vocabulary([f"w{i}" for i in range(vocab_size)])
    spec = model_mod.ModelSpec(branches, top, n_classes, vocab_size,
                               [f"c{i}" for i in range(n_classes)], "01", {}, vocab)
    if with_tv:
        embs = [random_tv(seed * 10 + 1, "lstm", vocab=vocab_size),
                random_tv(seed * 10 + 2, "cnn", vocab=vocab_size)]
        model_mod.attach_embeddings(spec, embs, rng.stream("init", 1))
    return spec


class TestContainer:
    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "x.rgem"
        with precision("float32"):
            a = np.arange(6, dtype=np.float32).reshape(2, 3)
            b = np.array([1.5, -2.5], dtype=np.float32)
            save_tensors(path, {"format": "raw", "note": "hi"},
                         [("a", a), ("b", b)])
            meta, tensors = load_tensors(path)
        assert meta == {"format": "raw", "note": "hi"}
        np.testing.assert_array_equal(tensors["a"], a)
        np.testing.assert_array_equal(tensors["b"].ravel(), b)

    def test_save_load_save_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "1.rgem", tmp_path / "2.rgem"
        with precision("float32"):
            gen = RngSpec(0).stream("init")
            save_tensors(p1, {"format": "raw"},
                         [("m", gen.standard_normal((3, 4), dtype=np.float32))])
            meta, tensors = load_tensors(p1)
            save_tensors(p2, meta, sorted(tensors.items()))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rgem"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="not a RGEM file"):
            load_tensors(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "v9.rgem"
        path.write_bytes(MAGIC + struct.pack("<I", VERSION + 1)
                         + struct.pack("<I", 0) + struct.pack("<I", 0))
        with pytest.raises(DataError, match="version"):
            load_tensors(path)

    def test_float32_load_holds_one_copy(self, tmp_path):
        path = tmp_path / "big.rgem"
        with precision("float32"):
            save_tensors(path, {"format": "raw"},
                         [("m", np.ones((512, 2048), dtype=np.float32))])
            tracemalloc.start()
            try:
                _, tensors = load_tensors(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert tensors["m"].dtype == np.float32
        assert peak < 1.25 * path.stat().st_size

    def test_truncated_file_is_data_error(self, tmp_path):
        path = tmp_path / "cut.rgem"
        with precision("float32"):
            save_tensors(path, {"format": "raw"},
                         [("m", np.ones((2, 2), dtype=np.float32))])
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) - 5])
        with pytest.raises(DataError, match="corrupt"):
            load_tensors(path)


def _layout(raw):
    """Offset of the n_tensors field, (start, end) of every tensor record."""
    (meta_len,) = struct.unpack_from("<I", raw, 8)
    count_at = pos = 12 + meta_len
    (n_tensors,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    records = []
    for _ in range(n_tensors):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        rows, cols = struct.unpack_from("<QQ", raw, pos + 4 + name_len)
        end = pos + 4 + name_len + 16 + 4 * rows * cols
        records.append((pos, end))
        pos = end
    return count_at, records


def _put_u32(raw, at, value):
    return raw[:at] + struct.pack("<I", value % 2**32) + raw[at + 4:]


def _duplicated_first(raw):
    count_at, records = _layout(raw)
    lo, hi = records[0]
    raw = raw[:hi] + raw[lo:hi] + raw[hi:]
    return _put_u32(raw, count_at, len(records) + 1)


def _n_tensors_plus(delta):
    def edit(raw):
        count_at, records = _layout(raw)
        return _put_u32(raw, count_at, len(records) + delta)
    return edit


def _first_rows(value):
    def edit(raw):
        _, records = _layout(raw)
        (name_len,) = struct.unpack_from("<I", raw, records[0][0])
        at = records[0][0] + 4 + name_len
        return raw[:at] + struct.pack("<Q", value) + raw[at + 8:]
    return edit


def _meta_len_plus(delta):
    def edit(raw):
        return _put_u32(raw, 8, struct.unpack_from("<I", raw, 8)[0] + delta)
    return edit


# every corruption of a valid container that loading must refuse: name,
# variants of the file's bytes, expected message (None: any data error)
CORRUPTIONS = [
    ("trailing bytes", lambda raw: [raw + b"\x00" * 4, raw + b"x"],
     "bytes after the last tensor"),
    ("duplicate name", lambda raw: [_duplicated_first(raw)], "duplicate tensor"),
    ("magic", lambda raw: [b"RGEN" + raw[4:], b"\x00" * 4 + raw[4:]], "not a RGEM"),
    ("version", lambda raw: [_put_u32(raw, 4, v) for v in (0, VERSION + 1, -1)],
     "version"),
    ("meta_len", lambda raw: [_meta_len_plus(d)(raw) for d in (-1, 1, -12, 2**31)], None),
    ("n_tensors", lambda raw: [_n_tensors_plus(d)(raw) for d in (-1, 1, -100, 2**31)],
     None),
    ("truncation", lambda raw: [raw[:cut] for cut in range(len(raw))], None),
    # a row count whose data would run past the end of the file is refused
    # before anything is allocated
    ("tensor size", lambda raw: [_first_rows(v)(raw) for v in (2**20, 2**40, 2**63)],
     "bytes wanted"),
]


class TestCorruptContainer:
    FILE = Path(__file__).parent / "data" / "format" / "tvl.tv"

    @pytest.mark.parametrize("what,variants,message", CORRUPTIONS,
                             ids=[c[0] for c in CORRUPTIONS])
    def test_is_data_error(self, tmp_path, what, variants, message):
        raw = self.FILE.read_bytes()
        load_tensors(self.FILE)
        bad = tmp_path / "bad.tv"
        for data in variants(raw):
            assert data != raw
            bad.write_bytes(data)
            with pytest.raises(DataError, match=message):
                load_tensors(bad)


class TestTvFiles:
    @pytest.mark.parametrize("kind", ["lstm", "cnn"])
    def test_round_trip(self, tmp_path, kind):
        with precision("float32"):
            emb = random_tv(3, kind)
            p1, p2 = tmp_path / "a.tv", tmp_path / "b.tv"
            save_tv(p1, emb)
            loaded = load_tv(p1)
            save_tv(p2, loaded)
            assert p1.read_bytes() == p2.read_bytes()
            assert loaded.kind == emb.kind
            assert loaded.dim == emb.dim
            assert loaded.align_offset == emb.align_offset
            assert loaded.target_vocab_hash == emb.target_vocab_hash
            ids = np.array([0, 3, 1, 5, 2])
            np.testing.assert_array_equal(tv_mod.apply_tv(loaded, [ids]),
                                          tv_mod.apply_tv(emb, [ids]))

    def test_loaded_tv_is_frozen(self, tmp_path):
        with precision("float32"):
            emb = random_tv(4, "lstm")
            save_tv(tmp_path / "a.tv", emb)
            loaded = load_tv(tmp_path / "a.tv")
        with pytest.raises(ValueError):
            loaded.lstm_params.wx[0, 0] = 1.0

    def test_model_file_is_not_a_tv_file(self, tmp_path):
        with precision("float32"):
            save_model(tmp_path / "m.rgem", random_model(0))
            with pytest.raises(DataError):
                load_tv(tmp_path / "m.rgem")


class TestModelFiles:
    @pytest.mark.parametrize("seed,with_tv,with_emb", [
        (0, False, False), (1, False, False), (2, True, False),
        (3, True, False), (4, False, True), (5, True, True),
    ])
    def test_round_trip_byte_identical(self, tmp_path, seed, with_tv, with_emb):
        with precision("float32"):
            spec = random_model(seed, with_tv=with_tv, with_emb=with_emb)
            p1, p2 = tmp_path / "a.rgem", tmp_path / "b.rgem"
            save_model(p1, spec)
            loaded = load_model(p1)
            save_model(p2, loaded)
            assert p1.read_bytes() == p2.read_bytes()

    def test_scores_bit_identical_after_reload(self, tmp_path):
        with precision("float32"):
            spec = random_model(2, with_tv=True)
            path = tmp_path / "m.rgem"
            save_model(path, spec)
            a = load_model(path)
            b = load_model(path)
            rng = np.random.default_rng(0)
            for _ in range(5):
                doc = TokenSequence(rng.integers(0, 7, size=int(rng.integers(1, 15))))
                sa = model_mod.model_forward(a, doc)
                sb = model_mod.model_forward(b, doc)
                so = model_mod.model_forward(spec, doc)
                np.testing.assert_array_equal(sa, sb)
                np.testing.assert_array_equal(sa, so)

    def test_vocab_and_classes_preserved(self, tmp_path):
        with precision("float32"):
            spec = random_model(1)
            path = tmp_path / "m.rgem"
            save_model(path, spec)
            loaded = load_model(path)
        assert loaded.vocab.words == spec.vocab.words
        assert loaded.class_names == spec.class_names
        assert loaded.n_classes == spec.n_classes
        assert loaded.top.dropout_rate == spec.top.dropout_rate

    def test_round_trip_across_precisions(self, tmp_path):
        # a model saved from float32 mode loads exactly in float64 mode
        path = tmp_path / "m.rgem"
        with precision("float32"):
            spec = random_model(3)
            save_model(path, spec)
        with precision("float64"):
            loaded = load_model(path)
            for (na, a), (nb, b) in zip(model_mod.iter_tensors(spec),
                                        model_mod.iter_tensors(loaded)):
                assert na == nb
                np.testing.assert_array_equal(a.astype(np.float64), b)


def _rewrite(src, dst, edit):
    """Copy a container, letting `edit(metadata, tensors)` change it first."""
    meta, tensors = load_tensors(src)
    meta, tensors = dict(meta), dict(tensors)
    edit(meta, tensors)
    save_tensors(dst, meta, tensors.items())


def _poison(name, value):
    def edit(meta, tensors):
        tensors[name] = tensors[name].copy()
        tensors[name].flat[0] = value
    return edit


def _set_config(keys, value):
    """Set the config entry reached through `keys` to `value`."""
    def edit(meta, tensors):
        cfg = json.loads(meta["config"])
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        meta["config"] = json.dumps(cfg)
    return edit


def _drop_config_key(key):
    def edit(meta, tensors):
        cfg = json.loads(meta["config"])
        del cfg[key]
        meta["config"] = json.dumps(cfg)
    return edit


class TestMalformedFiles:
    MODEL_CASES = [
        ("no config", lambda m, t: m.pop("config"), "no config key 'config'"),
        ("config not json", lambda m, t: m.update(config="{"), "bad config"),
        ("config key", _drop_config_key("n_classes"), "'n_classes'"),
        ("tensor", lambda m, t: t.pop("top.w"), "'top.w'"),
        ("tv tensor", lambda m, t: t.pop("tv.tv11.wh.o"), "'tv.tv11.wh.o'"),
        ("nan", _poison("br1.w", np.nan), "'br1.w' has non-finite"),
        ("inf", _poison("top.b", -np.inf), "'top.b' has non-finite"),
        ("tv nan", _poison("tv.tv12.w", np.nan), "'tv.tv12.w' has non-finite"),
        ("lstm variant", _set_config(["branches", 0, "parts", "bwd", "variant"], "bogus"),
         "unknown LSTM variant 'bogus'"),
        ("branch type", _set_config(["branches", 1, "type"], "bogus"),
         "unknown branch type 'bogus'"),
        ("tv direction", _set_config(["tv", "tv11", "direction"], "bogus"),
         "unknown tv direction 'bogus'"),
    ]

    @pytest.mark.parametrize("what,edit,message", MODEL_CASES,
                             ids=[c[0] for c in MODEL_CASES])
    def test_model_is_data_error(self, tmp_path, what, edit, message):
        good, bad = tmp_path / "good.rgem", tmp_path / "bad.rgem"
        save_model(good, random_model(1, with_tv=True))
        load_model(good)
        _rewrite(good, bad, edit)
        with pytest.raises(DataError, match=message):
            load_model(bad)

    TV_CASES = [
        ("no config", lambda m, t: m.pop("config"), "no config key 'config'"),
        ("config key", _drop_config_key("region_size"), "'region_size'"),
        ("tensor", lambda m, t: t.pop("b"), "'b'"),
        ("nan", _poison("w", np.nan), "'w' has non-finite"),
        ("kind", _set_config(["kind"], "bogus"), "unknown tv kind 'bogus'"),
    ]

    @pytest.mark.parametrize("what,edit,message", TV_CASES,
                             ids=[c[0] for c in TV_CASES])
    def test_tv_is_data_error(self, tmp_path, what, edit, message):
        good, bad = tmp_path / "good.tv", tmp_path / "bad.tv"
        save_tv(good, random_tv(2, "cnn"))
        load_tv(good)
        _rewrite(good, bad, edit)
        with pytest.raises(DataError, match=message):
            load_tv(bad)


class TestFormatFixture:
    """Files written before the LSTM gate tensors were stacked (see
    tests/data/make_format_fixture.py): a tv-LSTM, a tv-CNN, and a model with
    a full bi-LSTM branch and a seq-CNN branch that both read the two tv
    embeddings as side input."""

    DATA = Path(__file__).parent / "data" / "format"

    @pytest.mark.parametrize("name,load,save", [
        ("model.rgem", load_model, save_model),
        ("tvl.tv", load_tv, save_tv),
        ("tvc.tv", load_tv, save_tv),
    ])
    def test_resave_is_byte_identical(self, tmp_path, name, load, save):
        with precision("float32"):
            save(tmp_path / name, load(self.DATA / name))
        assert (tmp_path / name).read_bytes() == (self.DATA / name).read_bytes()

    def test_scores_match_the_recorded_ones(self):
        with precision("float32"):
            spec = load_model(self.DATA / "model.rgem")
            docs = [encode(toks, spec.vocab)
                    for toks in load_token_file(self.DATA / "docs.txt")]
            scores = model_mod.batch_scores(spec, docs)
        np.testing.assert_allclose(scores, np.load(self.DATA / "scores.npy"),
                                   rtol=1e-5)
