import numpy as np
import pytest

from regemb.corpus import (
    Dataset,
    TokenSequence,
    Vocabulary,
    build_vocab,
    class_ids,
    coverage,
    encode,
    load_dataset,
    load_label_file,
    load_stopwords,
    load_token_file,
    split_pretokenized,
    target_vocab,
    tokenize,
)
from regemb.errors import DataError
from regemb.lstm import plan_segments

from oracles import region_vector


class TestTokenize:
    def test_trailing_punctuation_split(self):
        assert tokenize("I love it!") == ["i", "love", "it", "!"]

    def test_internal_apostrophe_kept(self):
        assert tokenize("Don't like") == ["don't", "like"]

    def test_empty(self):
        assert tokenize("") == []

    def test_leading_and_trailing(self):
        assert tokenize("(hello)") == ["(", "hello", ")"]

    def test_all_punctuation_chunk(self):
        assert tokenize("!!") == ["!", "!"]

    def test_numbers_keep_internal_dot(self):
        assert tokenize("costs 3.5 dollars.") == ["costs", "3.5", "dollars", "."]

    def test_pretokenized_skips_peeling(self):
        assert split_pretokenized("Keep it!") == ["keep", "it!"]


class TestBuildVocab:
    def test_frequencies(self):
        v = build_vocab([["a", "b", "a"]], 10)
        assert v.words == ["a", "b"]
        assert v.index == {"a": 0, "b": 1}

    def test_lexicographic_tie_break(self):
        v = build_vocab([["a", "b", "a", "c"]], 2)
        assert v.words == ["a", "b"]

    def test_30k_cap(self):
        docs = [[f"w{i:05d}" for i in range(40000)]]
        v = build_vocab(docs, 30000)
        assert len(v) == 30000

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([[], []], 10)

    def test_order_independent(self):
        docs = [["b", "a"], ["c", "c", "a"], ["d"]]
        v1 = build_vocab(docs, 10)
        v2 = build_vocab(list(reversed(docs)), 10)
        assert v1.words == v2.words


class TestEncode:
    def test_oov_dropped(self):
        v = Vocabulary(["a", "b"])
        seq = encode(["a", "zz", "b"], v)
        np.testing.assert_array_equal(seq.ids, [0, 1])
        assert seq.raw_len == 3

    def test_empty(self):
        seq = encode([], Vocabulary(["a"]))
        assert len(seq) == 0 and seq.raw_len == 0

    def test_all_oov(self):
        seq = encode(["x", "y", "z"], Vocabulary(["a"]))
        assert len(seq) == 0 and seq.raw_len == 3

    def test_deterministic(self):
        v = build_vocab([tokenize("one two three two")], 10)
        a = encode(tokenize("Two three!"), v)
        b = encode(tokenize("Two three!"), v)
        np.testing.assert_array_equal(a.ids, b.ids)


class TestRegionConcat:
    """The seq region vector the conv engine tests compare against."""

    def test_basic(self):
        x = region_vector(np.array([0, 1, 2]), 0, 2, 3, "seq")
        np.testing.assert_array_equal(x, [1, 0, 0, 0, 1, 0])

    def test_right_edge_padded(self):
        x = region_vector(np.array([2]), 0, 2, 3, "seq")
        np.testing.assert_array_equal(x, [0, 0, 1, 0, 0, 0])

    def test_size_one_is_one_hot(self):
        ids = np.array([1, 2, 0])
        for loc in range(3):
            np.testing.assert_array_equal(region_vector(ids, loc, 1, 3, "seq"),
                                          np.eye(3)[ids[loc]])


class TestRegionBow:
    def test_counts(self):
        x = region_vector(np.array([0, 1, 0]), 0, 3, 3, "bow")
        np.testing.assert_array_equal(x, [2, 1, 0])

    def test_size_one_equals_concat(self):
        ids = np.array([2, 0, 1])
        for loc in range(3):
            np.testing.assert_array_equal(region_vector(ids, loc, 1, 3, "bow"),
                                          region_vector(ids, loc, 1, 3, "seq"))

    def test_window_truncated_at_end(self):
        x = region_vector(np.array([0, 1]), 1, 5, 3, "bow")
        np.testing.assert_array_equal(x, [0, 1, 0])


class TestChop:
    """Chopping as the LSTM engine does it: lstm.plan_segments spans."""

    def test_lengths_and_offsets(self):
        plan = plan_segments(7, 3)
        assert [end - start for start, _, end in plan] == [3, 3, 1]
        assert [start for start, _, _ in plan] == [0, 3, 6]

    def test_protocol_seg_100(self):
        plan = plan_segments(250, 100)
        assert [end - start for start, _, end in plan] == [100, 100, 50]

    def test_long_seg_is_identity(self):
        assert plan_segments(5, 10) == [(0, 0, 5)]

    def test_flatten_reproduces_ids(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(0, 40))
            seg_len = int(rng.integers(1, 12))
            ids = rng.integers(0, 9, size=n)
            pieces = [ids[start:end] for start, _, end in plan_segments(n, seg_len)]
            np.testing.assert_array_equal(np.concatenate(pieces), ids)


class TestTargetVocab:
    def test_stopwords_removed(self):
        v = Vocabulary(["the", "movie", "good"])
        t = target_vocab(v, frozenset({"the"}), 30000)
        assert t.words == ["movie", "good"]

    def test_empty_stoplist_truncates_only(self):
        v = Vocabulary(["a", "b", "c"])
        t = target_vocab(v, frozenset(), 2)
        assert t.words == ["a", "b"]

    def test_all_stopped_is_error(self):
        v = Vocabulary(["the", "a"])
        with pytest.raises(DataError):
            target_vocab(v, frozenset({"the", "a"}), 10)

    def test_stopwords_are_lowercased(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("The\nA\n\nof\n", encoding="utf-8")
        stop = load_stopwords(path)
        assert stop == frozenset({"the", "a", "of"})
        assert "the" in stop and "The" not in stop


class TestVocabularyFile:
    def test_round_trip(self, tmp_path):
        v = build_vocab([["b", "a", "b", "c"]], 10)
        path = tmp_path / "vocab.txt"
        v.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.words == v.words
        assert loaded.sha256() == v.sha256()

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\nb\n")
        with pytest.raises(DataError):
            Vocabulary.load(path)

    def test_header_count_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#size=3\na\nb\n")
        with pytest.raises(DataError):
            Vocabulary.load(path)


class TestIngestion:
    def test_invalid_utf8_names_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"good text\nbad \xff\xfe here\n")
        with pytest.raises(DataError, match="byte offset 14"):
            load_token_file(path)

    def test_label_alignment(self, tmp_path):
        toks = tmp_path / "t.txt"
        labs = tmp_path / "l.txt"
        toks.write_text("a b\nc d\n")
        labs.write_text("pos\n")
        v = Vocabulary(["a", "b", "c", "d"])
        with pytest.raises(DataError):
            load_dataset(toks, labs, v)

    def test_load_dataset(self, tmp_path):
        toks = tmp_path / "t.txt"
        labs = tmp_path / "l.txt"
        toks.write_text("a b\nc d\n")
        labs.write_text("pos\nneg\n")
        v = Vocabulary(["a", "b", "c", "d"])
        ds = load_dataset(toks, labs, v)
        assert ds.n_classes == 2
        assert ds.class_names == ["pos", "neg"]
        assert [d.label for d in ds.docs] == [0, 1]

    def test_class_ids_first_appearance(self):
        ids, names = class_ids(["b", "a", "b", "c"])
        assert ids == [0, 1, 0, 2]
        assert names == ["b", "a", "c"]

    def test_class_ids_closed_set(self):
        with pytest.raises(DataError):
            class_ids(["a", "x"], class_names=["a", "b"])

    def test_coverage(self):
        v = Vocabulary(["a", "b"])
        assert coverage([["a", "b", "z", "z"]], v) == 0.5

    def test_label_range_checked(self):
        with pytest.raises(DataError):
            Dataset([TokenSequence(np.array([0]), label=3)], n_classes=2)

    def test_label_file(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("x\n y \n")
        assert load_label_file(path) == ["x", "y"]
