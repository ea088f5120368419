import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regemb.cli import ARCHES, load_word_vectors, main
from regemb.corpus import Vocabulary
from regemb.errors import DataError
from regemb.serialize import load_tensors, save_tensors


@pytest.fixture
def corpus_files(tmp_path):
    rng = np.random.default_rng(0)
    fillers = [f"f{i}" for i in range(10)]
    train, labels = [], []
    for i in range(40):
        label = i % 2
        words = list(rng.choice(fillers, size=6))
        words.insert(int(rng.integers(0, 6)), "good" if label == 0 else "bad")
        train.append(" ".join(words))
        labels.append("pos" if label == 0 else "neg")
    (tmp_path / "train.txt").write_text("\n".join(train) + "\n")
    (tmp_path / "train.lab").write_text("\n".join(labels) + "\n")
    (tmp_path / "test.txt").write_text("\n".join(train[:10]) + "\n")
    (tmp_path / "test.lab").write_text("\n".join(labels[:10]) + "\n")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuildVocab:
    def test_writes_and_reports(self, corpus_files, capsys):
        out_path = corpus_files / "vocab.txt"
        code, out, _ = run(capsys, "build-vocab", "--input",
                           str(corpus_files / "train.txt"), "--out", str(out_path))
        assert code == 0
        assert "vocab_size=" in out and "coverage=" in out
        vocab = Vocabulary.load(out_path)
        assert "good" in vocab and "bad" in vocab

    def test_deterministic(self, corpus_files, capsys):
        p1, p2 = corpus_files / "v1.txt", corpus_files / "v2.txt"
        run(capsys, "build-vocab", "--input", str(corpus_files / "train.txt"),
            "--out", str(p1))
        run(capsys, "build-vocab", "--input", str(corpus_files / "train.txt"),
            "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_stopwords_excluded(self, corpus_files, capsys):
        stop = corpus_files / "stop.txt"
        stop.write_text("good\nbad\n")
        out_path = corpus_files / "tvocab.txt"
        code, _, _ = run(capsys, "build-vocab", "--input",
                         str(corpus_files / "train.txt"), "--out", str(out_path),
                         "--stopwords", str(stop))
        assert code == 0
        vocab = Vocabulary.load(out_path)
        assert "good" not in vocab and "bad" not in vocab

    def test_stopword_cap_filled_after_exclusion(self, tmp_path, capsys):
        # the cap counts surviving words, not words before exclusion
        (tmp_path / "c.txt").write_text("the a a b b c c d d e\n")
        (tmp_path / "stop.txt").write_text("the\n")
        out_path = tmp_path / "v.txt"
        code, _, _ = run(capsys, "build-vocab", "--input", str(tmp_path / "c.txt"),
                         "--out", str(out_path), "--size", "4",
                         "--stopwords", str(tmp_path / "stop.txt"))
        assert code == 0
        vocab = Vocabulary.load(out_path)
        assert len(vocab) == 4 and "the" not in vocab

    def test_default_size_is_30000(self):
        from regemb.cli import build_parser
        args = build_parser().parse_args(
            ["build-vocab", "--input", "x", "--out", "y"])
        assert args.size == 30000

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "build-vocab", "--input",
                           str(tmp_path / "nope.txt"), "--out",
                           str(tmp_path / "v.txt"))
        assert code == 2


class TestTrainEvalPredict:
    def _train(self, corpus_files, capsys, *extra):
        model = corpus_files / "model.rgem"
        code, out, err = run(
            capsys, "train", "--arch", "seq-cnn", "--region", "2", "--maps", "8",
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(model), "--epochs", "12", "--lr", "0.1",
            "--minibatch", "10", "--dropout", "0", "--dev-fraction", "0",
            "--seed", "7", *extra)
        assert code == 0, err
        return model, out

    def test_train_writes_model_and_logs(self, corpus_files, capsys):
        model, out = self._train(corpus_files, capsys)
        assert model.exists()
        lines = [l for l in out.splitlines() if l.startswith("epoch=")]
        assert len(lines) == 12
        assert all("loss=" in l and "seconds=" in l for l in lines)

    def test_eval_prints_error_rate(self, corpus_files, capsys):
        model, _ = self._train(corpus_files, capsys)
        code, out, _ = run(capsys, "eval", "--model", str(model),
                           "--test", str(corpus_files / "test.txt"),
                           "--labels", str(corpus_files / "test.lab"))
        assert code == 0
        rate_line = [l for l in out.splitlines() if l.startswith("error_rate=")]
        assert len(rate_line) == 1
        assert float(rate_line[0].split("=")[1]) == 0.0
        assert any(l.startswith("confusion ") for l in out.splitlines())

    def test_predict_is_pure(self, corpus_files, capsys):
        model, _ = self._train(corpus_files, capsys)
        code, out1, _ = run(capsys, "predict", "--model", str(model),
                            "--input", str(corpus_files / "test.txt"))
        assert code == 0
        code, out2, _ = run(capsys, "predict", "--model", str(model),
                            "--input", str(corpus_files / "test.txt"))
        assert out1 == out2
        preds = out1.strip().splitlines()
        assert len(preds) == 10
        assert set(preds).issubset({"pos", "neg"})

    def test_lstm_arch_trains(self, corpus_files, capsys):
        model = corpus_files / "lstm.rgem"
        code, out, _ = run(
            capsys, "train", "--arch", "oh-2lstmp", "--units", "4",
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(model), "--epochs", "2", "--lr", "0.05",
            "--minibatch", "10", "--dropout", "0", "--chop", "4",
            "--dev-fraction", "0.2", "--seed", "1")
        assert code == 0
        dev_errs = [l for l in out.splitlines() if "dev_err=" in l]
        assert dev_errs and "nan" not in dev_errs[0]

    def test_multi_arch(self, corpus_files, capsys):
        model = corpus_files / "multi.rgem"
        code, _, _ = run(
            capsys, "train", "--arch", "multi",
            "--branch", "conv:kind=seq,region=2,maps=4",
            "--branch", "lstm:dir=bi,units=3,variant=simplified",
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(model), "--epochs", "1", "--dropout", "0",
            "--dev-fraction", "0")
        assert code == 0 and model.exists()

    def test_training_is_deterministic_per_seed(self, corpus_files, capsys):
        m1, _ = self._train(corpus_files, capsys)
        data = m1.read_bytes()
        m2, _ = self._train(corpus_files, capsys)
        assert m2.read_bytes() == data

    def test_config_file_defaults(self, corpus_files, capsys):
        cfg = corpus_files / "train.cfg"
        cfg.write_text("epochs=1\nlr=0.2\ndropout=0\ndev-fraction=0\n")
        model = corpus_files / "cfg.rgem"
        code, out, _ = run(
            capsys, "train", "--arch", "seq-cnn",
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(model), "--config", str(cfg))
        assert code == 0
        assert len([l for l in out.splitlines() if l.startswith("epoch=")]) == 1

    def test_abbreviated_flag_is_usage_error(self, corpus_files, capsys):
        # an abbreviation would pass as given yet lose to the config file
        cfg = corpus_files / "train.cfg"
        cfg.write_text("epochs=5\n")
        code, _, err = run(
            capsys, "train", "--arch", "seq-cnn",
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(corpus_files / "m.rgem"), "--config", str(cfg), "--epo", "1")
        assert code == 1 and "unrecognized arguments: --epo" in err

    def test_eval_scores_once_and_matches_predict(self, corpus_files, capsys,
                                                  monkeypatch):
        import regemb.model as model_mod

        model, _ = self._train(corpus_files, capsys, "--epochs", "1")
        code, out, _ = run(capsys, "predict", "--model", str(model),
                           "--input", str(corpus_files / "test.txt"))
        assert code == 0
        preds = out.split()
        truth = (corpus_files / "test.lab").read_text().split()
        train = (corpus_files / "train.lab").read_text().split()
        names = sorted(set(train), key=train.index)  # class ids: first seen
        pairs = Counter(zip(truth, preds))
        wrong = sum(n for (t, p), n in pairs.items() if t != p)
        want = [f"error_rate={100.0 * wrong / len(truth):.4f}"]
        for name in names:
            row = " ".join(f"{p}={pairs[name, p]}" for p in names if pairs[name, p])
            want.append(f"confusion {name}: {row}")
        scored = []
        original = model_mod.batch_scores
        monkeypatch.setattr(model_mod, "batch_scores",
                            lambda spec, docs, *a, **k:
                            scored.append(len(docs)) or original(spec, docs, *a, **k))
        code, out, _ = run(capsys, "eval", "--model", str(model),
                           "--test", str(corpus_files / "test.txt"),
                           "--labels", str(corpus_files / "test.lab"))
        assert code == 0
        assert out == "\n".join(want) + "\n"
        assert sum(scored) == len(truth)

    def test_eval_empty_set_is_data_error(self, corpus_files, capsys):
        model, _ = self._train(corpus_files, capsys, "--epochs", "1")
        (corpus_files / "empty.txt").write_text("")
        code, _, err = run(capsys, "eval", "--model", str(model),
                           "--test", str(corpus_files / "empty.txt"),
                           "--labels", str(corpus_files / "empty.txt"))
        assert code == 2 and "empty" in err

    def _train_with_config(self, corpus_files, capsys, text, *argv):
        cfg = corpus_files / "train.cfg"
        cfg.write_text(text)
        return run(capsys, "train", *argv,
                   "--train", str(corpus_files / "train.txt"),
                   "--train-labels", str(corpus_files / "train.lab"),
                   "--out", str(corpus_files / "cfg.rgem"), "--config", str(cfg))

    def test_config_values_take_the_flag_type(self, corpus_files, capsys):
        code, out, err = self._train_with_config(
            corpus_files, capsys,
            "units=4\nchop=20\nvariant=full\nepochs=1\ndev-fraction=0\n",
            "--arch", "oh-lstmp")
        assert code == 0, err
        from regemb.serialize import load_model
        branch = load_model(corpus_files / "cfg.rgem").branches[0]
        assert branch.fwd.units == 4 and branch.fwd.variant == "full"

    def test_config_bad_number_is_usage_error(self, corpus_files, capsys):
        code, _, err = self._train_with_config(
            corpus_files, capsys, "epochs=abc\n", "--arch", "seq-cnn")
        assert code == 1 and "epochs" in err

    def test_config_bad_choice_is_usage_error(self, corpus_files, capsys):
        code, _, err = self._train_with_config(
            corpus_files, capsys, "pool=median\n", "--arch", "seq-cnn")
        assert code == 1 and "pool" in err

    def test_bad_branch_direction_is_usage_error(self, corpus_files, capsys):
        code, _, err = run(
            capsys, "train", "--arch", "multi", "--branch", "lstm:dir=sideways",
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(corpus_files / "m.rgem"))
        assert code == 1 and "sideways" in err

    def test_bad_branch_number_is_usage_error(self, corpus_files, capsys):
        code, _, err = run(
            capsys, "train", "--arch", "multi", "--branch", "conv:maps=many",
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(corpus_files / "m.rgem"))
        assert code == 1 and "many" in err


class TestTrainTv:
    def test_train_and_attach(self, corpus_files, capsys):
        vocab_path = corpus_files / "vocab.txt"
        run(capsys, "build-vocab", "--input", str(corpus_files / "train.txt"),
            "--out", str(vocab_path))
        tvocab_path = corpus_files / "tvocab.txt"
        run(capsys, "build-vocab", "--input", str(corpus_files / "train.txt"),
            "--out", str(tvocab_path))
        tv_path = corpus_files / "fwd.tv"
        code, out, _ = run(
            capsys, "train-tv", "--kind", "lstm", "--direction", "fwd",
            "--dim", "4", "--k-next", "2", "--neg", "3",
            "--vocab", str(vocab_path), "--target-vocab", str(tvocab_path),
            "--unlabeled", str(corpus_files / "train.txt"),
            "--out", str(tv_path), "--epochs", "2", "--lr", "0.1")
        assert code == 0 and tv_path.exists()
        assert any(l.startswith("epoch=0 ") for l in out.splitlines())
        model = corpus_files / "semi.rgem"
        code, _, _ = run(
            capsys, "train", "--arch", "oh-lstmp", "--units", "3",
            "--tv", str(tv_path),
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--vocab", str(vocab_path),
            "--out", str(model), "--epochs", "1", "--dropout", "0",
            "--dev-fraction", "0")
        assert code == 0 and model.exists()

    def test_vocab_mismatch_is_data_error(self, corpus_files, capsys):
        vocab_path = corpus_files / "vocab.txt"
        run(capsys, "build-vocab", "--input", str(corpus_files / "train.txt"),
            "--out", str(vocab_path))
        tv_path = corpus_files / "f.tv"
        run(capsys, "train-tv", "--kind", "lstm", "--dim", "3",
            "--vocab", str(vocab_path), "--target-vocab", str(vocab_path),
            "--unlabeled", str(corpus_files / "train.txt"),
            "--out", str(tv_path), "--epochs", "1")
        other_vocab = corpus_files / "other.txt"
        other_vocab.write_text("#size=2\nalpha\nbeta\n")
        code, _, err = run(
            capsys, "train", "--arch", "oh-lstmp", "--units", "2",
            "--tv", str(tv_path),
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--vocab", str(other_vocab),
            "--out", str(corpus_files / "m.rgem"), "--epochs", "1",
            "--dropout", "0", "--dev-fraction", "0")
        assert code == 2
        assert "different vocabulary" in err


class TestUsageErrors:
    def test_region_with_lstm_arch(self, corpus_files, capsys):
        code, _, err = run(
            capsys, "train", "--arch", "oh-2lstmp", "--region", "3",
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(corpus_files / "m.rgem"))
        assert code == 1
        assert "--region" in err

    def test_units_with_cnn_arch(self, corpus_files, capsys):
        code, _, err = run(
            capsys, "train", "--arch", "seq-cnn", "--units", "5",
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(corpus_files / "m.rgem"))
        assert code == 1

    def test_unknown_arch(self, capsys):
        code, _, _ = run(capsys, "train", "--arch", "transformer",
                         "--train", "x", "--train-labels", "y", "--out", "z")
        assert code == 1

    @pytest.mark.parametrize("train", ["train.txt", "missing.txt"])
    def test_dev_needs_dev_labels_before_any_file_is_read(self, corpus_files, capsys,
                                                          train):
        """The same command line is the same usage error whatever the data."""
        out = corpus_files / "m.rgem"
        code, stdout, err = run(
            capsys, "train", "--arch", "oh-lstmp", "--units", "2",
            "--train", str(corpus_files / train),
            "--train-labels", str(corpus_files / "train.lab"),
            "--dev", str(corpus_files / "test.txt"), "--out", str(out))
        assert code == 1, err
        assert err.startswith("error: --dev needs --dev-labels") and "Traceback" not in err
        assert stdout == "" and not out.exists()

    def test_wv_arch_needs_vectors(self, corpus_files, capsys):
        code, _, err = run(
            capsys, "train", "--arch", "wv-lstm",
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(corpus_files / "m.rgem"))
        assert code == 1


class TestGradcheckCommand:
    def test_passes_for_default_arch(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--arch", "oh-2lstmp",
                           "--seed", "3")
        assert code == 0
        assert "gradcheck PASS" in out

    def test_with_tv_attachment(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--arch", "seq-cnn",
                           "--region", "2", "--with-tv", "--seed", "1")
        assert code == 0

    def test_impossible_threshold_exits_3(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--arch", "oh-lstmp",
                           "--threshold", "0", "--seed", "2")
        assert code == 3

    RUNS = [(arch, with_tv, seed) for arch in ARCHES for with_tv in (False, True)
            for seed in (1, 2, 3)]

    @pytest.mark.parametrize("arch,with_tv,seed", RUNS, ids=[
        f"{a}{'-tv' if t else ''}-seed{s}" for a, t, s in RUNS])
    def test_every_arch_passes(self, capsys, arch, with_tv, seed):
        argv = ["gradcheck", "--arch", arch, "--seed", str(seed)]
        code, out, err = run(capsys, *argv, *(["--with-tv"] if with_tv else []))
        assert code == 0, out + err
        assert "gradcheck PASS" in out


class TestWordVectors:
    def test_loading_and_scale(self, tmp_path):
        vocab = Vocabulary(["apple", "pear", "plum"])
        wv = tmp_path / "vec.txt"
        wv.write_text("apple 1 2\nplum 3 4\nunknown 9 9\n")
        mat, found = load_word_vectors(wv, vocab, scale=2.0)
        assert found == 2
        np.testing.assert_array_equal(mat[:, 0], [2, 4])
        np.testing.assert_array_equal(mat[:, 1], [0, 0])
        np.testing.assert_array_equal(mat[:, 2], [6, 8])

    def test_word2vec_header_is_skipped(self, tmp_path):
        vocab = Vocabulary(["apple", "3"])
        wv = tmp_path / "vec.txt"
        wv.write_text("3 2\napple 1 2\n3 5 6\nunknown 9 9\n")
        mat, found = load_word_vectors(wv, vocab)
        assert found == 2
        np.testing.assert_array_equal(mat, [[1, 5], [2, 6]])

    @pytest.mark.parametrize("text", ["3 5\napple 1 2\n", "3 2\napple 1 2 3\n",
                                      "apple 1 2\n3 2\n"])
    def test_other_width_mismatch_is_data_error(self, tmp_path, text):
        wv = tmp_path / "vec.txt"
        wv.write_text(text)
        with pytest.raises(DataError, match="inconsistent vector width"):
            load_word_vectors(wv, Vocabulary(["apple"]))

    def test_wv_arch_end_to_end(self, corpus_files, capsys, tmp_path):
        wv = tmp_path / "vec.txt"
        rng = np.random.default_rng(1)
        lines = [f"f{i} " + " ".join(f"{x:.3f}" for x in rng.standard_normal(3))
                 for i in range(10)]
        lines += ["good 1.0 0.0 0.0", "bad 0.0 1.0 0.0"]
        wv.write_text("\n".join(lines) + "\n")
        model = corpus_files / "wv.rgem"
        code, _, _ = run(
            capsys, "train", "--arch", "wv-2lstmp", "--units", "3",
            "--wordvec", str(wv), "--wordvec-scale", "0.5",
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(model), "--epochs", "1", "--dropout", "0",
            "--dev-fraction", "0")
        assert code == 0 and model.exists()

    @pytest.mark.parametrize("entry,message", [
        ("abc", "has an entry that is not a number"),
        ("nan", "has a non-finite entry"),
        ("-inf", "has a non-finite entry"),
    ])
    def test_malformed_entry_is_data_error(self, corpus_files, capsys, tmp_path,
                                           entry, message):
        wv = tmp_path / "vec.txt"
        wv.write_text(f"f1 0.5 0.25\ngood 1 {entry}\n")
        model = corpus_files / "wv.rgem"
        code, out, err = run(
            capsys, "train", "--arch", "wv-lstm", "--units", "2", "--wordvec", str(wv),
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(model), "--epochs", "1")
        assert code == 2 and f"{wv}: vector of 'good' {message}" in err
        assert "epoch=" not in out and not model.exists()


def _vocab(corpus_files, capsys):
    path = corpus_files / "vocab.txt"
    run(capsys, "build-vocab", "--input", str(corpus_files / "train.txt"),
        "--out", str(path))
    return str(path)


class TestFlagValues:
    BAD = [
        ("train", "--minibatch", "0"), ("train", "--lr", "-1"),
        ("train", "--dropout", "1"), ("train", "--pool-k", "0"),
        ("train", "--chop", "0"), ("train", "--overlap", "4"),
        ("train", "--overlap", "-1"), ("train", "--dev-fraction", "1"),
        ("train", "--dev-fraction", "-0.1"), ("train", "--epochs", "-1"),
        ("train", "--momentum", "1"), ("train", "--rmsprop-decay", "1.5"),
        ("train", "--units", "0"), ("train", "--vocab-size", "0"),
        ("train-tv", "--dim", "0"), ("train-tv", "--k-next", "0"),
        ("train-tv", "--neg", "-1"), ("train-tv", "--minibatch", "0"),
        ("train-tv", "--chop", "0"), ("build-vocab", "--size", "0"),
        ("gradcheck", "--eps", "0"), ("gradcheck", "--vocab-size", "0"),
        ("gradcheck", "--classes", "0"), ("gradcheck", "--units", "0"),
        ("gradcheck", "--maps", "0"),
        # non-finite values would train and only then fail as numeric errors
        ("train", "--lr", "nan"), ("train", "--lr", "inf"),
        ("train", "--rmsprop-eps", "-1"), ("train", "--rmsprop-eps", "nan"),
        ("train", "--wordvec-scale", "nan"), ("gradcheck", "--threshold", "nan"),
        ("gradcheck", "--eps", "inf"),
    ]

    @pytest.mark.parametrize("command,flag,value", BAD,
                             ids=[f"{c}{f}={v}" for c, f, v in BAD])
    def test_out_of_range_is_usage_error(self, corpus_files, capsys,
                                         command, flag, value):
        out = corpus_files / "out.bin"
        train = str(corpus_files / "train.txt")
        if command == "train":
            argv = ["train", "--arch", "oh-lstmp", "--units", "2", "--chop", "4",
                    "--train", train,
                    "--train-labels", str(corpus_files / "train.lab"),
                    "--out", str(out), "--epochs", "1"]
        elif command == "train-tv":
            vocab = _vocab(corpus_files, capsys)
            argv = ["train-tv", "--kind", "lstm", "--dim", "2", "--vocab", vocab,
                    "--target-vocab", vocab, "--unlabeled", train,
                    "--out", str(out), "--epochs", "1"]
        elif command == "build-vocab":
            argv = ["build-vocab", "--input", train, "--out", str(out)]
        else:
            argv = ["gradcheck"]
        code, _, err = run(capsys, *argv, flag, value)
        assert code == 1, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    # flags that change nothing for the embedding kind they are given with
    IGNORED_BY_KIND = [
        ("cnn", ["--chop", "4"], "--chop"),
        ("cnn", ["--chop", "4", "--overlap", "2"], "--chop"),
        ("cnn", ["--overlap", "2"], "--overlap"),
        ("cnn", ["--direction", "bwd"], "--direction bwd"),
        ("lstm", ["--region", "3"], "--region"),
        ("lstm", ["--input-kind", "seq"], "--input-kind seq"),
    ]

    @pytest.mark.parametrize("kind,flags,named", IGNORED_BY_KIND,
                             ids=[f"{k}{' '.join(f)}" for k, f, _ in IGNORED_BY_KIND])
    def test_train_tv_refuses_flags_of_the_other_kind(self, corpus_files, capsys,
                                                      kind, flags, named):
        vocab = _vocab(corpus_files, capsys)
        out = corpus_files / "out.tv"
        region = ["--region", "3"] if kind == "cnn" else []
        code, _, err = run(
            capsys, "train-tv", "--kind", kind, *region, *flags, "--dim", "2",
            "--vocab", vocab, "--target-vocab", vocab,
            "--unlabeled", str(corpus_files / "train.txt"),
            "--out", str(out), "--epochs", "1")
        assert code == 1, err
        assert f"{named} does not apply to --kind {kind}" in err
        assert not out.exists()

    def test_train_tv_refuses_dropout(self, corpus_files, capsys):
        vocab = _vocab(corpus_files, capsys)
        out = corpus_files / "out.tv"
        code, _, err = run(
            capsys, "train-tv", "--kind", "lstm", "--dim", "2", "--vocab", vocab,
            "--target-vocab", vocab, "--unlabeled", str(corpus_files / "train.txt"),
            "--out", str(out), "--epochs", "1", "--dropout", "0.3")
        assert code == 1
        assert "unrecognized arguments: --dropout" in err
        assert not out.exists()

    def test_no_training_documents_is_data_error(self, corpus_files, capsys):
        (corpus_files / "empty.txt").write_text("")
        out = corpus_files / "m.rgem"
        code, _, err = run(
            capsys, "train", "--arch", "seq-cnn", "--vocab",
            _vocab(corpus_files, capsys),
            "--train", str(corpus_files / "empty.txt"),
            "--train-labels", str(corpus_files / "empty.txt"), "--out", str(out))
        assert code == 2 and "no training documents" in err
        assert not out.exists()

    @pytest.mark.parametrize("epochs", [2, 3])
    def test_train_tv_blow_up_exits_3_and_writes_nothing(self, corpus_files,
                                                          capsys, epochs):
        # at epoch 3 the loss is NaN; after epoch 2 only the weights are
        vocab = _vocab(corpus_files, capsys)
        out = corpus_files / "t.tv"
        code, _, err = run(
            capsys, "train-tv", "--kind", "lstm", "--dim", "3", "--vocab", vocab,
            "--target-vocab", vocab, "--unlabeled", str(corpus_files / "train.txt"),
            "--out", str(out), "--epochs", str(epochs), "--lr", "1e30")
        assert code == 3 and f"epoch {epochs}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--vocab", "--target-vocab"])
    def test_duplicate_vocabulary_word_is_data_error(self, corpus_files, capsys,
                                                      flag):
        good = _vocab(corpus_files, capsys)
        dup = corpus_files / "dup.txt"
        dup.write_text("#size=3\ngood\nbad\ngood\n")
        paths = {"--vocab": good, "--target-vocab": good, flag: str(dup)}
        out = corpus_files / "t.tv"
        code, _, err = run(
            capsys, "train-tv", "--kind", "lstm", "--dim", "2",
            "--unlabeled", str(corpus_files / "train.txt"), "--out", str(out),
            *(arg for item in paths.items() for arg in item))
        assert code == 2 and f"{dup}: duplicate words" in err
        assert not out.exists()

    def test_workers_is_ignored(self, corpus_files, capsys):
        (corpus_files / "w.cfg").write_text("workers=3\n")
        outputs = []
        for extra in (["--workers", "1"], ["--workers", "3"],
                      ["--config", str(corpus_files / "w.cfg")]):
            out = corpus_files / f"m{len(outputs)}.rgem"
            code, _, err = run(
                capsys, "train", "--arch", "multi",
                "--branch", "conv:kind=seq,region=2,maps=4",
                "--branch", "lstm:dir=bi,units=3",
                "--train", str(corpus_files / "train.txt"),
                "--train-labels", str(corpus_files / "train.lab"),
                "--out", str(out), "--epochs", "2", "--minibatch", "10",
                "--chop", "3", "--dev-fraction", "0.2", *extra)
            assert code == 0, err
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestModelFileErrors:
    def test_predict_with_nan_model_exits_2(self, corpus_files, capsys):
        model = corpus_files / "m.rgem"
        code, _, _ = run(
            capsys, "train", "--arch", "seq-cnn", "--maps", "4",
            "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"),
            "--out", str(model), "--epochs", "1", "--dev-fraction", "0")
        assert code == 0
        from regemb.serialize import load_tensors, save_tensors
        meta, tensors = load_tensors(model)
        tensors["br0.b"][0, 0] = np.nan
        save_tensors(model, meta, tensors.items())
        code, out, err = run(capsys, "predict", "--model", str(model),
                             "--input", str(corpus_files / "test.txt"))
        assert code == 2 and "'br0.b' has non-finite" in err and out == ""


def _train_argv(corpus_files, out, *argv):
    return ["train", *argv, "--train", str(corpus_files / "train.txt"),
            "--train-labels", str(corpus_files / "train.lab"), "--out", str(out),
            "--epochs", "1", "--minibatch", "10", "--dev-fraction", "0"]


class TestBranchOptions:
    BAD_SPECS = ["lstm:units=0", "conv:maps=0", "conv:region=0", "lstm:unit=5",
                 "conv:k=-1", "lstm:units=2,units=3", "conv:kind=seq,", "lstm:units"]

    @pytest.mark.parametrize("spec", BAD_SPECS)
    def test_bad_spec_is_usage_error(self, corpus_files, capsys, spec):
        out = corpus_files / "m.rgem"
        code, _, err = run(capsys, *_train_argv(corpus_files, out, "--arch", "multi",
                                                "--branch", spec))
        assert code == 1, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    PER_ARCH_FLAGS = [["--units", "3"], ["--variant", "full"], ["--maps", "4"],
                      ["--region", "2"], ["--embed-dim", "3"], ["--freeze-wordvec"],
                      ["--wordvec", "vec.txt"]]

    @pytest.mark.parametrize("flags", PER_ARCH_FLAGS, ids=[f[0] for f in PER_ARCH_FLAGS])
    def test_per_arch_flag_with_multi_is_usage_error(self, corpus_files, capsys, flags):
        (corpus_files / "vec.txt").write_text("f1 0.5 0.25\n")
        flags = [str(corpus_files / f) if f.endswith(".txt") else f for f in flags]
        out = corpus_files / "m.rgem"
        code, _, err = run(capsys, *_train_argv(
            corpus_files, out, "--arch", "multi", "--branch", "lstm:units=2", *flags))
        assert code == 1, err
        assert err.startswith("error: ") and "arch multi" in err
        assert not out.exists()

    @pytest.mark.parametrize("arch,flag", [("oh-2lstmp", "--maps"), ("seq-cnn", "--units"),
                                           ("multi", "--units")])
    def test_gradcheck_refuses_flags_of_another_kind(self, capsys, arch, flag):
        code, out, err = run(capsys, "gradcheck", "--arch", arch, flag, "2")
        assert code == 1 and f"{flag} does not apply to arch {arch}" in err
        assert out == ""

    # each one-hot named arch is a preset of the --branch options; the last
    # flags go to both command lines
    SPELLINGS = [
        ("oh-2lstmp", ["--units", "3"], "lstm:units=3", []),
        ("oh-lstmp", ["--units", "2", "--variant", "full"],
         "lstm:dir=fwd,units=2,variant=full", []),
        ("seq-cnn", ["--maps", "3", "--region", "2"], "conv:maps=3,region=2", []),
        ("bow-cnn", ["--maps", "3"], "conv:kind=bow,region=20,maps=3", []),
        ("bow-cnn", ["--maps", "2"], "conv:kind=bow,region=20,maps=2",
         ["--pool", "avg", "--pool-k", "2"]),
    ]

    @pytest.mark.parametrize("arch,flags,spec,shared", SPELLINGS,
                             ids=[f"{a}{' '.join(f + s)}" for a, f, _, s in SPELLINGS])
    def test_named_arch_is_its_branch_spelling(self, corpus_files, capsys, arch, flags,
                                               spec, shared):
        models = []
        for argv in (["--arch", arch, *flags], ["--arch", "multi", "--branch", spec]):
            out = corpus_files / f"m{len(models)}.rgem"
            code, _, err = run(capsys, *_train_argv(corpus_files, out, *argv, *shared,
                                                    "--epochs", "2", "--seed", "5"))
            assert code == 0, err
            models.append(out.read_bytes())
        assert models[0] == models[1]


# --branch text from the kinds, keys and choices, small integers (no case
# allocates a large array) and junk
SPEC_CHOICES = {"dir": ["fwd", "bwd", "bi"], "variant": ["simplified", "full"],
                "kind": ["seq", "bow"], "pool": ["max", "avg"]}
SPEC_KEYS = [*SPEC_CHOICES, "units", "region", "maps", "k", "unit", " units", ""]
SPEC_JUNK = ["", "1.5", "+2", "x", "=", "²", "٣", " 2", "bi,"]


@st.composite
def branch_specs(draw):
    kind = draw(st.sampled_from(["lstm", "conv", "lstm", "conv", "cnn", ""]))
    items = []
    for key in draw(st.lists(st.sampled_from(SPEC_KEYS), max_size=3)):
        fitting = st.sampled_from(SPEC_CHOICES[key]) if key in SPEC_CHOICES \
            else st.integers(-2, 6).map(str)
        value = draw(st.one_of(fitting, fitting, st.integers(-2, 6).map(str),
                               st.sampled_from(SPEC_JUNK)))
        items.append(f"{key}={value}")
    return f"{kind}:{','.join(items)}" if items else kind


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny")
    (path / "train.txt").write_text("a b c\nb c d e\nc a\nd d e a b\n")
    (path / "train.lab").write_text("x\ny\nx\ny\n")
    return path


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs=st.lists(branch_specs(), min_size=1, max_size=2))
def test_any_branch_spec_trains_or_is_a_usage_error(tiny_corpus, capsys, specs):
    out = tiny_corpus / "m.rgem"
    out.unlink(missing_ok=True)
    argv = _train_argv(tiny_corpus, out, "--arch", "multi", "--epochs", "0",
                       *(arg for spec in specs for arg in ("--branch", spec)))
    code, _, err = run(capsys, *argv)
    assert code in (0, 1), err
    assert out.exists() == (code == 0)
    if code == 1:
        assert err.startswith("error: ") and "Traceback" not in err
    else:  # the model it wrote works
        code, _, err = run(capsys, "predict", "--model", str(out),
                           "--input", str(tiny_corpus / "train.txt"))
        assert code == 0, err


def _edit_config(path, edit):
    """Rewrite a model or tv file after `edit(config, tensors)` changed it."""
    meta, tensors = load_tensors(path)
    cfg, tensors = json.loads(meta["config"]), dict(tensors)
    edit(cfg, tensors)
    save_tensors(path, {**meta, "config": json.dumps(cfg)}, tensors.items())


def _narrow_tv(cfg, tensors):
    """Make the attached tv-LSTM read one word fewer than the model."""
    (tv_id, tv_cfg), = cfg["tv"].items()
    tv_cfg["vocab_size"] -= 1
    for name in [n for n in tensors if n.startswith(f"tv.{tv_id}.wx.")]:
        tensors[name] = tensors[name][:, :-1]


class TestDisagreeingFiles:
    """Model and tv files whose facts disagree with each other or with the
    vocabulary are data errors, not tracebacks."""

    CASES = [
        ("vocab longer than the layers", "model.rgem",
         lambda cfg, t: cfg["vocab"].insert(0, "zzz"), "eval", "the vocabulary has"),
        ("tv narrower than the model", "model.rgem", _narrow_tv, "eval",
         "tv embedding 'fwd' has"),
        ("class names null", "model.rgem", lambda cfg, t: cfg.update(class_names=None),
         "predict", "class_names is not a list"),
        ("class names short", "model.rgem",
         lambda cfg, t: cfg.update(class_names=cfg["class_names"][:1]), "predict",
         "1 class names for 2 classes"),
        ("train --tv of another width", "small.tv",
         lambda cfg, t: cfg.update(source_vocab_hash=""), "train", "reads 5 words"),
    ]

    @pytest.fixture
    def files(self, corpus_files, capsys):
        vocab = _vocab(corpus_files, capsys)
        small = corpus_files / "small.txt"
        run(capsys, "build-vocab", "--input", str(corpus_files / "train.txt"),
            "--out", str(small), "--size", "5")
        for tv, tv_vocab in (("fwd.tv", vocab), ("small.tv", str(small))):
            code, _, err = run(
                capsys, "train-tv", "--kind", "lstm", "--dim", "2", "--vocab", tv_vocab,
                "--target-vocab", tv_vocab, "--unlabeled", str(corpus_files / "train.txt"),
                "--out", str(corpus_files / tv), "--epochs", "1")
            assert code == 0, err
        code, _, err = run(capsys, *_train_argv(
            corpus_files, corpus_files / "model.rgem", "--arch", "oh-lstmp", "--units", "2",
            "--vocab", vocab, "--tv", str(corpus_files / "fwd.tv")))
        assert code == 0, err
        return corpus_files

    @pytest.mark.parametrize("what,name,edit,command,message", CASES,
                             ids=[c[0] for c in CASES])
    def test_is_data_error(self, files, capsys, what, name, edit, command, message):
        _edit_config(files / name, edit)
        test, labels = str(files / "test.txt"), str(files / "test.lab")
        argv = {
            "eval": ["eval", "--model", str(files / "model.rgem"), "--test", test,
                     "--labels", labels],
            "predict": ["predict", "--model", str(files / "model.rgem"), "--input", test],
            "train": _train_argv(files, files / "new.rgem", "--arch", "oh-lstmp",
                                 "--units", "2", "--vocab", str(files / "vocab.txt"),
                                 "--tv", str(files / name)),
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 2, err
        assert err.startswith("error: ") and message in err
        assert out == "" and not (files / "new.rgem").exists()


def _train_tv_argv(files, out, *argv):
    vocab = str(files / "vocab.txt")
    return ["train-tv", "--kind", "lstm", "--dim", "2", "--vocab", vocab,
            "--target-vocab", vocab, "--unlabeled", str(files / "train.txt"),
            "--out", str(out), "--epochs", "1", *argv]


class TestInertFlags:
    """A flag given (its value differing from the default, also through
    --config) where it changes nothing is a usage error."""

    # (train flags, or train-tv/gradcheck and their flags; the flag the error
    # names); every row exits 0 and writes the same file without the check
    CASES = [
        (["--arch", "seq-cnn", "--maps", "2", "--chop", "4"], "--chop"),
        (["--arch", "bow-cnn", "--maps", "2", "--chop", "4", "--overlap", "1"], "--chop"),
        (["--arch", "multi", "--branch", "conv:maps=2", "--branch", "conv:kind=bow,maps=2",
          "--chop", "4"], "--chop"),
        (["--arch", "oh-lstmp", "--units", "2", "--dev", "test.txt",
          "--dev-labels", "test.lab"], "--dev-fraction"),
        (["--arch", "oh-lstmp", "--units", "2", "--dev-labels", "test.lab"], "--dev-labels"),
        (["--arch", "oh-lstmp", "--units", "2", "--vocab", "vocab.txt",
          "--vocab-size", "50"], "--vocab-size"),
        (["--arch", "oh-lstmp", "--units", "2", "--rmsprop", "--momentum", "0.5"],
         "--momentum"),
        (["--arch", "oh-lstmp", "--units", "2", "--rmsprop-decay", "0.95"],
         "--rmsprop-decay"),
        (["--arch", "oh-lstmp", "--units", "2", "--rmsprop-eps", "1e-5"], "--rmsprop-eps"),
        (["--arch", "oh-lstmp", "--units", "2", "--rmsprop", "--config", "momentum.cfg"],
         "--momentum"),
        (["--arch", "wv-lstm", "--units", "2", "--wordvec", "vec.txt", "--embed-dim", "3"],
         "--embed-dim"),
        (["--arch", "wv-lstm", "--units", "2", "--embed-dim", "3", "--wordvec-scale", "5"],
         "--wordvec-scale"),
        (["train-tv", "--rmsprop", "--momentum", "0.5"], "--momentum"),
        (["train-tv", "--rmsprop-decay", "0.95"], "--rmsprop-decay"),
        (["train-tv", "--rmsprop-eps", "1e-5"], "--rmsprop-eps"),
        (["gradcheck", "--precision", "64"], "--precision"),
        (["gradcheck", "--pretokenized"], "--pretokenized"),
    ]

    @pytest.mark.parametrize("argv,flag", CASES, ids=[" ".join(a) for a, _ in CASES])
    def test_is_usage_error(self, corpus_files, capsys, argv, flag):
        _vocab(corpus_files, capsys)
        (corpus_files / "vec.txt").write_text("f1 0.5 0.25\n")
        (corpus_files / "momentum.cfg").write_text("momentum=0.5\n")
        argv = [str(corpus_files / a) if a.endswith((".txt", ".lab", ".cfg")) else a
                for a in argv]
        out = corpus_files / "out.bin"
        if argv[0] == "train-tv":
            argv = _train_tv_argv(corpus_files, out, *argv[1:])
        elif argv[0] != "gradcheck":
            argv = _train_argv(corpus_files, out, *argv)
        code, stdout, err = run(capsys, *argv)
        assert code == 1, err
        assert err.startswith(f"error: {flag} ") and "Traceback" not in err
        assert stdout == "" and not out.exists()

    def test_flags_the_benchmark_passes_stay_accepted(self, corpus_files, capsys):
        common = ["--seed", "1", "--workers", "2", "--precision", "32"]
        vocab = _vocab(corpus_files, capsys)
        model, tv = corpus_files / "m.rgem", corpus_files / "t.tv"
        for argv in (
                ["build-vocab", "--input", str(corpus_files / "train.txt"),
                 "--out", str(corpus_files / "v2.txt"), *common],
                _train_tv_argv(corpus_files, tv, "--dev-fraction", "0.2",
                               "--momentum", "0.5", *common),
                _train_argv(corpus_files, model, "--arch", "oh-lstmp", "--units", "2",
                            "--vocab", vocab, "--momentum", "0.5", *common),
                ["eval", "--model", str(model), "--test", str(corpus_files / "test.txt"),
                 "--labels", str(corpus_files / "test.lab"), *common],
                ["predict", "--model", str(model),
                 "--input", str(corpus_files / "test.txt"), *common],
                ["gradcheck", "--seed", "2", "--workers", "2"]):
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv[0], err)


def _predict_three_lines(files, capsys):
    code, _, err = run(capsys, *_train_argv(files, files / "m.rgem", "--arch", "oh-lstmp",
                                            "--units", "2"))
    assert code == 0, err
    (files / "in.txt").write_text("good f1\x0cf2\nbad f3\u2028f4\nf5\n", encoding="utf-8")
    code, out, err = run(capsys, "predict", "--model", str(files / "m.rgem"),
                         "--input", str(files / "in.txt"))
    assert code == 0, err
    assert len(out.splitlines()) == 3, out


def _train_on_next_line_char(files, capsys):
    lines = (files / "train.txt").read_text().split("\n")
    lines[0] = lines[0].replace(" ", "\x85", 1)
    (files / "train.txt").write_text("\n".join(lines), encoding="utf-8")
    code, _, err = run(capsys, *_train_argv(files, files / "m.rgem", "--arch", "oh-lstmp",
                                            "--units", "2"))
    assert code == 0, err


def _tv_named_with_line_separator(files, capsys):
    vocab = _vocab(files, capsys)
    tv = files / "a\u2028b.tv"
    code, _, err = run(capsys, *_train_tv_argv(files, tv))
    assert code == 0, err
    code, _, err = run(capsys, *_train_argv(files, files / "m.rgem", "--arch", "oh-lstmp",
                                            "--units", "2", "--vocab", vocab, "--tv", str(tv)))
    assert code == 0, err


@pytest.mark.parametrize("case", [_predict_three_lines, _train_on_next_line_char,
                                  _tv_named_with_line_separator],
                         ids=["predict", "train", "train-tv"])
def test_lines_end_at_newline_only(corpus_files, capsys, case):
    """Form feeds, U+0085 and U+2028 inside a line do not end it."""
    case(corpus_files, capsys)
