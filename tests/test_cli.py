from collections import Counter

import numpy as np
import pytest

from regemb.cli import load_word_vectors, main
from regemb.corpus import Vocabulary


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
            "--out", str(tv_path), "--epochs", "2", "--dropout", "0",
            "--lr", "0.1")
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
            "--out", str(tv_path), "--epochs", "1", "--dropout", "0")
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
