"""The benchmark workloads: generated inputs plus the CLI pipeline run on them.

Each workload writes its text files into a work directory from a seeded
generator and returns a `Plan`: the `regemb` command lines of one pipeline
cycle, in order, and the quality bounds its outputs must meet.  Every
command uses float32, `--workers 1` and no dev split, so OpenBLAS's own
pool is the only source of threads.

`scale` selects the input size: "full" is the measured size, "tiny" a
seconds-long run of the same pipeline for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpora

COMMON = ["--seed", "1", "--workers", "1", "--precision", "32"]
TRAIN_COMMON = COMMON + ["--dev-fraction", "0", "--momentum", "0.5"]
# eval and predict take about a second; each cycle runs them this many times
# so that their rates are medians over several calls
EVAL_REPEATS = 3
# every 8th test label is flipped, so a model that learned the signal errs on
# 12.5% of the test set
TEST_FLIP = 8
# tiny runs are too short to learn; their bounds only require finite output
TINY_ERR = (0.0, 100.0)
TINY_LOSS = (0.0, 10.0)


@dataclass(frozen=True)
class Step:
    """One `regemb` invocation.

    role: "vocab" | "train" | "tv_lstm" | "tv_cnn" | "eval" | "predict".
    size: tokens per epoch (training roles) or documents (eval/predict).
    """

    role: str
    argv: list
    size: int = 0


@dataclass
class Plan:
    steps: list
    test_labels: list  # class names, in test-file order
    err_bounds: tuple  # allowed test_err_pct range, inclusive
    loss_bounds: tuple  # allowed final_loss range, inclusive


def _path(work: Path, name: str) -> str:
    return str(work / name)


def _labeled(work, prefix, docs, labels, flip_every):
    labels = corpora.flip_labels(labels, flip_every)
    tokens = corpora.write_docs(work / f"{prefix}.txt", docs)
    corpora.write_labels(work / f"{prefix}.lab", labels)
    return tokens, [corpora.CLASS_NAMES[lab] for lab in labels]


def _train_test(work, gen, s, exponent):
    """Write the labeled train and test files, each drawn separately so that
    each has the same total length for every seed.

    Returns (train tokens, train docs, test class names)."""
    args = (s["vocab"], exponent, s["min_len"], s["max_len"], s["cue_every"],
            s["cue_words"])
    train, train_labels = corpora.topic_docs(gen, s["n_train"], *args)
    test, test_labels = corpora.topic_docs(gen, s["n_test"], *args)
    train_tokens, _ = _labeled(work, "train", train, train_labels, s["train_flip"])
    _, test_names = _labeled(work, "test", test, test_labels, TEST_FLIP)
    return train_tokens, train, test_names


def _train_eval_predict(work, arch_args, train_tokens, n_test, test_names,
                        err_bounds, loss_bounds, before=()):
    model = _path(work, "model.rgem")
    test = _path(work, "test.txt")
    steps = list(before) + [
        Step("train", ["train", *arch_args,
                       "--train", _path(work, "train.txt"),
                       "--train-labels", _path(work, "train.lab"),
                       "--vocab", _path(work, "vocab.txt"),
                       "--out", model, *TRAIN_COMMON], train_tokens),
    ]
    for _ in range(EVAL_REPEATS):
        steps += [
            Step("eval", ["eval", "--model", model, "--test", test,
                          "--labels", _path(work, "test.lab"), *COMMON], n_test),
            Step("predict", ["predict", "--model", model, "--input", test,
                             *COMMON], n_test),
        ]
    return Plan(steps, test_names, err_bounds, loss_bounds)


def _vocab_step(work, source, out, size, stopwords=None):
    argv = ["build-vocab", "--input", _path(work, source),
            "--out", _path(work, out), "--size", str(size), *COMMON]
    if stopwords:
        argv += ["--stopwords", _path(work, stopwords)]
    return Step("vocab", argv)


# --- lstm_chop -------------------------------------------------------------

LSTM_CHOP = {
    "full": dict(vocab=1000, n_train=400, n_test=200, min_len=10, max_len=500,
                 cue_every=5, cue_words=2, train_flip=8, epochs=4, minibatch=25,
                 lr=0.05, err=(5.0, 30.0), loss=(0.05, 0.6)),
    "tiny": dict(vocab=200, n_train=40, n_test=20, min_len=10, max_len=120,
                 cue_every=5, cue_words=2, train_flip=8, epochs=2, minibatch=10,
                 lr=0.05, err=TINY_ERR, loss=TINY_LOSS),
}


def lstm_chop(work: Path, gen, scale: str) -> Plan:
    """Chopped bi-LSTM on long, length-varied docs of uniform filler words."""
    s = LSTM_CHOP[scale]
    train_tokens, train, test_names = _train_test(work, gen, s, 0.0)
    corpora.write_vocab_source(work / "vocab_src.txt", train, s["vocab"])
    arch = ["--arch", "oh-2lstmp", "--units", "100", "--pool", "max",
            "--chop", "50", "--minibatch", str(s["minibatch"]),
            "--epochs", str(s["epochs"]), "--lr", str(s["lr"])]
    return _train_eval_predict(
        work, arch, train_tokens, s["n_test"], test_names,
        err_bounds=s["err"], loss_bounds=s["loss"],
        before=[_vocab_step(work, "vocab_src.txt", "vocab.txt", s["vocab"])])


# --- seqcnn_30k ------------------------------------------------------------

SEQCNN_30K = {
    "full": dict(vocab=30000, n_train=120, n_test=200, min_len=100, max_len=300,
                 cue_every=5, cue_words=2, train_flip=16, epochs=3, minibatch=10,
                 lr=0.1, err=(5.0, 30.0), loss=(0.05, 0.6)),
    "tiny": dict(vocab=2000, n_train=40, n_test=20, min_len=20, max_len=60,
                 cue_every=5, cue_words=2, train_flip=16, epochs=2, minibatch=10,
                 lr=0.1, err=TINY_ERR, loss=TINY_LOSS),
}


def seqcnn_30k(work: Path, gen, scale: str) -> Plan:
    """Seq-CNN over a 30k one-hot vocabulary on Zipf text with topic cues."""
    s = SEQCNN_30K[scale]
    train_tokens, train, test_names = _train_test(work, gen, s, 1.1)
    corpora.write_vocab_source(work / "vocab_src.txt", train, s["vocab"])
    arch = ["--arch", "seq-cnn", "--region", "3", "--maps", "200",
            "--pool", "max", "--minibatch", str(s["minibatch"]),
            "--epochs", str(s["epochs"]), "--lr", str(s["lr"])]
    return _train_eval_predict(
        work, arch, train_tokens, s["n_test"], test_names,
        err_bounds=s["err"], loss_bounds=s["loss"],
        before=[_vocab_step(work, "vocab_src.txt", "vocab.txt", s["vocab"])])


# --- tv_semi ---------------------------------------------------------------

TV_SEMI = {
    "full": dict(vocab=10000, n_unlab=1000, n_train=300, n_test=200, min_len=20,
                 max_len=60, cue_every=5, cue_words=2, train_flip=8, tv_epochs=2,
                 epochs=6, minibatch=25, lr=0.1, err=(5.0, 30.0), loss=(0.05, 0.6)),
    "tiny": dict(vocab=1000, n_unlab=60, n_train=30, n_test=20, min_len=10,
                 max_len=30, cue_every=5, cue_words=2, train_flip=8, tv_epochs=1,
                 epochs=2, minibatch=10, lr=0.1, err=TINY_ERR, loss=TINY_LOSS),
}

STOPWORDS = 50  # the most frequent lexicon words are the target-view stopwords


def tv_semi(work: Path, gen, scale: str) -> Plan:
    """Two tv-embeddings on unlabeled text, attached to a chopped bi-LSTM."""
    s = TV_SEMI[scale]
    unlab, _ = corpora.topic_docs(
        gen, s["n_unlab"], s["vocab"], 1.1, s["min_len"], s["max_len"],
        s["cue_every"], s["cue_words"], labeled=False)
    train_tokens, train, test_names = _train_test(work, gen, s, 1.1)
    unlab_tokens = corpora.write_docs(work / "unlab.txt", unlab)
    corpora.write_vocab_source(work / "vocab_src.txt", unlab + train, s["vocab"])
    (work / "stop.txt").write_text(
        "\n".join(corpora.lexicon(STOPWORDS)) + "\n", encoding="utf-8")

    tv_common = ["--vocab", _path(work, "vocab.txt"),
                 "--target-vocab", _path(work, "target.txt"),
                 "--unlabeled", _path(work, "unlab.txt"),
                 "--dim", "50", "--epochs", str(s["tv_epochs"]), *TRAIN_COMMON]
    before = [
        _vocab_step(work, "vocab_src.txt", "vocab.txt", s["vocab"]),
        _vocab_step(work, "vocab_src.txt", "target.txt", s["vocab"], "stop.txt"),
        Step("tv_lstm", ["train-tv", "--kind", "lstm", *tv_common,
                         "--out", _path(work, "tvl.tv")], unlab_tokens),
        Step("tv_cnn", ["train-tv", "--kind", "cnn", "--region", "5",
                        "--input-kind", "bow", *tv_common,
                        "--out", _path(work, "tvc.tv")], unlab_tokens),
    ]
    arch = ["--arch", "oh-2lstmp", "--units", "100", "--pool", "max",
            "--chop", "50", "--minibatch", str(s["minibatch"]),
            "--epochs", str(s["epochs"]), "--lr", str(s["lr"]),
            "--tv", _path(work, "tvl.tv"), "--tv", _path(work, "tvc.tv")]
    return _train_eval_predict(
        work, arch, train_tokens, s["n_test"], test_names,
        err_bounds=s["err"], loss_bounds=s["loss"], before=before)


WORKLOADS = {"lstm_chop": lstm_chop, "seqcnn_30k": seqcnn_30k, "tv_semi": tv_semi}


def make_plan(name: str, work: Path, seed: int, scale: str = "full") -> Plan:
    return WORKLOADS[name](work, np.random.default_rng(seed), scale)
