"""Write the file-format fixture that tests/test_serialize.py loads.

    PYTHONPATH=src python tests/data/make_format_fixture.py tests/data/format

Trains, through the command line, a tv-LSTM, a tv-CNN and a model with a
full bi-LSTM branch and a seq-CNN branch, both reading the two tv
embeddings as side input.  It then records the model's float32 scores on
docs.txt in scores.npy.  Those files were written by the code of commit
306eb2b, before the LSTM gate tensors were stacked, so the test pins the
format and the scores across that change.  (tvc.tv, and with it
model.rgem and scores.npy, no longer reproduce: negative sampling for tiny
target vocabularies changed after 306eb2b.)

Last it trains a small classifier with dropout, a held-out dev split,
rmsprop, chopping and tvl.tv as side input, into clf.rgem.  The epoch
lines of the two trainings, `seconds=` masked, go to tvl.log and clf.log.
clf.rgem, clf.log and tvl.log were written by the code of commit c7a7e1e,
before the classifier and tv-embedding epoch loops became one, and
tests/test_optim.py pins both loops to them and to tvl.tv.
"""

import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from regemb import cli, corpus, serialize
from regemb.model import batch_scores
from regemb.numkernel import set_precision


def write_corpus(out: Path):
    """The labeled corpus, its first lines as docs.txt, and its vocabulary."""
    rng = np.random.default_rng(7)
    fillers = [f"f{i}" for i in range(10)]
    lines, labels = [], []
    for i in range(40):
        words = list(rng.choice(fillers, size=int(rng.integers(4, 12))))
        words.insert(int(rng.integers(0, len(words))), "good" if i % 2 else "bad")
        lines.append(" ".join(words))
        labels.append("pos" if i % 2 else "neg")
    (out / "train.txt").write_text("\n".join(lines) + "\n")
    (out / "train.lab").write_text("\n".join(labels) + "\n")
    (out / "docs.txt").write_text("\n".join(lines[:8]) + "\n")
    run("build-vocab", "--input", out / "train.txt", "--out", out / "vocab.txt")


def run(*argv):
    """Run one command; returns its stdout."""
    captured = io.StringIO()
    with redirect_stdout(captured):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
    return captured.getvalue()


def epoch_lines(stdout: str) -> str:
    """The `epoch=` lines of a training run, `seconds=` masked."""
    return "".join(re.sub(r"seconds=\S+", "seconds=*", line) + "\n"
                   for line in stdout.splitlines() if line.startswith("epoch="))


def train_tv(work: Path, out: Path, *kind) -> str:
    """train-tv of a `kind` embedding on the corpus in `work`, written to
    out; returns its epoch lines."""
    return epoch_lines(run(
        "train-tv", *kind, "--vocab", work / "vocab.txt",
        "--target-vocab", work / "vocab.txt", "--unlabeled", work / "train.txt",
        "--epochs", "2", "--minibatch", "10", "--lr", "0.5", "--out", out))


def train_classifier(work: Path, tv: Path, out: Path) -> str:
    """The clf.rgem run on the corpus in `work`; returns its epoch lines."""
    return epoch_lines(run(
        "train", "--arch", "multi",
        "--branch", "lstm:dir=bi,units=3,variant=full",
        "--branch", "conv:kind=seq,region=2,maps=3", "--tv", tv,
        "--train", work / "train.txt", "--train-labels", work / "train.lab",
        "--vocab", work / "vocab.txt", "--epochs", "3", "--minibatch", "8",
        "--lr", "0.1", "--rmsprop", "--dropout", "0.5", "--dev-fraction", "0.3",
        "--chop", "4", "--overlap", "1", "--out", out))


def main(out: Path):
    out.mkdir(parents=True, exist_ok=True)
    work = out / "work"
    work.mkdir(exist_ok=True)
    write_corpus(work)
    (out / "tvl.log").write_text(
        train_tv(work, out / "tvl.tv", "--kind", "lstm", "--dim", "3"))
    train_tv(work, out / "tvc.tv", "--kind", "cnn", "--region", "3", "--dim", "2")
    run("train", "--arch", "multi",
        "--branch", "lstm:dir=bi,units=3,variant=full",
        "--branch", "conv:kind=seq,region=2,maps=3",
        "--tv", out / "tvl.tv", "--tv", out / "tvc.tv",
        "--train", work / "train.txt", "--train-labels", work / "train.lab",
        "--vocab", work / "vocab.txt", "--epochs", "12", "--minibatch", "10",
        "--lr", "1", "--dropout", "0", "--dev-fraction", "0",
        "--target-encoding", "pm1", "--out", out / "model.rgem")
    (out / "clf.log").write_text(
        train_classifier(work, out / "tvl.tv", out / "clf.rgem"))
    (out / "docs.txt").write_text((work / "docs.txt").read_text())
    for name in ("train.txt", "train.lab", "docs.txt", "vocab.txt"):
        (work / name).unlink()
    work.rmdir()

    set_precision("float32")
    spec = serialize.load_model(out / "model.rgem")
    docs = [corpus.encode(toks, spec.vocab)
            for toks in corpus.load_token_file(out / "docs.txt")]
    np.save(out / "scores.npy", batch_scores(spec, docs))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
