"""Write the file-format fixture that tests/test_serialize.py loads.

    PYTHONPATH=src python tests/data/make_format_fixture.py tests/data/format

Trains, through the command line, a tv-LSTM, a tv-CNN and a model with a
full bi-LSTM branch and a seq-CNN branch, both reading the two tv
embeddings as side input.  It then records the model's float32 scores on
docs.txt in scores.npy.  The committed files were written by the code of
commit 306eb2b, before the LSTM gate tensors were stacked, so the test
pins the format and the scores across that change.
"""

import sys
from pathlib import Path

import numpy as np

from regemb import cli, corpus, serialize
from regemb.model import batch_scores
from regemb.numkernel import set_precision


def write_corpus(out: Path):
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


def run(*argv):
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")


def main(out: Path):
    out.mkdir(parents=True, exist_ok=True)
    work = out / "work"
    work.mkdir(exist_ok=True)
    write_corpus(work)
    vocab = work / "vocab.txt"
    run("build-vocab", "--input", work / "train.txt", "--out", vocab)
    common = ("--vocab", vocab, "--target-vocab", vocab, "--unlabeled",
              work / "train.txt", "--epochs", "2", "--minibatch", "10",
              "--lr", "0.5")
    run("train-tv", "--kind", "lstm", "--dim", "3", "--out", out / "tvl.tv", *common)
    run("train-tv", "--kind", "cnn", "--region", "3", "--dim", "2",
        "--out", out / "tvc.tv", *common)
    run("train", "--arch", "multi",
        "--branch", "lstm:dir=bi,units=3,variant=full",
        "--branch", "conv:kind=seq,region=2,maps=3",
        "--tv", out / "tvl.tv", "--tv", out / "tvc.tv",
        "--train", work / "train.txt", "--train-labels", work / "train.lab",
        "--vocab", vocab, "--epochs", "12", "--minibatch", "10", "--lr", "1",
        "--dropout", "0", "--dev-fraction", "0", "--target-encoding", "pm1",
        "--out", out / "model.rgem")
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
