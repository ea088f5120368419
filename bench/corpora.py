"""Seeded text generators for the benchmark workloads.

Every function is a pure function of its numpy Generator, so one seed gives
byte-identical input files.  Documents are lists of word strings; words are
drawn from a fixed lexicon ``w0 .. w<n-1>``; a word's index is its Zipf
rank.

Labels carry a planted, learnable signal.  To keep the error rate away from
zero (and steady from seed to seed), every ``flip_every``-th document of a
labeled corpus has its label flipped; a perfect model therefore errs on
exactly that share of documents.
"""

from __future__ import annotations

import numpy as np

CLASS_NAMES = ("pos", "neg")


def lexicon(size: int) -> list:
    return [f"w{i}" for i in range(size)]


def zipf_ranks(gen, size: int, exponent: float, count: int) -> np.ndarray:
    """`count` ranks in [0, size) with P(rank r) proportional to (r+1)^-exponent."""
    weights = np.arange(1, size + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, gen.random(count)), size - 1)


def flip_labels(labels: list, flip_every: int) -> list:
    """Flip every `flip_every`-th binary label (deterministic label noise)."""
    return [1 - lab if (i + 1) % flip_every == 0 else lab
            for i, lab in enumerate(labels)]


def topic_docs(gen, n_docs: int, vocab: int, exponent: float, min_len: int,
               max_len: int, cue_every: int, cue_words: int = 10, labeled=True):
    """Zipf-distributed text (exponent 0: uniform) with planted class cues.

    Document lengths are spread evenly over [min_len, max_len] in a random
    order, so every seed gives the same total length.  A document of length
    T carries 1 + T // cue_every cue words of its class, drawn from
    `cue_words` mid-frequency words per class.  Unlabeled corpora
    (labeled=False) draw cues from a random class so the text has the same
    statistics.  Returns (docs, labels or None).
    """
    words = lexicon(vocab)
    base = vocab // 10
    docs, labels = [], []
    lengths = gen.permutation(np.linspace(min_len, max_len, n_docs).round())
    for length in lengths.astype(int).tolist():
        label = int(gen.integers(0, 2))
        toks = [words[r] for r in zipf_ranks(gen, vocab, exponent, length)]
        n_cues = 1 + length // cue_every
        cues = base + label * cue_words + gen.integers(0, cue_words, n_cues)
        for pos, rank in zip(gen.integers(0, length, n_cues), cues):
            toks[int(pos)] = words[int(rank)]
        docs.append(toks)
        labels.append(label)
    return docs, (labels if labeled else None)


def write_docs(path, docs) -> int:
    """One document per line; returns the number of tokens written."""
    with open(path, "w", encoding="utf-8") as fh:
        for toks in docs:
            fh.write(" ".join(toks))
            fh.write("\n")
    return sum(len(t) for t in docs)


def write_labels(path, labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for lab in labels:
            fh.write(CLASS_NAMES[lab])
            fh.write("\n")


def write_vocab_source(path, docs, vocab: int, per_line: int = 100) -> None:
    """The corpus followed by the whole lexicon, so `build-vocab` sees every
    word of the lexicon at least once and the model's one-hot width is the
    lexicon size."""
    words = lexicon(vocab)
    lines = [words[lo:lo + per_line] for lo in range(0, vocab, per_line)]
    write_docs(path, list(docs) + lines)
