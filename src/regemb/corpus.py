"""Tokenization, vocabulary construction, and document encoding.

Text ingestion is line oriented: one document per line in token files, one
class-name string per line in label files, one word per line in stopword
files. Lines end at "\n" only. All text is lowercased before counting or
encoding.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


def load_stopwords(path) -> frozenset:
    """The lowercased words of a one-word-per-line file; blank lines skipped."""
    return frozenset(w.lower() for w in (line.strip() for line in read_lines(path)) if w)


class Vocabulary:
    """Word<->id map; ids are dense 0..n-1 in descending frequency order."""

    def __init__(self, words):
        self.words = list(words)
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise ValueError("duplicate words in vocabulary")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def sha256(self) -> str:
        digest = hashlib.sha256("\n".join(self.words).encode("utf-8"))
        return digest.hexdigest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#size={len(self.words)}\n")
            for word in self.words:
                fh.write(word + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        lines = read_lines(path)
        if not lines or not lines[0].startswith("#size="):
            raise DataError(f"{path}: missing '#size=' header")
        try:
            size = int(lines[0][len("#size="):])
        except ValueError:
            raise DataError(f"{path}: bad '#size=' header") from None
        words = lines[1:]
        if len(words) != size:
            raise DataError(f"{path}: header says {size} words, file has {len(words)}")
        try:
            return cls(words)
        except ValueError as exc:  # a word listed twice
            raise DataError(f"{path}: {exc}") from None


@dataclass
class TokenSequence:
    """A document as a word-id sequence; OOV tokens already removed."""

    ids: np.ndarray
    label: int | None = None
    raw_len: int = 0

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.ids.size)


@dataclass
class Dataset:
    docs: list
    n_classes: int
    class_names: list = field(default_factory=list)

    def __post_init__(self):
        for doc in self.docs:
            if doc.label is not None and not (0 <= doc.label < self.n_classes):
                raise DataError(f"label {doc.label} out of range for {self.n_classes} classes")

    def __len__(self) -> int:
        return len(self.docs)


def tokenize(text: str) -> list:
    """Lowercase, split on whitespace, peel edge punctuation into own tokens.

    Internal punctuation (don't, 3.5) is kept inside the token.
    """
    tokens = []
    for chunk in text.lower().split():
        lead = []
        while chunk and not chunk[0].isalnum():
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail = []
        while chunk and not chunk[-1].isalnum():
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


def split_pretokenized(text: str) -> list:
    """Lowercase and split; for corpora that are already tokenized."""
    return text.lower().split()


def build_vocab(docs, size_limit: int) -> Vocabulary:
    """Most frequent `size_limit` tokens; ties broken lexicographically."""
    if size_limit < 1:
        raise ValueError("size_limit must be >= 1")
    counts = Counter()
    for tokens in docs:
        counts.update(tokens)
    if not counts:
        raise DataError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:size_limit]
    return Vocabulary(w for w, _ in ranked)


def encode(tokens, vocab: Vocabulary, label: int | None = None) -> TokenSequence:
    """Map tokens to ids, dropping out-of-vocabulary tokens."""
    index = vocab.index
    ids = [index[t] for t in tokens if t in index]
    return TokenSequence(np.array(ids, dtype=np.int64), label=label, raw_len=len(tokens))


def as_ids(ids_or_seq) -> np.ndarray:
    """The int64 word ids of a TokenSequence or an id array."""
    if isinstance(ids_or_seq, TokenSequence):
        return ids_or_seq.ids
    return np.asarray(ids_or_seq, dtype=np.int64)


def target_vocab(vocab: Vocabulary, stop: frozenset, size_limit: int) -> Vocabulary:
    """Vocabulary for the prediction-target view: stopwords removed, then truncated."""
    if size_limit < 1:
        raise ValueError("size_limit must be >= 1")
    words = [w for w in vocab.words if w not in stop][:size_limit]
    if not words:
        raise DataError("all words removed; target vocabulary would be empty")
    return Vocabulary(words)


def split_lines(text: str) -> list:
    """The lines of `text`, split at "\n" only, each without a trailing
    "\r" (so CRLF text reads the same).  Unlike str.splitlines, form feeds,
    U+2028 and the other Unicode line breaks stay inside their line."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


def read_lines(path) -> list:
    """The lines of a UTF-8 text file (see split_lines)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from None
    return split_lines(text)


def load_token_file(path, pretokenized: bool = False) -> list:
    """One document per line -> list of token lists."""
    split = split_pretokenized if pretokenized else tokenize
    return [split(line) for line in read_lines(path)]


def load_label_file(path) -> list:
    return [line.strip() for line in read_lines(path)]


def class_ids(label_names, class_names=None):
    """Map label strings to dense ids; new names are assigned by first appearance."""
    names = list(class_names) if class_names is not None else []
    index = {n: i for i, n in enumerate(names)}
    ids = []
    for name in label_names:
        if name not in index:
            if class_names is not None:
                raise DataError(f"label {name!r} not among model classes {names}")
            index[name] = len(names)
            names.append(name)
        ids.append(index[name])
    return ids, names


def load_dataset(tokens_path, labels_path, vocab, class_names=None, pretokenized=False) -> Dataset:
    token_docs = load_token_file(tokens_path, pretokenized=pretokenized)
    labels = load_label_file(labels_path)
    if len(labels) != len(token_docs):
        raise DataError(
            f"{tokens_path} has {len(token_docs)} documents but "
            f"{labels_path} has {len(labels)} labels"
        )
    ids, names = class_ids(labels, class_names)
    docs = [encode(toks, vocab, label=lab) for toks, lab in zip(token_docs, ids)]
    return Dataset(docs, n_classes=len(names), class_names=names)


def coverage(token_docs, vocab: Vocabulary) -> float:
    """Fraction of corpus tokens that are in the vocabulary."""
    total = 0
    hit = 0
    for tokens in token_docs:
        total += len(tokens)
        hit += sum(1 for t in tokens if t in vocab)
    return hit / total if total else 0.0
