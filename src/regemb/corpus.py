"""Tokenization, vocabulary construction, and document encoding.

Text ingestion is line oriented: one document per line in token files, one
class-name string per line in label files, one word per line in stopword
files. All text is lowercased before counting or encoding.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class StopwordList:
    words: frozenset

    def __post_init__(self):
        lowered = frozenset(w.lower() for w in self.words)
        object.__setattr__(self, "words", lowered)

    @classmethod
    def from_file(cls, path) -> "StopwordList":
        words = [w.strip() for w in _read_text(path).splitlines()]
        return cls(frozenset(w for w in words if w))

    def __contains__(self, word: str) -> bool:
        return word in self.words


class Vocabulary:
    """Word<->id map; ids are dense 0..n-1 in descending frequency order."""

    def __init__(self, words, freq=None, size_limit=None):
        self.words = list(words)
        self.size_limit = size_limit if size_limit is not None else len(self.words)
        if len(self.words) > self.size_limit:
            raise ValueError("vocabulary exceeds its size limit")
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise ValueError("duplicate words in vocabulary")
        self.freq = None if freq is None else np.asarray(freq, dtype=np.int64)

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
        lines = _read_text(path).splitlines()
        if not lines or not lines[0].startswith("#size="):
            raise DataError(f"{path}: missing '#size=' header")
        try:
            size = int(lines[0][len("#size="):])
        except ValueError:
            raise DataError(f"{path}: bad '#size=' header") from None
        words = lines[1:]
        if len(words) != size:
            raise DataError(f"{path}: header says {size} words, file has {len(words)}")
        return cls(words, size_limit=size)


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
    words = [w for w, _ in ranked]
    freq = [c for _, c in ranked]
    return Vocabulary(words, freq=freq, size_limit=size_limit)


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


def target_vocab(vocab: Vocabulary, stop: StopwordList, size_limit: int) -> Vocabulary:
    """Vocabulary for the prediction-target view: stopwords removed, then truncated."""
    if size_limit < 1:
        raise ValueError("size_limit must be >= 1")
    kept = [(w, i) for i, w in enumerate(vocab.words) if w not in stop]
    kept = kept[:size_limit]
    if not kept:
        raise DataError("all words removed; target vocabulary would be empty")
    words = [w for w, _ in kept]
    freq = None
    if vocab.freq is not None:
        freq = [int(vocab.freq[i]) for _, i in kept]
    return Vocabulary(words, freq=freq, size_limit=size_limit)


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from None


def load_token_file(path, pretokenized: bool = False) -> list:
    """One document per line -> list of token lists."""
    split = split_pretokenized if pretokenized else tokenize
    return [split(line) for line in _read_text(path).splitlines()]


def load_label_file(path) -> list:
    return [line.strip() for line in _read_text(path).splitlines()]


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
