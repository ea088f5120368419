"""Two-view embeddings: region embeddings trained on unlabeled text.

The embedded view (words seen so far for the LSTM form, a text region for
the CNN form) is trained to predict the other view (nearby words restricted
to a controlled target vocabulary) under a weighted square loss whose
per-coordinate weights realize negative sampling: every positive target
coordinate is active, plus a fresh uniform sample of zero coordinates.

Trained embeddings are frozen (arrays made read-only) and applied downstream
as additional gate / convolution input through trainable side matrices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import conv as conv_mod
from . import lstm as lstm_mod
from .corpus import Vocabulary, as_ids
from .errors import DataError
from .numkernel import (
    ColumnGrad,
    RngSpec,
    gaussian_init,
    scatter_add_columns,
)
from .optim import EpochLog, TrainConfig, Updater, check_loss, check_params

INIT_STD = 0.01


@dataclass
class TvObjectiveSpec:
    """What the unsupervised objective predicts, and from which view."""

    k_next: int
    target_vocab: Vocabulary
    neg_samples: int
    direction: str = "forward"
    target_map: np.ndarray | None = None  # source word id -> target id, -1 if absent
    source_vocab_hash: str = ""

    def __post_init__(self):
        if self.k_next < 1:
            raise ValueError("k_next must be >= 1")
        if self.neg_samples < 0:
            raise ValueError("neg_samples must be >= 0")
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction {self.direction!r}")

    @classmethod
    def build(cls, source_vocab: Vocabulary, target_vocab: Vocabulary, k_next,
              neg_samples, direction="forward"):
        mapping = np.full(len(source_vocab), -1, dtype=np.int64)
        for tid, word in enumerate(target_vocab.words):
            sid = source_vocab.index.get(word)
            if sid is not None:
                mapping[sid] = tid
        return cls(k_next, target_vocab, neg_samples, direction, mapping,
                   source_vocab.sha256())


@dataclass
class TvEmbedding:
    """A region-embedding function plus its alignment metadata; frozen once
    trained."""

    kind: str  # "lstm" | "cnn"
    dim: int
    name: str
    lstm_params: lstm_mod.LstmParams | None = None
    conv_params: conv_mod.ConvParams | None = None
    direction: str | None = None
    region_size: int | None = None
    align_offset: int = 0
    target_vocab_hash: str = ""
    source_vocab_hash: str = ""

    def tensors(self):
        if self.kind == "lstm":
            yield from lstm_mod.gate_tensors(self.lstm_params)
        else:
            yield "w", self.conv_params.w
            yield "b", self.conv_params.b

    def freeze(self) -> "TvEmbedding":
        # the stacked LSTM arrays themselves: a read-only row view would
        # leave its base writable
        p = self.lstm_params
        arrays = (p.wx, p.wh, p.bias) if self.kind == "lstm" else \
            (self.conv_params.w, self.conv_params.b)
        for arr in arrays:
            arr.flags.writeable = False
        return self

    def outputs(self, ids_list, seg_len=None, overlap=0):
        """Per-document (dim, T) outputs aligned to positions, plus the run
        that `gradients` consumes.

        LSTM form: h_t at every position, from one engine pass (read right
        to left for backward embeddings; chopped when seg_len is set).  CNN
        form: the output of the complete region starting at l lands at
        position l + align_offset; uncovered positions are zero.
        """
        if self.kind == "lstm":
            return lstm_mod.batch_forward_docs(
                self.lstm_params, [as_ids(doc) for doc in ids_list], None, seg_len,
                overlap, reverse=self.direction == "backward")
        h_docs, run = conv_mod.conv_forward(self.conv_params, ids_list)
        return [self._shift(h, True) for h in h_docs], run

    def gradients(self, run, upstreams) -> dict:
        """Gradients of sum over documents of upstream . outputs, keyed like
        `tensors()`; upstreams are (dim, T) per document, aligned like the
        outputs."""
        if self.kind == "lstm":
            lg, _ = lstm_mod.batch_backward_docs(run, upstreams)
            return dict(lstm_mod.gate_tensors(self.lstm_params, grads=lg))
        cg = conv_mod.backward_from_mask(run, [self._shift(up, False) for up in upstreams])
        return {"w": cg.w, "b": cg.b}

    def _shift(self, mat, to_output):
        """The columns of complete regions moved from region start l to
        output position l + align_offset (or back); other columns zero."""
        n = max(mat.shape[1] - self.region_size + 1, 0)
        starts, outputs = slice(0, n), slice(self.align_offset, self.align_offset + n)
        out = np.zeros_like(mat)
        out[:, outputs if to_output else starts] = mat[:, starts if to_output else outputs]
        return out


# ---------------------------------------------------------------------------
# Training.  Positions (or regions) from a whole minibatch are scored by one
# shared linear head; only positive and sampled-negative coordinates of the
# huge target layer are touched.
# ---------------------------------------------------------------------------


@dataclass
class _DocTargets:
    positions: np.ndarray  # (n_pos,) output positions with targets
    counts: np.ndarray  # positives per position
    flat_ids: np.ndarray  # concatenated target ids
    flat_vals: np.ndarray  # their bow counts


def _collect_targets(id_arrays, spec: TvObjectiveSpec, emb: TvEmbedding) -> list:
    """Per-document targets at the embedding's output positions (None for a
    document without any; positions with an empty target are skipped).  The
    CNN form predicts the k words on each side of the region starting at l,
    whose output lands at l + align_offset.  The windows of all documents,
    each padded with k absent (-1) ids on both sides, are gathered at once,
    and one np.unique counts every row * dim + id key."""
    k = spec.k_next
    if emb.kind == "lstm":
        offsets = np.arange(1, k + 1) if spec.direction == "forward" \
            else np.arange(-k, 0)
        shift = 0
    else:
        size = emb.region_size
        offsets = np.concatenate([np.arange(-k, 0), np.arange(size, size + k)])
        shift = size - 1  # region starts stop this far before the end
    totals = np.array([len(ids) for ids in id_arrays], dtype=np.int64)
    n_spots = np.maximum(totals - shift, 0)
    row_lo = np.concatenate([[0], np.cumsum(n_spots)])  # each document's first row
    spot = np.arange(row_lo[-1]) - np.repeat(row_lo[:-1], n_spots)
    pad = np.full(k, -1, dtype=np.int64)
    padded = np.concatenate([pad, *(part for ids in id_arrays
                                    for part in (spec.target_map[ids], pad))])
    starts = np.cumsum(totals + k) - totals  # where each document's ids begin
    window = padded[(np.repeat(starts, n_spots) + spot)[:, None] + offsets]
    present = window >= 0
    dim = len(spec.target_vocab)
    keys, counts = np.unique(np.nonzero(present)[0] * dim + window[present],
                             return_counts=True)
    rows, per_row = np.unique(keys // dim, return_counts=True)
    rb, kb = np.searchsorted(rows, row_lo), np.searchsorted(keys, row_lo * dim)
    return [_DocTargets(spot[rows[r0:r1]] + emb.align_offset, per_row[r0:r1],
                        keys[k0:k1] % dim, counts[k0:k1].astype(float))
            if r1 > r0 else None
            for r0, r1, k0, k1 in zip(rb[:-1], rb[1:], kb[:-1], kb[1:])]


def _sample_negatives_flat(pos_keys_sorted, n_pos, dim, neg, gen):
    """neg distinct zero coordinates per position, uniform; vectorized with
    rejection fix-up (row keys = row*dim + coord).  A position with at most
    neg zero coordinates takes all of them and draws nothing."""
    if neg == 0 or n_pos == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    n_zero = dim - np.bincount(pos_keys_sorted // dim, minlength=n_pos)
    rows = np.repeat(np.flatnonzero(n_zero > neg), neg)
    coords = gen.integers(0, dim, size=rows.size)
    while True:
        keys = rows * dim + coords
        bad = np.isin(keys, pos_keys_sorted)
        # also reject duplicates within a position
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        dup = np.zeros(keys.size, dtype=bool)
        dup_sorted = np.zeros(keys.size, dtype=bool)
        dup_sorted[1:] = sorted_keys[1:] == sorted_keys[:-1]
        dup[order] = dup_sorted
        bad |= dup
        if not bad.any():
            break
        coords[bad] = gen.integers(0, dim, size=int(bad.sum()))
    every = (np.flatnonzero(n_zero <= neg)[:, None] * dim + np.arange(dim)).ravel()
    every = every[~np.isin(every, pos_keys_sorted)]
    return np.concatenate([rows, every // dim]), np.concatenate([coords, every % dim])


def _head_terms(targets_batch, dim, neg, gen):
    """Active coordinates for a batch: (coord ids, position column, z values)."""
    counts = np.concatenate([t.counts for t in targets_batch])
    n_pos = int(counts.size)
    pos_coord = np.concatenate([t.flat_ids for t in targets_batch])
    pos_vals = np.concatenate([t.flat_vals for t in targets_batch])
    row_of_pos = np.repeat(np.arange(n_pos, dtype=np.int64), counts)
    pos_keys = np.sort(row_of_pos * dim + pos_coord)
    neg_rows, neg_coords = _sample_negatives_flat(pos_keys, n_pos, dim, neg, gen)
    coords = np.concatenate([pos_coord, neg_coords])
    rows = np.concatenate([row_of_pos, neg_rows])
    zvals = np.concatenate([pos_vals, np.zeros(neg_coords.size)])
    return coords, rows, zvals, n_pos


class _Head:
    """Linear prediction head over the target vocabulary; discarded after
    training.  Its weights are (dim, target vocab), one column per target
    word, so a minibatch's gradient is a ColumnGrad over the coordinates it
    touched."""

    def __init__(self, target_dim, dim, gen, dtype):
        self.w = gaussian_init(target_dim, dim, INIT_STD, gen).T
        self.b = np.zeros(target_dim, dtype=dtype)

    def forward(self, h_all, coords, rows):
        return np.einsum("dn,dn->n", self.w[:, coords], h_all[:, rows]) + self.b[coords]

    def backward(self, h_all, coords, rows, dp):
        dw = ColumnGrad.over(self.w.shape, [coords], self.w.dtype)
        scatter_add_columns(dw.block, dw.slots(coords), h_all[:, rows] * dp)
        db = np.bincount(coords, weights=dp, minlength=self.b.size).astype(self.b.dtype)
        dh_all = np.zeros_like(h_all)
        scatter_add_columns(dh_all, rows, self.w[:, coords] * dp)
        return dw, db, dh_all


def _train(emb: TvEmbedding, unlabeled, spec: TvObjectiveSpec, cfg: TrainConfig,
           log_fn):
    """Train an embedding on the objective of `spec`; freeze it.

    Returns the frozen embedding and the per-epoch loss log; epoch 0 is an
    evaluation-only pass recording the objective before any update.
    """
    id_arrays = [doc.ids for doc in unlabeled.docs]
    if not id_arrays:
        raise DataError("unlabeled corpus is empty")
    doc_targets = _collect_targets(id_arrays, spec, emb)
    kept = [i for i, tgt in enumerate(doc_targets) if tgt is not None]
    if not kept:
        raise DataError("no training positions: every document has empty targets")
    tensors = dict(emb.tensors())
    dtype = next(iter(tensors.values())).dtype
    target_dim = len(spec.target_vocab)
    rng = RngSpec(cfg.seed)
    head = _Head(target_dim, emb.dim, rng.stream("init", 999), dtype)
    updater = Updater(cfg)
    logs = []
    for epoch in range(0, cfg.epochs + 1):
        started = time.perf_counter()
        update = epoch > 0
        order = rng.stream("shuffle", epoch).permutation(len(kept)) if update \
            else np.arange(len(kept))
        sample_gen = rng.stream("sampling", epoch)
        loss_sum = 0.0
        pos_total = 0
        for batch_no, lo in enumerate(range(0, len(kept), cfg.minibatch)):
            doc_idx = [kept[i] for i in order[lo:lo + cfg.minibatch]]
            targets_batch = [doc_targets[i] for i in doc_idx]
            h_docs, run = emb.outputs([id_arrays[i] for i in doc_idx],
                                      cfg.chop_len, cfg.chop_overlap)
            # the target positions as columns of the documents side by side
            offsets = np.cumsum([0] + [h.shape[1] for h in h_docs])
            cols = np.concatenate([off + tgt.positions
                                   for off, tgt in zip(offsets, targets_batch)])
            h_all = np.concatenate(h_docs, axis=1)[:, cols]
            coords, rows, zvals, n_pos = _head_terms(targets_batch, target_dim,
                                                     spec.neg_samples, sample_gen)
            pvals = head.forward(h_all, coords, rows)
            diff = pvals - zvals
            loss = float(np.sum(diff * diff))
            check_loss(loss, epoch, batch_no)
            loss_sum += loss
            pos_total += n_pos
            if not update:
                continue
            dp = (2.0 / n_pos) * diff
            dw, db, dh_all = head.backward(h_all, coords, rows, dp)
            up = np.zeros((emb.dim, offsets[-1]), dtype=dtype)
            up[:, cols] = dh_all
            grads = emb.gradients(run, np.split(up, offsets[1:-1], axis=1))
            grads["head.w"] = dw
            grads["head.b"] = db
            for name, param in {**tensors, "head.w": head.w,
                                "head.b": head.b}.items():
                updater.apply(name, param, grads[name])
        entry = EpochLog(epoch, loss_sum / pos_total, float("nan"),
                         time.perf_counter() - started)
        logs.append(entry)
        if log_fn is not None:
            log_fn(entry.line())
    check_params(tensors.items(), cfg.epochs)
    return emb.freeze(), logs


def train_tv_lstm(unlabeled, spec: TvObjectiveSpec, dim: int, cfg: TrainConfig,
                  name: str = "tv-lstm", log_fn=None):
    """Train a full-variant one-hot LSTM to predict nearby words (the next k
    for a forward embedding, the previous k for a backward one); freeze it.

    Returns the frozen embedding and the per-epoch loss log; the epoch-0
    entry records the objective value before any update.
    """
    params = lstm_mod.LstmParams.create("full", dim, len(spec.target_map),
                                        "one-hot", RngSpec(cfg.seed).stream("init"))
    emb = TvEmbedding(
        kind="lstm", dim=dim, name=name, lstm_params=params,
        direction=spec.direction, align_offset=0,
        target_vocab_hash=spec.target_vocab.sha256(),
        source_vocab_hash=spec.source_vocab_hash,
    )
    return _train(emb, unlabeled, spec, cfg, log_fn)


def train_tv_cnn(unlabeled, region_size: int, dim: int, spec: TvObjectiveSpec,
                 cfg: TrainConfig, input_kind: str = "bow", name: str = "tv-cnn",
                 log_fn=None):
    """Train a convolutional region embedding to predict the k words on
    each side of its region; freeze it."""
    params = conv_mod.ConvParams.create(dim, region_size, input_kind,
                                        len(spec.target_map),
                                        RngSpec(cfg.seed).stream("init"))
    emb = TvEmbedding(
        kind="cnn", dim=dim, name=name, conv_params=params,
        region_size=region_size, align_offset=(region_size - 1) // 2,
        target_vocab_hash=spec.target_vocab.sha256(),
        source_vocab_hash=spec.source_vocab_hash,
    )
    return _train(emb, unlabeled, spec, cfg, log_fn)


def apply_tv(emb: TvEmbedding, docs) -> list:
    """Frozen embedding outputs for many documents: per document (dim, T),
    aligned to positions as in `TvEmbedding.outputs`.  The documents go to
    the engine in blocks of model.SCORE_BLOCK."""
    from .model import SCORE_BLOCK

    docs = list(docs)
    return [out for lo in range(0, len(docs), SCORE_BLOCK)
            for out in emb.outputs(docs[lo:lo + SCORE_BLOCK])[0]]


def attach(params, emb_list, rng) -> None:
    """Add Gaussian-initialized side matrices feeding each embedding's output
    into the branch parameters; the embeddings themselves stay frozen."""
    gen = rng.stream("init") if isinstance(rng, RngSpec) else rng
    existing = {sp.tv_id for sp in params.side}
    for emb in emb_list:
        if emb.name in existing:
            raise ValueError(f"embedding {emb.name!r} already attached")
        existing.add(emb.name)
        if isinstance(params, lstm_mod.LstmParams):
            rows = params.wx.shape[0]  # one draw equals the per-gate draws
        elif isinstance(params, conv_mod.ConvParams):
            rows = params.maps
        else:
            raise ValueError(f"cannot attach embeddings to {type(params).__name__}")
        params.side.append(lstm_mod.SideInputParams(
            emb.name, emb.dim, gaussian_init(rows, emb.dim, INIT_STD, gen)))
