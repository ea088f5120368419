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
from .corpus import TokenSequence, Vocabulary
from .errors import DataError
from .numkernel import (
    RngSpec,
    SparseVector,
    gaussian_init,
    relu,
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
    region_size: int | None = None
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
              neg_samples, direction="forward", region_size=None):
        mapping = np.full(len(source_vocab), -1, dtype=np.int64)
        for tid, word in enumerate(target_vocab.words):
            sid = source_vocab.index.get(word)
            if sid is not None:
                mapping[sid] = tid
        return cls(k_next, target_vocab, neg_samples, direction, region_size,
                   mapping, source_vocab.sha256())


@dataclass
class TvEmbedding:
    """A frozen region-embedding function plus its alignment metadata."""

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


def tv_targets(ids_or_seq, t: int, spec: TvObjectiveSpec) -> SparseVector:
    """Bow vector (over the target vocabulary) of the k words after position t
    (forward) or before it (backward); truncated at document bounds."""
    ids = ids_or_seq.ids if isinstance(ids_or_seq, TokenSequence) else np.asarray(ids_or_seq)
    if not 0 <= t < len(ids):
        raise ValueError(f"position {t} out of range for length {len(ids)}")
    if spec.direction == "forward":
        window = ids[t + 1:t + 1 + spec.k_next]
    else:
        window = ids[max(0, t - spec.k_next):t]
    mapped = spec.target_map[window]
    mapped = mapped[mapped >= 0]
    dim = len(spec.target_vocab)
    if mapped.size == 0:
        return SparseVector(dim, np.zeros(0, np.int64), np.zeros(0))
    uniq, counts = np.unique(mapped, return_counts=True)
    return SparseVector(dim, uniq, counts.astype(float))


def sample_negative_weights(z: SparseVector, neg_samples: int, gen) -> SparseVector:
    """0/1 weight mask: all positives plus `neg_samples` distinct zero coords."""
    zero_count = z.dim - z.nnz
    if neg_samples >= zero_count:
        idx = np.arange(z.dim)
    else:
        chosen = set()
        exclude = set(int(i) for i in z.indices)
        while len(chosen) < neg_samples:
            draw = gen.integers(0, z.dim, size=2 * (neg_samples - len(chosen)) + 4)
            for v in draw:
                v = int(v)
                if v not in exclude and v not in chosen:
                    chosen.add(v)
                    if len(chosen) == neg_samples:
                        break
        idx = np.sort(np.concatenate([z.indices, np.fromiter(chosen, np.int64,
                                                             len(chosen))]))
    return SparseVector(z.dim, idx, np.ones(idx.size))


def weighted_square_loss(p: np.ndarray, z: SparseVector, weights: SparseVector):
    """sum_j alpha_j (z_j - p_j)^2 plus its dense gradient w.r.t. p.

    The gradient is supported only on coordinates with nonzero alpha, which
    is what makes negative sampling cheap.
    """
    if p.shape[0] != z.dim or z.dim != weights.dim:
        raise ValueError(f"dims differ: p {p.shape[0]}, z {z.dim}, weights {weights.dim}")
    idx = weights.indices
    z_at = np.zeros(idx.size, dtype=p.dtype)
    if z.nnz:
        pos = np.searchsorted(z.indices, idx)
        pos = np.clip(pos, 0, z.nnz - 1)
        hit = z.indices[pos] == idx
        z_at[hit] = z.values[pos[hit]]
    diff = p[idx] - z_at
    loss = float(np.sum(weights.values * diff * diff))
    grad = np.zeros_like(p)
    grad[idx] = 2.0 * weights.values * diff
    return loss, grad


# ---------------------------------------------------------------------------
# Training.  Positions (or regions) from a whole minibatch are scored by one
# shared linear head; only positive and sampled-negative coordinates of the
# huge target layer are touched.
# ---------------------------------------------------------------------------


@dataclass
class _DocTargets:
    positions: np.ndarray  # (n_pos,) time steps / region starts with targets
    counts: np.ndarray  # positives per position
    flat_ids: np.ndarray  # concatenated target ids
    flat_vals: np.ndarray  # their bow counts


def _collect_targets(ids, spec: TvObjectiveSpec, region_size=None):
    """Per-position targets; positions with an empty target are skipped."""
    mapped = spec.target_map[ids]
    total = len(ids)
    positions, counts, flat_ids, flat_vals = [], [], [], []
    if region_size is None:
        spots = range(total)
    else:
        spots = range(total - region_size + 1)
    for t in spots:
        if region_size is None:
            if spec.direction == "forward":
                window = mapped[t + 1:t + 1 + spec.k_next]
            else:
                window = mapped[max(0, t - spec.k_next):t]
        else:
            left = mapped[max(0, t - spec.k_next):t]
            right = mapped[t + region_size:t + region_size + spec.k_next]
            window = np.concatenate([left, right])
        window = window[window >= 0]
        if window.size == 0:
            continue
        uniq, cnt = np.unique(window, return_counts=True)
        positions.append(t)
        counts.append(uniq.size)
        flat_ids.append(uniq)
        flat_vals.append(cnt)
    if not positions:
        return None
    return _DocTargets(
        np.array(positions, dtype=np.int64),
        np.array(counts, dtype=np.int64),
        np.concatenate(flat_ids),
        np.concatenate(flat_vals).astype(float),
    )


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
    training."""

    def __init__(self, target_dim, dim, gen, dtype):
        self.w = gaussian_init(target_dim, dim, INIT_STD, gen)
        self.b = np.zeros(target_dim, dtype=dtype)

    def forward(self, h_all, coords, rows):
        return np.einsum("nd,dn->n", self.w[coords], h_all[:, rows]) + self.b[coords]

    def backward(self, h_all, coords, rows, dp):
        dw = np.zeros_like(self.w)
        contrib = h_all[:, rows] * dp  # (dim, n_active)
        scatter_add_columns(dw.T, coords, contrib)
        db = np.bincount(coords, weights=dp, minlength=self.b.size).astype(self.b.dtype)
        dh_all = np.zeros_like(h_all)
        scatter_add_columns(dh_all, rows, self.w[coords].T * dp)
        return dw, db, dh_all


def _batches(n, size):
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _tv_train_loop(doc_targets, dim, target_dim, neg_samples, cfg, forward_fn,
                   backward_fn, param_tensors, dtype, log_fn):
    """Shared epoch loop for both embedding forms.

    forward_fn(doc_indices, targets) -> (h columns for all target positions,
    state); backward_fn(state, dh columns) -> parameter gradient dict keyed
    like param_tensors.  Epoch 0 is an evaluation-only pass recording the
    objective before any update.
    """
    rng = RngSpec(cfg.seed)
    head = _Head(target_dim, dim, rng.stream("init", 999), dtype)
    updater = Updater(cfg)
    logs = []
    kept = [i for i, tgt in enumerate(doc_targets) if tgt is not None]
    if not kept:
        raise DataError("no training positions: every document has empty targets")
    for epoch in range(0, cfg.epochs + 1):
        started = time.perf_counter()
        update = epoch > 0
        if update:
            order = rng.stream("shuffle", epoch).permutation(len(kept))
        else:
            order = np.arange(len(kept))
        sample_gen = rng.stream("sampling", epoch)
        loss_sum = 0.0
        pos_total = 0
        for batch_no, batch in enumerate(_batches(len(kept), cfg.minibatch)):
            doc_idx = [kept[order[i]] for i in batch]
            targets_batch = [doc_targets[i] for i in doc_idx]
            h_all, state = forward_fn(doc_idx, targets_batch)
            coords, rows, zvals, n_pos = _head_terms(targets_batch, target_dim,
                                                     neg_samples, sample_gen)
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
            grads = backward_fn(state, dh_all)
            grads["head.w"] = dw
            grads["head.b"] = db
            for name, param in {**param_tensors, "head.w": head.w,
                                "head.b": head.b}.items():
                updater.apply(name, param, grads[name])
        entry = EpochLog(epoch, loss_sum / pos_total, float("nan"),
                         time.perf_counter() - started)
        logs.append(entry)
        if log_fn is not None:
            log_fn(entry.line())
    check_params(param_tensors.items(), cfg.epochs)
    return logs


def train_tv_lstm(unlabeled, spec: TvObjectiveSpec, dim: int, cfg: TrainConfig,
                  name: str = "tv-lstm", log_fn=None):
    """Train a full-variant one-hot LSTM to predict nearby words; freeze it.

    Returns the frozen embedding and the per-epoch loss log; the epoch-0
    entry records the objective value before any update.
    """
    docs = list(unlabeled.docs)
    if not docs:
        raise DataError("unlabeled corpus is empty")
    vocab_size = len(spec.target_map)
    rng = RngSpec(cfg.seed)
    params = lstm_mod.LstmParams.create("full", dim, vocab_size, "one-hot",
                                        rng.stream("init"))
    doc_targets = [_collect_targets(d.ids, spec) for d in docs]

    reverse = spec.direction == "backward"

    def forward_fn(doc_idx, targets_batch):
        h_docs, run = lstm_mod.batch_forward_docs(
            params, [docs[i].ids for i in doc_idx], None, cfg.chop_len,
            cfg.chop_overlap, reverse=reverse)
        cols = [h[:, tgt.positions] for h, tgt in zip(h_docs, targets_batch)]
        return np.concatenate(cols, axis=1), (run, doc_idx, targets_batch)

    def backward_fn(state, dh_all):
        run, doc_idx, targets_batch = state
        ups = []
        col = 0
        for i, tgt in zip(doc_idx, targets_batch):
            up = np.zeros((dim, len(docs[i].ids)), dtype=params.dtype)
            up[:, tgt.positions] = dh_all[:, col:col + tgt.positions.size]
            col += tgt.positions.size
            ups.append(up)
        lg, _ = lstm_mod.batch_backward_docs(run, ups)
        return dict(lstm_mod.gate_tensors(params, grads=lg))

    tensors = dict(lstm_mod.gate_tensors(params))
    logs = _tv_train_loop(doc_targets, dim, len(spec.target_vocab),
                          spec.neg_samples, cfg, forward_fn, backward_fn,
                          tensors, params.dtype, log_fn)
    emb = TvEmbedding(
        kind="lstm", dim=dim, name=name, lstm_params=params,
        direction=spec.direction, align_offset=0,
        target_vocab_hash=spec.target_vocab.sha256(),
        source_vocab_hash=spec.source_vocab_hash,
    ).freeze()
    return emb, logs


def train_tv_cnn(unlabeled, region_size: int, dim: int, spec: TvObjectiveSpec,
                 cfg: TrainConfig, input_kind: str = "bow", name: str = "tv-cnn",
                 log_fn=None):
    """Train a convolutional region embedding to predict surrounding context."""
    docs = list(unlabeled.docs)
    if not docs:
        raise DataError("unlabeled corpus is empty")
    vocab_size = len(spec.target_map)
    rng = RngSpec(cfg.seed)
    params = conv_mod.ConvParams.create(dim, region_size, input_kind, vocab_size,
                                        rng.stream("init"))
    doc_targets = [_collect_targets(d.ids, spec, region_size=region_size)
                   for d in docs]

    def forward_fn(doc_idx, targets_batch):
        pres, cols = [], []
        for i, tgt in zip(doc_idx, targets_batch):
            pre = conv_mod.pre_activation(params, docs[i].ids)
            pres.append(pre)
            cols.append(relu(pre[:, tgt.positions]))
        return np.concatenate(cols, axis=1), (pres, doc_idx, targets_batch)

    def backward_fn(state, dh_all):
        pres, doc_idx, targets_batch = state
        ups = []
        col = 0
        for pre, tgt in zip(pres, targets_batch):
            up = np.zeros_like(pre)
            up[:, tgt.positions] = dh_all[:, col:col + tgt.positions.size]
            col += tgt.positions.size
            ups.append(up)
        cg = conv_mod.batch_backward_from_mask(
            params, [docs[i].ids for i in doc_idx], [pre > 0 for pre in pres], ups)
        return {"w": cg.w, "b": cg.b}

    tensors = {"w": params.w, "b": params.b}
    logs = _tv_train_loop(doc_targets, dim, len(spec.target_vocab),
                          spec.neg_samples, cfg, forward_fn, backward_fn,
                          tensors, params.dtype, log_fn)
    emb = TvEmbedding(
        kind="cnn", dim=dim, name=name, conv_params=params,
        region_size=region_size, align_offset=(region_size - 1) // 2,
        target_vocab_hash=spec.target_vocab.sha256(),
        source_vocab_hash=spec.source_vocab_hash,
    ).freeze()
    return emb, logs


def apply_tv(emb: TvEmbedding, ids_or_seq) -> np.ndarray:
    """Frozen embedding outputs aligned to document positions: (dim, T).

    LSTM form: h_t at every position (computed right-to-left for backward
    embeddings).  CNN form: the output of the complete region starting at l
    lands at position l + align_offset; uncovered positions are zero.
    """
    ids = ids_or_seq.ids if isinstance(ids_or_seq, TokenSequence) else \
        np.asarray(ids_or_seq, dtype=np.int64)
    if emb.kind == "lstm":
        return lstm_mod.forward_sequence(emb.lstm_params, ids,
                                         reverse=emb.direction == "backward")
    total = len(ids)
    out = np.zeros((emb.dim, total), dtype=emb.conv_params.dtype)
    size = emb.region_size
    if total >= size:
        n_regions = total - size + 1
        pre = conv_mod.pre_activation(emb.conv_params, ids)[:, :n_regions]
        out[:, emb.align_offset:emb.align_offset + n_regions] = relu(pre)
    return out


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
