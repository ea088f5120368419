"""Model assembly: region-embedding branches + pooling + linear top layer.

A model is a list of branches (LSTM in either or both directions, or a
convolution layer), each followed by pooling over k contiguous regions of
the document; the pooled vectors are concatenated and classified by a
linear top layer under square loss.  Dropout on the top-layer input is
inverted (scaled at train time), so evaluation applies no scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import conv as conv_mod
from . import lstm as lstm_mod
from . import tvembed as tv_mod
from .corpus import Vocabulary, as_ids
from .errors import DataError
from .numkernel import ColumnGrad, RngSpec, gaussian_init, scatter_add_columns

INIT_STD = 0.01
# documents scored (and their tv outputs computed) per batched pass
SCORE_BLOCK = 512


@dataclass
class PoolingSpec:
    kind: str = "max"
    regions: int = 1

    def __post_init__(self):
        if self.kind not in ("max", "avg"):
            raise ValueError(f"unknown pooling kind {self.kind!r}")
        if self.regions < 1:
            raise ValueError("pooling needs at least one region")


def region_bounds(total: int, regions: int) -> list:
    """Split positions 0..total-1 into `regions` spans at floor(i*total/regions)."""
    return [(i * total // regions, (i + 1) * total // regions)
            for i in range(regions)]


def pool(h: np.ndarray, spec: PoolingSpec) -> np.ndarray:
    """Reduce (q, T) per-position vectors to one (q*regions,) document vector.

    Empty regions (T < regions) contribute zero vectors.
    """
    q, total = h.shape
    out = np.zeros(q * spec.regions, dtype=h.dtype)
    for i, (lo, hi) in enumerate(region_bounds(total, spec.regions)):
        if hi > lo:
            seg = h[:, lo:hi]
            out[i * q:(i + 1) * q] = seg.max(axis=1) if spec.kind == "max" \
                else seg.mean(axis=1)
    return out


def pool_backward(h: np.ndarray, spec: PoolingSpec, dpooled: np.ndarray) -> np.ndarray:
    """Route pooled gradients back to positions (max: first argmax; avg: spread)."""
    q, total = h.shape
    dh = np.zeros_like(h)
    for i, (lo, hi) in enumerate(region_bounds(total, spec.regions)):
        if hi <= lo:
            continue
        dv = dpooled[i * q:(i + 1) * q]
        if spec.kind == "max":
            am = h[:, lo:hi].argmax(axis=1)
            dh[np.arange(q), lo + am] += dv
        else:
            dh[:, lo:hi] += dv[:, None] / (hi - lo)
    return dh


@dataclass
class TopLayerParams:
    w: np.ndarray  # (n_classes, doc_dim)
    b: np.ndarray  # (n_classes,)
    dropout_rate: float = 0.0

    @classmethod
    def create(cls, n_classes, doc_dim, rng, std=INIT_STD, dropout_rate=0.0):
        gen = rng.stream("init") if isinstance(rng, RngSpec) else rng
        w = gaussian_init(n_classes, doc_dim, std, gen)
        return cls(w, np.zeros(n_classes, dtype=w.dtype), dropout_rate)


@dataclass
class LstmBranch:
    direction: str  # "forward" | "backward" | "bidirectional"
    pooling: PoolingSpec
    fwd: lstm_mod.LstmParams | None = None
    bwd: lstm_mod.LstmParams | None = None
    embedding: np.ndarray | None = None  # (d, vocab) word vectors, dense input
    train_embedding: bool = True

    def __post_init__(self):
        need = {"forward": ("fwd",), "backward": ("bwd",),
                "bidirectional": ("fwd", "bwd")}.get(self.direction)
        if need is None:
            raise ValueError(f"unknown branch direction {self.direction!r}")
        for tag in need:
            if getattr(self, tag) is None:
                raise ValueError(f"{self.direction} branch needs {tag} parameters")
        for _, params, _ in self.parts():
            if self.embedding is not None:
                if params.input_kind != "dense" or \
                        params.input_dim != self.embedding.shape[0]:
                    raise ValueError("embedding shape does not match dense cell input")
            elif params.input_kind != "one-hot":
                raise ValueError("branch without embedding needs one-hot cells")

    def parts(self) -> list:
        out = []
        if self.direction in ("forward", "bidirectional"):
            out.append(("fwd", self.fwd, False))
        if self.direction in ("backward", "bidirectional"):
            out.append(("bwd", self.bwd, True))
        return out

    @property
    def out_dim(self) -> int:
        return sum(p.units for _, p, _ in self.parts())


@dataclass
class ConvBranch:
    pooling: PoolingSpec
    params: conv_mod.ConvParams

    @property
    def out_dim(self) -> int:
        return self.params.maps


@dataclass
class ModelSpec:
    branches: list
    top: TopLayerParams
    n_classes: int
    vocab_size: int
    class_names: list | None = None
    target_encoding: str = "01"  # one-hot 0/1 targets, or "pm1" for -1/+1
    tv_table: dict = field(default_factory=dict)
    vocab: Vocabulary | None = None

    def __post_init__(self):
        if self.target_encoding not in ("01", "pm1"):
            raise ValueError(f"unknown target encoding {self.target_encoding!r}")
        if self.top.w.shape != (self.n_classes, self.doc_dim):
            raise ValueError(
                f"top layer is {self.top.w.shape}, branches produce "
                f"({self.n_classes}, {self.doc_dim})"
            )

    @property
    def doc_dim(self) -> int:
        return sum(b.out_dim * b.pooling.regions for b in self.branches)


def iter_params(spec: ModelSpec):
    """(name, array) pairs for every trainable tensor, in a fixed order."""
    for bi, branch in enumerate(spec.branches):
        pre = f"br{bi}"
        if isinstance(branch, LstmBranch):
            if branch.embedding is not None and branch.train_embedding:
                yield f"{pre}.emb", branch.embedding
            for tag, params, _ in branch.parts():
                yield from lstm_mod.gate_tensors(params, f"{pre}.{tag}.")
        else:
            yield f"{pre}.w", branch.params.w
            yield f"{pre}.b", branch.params.b
            for sp in branch.params.side:
                yield f"{pre}.side.{sp.tv_id}.w", sp.w
    yield "top.w", spec.top.w
    yield "top.b", spec.top.b


def iter_tensors(spec: ModelSpec):
    """All tensors including frozen ones (word vectors, tv embeddings)."""
    for bi, branch in enumerate(spec.branches):
        if isinstance(branch, LstmBranch) and branch.embedding is not None \
                and not branch.train_embedding:
            yield f"br{bi}.emb", branch.embedding
    yield from iter_params(spec)
    for tv_id in sorted(spec.tv_table):
        for name, arr in spec.tv_table[tv_id].tensors():
            yield f"tv.{tv_id}.{name}", arr


def tv_ids_used(spec: ModelSpec) -> list:
    seen = []
    for branch in spec.branches:
        side_lists = [p.side for _, p, _ in branch.parts()] \
            if isinstance(branch, LstmBranch) else [branch.params.side]
        for side in side_lists:
            for sp in side:
                if sp.tv_id not in seen:
                    seen.append(sp.tv_id)
    return seen


def tv_output_list(spec: ModelSpec, docs) -> list | None:
    """Per-document frozen-embedding outputs keyed by tv id, or None when
    no branch has side channels; one apply_tv call per embedding."""
    tv_ids = tv_ids_used(spec)
    if not tv_ids:
        return None
    for tv_id in tv_ids:
        if tv_id not in spec.tv_table:
            raise DataError(f"model references unknown tv embedding {tv_id!r}")
    outs = [tv_mod.apply_tv(spec.tv_table[tv_id], docs) for tv_id in tv_ids]
    return [dict(zip(tv_ids, doc_outs)) for doc_outs in zip(*outs)]


def attach_embeddings(spec: ModelSpec, embeddings, rng) -> ModelSpec:
    """Attach frozen embeddings as side input to every branch."""
    gen = rng.stream("init") if isinstance(rng, RngSpec) else rng
    for emb in embeddings:
        if emb.name in spec.tv_table:
            raise ValueError(f"tv embedding {emb.name!r} already attached")
        spec.tv_table[emb.name] = emb
    for branch in spec.branches:
        targets = [p for _, p, _ in branch.parts()] \
            if isinstance(branch, LstmBranch) else [branch.params]
        for params in targets:
            tv_mod.attach(params, embeddings, gen)
    return spec


# ---------------------------------------------------------------------------
# Batched forward/backward over many documents.
# ---------------------------------------------------------------------------


def _side_inputs(params, tv):
    """The tv outputs a branch's side channels read, or None without any."""
    if not params.side:
        return None
    if tv is None:
        raise DataError("branch has side channels but no tv outputs given")
    return [tv[sp.tv_id] for sp in params.side]


def _branch_forward(branch, docs, tv_list, chop_len, overlap):
    """Per-document branch outputs, plus the run that the backward pass
    consumes: the conv run, or the per-part LSTM runs.  The whole minibatch
    is one batched pass per part."""
    tv_list = tv_list if tv_list is not None else [None] * len(docs)
    if isinstance(branch, ConvBranch):
        return conv_mod.conv_forward(branch.params, docs,
                                     [_side_inputs(branch.params, tv) for tv in tv_list])
    inputs = [as_ids(doc) for doc in docs]
    if branch.embedding is not None:
        inputs = [branch.embedding[:, ids] for ids in inputs]
    part_h, runs = [], []
    for _, params, reverse in branch.parts():
        sides = [_side_inputs(params, tv) for tv in tv_list]
        hs, run = lstm_mod.batch_forward_docs(params, inputs, sides, chop_len,
                                              overlap, reverse=reverse)
        part_h.append(hs)
        runs.append(run)
    return [np.concatenate(hs, axis=0) for hs in zip(*part_h)], runs


def _branch_backward(branch, prefix, run, docs, dh_docs, grads: dict):
    if isinstance(branch, ConvBranch):
        cg = conv_mod.backward_from_mask(run, dh_docs)
        grads[f"{prefix}.w"] = cg.w
        grads[f"{prefix}.b"] = cg.b
        for sp, sg in zip(branch.params.side, cg.side):
            grads[f"{prefix}.side.{sp.tv_id}.w"] = sg
        return

    parts = branch.parts()
    want_emb = branch.embedding is not None and branch.train_embedding
    row_split = np.cumsum([0] + [p.units for _, p, _ in parts])
    if want_emb:
        # the input gradient's columns are the documents side by side
        ids = np.concatenate([doc.ids for doc in docs])
        emb_grad = ColumnGrad.over(branch.embedding.shape, [ids], branch.embedding.dtype)
        slots = emb_grad.slots(ids)
        grads[f"{prefix}.emb"] = emb_grad
    for pi, ((tag, params, _), part_run) in enumerate(zip(parts, run)):
        ups = [dh[row_split[pi]:row_split[pi + 1]] for dh in dh_docs]
        lg, dx = lstm_mod.batch_backward_docs(part_run, ups, want_input_grad=want_emb)
        if want_emb:
            scatter_add_columns(emb_grad.block, slots, dx)
        grads.update(lstm_mod.gate_tensors(params, f"{prefix}.{tag}.", lg))


def _pooled_forward(spec, docs, tv_list, chop_len, overlap):
    P = np.zeros((spec.doc_dim, len(docs)), dtype=spec.top.w.dtype)
    layout = []
    row = 0
    for branch in spec.branches:
        h_docs, run = _branch_forward(branch, docs, tv_list, chop_len, overlap)
        width = branch.out_dim * branch.pooling.regions
        for bi, h in enumerate(h_docs):
            P[row:row + width, bi] = pool(h, branch.pooling)
        layout.append((branch, run, h_docs, row, width))
        row += width
    return P, layout


def _targets(labels, n_classes, encoding, dtype):
    if encoding == "01":
        y = np.zeros((n_classes, len(labels)), dtype=dtype)
    else:
        y = -np.ones((n_classes, len(labels)), dtype=dtype)
    for i, lab in enumerate(labels):
        if not 0 <= lab < n_classes:
            raise ValueError(f"label {lab} out of range for {n_classes} classes")
        y[lab, i] = 1.0
    return y


def square_loss(scores: np.ndarray, label: int, encoding: str = "01"):
    """Sum of squared differences against the encoded one-hot target."""
    y = _targets([label], scores.shape[0], encoding, scores.dtype)[:, 0]
    diff = scores - y
    return float(diff @ diff), 2.0 * diff


def predict(scores: np.ndarray) -> int:
    """Argmax class id; ties break toward the lowest index."""
    return int(np.argmax(scores))


def model_forward(spec: ModelSpec, doc, tv_outs=None) -> np.ndarray:
    """Eval-mode class scores for one document (`tv_outs`: its frozen-
    embedding outputs keyed by tv id, computed when not given).  An empty
    document yields the top layer applied to the zero vector."""
    return batch_scores(spec, [doc], None if tv_outs is None else [tv_outs])[:, 0]


def batch_scores(spec: ModelSpec, docs, tv_list=None) -> np.ndarray:
    """Eval-mode scores for many documents: (n_classes, len(docs)), scored
    SCORE_BLOCK at a time, each block with its own frozen-embedding outputs
    unless `tv_list` gives those of every document."""
    scores = np.empty((spec.n_classes, len(docs)), dtype=spec.top.w.dtype)
    for lo in range(0, len(docs), SCORE_BLOCK):
        block = docs[lo:lo + SCORE_BLOCK]
        block_tv = tv_output_list(spec, block) if tv_list is None \
            else tv_list[lo:lo + SCORE_BLOCK]
        P, _ = _pooled_forward(spec, block, block_tv, None, 0)
        scores[:, lo:lo + SCORE_BLOCK] = spec.top.w @ P + spec.top.b[:, None]
    return scores


def batch_forward_backward(spec: ModelSpec, docs, labels, *, chop_len=None,
                           chop_overlap=0, dropout_masks=None, tv_list=None):
    """Mean square loss over the minibatch and gradients for every trainable
    tensor (keys match iter_params)."""
    if tv_list is None:
        tv_list = tv_output_list(spec, docs)
    P, layout = _pooled_forward(spec, docs, tv_list, chop_len, chop_overlap)
    dropped = P * dropout_masks if dropout_masks is not None else P
    scores = spec.top.w @ dropped + spec.top.b[:, None]
    y = _targets(labels, spec.n_classes, spec.target_encoding, scores.dtype)
    diff = scores - y
    loss = float(np.sum(diff * diff)) / len(docs)
    dscores = (2.0 / len(docs)) * diff
    grads = {
        "top.w": dscores @ dropped.T,
        "top.b": dscores.sum(axis=1),
    }
    dP = spec.top.w.T @ dscores
    if dropout_masks is not None:
        dP = dP * dropout_masks
    for bi, (branch, run, h_docs, row, width) in enumerate(layout):
        dh_docs = [pool_backward(h_docs[i], branch.pooling, dP[row:row + width, i])
                   for i in range(len(docs))]
        _branch_backward(branch, f"br{bi}", run, docs, dh_docs, grads)
    for name, param in iter_params(spec):
        if name not in grads:
            grads[name] = np.zeros_like(param)
    return loss, grads


def confusion(spec: ModelSpec, dataset, tv_list=None) -> np.ndarray:
    """(true class, predicted class) document counts."""
    docs = dataset.docs
    if not docs:
        raise DataError("cannot evaluate on an empty dataset")
    if any(doc.label is None for doc in docs):
        raise DataError("evaluation documents must all be labeled")
    counts = np.zeros((spec.n_classes, spec.n_classes), dtype=np.int64)
    np.add.at(counts, ([d.label for d in docs],
                       np.argmax(batch_scores(spec, docs, tv_list), axis=0)), 1)
    return counts


def percent_wrong(counts: np.ndarray) -> float:
    """Error rate in percent from a confusion matrix."""
    total = int(counts.sum())
    return 100.0 * (total - int(np.trace(counts))) / total


def error_rate(spec: ModelSpec, dataset, tv_list=None) -> float:
    """Percentage of misclassified documents."""
    return percent_wrong(confusion(spec, dataset, tv_list))
