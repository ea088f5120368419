"""Model assembly: region-embedding branches + pooling + linear top layer.

A model is a list of branches (LSTM in either or both directions, or a
convolution layer), each followed by pooling over k contiguous regions of
the document; the pooled vectors are concatenated and classified by a
linear top layer under square loss.  Dropout on the top-layer input is
inverted (scaled at train time), so evaluation applies no scaling.

Between layers a minibatch is one (rows, N) matrix of its documents side
by side (N their total length); pooling reduces each document's columns
to its column of the (doc_dim, n_docs) top-layer input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import conv as conv_mod
from . import lstm as lstm_mod
from . import tvembed as tv_mod
from .corpus import Vocabulary, as_ids
from .errors import DataError
from .numkernel import ColumnGrad, gaussian_init, scatter_add_columns

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


def _regions(totals, regions):
    """First column, width and flat index (document * regions + region) of
    every nonempty pooling region of documents of lengths `totals` side by
    side.  Region i of a document of length T spans its positions
    floor(i*T/regions) up to floor((i+1)*T/regions)."""
    t = np.asarray(totals, dtype=np.int64)[:, None]
    bounds = np.cumsum(t)[:, None] - t + np.arange(regions + 1) * t // regions
    lo, hi = bounds[:, :-1].ravel(), bounds[:, 1:].ravel()
    keep = np.flatnonzero(hi > lo)
    return lo[keep], (hi - lo)[keep], keep


def pool(h: np.ndarray, spec: PoolingSpec, totals) -> np.ndarray:
    """Reduce the (q, N) per-position vectors of documents side by side
    (lengths `totals`) to a (q*regions, n_docs) matrix, one segment
    reduction: region i of a document fills rows i*q..(i+1)*q-1 of its
    column, with a zero vector for an empty region (T < regions)."""
    q, k, n_docs = h.shape[0], spec.regions, len(totals)
    starts, sizes, keep = _regions(totals, k)
    out = np.zeros((q, n_docs * k), dtype=h.dtype)
    if spec.kind == "max":
        out[:, keep] = np.maximum.reduceat(h, starts, axis=1)
    else:
        out[:, keep] = np.add.reduceat(h, starts, axis=1) / sizes.astype(h.dtype)
    return out.reshape(q, n_docs, k).transpose(2, 0, 1).reshape(k * q, n_docs)


def pool_backward(h: np.ndarray, spec: PoolingSpec, totals,
                  dpooled: np.ndarray) -> np.ndarray:
    """Route the (q*regions, n_docs) pooled gradients back to the (q, N)
    positions (max: first argmax of each region; avg: spread evenly)."""
    q, n = h.shape
    starts, sizes, keep = _regions(totals, spec.regions)
    dv = dpooled.reshape(spec.regions, q, -1).transpose(1, 2, 0).reshape(q, -1)[:, keep]
    dh = np.zeros_like(h)
    if spec.kind == "max":
        # the (row, column) pairs where h reaches its region's max, in row-major
        # order; the first of each (row, region) gets the gradient.  A region
        # holding a NaN passes none: its loss is NaN anyway.
        peak = np.repeat(np.maximum.reduceat(h, starts, axis=1), sizes, axis=1)
        rows, cols = np.divmod(np.flatnonzero(h == peak), n)
        region = np.repeat(np.arange(starts.size), sizes)[cols]
        first = np.flatnonzero(np.diff(rows * starts.size + region, prepend=-1))
        dh[rows[first], cols[first]] += dv[rows[first], region[first]]
    else:
        dh += np.repeat(dv / sizes.astype(h.dtype), sizes, axis=1)
    return dh


@dataclass
class TopLayerParams:
    w: np.ndarray  # (n_classes, doc_dim)
    b: np.ndarray  # (n_classes,)
    dropout_rate: float = 0.0

    @classmethod
    def create(cls, n_classes, doc_dim, gen, std=INIT_STD, dropout_rate=0.0):
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
        for params in self.layers:
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
    def layers(self) -> list:
        return [p for _, p, _ in self.parts()]

    @property
    def out_dim(self) -> int:
        return sum(p.units for p in self.layers)


@dataclass
class ConvBranch:
    pooling: PoolingSpec
    params: conv_mod.ConvParams

    @property
    def layers(self) -> list:
        return [self.params]

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
        if self.class_names is not None and len(self.class_names) != self.n_classes:
            raise ValueError(f"{len(self.class_names)} class names for "
                             f"{self.n_classes} classes")
        if self.vocab is not None:
            self._check_width("the vocabulary", len(self.vocab))
        for bi, branch in enumerate(self.branches):
            if isinstance(branch, ConvBranch):
                self._check_width(f"branch {bi}", branch.params.vocab_size)
            elif branch.embedding is not None:
                self._check_width(f"branch {bi}", branch.embedding.shape[1])
            else:
                for tag, params, _ in branch.parts():
                    self._check_width(f"branch {bi} {tag}", params.input_dim)
        for tv_id, emb in self.tv_table.items():
            self._check_width(f"tv embedding {tv_id!r}", emb.vocab_size)

    def _check_width(self, what, words):
        if words != self.vocab_size:
            raise ValueError(f"{what} has {words} words, but vocab_size is "
                             f"{self.vocab_size}")

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


def tv_outputs(spec: ModelSpec, docs) -> dict | None:
    """The frozen-embedding outputs of the documents side by side, keyed by
    tv id ({tv_id: (dim, N)}) in order of first use by a side channel, or
    None when no branch has side channels; one apply_tv call per embedding."""
    tv_ids = dict.fromkeys(sp.tv_id for branch in spec.branches
                           for params in branch.layers for sp in params.side)
    if not tv_ids:
        return None
    for tv_id in tv_ids:
        if tv_id not in spec.tv_table:
            raise DataError(f"model references unknown tv embedding {tv_id!r}")
    return {tv_id: tv_mod.apply_tv(spec.tv_table[tv_id], docs) for tv_id in tv_ids}


def attach_embeddings(spec: ModelSpec, embeddings, gen) -> ModelSpec:
    """Attach frozen embeddings as side input to every branch (side matrices from `gen`)."""
    for emb in embeddings:
        if emb.name in spec.tv_table:
            raise ValueError(f"tv embedding {emb.name!r} already attached")
        spec.tv_table[emb.name] = emb
    for params in (params for branch in spec.branches for params in branch.layers):
        tv_mod.attach(params, embeddings, gen)
    return spec


# ---------------------------------------------------------------------------
# Batched forward/backward over many documents.
# ---------------------------------------------------------------------------


def _branch_forward(branch, docs, totals, tv_outs, chop_len, overlap, for_backward):
    """The (out_dim*regions, n_docs) pooled branch outputs, plus per part
    (the conv layer, or each LSTM direction) its (outputs, run) for the
    backward pass; no parts without `for_backward`.  Each part is one
    batched pass over the whole minibatch, pooled before the next part
    runs; its side channels read their embeddings' columns of `tv_outs`
    (None only when no layer has any)."""
    if isinstance(branch, ConvBranch):
        h, run = conv_mod.conv_forward(branch.params, docs,
                                       [tv_outs[sp.tv_id] for sp in branch.params.side])
        return pool(h, branch.pooling, totals), [(h, run)] if for_backward else []
    inputs = [as_ids(doc) for doc in docs]
    if branch.embedding is not None:
        inputs = [branch.embedding[:, ids] for ids in inputs]
    k, n_docs = branch.pooling.regions, len(docs)
    pooled, parts = [], []
    for _, params, reverse in branch.parts():
        h, run = lstm_mod.batch_forward_docs(params, inputs,
                                             [tv_outs[sp.tv_id] for sp in params.side],
                                             chop_len, overlap, reverse=reverse,
                                             for_backward=for_backward)
        # pool writes region by region: the parts' rows interleave per region
        pooled.append(pool(h, branch.pooling, totals).reshape(k, params.units, n_docs))
        if for_backward:
            parts.append((h, run))
        del h, run  # a scoring pass keeps one part's outputs at a time
    return np.concatenate(pooled, axis=1).reshape(k * branch.out_dim, n_docs), parts


def _branch_backward(branch, prefix, parts, docs, totals, dp, grads: dict):
    """Gradients of a branch from dp, the gradient of its pooled outputs."""
    if isinstance(branch, ConvBranch):
        (h, run), = parts
        cg = conv_mod.backward_from_mask(run, pool_backward(h, branch.pooling, totals, dp))
        grads[f"{prefix}.w"] = cg.w
        grads[f"{prefix}.b"] = cg.b
        for sp, sg in zip(branch.params.side, cg.side):
            grads[f"{prefix}.side.{sp.tv_id}.w"] = sg
        return

    want_emb = branch.embedding is not None and branch.train_embedding
    if want_emb:
        # the input gradient's columns are the documents side by side
        ids = np.concatenate([doc.ids for doc in docs])
        emb_grad = ColumnGrad.over(branch.embedding.shape, [ids], branch.embedding.dtype)
        slots = emb_grad.slots(ids)
        grads[f"{prefix}.emb"] = emb_grad
    k, n_docs = branch.pooling.regions, len(docs)
    dp = dp.reshape(k, branch.out_dim, n_docs)
    lo = 0
    for (tag, params, _), (h, part_run) in zip(branch.parts(), parts):
        dp_part = dp[:, lo:lo + params.units].reshape(k * params.units, n_docs)
        lo += params.units
        up = pool_backward(h, branch.pooling, totals, dp_part)
        lg, dx = lstm_mod.batch_backward_docs(part_run, up, want_input_grad=want_emb)
        if want_emb:
            scatter_add_columns(emb_grad.block, slots, dx)
        grads.update(lstm_mod.gate_tensors(params, f"{prefix}.{tag}.", lg))


def _pooled_forward(spec, docs, totals, tv_outs, chop_len, overlap, for_backward):
    """The (doc_dim, n_docs) top-layer input, plus per branch the parts its
    backward pass consumes (see _branch_forward)."""
    layout = [_branch_forward(branch, docs, totals, tv_outs, chop_len, overlap,
                              for_backward) for branch in spec.branches]
    return np.concatenate([p for p, _ in layout]), [parts for _, parts in layout]


def _targets(labels, n_classes, encoding, dtype):
    y = np.full((n_classes, len(labels)), 0.0 if encoding == "01" else -1.0, dtype=dtype)
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


def predict(scores: np.ndarray) -> np.ndarray:
    """Class id of each column of (n_classes, n_docs) scores; ties go to the lowest."""
    return np.argmax(scores, axis=0)


def model_forward(spec: ModelSpec, doc, tv_outs=None) -> np.ndarray:
    """Eval-mode class scores for one document (`tv_outs`: its frozen-
    embedding outputs keyed by tv id, computed when not given).  An empty
    document yields the top layer applied to the zero vector."""
    return batch_scores(spec, [doc], tv_outs)[:, 0]


def batch_scores(spec: ModelSpec, docs, tv_outs=None) -> np.ndarray:
    """Eval-mode scores for many documents: (n_classes, len(docs)), scored
    SCORE_BLOCK at a time, each block with its own frozen-embedding outputs
    unless `tv_outs` gives those of all documents side by side."""
    totals = [as_ids(doc).size for doc in docs]
    bounds = np.cumsum([0, *totals])
    scores = np.empty((spec.n_classes, len(docs)), dtype=spec.top.w.dtype)
    for lo in range(0, len(docs), SCORE_BLOCK):
        hi = min(lo + SCORE_BLOCK, len(docs))
        block_tv = tv_outputs(spec, docs[lo:hi]) if tv_outs is None else \
            {tv_id: out[:, bounds[lo]:bounds[hi]] for tv_id, out in tv_outs.items()}
        P, _ = _pooled_forward(spec, docs[lo:hi], totals[lo:hi], block_tv, None, 0,
                               for_backward=False)
        scores[:, lo:hi] = spec.top.w @ P + spec.top.b[:, None]
    return scores


def batch_forward_backward(spec: ModelSpec, docs, labels, *, chop_len=None,
                           chop_overlap=0, dropout_masks=None, tv_outs=None):
    """Mean square loss over the minibatch and gradients for every trainable
    tensor (keys match iter_params)."""
    if tv_outs is None:
        tv_outs = tv_outputs(spec, docs)
    totals = [as_ids(doc).size for doc in docs]
    P, layout = _pooled_forward(spec, docs, totals, tv_outs, chop_len, chop_overlap,
                                for_backward=True)
    dropped = P * dropout_masks if dropout_masks is not None else P
    scores = spec.top.w @ dropped + spec.top.b[:, None]
    y = _targets(labels, spec.n_classes, spec.target_encoding, scores.dtype)
    diff = scores - y
    loss = float(np.sum(diff * diff)) / len(docs)
    dscores = (2.0 / len(docs)) * diff
    grads = {"top.w": dscores @ dropped.T, "top.b": dscores.sum(axis=1)}
    dP = spec.top.w.T @ dscores
    if dropout_masks is not None:
        dP = dP * dropout_masks
    rows = np.cumsum([b.out_dim * b.pooling.regions for b in spec.branches])
    for bi, (branch, parts, dp) in enumerate(zip(spec.branches, layout,
                                                 np.split(dP, rows[:-1]))):
        _branch_backward(branch, f"br{bi}", parts, docs, totals, dp, grads)
    return loss, grads


def confusion(spec: ModelSpec, dataset, tv_outs=None) -> np.ndarray:
    """(true class, predicted class) document counts."""
    docs = dataset.docs
    if not docs:
        raise DataError("cannot evaluate on an empty dataset")
    if any(doc.label is None for doc in docs):
        raise DataError("evaluation documents must all be labeled")
    counts = np.zeros((spec.n_classes, spec.n_classes), dtype=np.int64)
    np.add.at(counts, ([d.label for d in docs],
                       predict(batch_scores(spec, docs, tv_outs))), 1)
    return counts


def percent_wrong(counts: np.ndarray) -> float:
    """Error rate in percent from a confusion matrix."""
    total = int(counts.sum())
    return 100.0 * (total - int(np.trace(counts))) / total


def error_rate(spec: ModelSpec, dataset, tv_outs=None) -> float:
    """Percentage of misclassified documents."""
    return percent_wrong(confusion(spec, dataset, tv_outs))
