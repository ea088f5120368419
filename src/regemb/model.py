"""Model assembly: region-embedding branches + pooling + linear top layer.

A model is a list of branches (LSTM in either or both directions, or a
convolution layer), each followed by pooling over k contiguous regions of
the document; the pooled vectors are concatenated and classified by a
linear top layer under square loss.  Dropout on the top-layer input is
inverted (scaled at train time), so evaluation applies no scaling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import conv as conv_mod
from . import lstm as lstm_mod
from . import tvembed as tv_mod
from .corpus import Vocabulary
from .errors import DataError
from .numkernel import ColumnGrad, RngSpec, gaussian_init, scatter_add_columns

INIT_STD = 0.01


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
                for g in params.gates():
                    yield f"{pre}.{tag}.wx.{g}", params.wx[g]
                    yield f"{pre}.{tag}.wh.{g}", params.wh[g]
                    yield f"{pre}.{tag}.bias.{g}", params.bias[g]
                for sp in params.side:
                    for g in params.gates():
                        yield f"{pre}.{tag}.side.{sp.tv_id}.{g}", sp.w[g]
        else:
            yield f"{pre}.w", branch.params.w
            yield f"{pre}.b", branch.params.b
            for sp in branch.params.side:
                yield f"{pre}.side.{sp.tv_id}.{conv_mod.CONV_GATE}", \
                    sp.w[conv_mod.CONV_GATE]
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


def tv_outputs_for(spec: ModelSpec, doc) -> dict:
    """Frozen-embedding outputs for one document, keyed by tv id."""
    out = {}
    for tv_id in tv_ids_used(spec):
        emb = spec.tv_table.get(tv_id)
        if emb is None:
            raise DataError(f"model references unknown tv embedding {tv_id!r}")
        out[tv_id] = tv_mod.apply_tv(emb, doc)
    return out


def tv_output_list(spec: ModelSpec, docs) -> list | None:
    """Per-document tv outputs, or None when no branch has side channels."""
    if not tv_ids_used(spec):
        return None
    return [tv_outputs_for(spec, doc) for doc in docs]


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


def _shard_indices(n: int, workers: int) -> list:
    workers = max(1, min(workers, n))
    bounds = [n * i // workers for i in range(workers + 1)]
    return [list(range(bounds[i], bounds[i + 1]))
            for i in range(workers) if bounds[i + 1] > bounds[i]]


def _run_tasks(tasks, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool_:
        futures = [pool_.submit(task) for task in tasks]
        return [f.result() for f in futures]


def _part_sequences(branch, params, reverse, docs, tv_sub):
    inputs, sides = [], []
    for doc, tv in zip(docs, tv_sub):
        ids = doc.ids if hasattr(doc, "ids") else np.asarray(doc, dtype=np.int64)
        if branch.embedding is not None:
            x = branch.embedding[:, ids]
            inputs.append(x[:, ::-1] if reverse else x)
        else:
            inputs.append(ids[::-1] if reverse else ids)
        if params.side:
            if tv is None:
                raise DataError("branch has side channels but no tv outputs given")
            mats = [tv[sp.tv_id] for sp in params.side]
            sides.append([m[:, ::-1] for m in mats] if reverse else mats)
        else:
            sides.append(None)
    return inputs, (sides if params.side else None)


@dataclass
class _BranchRun:
    shards: list  # doc-index lists
    states: list  # per shard: list per part of engine run (lstm) or None (conv)


def _branch_forward(branch, docs, tv_list, chop_len, overlap, workers):
    tv_list = tv_list if tv_list is not None else [None] * len(docs)
    shards = _shard_indices(len(docs), workers)

    if isinstance(branch, ConvBranch):
        def conv_task(idx):
            hs = []
            for i in idx:
                sides = None
                if branch.params.side:
                    if tv_list[i] is None:
                        raise DataError("branch has side channels but no tv outputs given")
                    sides = [tv_list[i][sp.tv_id] for sp in branch.params.side]
                hs.append(conv_mod.conv_forward(branch.params, docs[i], sides))
            return hs

        results = _run_tasks([lambda idx=idx: conv_task(idx) for idx in shards], workers)
        h_docs = [None] * len(docs)
        for idx, hs in zip(shards, results):
            for i, h in zip(idx, hs):
                h_docs[i] = h
        return h_docs, _BranchRun(shards, [None] * len(shards))

    parts = branch.parts()

    def lstm_task(idx):
        sub_docs = [docs[i] for i in idx]
        sub_tv = [tv_list[i] for i in idx]
        part_h, part_runs = [], []
        for tag, params, reverse in parts:
            inputs, sides = _part_sequences(branch, params, reverse, sub_docs, sub_tv)
            hs, run = lstm_mod.batch_forward_docs(params, inputs, sides,
                                                  chop_len, overlap)
            if reverse:
                hs = [h[:, ::-1] for h in hs]
            part_h.append(hs)
            part_runs.append(run)
        return part_h, part_runs

    results = _run_tasks([lambda idx=idx: lstm_task(idx) for idx in shards], workers)
    h_docs = [None] * len(docs)
    states = []
    for idx, (part_h, part_runs) in zip(shards, results):
        states.append(part_runs)
        for pos, i in enumerate(idx):
            h_docs[i] = np.concatenate([hs[pos] for hs in part_h], axis=0)
    return h_docs, _BranchRun(shards, states)


def _sum_in_order(values):
    """Shard totals added in shard order, as dense `total += value` would."""
    if isinstance(values[0], ColumnGrad):
        return ColumnGrad.sum(values)
    total = values[0]
    for value in values[1:]:
        total += value
    return total


def _branch_backward(branch, prefix, run, docs, tv_list, h_docs, dh_docs,
                     workers, grads: dict):
    if not docs:
        return
    tv_list = tv_list if tv_list is not None else [None] * len(docs)

    if isinstance(branch, ConvBranch):
        # one sequential pass: the sums do not depend on --workers
        params = branch.params
        w_grads = []
        b_grad = np.zeros_like(params.b)
        side_grads = [np.zeros_like(sp.w[conv_mod.CONV_GATE]) for sp in params.side]
        for i in range(len(docs)):
            sides = None
            if params.side:
                sides = [tv_list[i][sp.tv_id] for sp in params.side]
            cg, _ = conv_mod.backward_from_mask(params, docs[i], h_docs[i] > 0,
                                                dh_docs[i], sides)
            w_grads.append(cg.w)
            b_grad += cg.b
            for total, sg in zip(side_grads, cg.side):
                total += sg[conv_mod.CONV_GATE]
        grads[f"{prefix}.w"] = ColumnGrad.sum(w_grads)
        grads[f"{prefix}.b"] = b_grad
        for sp, total in zip(params.side, side_grads):
            grads[f"{prefix}.side.{sp.tv_id}.{conv_mod.CONV_GATE}"] = total
        return

    parts = branch.parts()
    want_emb = branch.embedding is not None and branch.train_embedding
    row_split = np.cumsum([0] + [p.units for _, p, _ in parts])

    def lstm_task(shard_no):
        idx = run.shards[shard_no]
        out = {}
        if want_emb:
            emb_grad = ColumnGrad.over(branch.embedding.shape,
                                       [docs[i].ids for i in idx],
                                       branch.embedding.dtype)
            out[f"{prefix}.emb"] = emb_grad
        for pi, (tag, params, reverse) in enumerate(parts):
            ups = []
            for i in idx:
                up = dh_docs[i][row_split[pi]:row_split[pi + 1]]
                ups.append(up[:, ::-1] if reverse else up)
            lg, _, dx = lstm_mod.batch_backward_docs(
                run.states[shard_no][pi], ups, want_input_grad=want_emb)
            if want_emb:
                for pos, i in enumerate(idx):
                    ids = docs[i].ids
                    if reverse:
                        ids = ids[::-1]
                    scatter_add_columns(emb_grad.block, emb_grad.slots(ids), dx[pos])
            p2 = f"{prefix}.{tag}"
            for g in params.gates():
                out[f"{p2}.wx.{g}"] = lg.wx[g]
                out[f"{p2}.wh.{g}"] = lg.wh[g]
                out[f"{p2}.bias.{g}"] = lg.bias[g]
            for sp, sg in zip(params.side, lg.side):
                for g in params.gates():
                    out[f"{p2}.side.{sp.tv_id}.{g}"] = sg[g]
        return out

    results = _run_tasks(
        [lambda s=s: lstm_task(s) for s in range(len(run.shards))], workers)
    for name in results[0]:
        grads[name] = _sum_in_order([shard[name] for shard in results])


def _pooled_forward(spec, docs, tv_list, chop_len, overlap, workers):
    P = np.zeros((spec.doc_dim, len(docs)), dtype=spec.top.w.dtype)
    layout = []
    row = 0
    for branch in spec.branches:
        h_docs, run = _branch_forward(branch, docs, tv_list, chop_len, overlap,
                                      workers)
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


def model_forward(spec: ModelSpec, doc, mode: str = "eval", dropout=None,
                  chop_len=None, tv_outs=None) -> np.ndarray:
    """Class scores for one document.

    Chopping applies only in train mode; eval processes true sequences.
    `dropout` is an optional pre-drawn mask for the pooled document vector
    (train mode); evaluation applies no scaling (inverted dropout).
    An empty document yields the top layer applied to the zero vector.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    tv_list = None
    if tv_ids_used(spec):
        tv_list = [tv_outs if tv_outs is not None else tv_outputs_for(spec, doc)]
    P, _ = _pooled_forward(spec, [doc], tv_list,
                           chop_len if mode == "train" else None, 0, 1)
    vec = P[:, 0]
    if mode == "train" and dropout is not None:
        vec = vec * dropout
    return spec.top.w @ vec + spec.top.b


def batch_scores(spec: ModelSpec, docs, tv_list=None, workers: int = 1) -> np.ndarray:
    """Eval-mode scores for many documents: (n_classes, len(docs))."""
    if tv_list is None:
        tv_list = tv_output_list(spec, docs)
    P, _ = _pooled_forward(spec, docs, tv_list, None, 0, workers)
    return spec.top.w @ P + spec.top.b[:, None]


def batch_forward_backward(spec: ModelSpec, docs, labels, *, chop_len=None,
                           chop_overlap=0, dropout_masks=None, workers=1,
                           tv_list=None):
    """Mean square loss over the minibatch and gradients for every trainable
    tensor (keys match iter_params)."""
    if tv_list is None:
        tv_list = tv_output_list(spec, docs)
    P, layout = _pooled_forward(spec, docs, tv_list, chop_len, chop_overlap,
                                workers)
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
        _branch_backward(branch, f"br{bi}", run, docs, tv_list, h_docs, dh_docs,
                         workers, grads)
    for name, param in iter_params(spec):
        if name not in grads:
            grads[name] = np.zeros_like(param)
    return loss, grads


def confusion(spec: ModelSpec, dataset, tv_list=None, workers: int = 1,
              block: int = 512) -> np.ndarray:
    """(true class, predicted class) document counts, scored in blocks."""
    docs = dataset.docs
    if not docs:
        raise DataError("cannot evaluate on an empty dataset")
    if any(doc.label is None for doc in docs):
        raise DataError("evaluation documents must all be labeled")
    if tv_list is None:
        tv_list = tv_output_list(spec, docs)
    counts = np.zeros((spec.n_classes, spec.n_classes), dtype=np.int64)
    for lo in range(0, len(docs), block):
        chunk = docs[lo:lo + block]
        chunk_tv = tv_list[lo:lo + block] if tv_list is not None else None
        preds = np.argmax(batch_scores(spec, chunk, chunk_tv, workers), axis=0)
        np.add.at(counts, ([d.label for d in chunk], preds), 1)
    return counts


def percent_wrong(counts: np.ndarray) -> float:
    """Error rate in percent from a confusion matrix."""
    total = int(counts.sum())
    return 100.0 * (total - int(np.trace(counts))) / total


def error_rate(spec: ModelSpec, dataset, tv_list=None, workers: int = 1,
               block: int = 512) -> float:
    """Percentage of misclassified documents."""
    return percent_wrong(confusion(spec, dataset, tv_list, workers, block))
