"""Convolutional region embedding over one-hot text input.

Each document location gets relu(W x + side terms + b) where x is either
the concatenation of the region's one-hot vectors (seq input, order kept)
or the region's bag-of-words count vector (bow input).  Output is produced
at every token position (stride 1) with zero padding past the right edge,
so columns align index-for-index with LSTM time steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import TokenSequence
from .lstm import SideInputParams
from .numkernel import ColumnGrad, RngSpec, gaussian_init, relu, scatter_add_columns

INIT_STD = 0.01


@dataclass
class ConvParams:
    maps: int  # feature-map count == output dimension
    region_size: int
    input_kind: str  # "seq" | "bow"
    vocab_size: int
    w: np.ndarray  # (maps, region_size*vocab) for seq, (maps, vocab) for bow
    b: np.ndarray  # (maps,)
    side: list = field(default_factory=list)

    def __post_init__(self):
        expected = self.vocab_size * (self.region_size if self.input_kind == "seq" else 1)
        if self.input_kind not in ("seq", "bow"):
            raise ValueError(f"unknown conv input kind {self.input_kind!r}")
        if self.w.shape != (self.maps, expected):
            raise ValueError(f"weight shape {self.w.shape} != ({self.maps}, {expected})")
        if self.b.shape != (self.maps,):
            raise ValueError(f"bias must have dim {self.maps}")

    @property
    def dtype(self):
        return self.w.dtype

    @classmethod
    def create(cls, maps, region_size, input_kind, vocab_size, rng=None, std=INIT_STD):
        gen = rng.stream("init") if isinstance(rng, RngSpec) else rng
        cols = vocab_size * (region_size if input_kind == "seq" else 1)
        w = gaussian_init(maps, cols, std, gen)
        return cls(maps, region_size, input_kind, vocab_size, w,
                   np.zeros(maps, dtype=w.dtype))

    def copy(self) -> "ConvParams":
        return ConvParams(
            self.maps, self.region_size, self.input_kind, self.vocab_size,
            self.w.copy(), self.b.copy(),
            [SideInputParams(s.tv_id, s.dim, s.w.copy()) for s in self.side],
        )


@dataclass
class ConvGrads:
    w: ColumnGrad  # only the columns of the region's words are nonzero
    b: np.ndarray
    side: list  # per side channel, (maps, dim)


def _offset_weights(params, offset):
    if params.input_kind == "bow":
        return params.w
    v = params.vocab_size
    return params.w[:, offset * v:(offset + 1) * v]


def _as_ids(ids_or_seq):
    if isinstance(ids_or_seq, TokenSequence):
        return ids_or_seq.ids
    return np.asarray(ids_or_seq, dtype=np.int64)


def pre_activation(params: ConvParams, ids_or_seq, side_seq=None) -> np.ndarray:
    """W x_l + side terms + b for every location l, before the relu."""
    ids = _as_ids(ids_or_seq)
    total = len(ids)
    if side_seq is None:
        side_seq = []
    if len(side_seq) != len(params.side):
        raise ValueError(f"expected {len(params.side)} side sequences, got {len(side_seq)}")
    pre = np.repeat(params.b[:, None], total, axis=1)
    for offset in range(params.region_size):
        if offset >= total:
            break
        wo = _offset_weights(params, offset)
        pre[:, :total - offset] += wo[:, ids[offset:]]
    for sp, sv in zip(params.side, side_seq):
        sv = np.asarray(sv, dtype=params.dtype)
        if sv.shape != (sp.dim, total):
            raise ValueError(f"side input: expected ({sp.dim}, {total}), got {sv.shape}")
        pre += sp.w @ sv
    return pre


def conv_forward(params: ConvParams, ids_or_seq, side_seq=None) -> np.ndarray:
    """Region embedding at every location: (maps, T)."""
    return relu(pre_activation(params, ids_or_seq, side_seq))


def backward_from_mask(params, ids_or_seq, mask, upstream, side_seq=None,
                       want_side_values_grad=False):
    """Gradients given the relu pass-through mask (pre-activation > 0)."""
    ids = _as_ids(ids_or_seq)
    total = len(ids)
    if side_seq is None:
        side_seq = []
    dpre = np.asarray(upstream, dtype=params.dtype) * mask
    # offset o of a seq region reads column o*vocab + id; bow reads column id
    stride = params.vocab_size if params.input_kind == "seq" else 0
    col_ids = [offset * stride + ids[offset:]
               for offset in range(min(params.region_size, total))]
    w_grad = ColumnGrad.over(params.w.shape, col_ids, params.dtype)
    for offset, cols in enumerate(col_ids):
        scatter_add_columns(w_grad.block, w_grad.slots(cols), dpre[:, :total - offset])
    grads = ConvGrads(w_grad, dpre.sum(axis=1),
                      [dpre @ np.asarray(sv, dtype=params.dtype).T for sv in side_seq])
    side_value_grads = None
    if want_side_values_grad:
        side_value_grads = [sp.w.T @ dpre for sp in params.side]
    return grads, side_value_grads


def batch_backward_from_mask(params, docs, masks, upstreams, side_list=None):
    """Minibatch gradients: backward_from_mask per document, summed in
    document order (w as one ColumnGrad)."""
    if side_list is None:
        side_list = [None] * len(docs)
    w_grads = []
    b_grad = np.zeros_like(params.b)
    side_grads = [np.zeros_like(sp.w) for sp in params.side]
    for doc, mask, up, sides in zip(docs, masks, upstreams, side_list):
        cg, _ = backward_from_mask(params, doc, mask, up, sides)
        w_grads.append(cg.w)
        b_grad += cg.b
        for total, sg in zip(side_grads, cg.side):
            total += sg
    return ConvGrads(ColumnGrad.sum(w_grads), b_grad, side_grads)


def conv_gradients(params: ConvParams, ids_or_seq, upstream, side_seq=None,
                   want_side_values_grad=False):
    """Exact gradients; relu subgradient at zero pre-activation is zero."""
    upstream = np.asarray(upstream, dtype=params.dtype)
    ids = _as_ids(ids_or_seq)
    if upstream.shape != (params.maps, len(ids)):
        raise ValueError(f"upstream must be ({params.maps}, {len(ids)})")
    mask = pre_activation(params, ids, side_seq) > 0
    return backward_from_mask(params, ids, mask, upstream, side_seq,
                              want_side_values_grad)
