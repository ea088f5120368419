"""Convolutional region embedding over one-hot text input.

Each document location gets relu(W x + side terms + b) where x is either
the concatenation of the region's one-hot vectors (seq input, order kept)
or the region's bag-of-words count vector (bow input).  Output is produced
at every token position (stride 1) with zero padding past the right edge,
so columns align index-for-index with LSTM time steps.

Documents are processed by one batched engine: a minibatch's documents lie
side by side as the columns of one matrix, and region offset o of the
location at position p reads position p + o only while that stays inside
p's document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import as_ids
from .numkernel import (
    ColumnGrad,
    RngSpec,
    by_doc,
    gaussian_init,
    mapped_empty,
    scatter_add_columns,
    side_by_side,
)

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


class ConvGrads(NamedTuple):
    w: ColumnGrad  # only the columns of the region's words are nonzero
    b: np.ndarray
    side: list  # per side channel, (maps, dim)


@dataclass
class _ConvRun:
    params: ConvParams
    totals: list  # per document length
    ids: np.ndarray  # (N,) word ids of the documents side by side
    side_values: list  # per side channel, (dim, N)
    h: np.ndarray  # (maps, N) outputs; h > 0 is the relu mask


def _room(totals) -> np.ndarray:
    """Per position, the positions left in its document from it on."""
    totals = np.asarray(totals, dtype=np.int64)
    return np.repeat(np.cumsum(totals), totals) - np.arange(totals.sum())


def _offset_columns(params, ids, offset):
    """The w columns that region offset `offset` reads at positions
    0..N-offset-1: offset*vocab + id for seq input, id for bow."""
    stride = params.vocab_size if params.input_kind == "seq" else 0
    return offset * stride + ids[offset:]


def pre_activation(params: ConvParams, ids, totals, side_values=()) -> np.ndarray:
    """W x_l + side terms + b at every location of the documents laid side
    by side (`ids`, per-document `totals`), before the relu: (maps, N).

    Offsets past the first are gathered one row at a time into a one-row
    buffer, so no second (maps, N) array is ever held."""
    n = ids.size
    pre = mapped_empty((params.maps, n), params.dtype)
    # mode="clip" lets take write straight into `out` without buffering
    np.take(params.w, _offset_columns(params, ids, 0), axis=1, out=pre, mode="clip")
    pre += params.b[:, None]
    room = _room(totals)
    buf = np.empty(max(n - 1, 0), dtype=params.dtype)
    for offset in range(1, min(params.region_size, n)):
        cols = _offset_columns(params, ids, offset)
        past = np.flatnonzero(room[:n - offset] <= offset)  # reads past the doc's end
        dest = buf[:n - offset]
        for pre_row, w_row in zip(pre, params.w):
            np.take(w_row, cols, out=dest, mode="clip")
            dest[past] = 0
            pre_row[:n - offset] += dest
    for sp, sv in zip(params.side, side_values):
        pre += sp.w @ sv
    return pre


def conv_forward(params: ConvParams, docs, side_list=None):
    """Region embeddings of many documents in one batched pass.

    docs: TokenSequences or id arrays; side_list: per document a list of
    (dim_j, T) matrices matching params.side, or None when the layer has no
    side channels.  Returns per-document (maps, T) outputs, plus the run
    that backward_from_mask consumes.
    """
    ids_list = [as_ids(doc) for doc in docs]
    totals = [ids.size for ids in ids_list]
    side_list = side_list if side_list is not None else [None] * len(ids_list)
    if any(len(sides or ()) != len(params.side) for sides in side_list):
        raise ValueError(f"expected {len(params.side)} side sequences per document")
    ids = np.concatenate([np.zeros(0, np.int64), *ids_list])
    if ids.size and (ids.min() < 0 or ids.max() >= params.vocab_size):
        raise ValueError(f"word ids must lie in [0, {params.vocab_size})")
    side_values = [side_by_side([sides[j] for sides in side_list], sp.dim, totals,
                                params.dtype, f"side input {j}")
                   for j, sp in enumerate(params.side)]
    h = pre_activation(params, ids, totals, side_values)
    np.maximum(h, 0, out=h)
    return by_doc(h, totals), _ConvRun(params, totals, ids, side_values, h)


def backward_from_mask(run: _ConvRun, upstreams) -> ConvGrads:
    """Exact gradients of sum over documents of upstream . outputs for a
    conv_forward run; upstreams are per document (maps, T).  The relu
    subgradient at zero pre-activation is zero.  One scatter per region
    offset."""
    params = run.params
    n = run.ids.size
    dpre = side_by_side(upstreams, params.maps, run.totals, params.dtype, "upstream")
    dpre *= run.h > 0
    room = _room(run.totals)
    # per offset: the positions whose region reaches that far inside their
    # document, and the w columns they read there
    reads = []
    for offset in range(min(params.region_size, n)):
        pos = np.flatnonzero(room[:n - offset] > offset)
        reads.append((pos, _offset_columns(params, run.ids, offset)[pos]))
    w_grad = ColumnGrad.over(params.w.shape, [cols for _, cols in reads], params.dtype)
    for pos, cols in reads:
        scatter_add_columns(w_grad.block, w_grad.slots(cols), dpre[:, pos])
    return ConvGrads(w_grad, dpre.sum(axis=1),
                     [dpre @ sv.T for sv in run.side_values])
