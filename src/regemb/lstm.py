"""LSTM region embeddings over one-hot or dense word inputs.

Two cell variants: the full four-gate cell
    i_t = sig(Wx_i x_t + Wh_i h_{t-1} + b_i)        (input gate)
    o_t = sig(Wx_o x_t + Wh_o h_{t-1} + b_o)        (output gate)
    f_t = sig(Wx_f x_t + Wh_f h_{t-1} + b_f)        (forget gate)
    u_t = tanh(Wx_u x_t + Wh_u h_{t-1} + b_u)       (candidate update)
    c_t = i_t * u_t + f_t * c_{t-1}
    h_t = o_t * tanh(c_t)
and the simplified cell with input/output gates removed (fixed to ones):
    c_t = u_t + f_t * c_{t-1},   h_t = tanh(c_t)
Side channels add trainable terms W~_jg @ xtilde_jt inside every gate
pre-activation.  Every tensor stacks the gates as row blocks, so all
gates of a step come from one matrix product.

Sequences are processed by a batched engine that sorts segments by length
and steps a shrinking active prefix, so many segments (from chopping or
from many documents) share each recurrence step's matrix products.
Gradients are exact backpropagation through time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import TokenSequence
from .numkernel import (
    ColumnGrad,
    RngSpec,
    SparseVector,
    affine_dense,
    affine_sparse,
    gaussian_init,
    real_dtype,
    scatter_add_columns,
    sigmoid,
)

# The candidate update "u" is the last gate of either variant: every row
# block above it goes through a sigmoid, the last one through a tanh.
GATES = {"full": ("i", "o", "f", "u"), "simplified": ("f", "u")}

INIT_STD = 0.01


@dataclass
class SideInputParams:
    """Trainable (rows, dim) matrix feeding one frozen embedding's output
    into a layer: the rows are an LSTM cell's stacked gate rows or a
    convolution layer's maps."""

    tv_id: str
    dim: int
    w: np.ndarray


@dataclass
class LstmParams:
    """One cell.  Each tensor stacks a row block of `units` rows per gate,
    in GATES order: wx (G*units, input_dim), wh (G*units, units) and bias
    (G*units,); so does every side matrix."""

    variant: str
    units: int
    input_dim: int
    input_kind: str  # "one-hot" | "dense"
    wx: np.ndarray
    wh: np.ndarray
    bias: np.ndarray
    side: list = field(default_factory=list)

    def __post_init__(self):
        rows = len(self.gates()) * self.units
        for name, shape in (("wx", (rows, self.input_dim)), ("wh", (rows, self.units)),
                            ("bias", (rows,))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{self.variant} cell {name}: expected shape {shape}, "
                                 f"got {getattr(self, name).shape}")

    def gates(self) -> tuple:
        if self.variant not in GATES:
            raise ValueError(f"unknown LSTM variant {self.variant!r}")
        return GATES[self.variant]

    @property
    def dtype(self):
        return self.wx.dtype

    @classmethod
    def create(cls, variant, units, input_dim, input_kind="one-hot", rng=None, std=INIT_STD):
        gen = rng.stream("init") if isinstance(rng, RngSpec) else rng
        wx, wh = [], []
        for _ in GATES[variant]:  # the draws alternate wx, wh gate by gate
            wx.append(gaussian_init(units, input_dim, std, gen))
            wh.append(gaussian_init(units, units, std, gen))
        wx = np.concatenate(wx)
        return cls(variant, units, input_dim, input_kind, wx, np.concatenate(wh),
                   np.zeros(wx.shape[0], dtype=wx.dtype))

    def copy(self) -> "LstmParams":
        return LstmParams(
            self.variant, self.units, self.input_dim, self.input_kind,
            self.wx.copy(), self.wh.copy(), self.bias.copy(),
            [SideInputParams(s.tv_id, s.dim, s.w.copy()) for s in self.side],
        )


def _gate_rows(params) -> dict:
    """Gate name -> its row block in the stacked tensors."""
    u = params.units
    return {g: slice(k * u, (k + 1) * u) for k, g in enumerate(params.gates())}


def gate_tensors(params, prefix="", grads=None):
    """(name, row block) for every per-gate tensor of a cell, in the saved
    order: wx, wh and bias of each gate, then each side channel's gates.
    The blocks view the tensors of `params`, or those of `grads` (an
    LstmGrads of this cell) when given."""
    src = params if grads is None else grads
    sides = [sp.w for sp in params.side] if grads is None else grads.side
    rows = _gate_rows(params)
    for g, block in rows.items():
        for kind in ("wx", "wh", "bias"):
            yield f"{prefix}{kind}.{g}", getattr(src, kind)[block]
    for sp, w in zip(params.side, sides):
        for g, block in rows.items():
            yield f"{prefix}side.{sp.tv_id}.{g}", w[block]


@dataclass
class LstmState:
    c: np.ndarray
    h: np.ndarray

    @classmethod
    def zeros(cls, units, dtype=None) -> "LstmState":
        dt = dtype if dtype is not None else real_dtype()
        return cls(np.zeros(units, dtype=dt), np.zeros(units, dtype=dt))


@dataclass(frozen=True)
class GateOverride:
    """Replace the input and/or output gate values with all-ones vectors."""

    input_gate_one: bool = False
    output_gate_one: bool = False

    def fixed_rows(self, rows: dict) -> list:
        """Row blocks of the gates held at one (none in a simplified cell)."""
        held = (("i", self.input_gate_one), ("o", self.output_gate_one))
        return [rows[g] for g, on in held if on and g in rows]


@dataclass
class LstmGrads:
    """Gradients of one cell, stacked like its LstmParams."""

    wx: ColumnGrad | np.ndarray  # a ColumnGrad for one-hot cells
    wh: np.ndarray
    bias: np.ndarray
    side: list  # per side channel, (rows, dim)


def lstm_step(params, x, prev: LstmState, side_vals=(), override=None) -> LstmState:
    """One recurrence step; reference implementation for the batched engine."""
    x_dim = x.dim if isinstance(x, SparseVector) else np.asarray(x).shape[0]
    if x_dim != params.input_dim:
        raise ValueError(f"input dim {x_dim} != params input_dim {params.input_dim}")
    if len(side_vals) != len(params.side):
        raise ValueError(f"expected {len(params.side)} side inputs, got {len(side_vals)}")
    if isinstance(x, SparseVector):
        pre = affine_sparse(params.wx, params.bias, x)
    else:
        pre = affine_dense(params.wx, params.bias, np.asarray(x))
    pre = pre + params.wh @ prev.h
    for sp, val in zip(params.side, side_vals):
        pre = pre + sp.w @ val
    rows = _gate_rows(params)
    f = sigmoid(pre[rows["f"]])
    u = np.tanh(pre[rows["u"]])
    if params.variant == "simplified":
        c = u + f * prev.c
        return LstmState(c, np.tanh(c))
    ov = override or GateOverride()
    ones = np.ones(params.units, dtype=params.dtype)
    i = ones if ov.input_gate_one else sigmoid(pre[rows["i"]])
    o = ones if ov.output_gate_one else sigmoid(pre[rows["o"]])
    c = i * u + f * prev.c
    return LstmState(c, o * np.tanh(c))


# ---------------------------------------------------------------------------
# Batched engine.
#
# Segments are sorted by length (descending); at step t only the prefix of
# segments longer than t is active, so state slices stay contiguous.  The
# input and side contributions to every gate's pre-activation are
# precomputed in one gather or product over all valid (step, segment)
# pairs; each step then makes one Wh product over the stacked gates.
# ---------------------------------------------------------------------------


@dataclass
class _BatchCache:
    params: LstmParams
    override: GateOverride
    order: np.ndarray  # sorted position -> original segment index
    lengths: np.ndarray  # original order
    sorted_lengths: np.ndarray
    widths: np.ndarray  # (t_max,) active prefix size per step
    t_idx: np.ndarray  # valid (step, sorted-segment) pairs, step-major
    k_idx: np.ndarray
    flat_ids: np.ndarray | None  # (n_valid,) word ids, one-hot inputs
    x_flat: np.ndarray | None  # (n_valid, input_dim), dense inputs
    sv_flat: list  # per side channel: (n_valid, dim)
    gates: np.ndarray  # (t_max, G*units, n_seqs) gate activations
    tc: np.ndarray  # (t_max, units, n_seqs) tanh(c_t)
    # c and h hold the zero initial state at index 0: step t reads index t
    # and writes index t + 1
    c: np.ndarray  # (t_max + 1, units, n_seqs)
    h: np.ndarray


def _normalize_input(params, item):
    if isinstance(item, TokenSequence):
        item = item.ids
    arr = np.asarray(item)
    if params.input_kind == "one-hot":
        if arr.ndim != 1:
            raise ValueError("one-hot input must be a 1-d id sequence")
        return arr.astype(np.int64, copy=False)
    if arr.ndim != 2 or arr.shape[0] != params.input_dim:
        raise ValueError(f"dense input must be ({params.input_dim}, T)")
    return arr


def batch_forward(params, seqs, side_seqs=None, override=None):
    """Forward over many segments at once.

    seqs: list of id arrays (one-hot) or (input_dim, T) matrices (dense).
    side_seqs: per segment, a list of (dim_j, T) matrices matching
    params.side; None when the cell has no side channels.
    Returns per-segment output matrices (units, T) in the original order,
    plus the cache consumed by batch_backward.
    """
    override = override or GateOverride()
    seqs = [_normalize_input(params, s) for s in seqs]
    n = len(seqs)
    units = params.units
    dt = params.dtype
    one_hot = params.input_kind == "one-hot"
    if side_seqs is None:
        side_seqs = [[] for _ in seqs]
    for sides in side_seqs:
        if len(sides) != len(params.side):
            raise ValueError(f"expected {len(params.side)} side sequences per segment")

    lengths = np.array([(s.shape[0] if one_hot else s.shape[1]) for s in seqs], dtype=np.int64)
    t_max = int(lengths.max()) if n else 0
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    widths = np.searchsorted(-sorted_lengths, -np.arange(t_max), side="left")
    n_valid = int(widths.sum())
    t_idx = np.repeat(np.arange(t_max), widths)
    k_idx = np.arange(n_valid) - np.repeat(np.cumsum(widths) - widths, widths)

    flat_ids = None
    x_flat = None
    if one_hot:
        id_pad = np.zeros((n, t_max), dtype=np.int64)
        for pos, k in enumerate(order):
            id_pad[pos, :lengths[k]] = seqs[k]
        flat_ids = id_pad[k_idx, t_idx]
        zf = params.wx[:, flat_ids]
    else:
        x_pad = np.zeros((n, params.input_dim, t_max), dtype=dt)
        for pos, k in enumerate(order):
            x_pad[pos, :, :lengths[k]] = seqs[k]
        x_flat = x_pad[k_idx, :, t_idx]
        zf = params.wx @ x_flat.T

    sv_flat = []
    for j, sp in enumerate(params.side):
        sv_pad = np.zeros((n, sp.dim, t_max), dtype=dt)
        for pos, k in enumerate(order):
            mat = np.asarray(side_seqs[k][j], dtype=dt)
            if mat.shape != (sp.dim, lengths[k]):
                raise ValueError(
                    f"side input {j}: expected ({sp.dim}, {lengths[k]}), got {mat.shape}"
                )
            sv_pad[pos, :, :lengths[k]] = mat
        sv_flat.append(sv_pad[k_idx, :, t_idx])
        zf += sp.w @ sv_flat[-1].T

    n_rows = params.wx.shape[0]
    z = np.zeros((t_max, n_rows, n), dtype=dt)
    z[t_idx, :, k_idx] = zf.T
    z += params.bias[None, :, None]

    rows = _gate_rows(params)
    fixed = override.fixed_rows(rows)
    full = params.variant == "full"
    gates = np.zeros((t_max, n_rows, n), dtype=dt)
    tcs = np.zeros((t_max, units, n), dtype=dt)
    cs = np.zeros((t_max + 1, units, n), dtype=dt)
    hs = np.zeros((t_max + 1, units, n), dtype=dt)

    for t in range(t_max):
        nt = widths[t]
        pre = z[t][:, :nt] + params.wh @ hs[t][:, :nt]
        act = gates[t][:, :nt]
        act[:-units] = sigmoid(pre[:-units])
        act[-units:] = np.tanh(pre[-units:])
        for block in fixed:
            act[block] = 1.0
        f, u = act[rows["f"]], act[rows["u"]]
        if full:
            c = act[rows["i"]] * u + f * cs[t][:, :nt]
            tc = np.tanh(c)
            h = act[rows["o"]] * tc
        else:
            c = u + f * cs[t][:, :nt]
            tc = np.tanh(c)
            h = tc
        tcs[t][:, :nt] = tc
        cs[t + 1][:, :nt] = c
        hs[t + 1][:, :nt] = h

    outs = [None] * n
    for pos, k in enumerate(order):
        outs[k] = np.ascontiguousarray(hs[1:lengths[k] + 1, :, pos].T)

    cache = _BatchCache(params, override, order, lengths, sorted_lengths, widths,
                        t_idx, k_idx, flat_ids, x_flat, sv_flat, gates, tcs, cs, hs)
    return outs, cache


def _unpack_rows(flat, cache):
    """Split step-major (n_valid, dim) rows into per-segment (dim, T) matrices."""
    by_seg = np.argsort(cache.k_idx, kind="stable")
    out = [None] * len(cache.lengths)
    offset = 0
    for pos, k in enumerate(cache.order):
        length = int(cache.sorted_lengths[pos])
        rows = flat[by_seg[offset:offset + length]]
        out[k] = np.ascontiguousarray(rows.T)
        offset += length
    return out


def batch_backward(cache, upstreams, want_side_values_grad=False, want_input_grad=False):
    """Exact BPTT for a batch_forward pass.

    upstreams: per segment (original order) dL/dh matrices (units, T).
    Returns (LstmGrads, per-segment side-value grads or None, per-segment
    input grads or None).
    """
    params = cache.params
    units = params.units
    dt = params.dtype
    n = len(cache.lengths)
    widths = cache.widths
    t_max = len(widths)
    if want_input_grad and params.input_kind != "dense":
        raise ValueError("input gradients only exist for dense inputs")

    up = np.zeros((t_max, units, n), dtype=dt)
    for pos, k in enumerate(cache.order):
        length = int(cache.sorted_lengths[pos])
        mat = np.asarray(upstreams[k], dtype=dt)
        if mat.shape != (units, length):
            raise ValueError(f"upstream for segment {k}: expected ({units}, {length})")
        up[:length, :, pos] = mat.T

    rows = _gate_rows(params)
    fixed = cache.override.fixed_rows(rows)
    full = params.variant == "full"
    dpre_all = np.zeros_like(cache.gates)
    dh_carry = np.zeros((units, n), dtype=dt)
    dc_carry = np.zeros((units, n), dtype=dt)

    for t in range(t_max - 1, -1, -1):
        nt = widths[t]
        act = cache.gates[t][:, :nt]
        f, u = act[rows["f"]], act[rows["u"]]
        tc = cache.tc[t][:, :nt]
        dh = up[t][:, :nt] + dh_carry[:, :nt]
        dpre = dpre_all[t][:, :nt]
        if full:
            i, o = act[rows["i"]], act[rows["o"]]
            dc = dc_carry[:, :nt] + dh * o * (1.0 - tc * tc)
            dpre[rows["o"]] = dh * tc * o * (1.0 - o)
            dpre[rows["i"]] = dc * u * i * (1.0 - i)
            du = dc * i
        else:
            dc = dc_carry[:, :nt] + dh * (1.0 - tc * tc)
            du = dc
        dpre[rows["f"]] = dc * cache.c[t][:, :nt] * f * (1.0 - f)
        dpre[rows["u"]] = du * (1.0 - u * u)
        for block in fixed:
            dpre[block] = 0.0
        dc_carry[:, :nt] = dc * f
        dh_carry[:, :nt] = params.wh.T @ dpre

    flat = dpre_all[cache.t_idx, :, cache.k_idx]  # (n_valid, G*units)
    if params.input_kind == "one-hot":
        wx = ColumnGrad.over(params.wx.shape, [cache.flat_ids], dt)
        scatter_add_columns(wx.block, wx.slots(cache.flat_ids), flat.T)
    else:
        wx = flat.T @ cache.x_flat
    grads = LstmGrads(wx, flat.T @ cache.h[cache.t_idx, :, cache.k_idx],
                      flat.sum(axis=0), [flat.T @ sv for sv in cache.sv_flat])

    side_value_grads = None
    if want_side_values_grad:
        per_j = [_unpack_rows(flat @ sp.w, cache) for sp in params.side]
        side_value_grads = [[dsv[k] for dsv in per_j] for k in range(n)]
    input_grads = _unpack_rows(flat @ params.wx, cache) if want_input_grad else None
    return grads, side_value_grads, input_grads


# ---------------------------------------------------------------------------
# Single-sequence operations (wrappers over the batched engine).
# ---------------------------------------------------------------------------


def plan_segments(total: int, seg_len, overlap: int = 0):
    """(start, emit_start, end) spans covering [0, total).

    Without overlap, start == emit_start.  With overlap, each segment after
    the first begins `overlap` positions early as warm-up context; outputs
    are emitted only from emit_start so every position is emitted once.
    """
    if seg_len is None or seg_len >= total:
        return [(0, 0, total)]
    if seg_len < 1:
        raise ValueError("seg_len must be >= 1")
    if not 0 <= overlap < seg_len:
        raise ValueError("overlap must satisfy 0 <= overlap < seg_len")
    plan = []
    for emit in range(0, total, seg_len):
        start = max(emit - overlap, 0)
        plan.append((start, emit, min(emit + seg_len, total)))
    return plan


def _slice_input(params, inputs, start, end):
    return inputs[start:end] if params.input_kind == "one-hot" else inputs[:, start:end]


def _doc_len(params, inputs):
    return inputs.shape[0] if params.input_kind == "one-hot" else inputs.shape[1]


@dataclass
class _DocsRun:
    params: LstmParams
    plans: list  # per doc: list of (start, emit, end)
    totals: list
    seg_start: list  # index of the doc's first segment in the flat lists
    cache: _BatchCache


def batch_forward_docs(params, inputs_list, side_list=None, seg_len=None,
                       overlap=0, override=None):
    """Chop every document, run all segments through one batched pass.

    Returns per-document (units, T) outputs indexed by absolute position
    plus the run state consumed by batch_backward_docs.
    """
    inputs_list = [_normalize_input(params, x) for x in inputs_list]
    if side_list is None:
        side_list = [None] * len(inputs_list)
    plans, totals, seg_start = [], [], []
    seg_inputs, seg_sides = [], []
    for inputs, sides in zip(inputs_list, side_list):
        total = _doc_len(params, inputs)
        if params.side and sides is None:
            raise ValueError("cell has side channels but no side sequences given")
        plan = plan_segments(total, seg_len, overlap) if total else []
        plans.append(plan)
        totals.append(total)
        seg_start.append(len(seg_inputs))
        for s, _, e in plan:
            seg_inputs.append(_slice_input(params, inputs, s, e))
            if params.side:
                seg_sides.append([np.asarray(sv)[:, s:e] for sv in sides])
            else:
                seg_sides.append([])
    outs, cache = batch_forward(params, seg_inputs, seg_sides, override)
    h_docs = []
    for i, (plan, total) in enumerate(zip(plans, totals)):
        h = np.zeros((params.units, total), dtype=params.dtype)
        for j, (s, emit, e) in enumerate(plan):
            h[:, emit:e] = outs[seg_start[i] + j][:, emit - s:]
        h_docs.append(h)
    return h_docs, _DocsRun(params, plans, totals, seg_start, cache)


def batch_backward_docs(run, upstreams, want_side_values_grad=False,
                        want_input_grad=False):
    """BPTT over a batch_forward_docs pass; per-doc upstream (units, T)."""
    params = run.params
    dt = params.dtype
    seg_ups = []
    for i, plan in enumerate(run.plans):
        up = np.asarray(upstreams[i], dtype=dt)
        if up.shape != (params.units, run.totals[i]):
            raise ValueError(f"upstream for doc {i}: expected ({params.units}, {run.totals[i]})")
        for s, emit, e in plan:
            seg_up = np.zeros((params.units, e - s), dtype=dt)
            seg_up[:, emit - s:] = up[:, emit:e]
            seg_ups.append(seg_up)
    grads, dsv_segs, dx_segs = batch_backward(run.cache, seg_ups,
                                              want_side_values_grad, want_input_grad)
    dsv_docs = None
    if want_side_values_grad:
        dsv_docs = []
        for i, plan in enumerate(run.plans):
            per_j = [np.zeros((sp.dim, run.totals[i]), dtype=dt) for sp in params.side]
            for j_seg, (s, _, e) in enumerate(plan):
                seg = dsv_segs[run.seg_start[i] + j_seg]
                for j in range(len(params.side)):
                    per_j[j][:, s:e] += seg[j]
            dsv_docs.append(per_j)
    dx_docs = None
    if want_input_grad:
        dx_docs = []
        for i, plan in enumerate(run.plans):
            dx = np.zeros((params.input_dim, run.totals[i]), dtype=dt)
            for j_seg, (s, _, e) in enumerate(plan):
                dx[:, s:e] += dx_segs[run.seg_start[i] + j_seg]
            dx_docs.append(dx)
    return grads, dsv_docs, dx_docs


def forward_sequence(params, inputs, seg_len=None, side_seq=None, override=None, overlap=0):
    """Per-step outputs h_t as a (units, T) matrix, zero initial state.

    With seg_len set, state is reset at segment boundaries (the chopping
    training approximation); outputs stay indexed by absolute position.
    """
    if side_seq is not None and len(side_seq) != len(params.side):
        raise ValueError(f"expected {len(params.side)} side sequences")
    h_docs, _ = batch_forward_docs(params, [inputs], [side_seq], seg_len, overlap, override)
    return h_docs[0]


def reverse_forward(params, inputs, seg_len=None, side_seq=None, override=None, overlap=0):
    """forward_sequence on the reversed sequence, re-indexed to original positions."""
    inputs = _normalize_input(params, inputs)
    rev = inputs[::-1] if params.input_kind == "one-hot" else inputs[:, ::-1]
    rev_side = None
    if side_seq is not None:
        rev_side = [np.asarray(sv)[:, ::-1] for sv in side_seq]
    h = forward_sequence(params, rev, seg_len, rev_side, override, overlap)
    return h[:, ::-1].copy()


def sequence_gradients(params, inputs, upstream, seg_len=None, side_seq=None,
                       override=None, overlap=0, want_side_values_grad=False):
    """Exact gradients of sum_t upstream[:,t] . h_t w.r.t. all parameters.

    Returns (LstmGrads, side-value gradients) where the second item is a
    list of (dim_j, T) matrices (or None unless requested).
    """
    if side_seq is not None and len(side_seq) != len(params.side):
        raise ValueError(f"expected {len(params.side)} side sequences")
    _, run = batch_forward_docs(params, [inputs], [side_seq], seg_len, overlap, override)
    grads, dsv_docs, _ = batch_backward_docs(run, [upstream], want_side_values_grad)
    return grads, (dsv_docs[0] if want_side_values_grad else None)


def fold_embedding(params: LstmParams, emb: np.ndarray) -> LstmParams:
    """Absorb a word embedding into the input weights: wx <- wx @ emb.

    The returned one-hot cell behaves identically to the dense cell applied
    to embedded inputs.
    """
    if params.input_kind != "dense":
        raise ValueError("fold_embedding expects a dense-input cell")
    if params.input_dim != emb.shape[0]:
        raise ValueError(f"embedding rows {emb.shape[0]} != input_dim {params.input_dim}")
    folded = params.copy()
    return LstmParams(
        params.variant, params.units, emb.shape[1], "one-hot",
        params.wx @ emb, folded.wh, folded.bias, folded.side,
    )
