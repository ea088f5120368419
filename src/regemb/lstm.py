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

Documents are processed by one batched engine that chops them into
segments, reads each segment in either direction, sorts the segments by
length and steps a shrinking active prefix, so many segments (from
chopping or from many documents) share each recurrence step's matrix
products.  The state it keeps holds one entry per (step, segment) pair
that ran, never a segment count times the longest segment.  Word ids
come in per document; side inputs, outputs and upstream gradients are one
(rows, N) matrix of the documents side by side (N their total length).
Gradients are exact backpropagation through time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numkernel import (
    ColumnGrad,
    as_side_by_side,
    gaussian_init,
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
    def create(cls, variant, units, input_dim, input_kind, gen, std=INIT_STD):
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


# ---------------------------------------------------------------------------
# The batched engine.
#
# Every document is chopped into segments (plan_segments); each segment
# reads its positions in time order, left to right or right to left.  The
# segments are sorted by length (descending), so at step t only the prefix
# of the widths[t] segments longer than t is active.  A valid (step,
# segment) pair is numbered step-major: step t owns the pairs
# offsets[t]..offsets[t+1], its k-th active segment the k-th of them, and
# the same segment's previous step is the pair widths[t-1] earlier.  One
# index, `src`, maps every pair to the position it reads in the
# concatenated documents: inputs and side values are gathered through it,
# and outputs and upstream gradients travel back through it, so callers
# see every document in position order.
#
# Nothing is padded to (steps, rows, segments): a run that a backward
# pass follows keeps one entry per pair.
# - gates: (n_valid, G*units), pair-major.  The one-hot gather
#   wx[:, ids] already lays its (G*units, n_valid) result out pair by pair
#   (dense and side products are transposed once), so step t's gate
#   pre-activations are one contiguous chunk, read as a (G*units, nt)
#   view; the step's activations overwrite them.
# - c and tanh(c): one flat buffer each, holding step t's (units, nt)
#   state as one packed C-order block.
# - h: (units, n_valid), step-major columns; the outputs are one column
#   gather from it.
# A step's previous state is the first nt columns of the previous step's
# block, because the active segments are a prefix.  BPTT writes each
# step's dpre into the first nt columns of one reused (G*units, n_seqs)
# block and copies it into the pair-major (n_valid, G*units) `flat` that
# the weight gradients reduce.
#
# A pass for outputs only (for_backward=False) runs the same steps but
# keeps only h: every step's c and tanh(c) go to the same packed (units,
# nt) block at the front of a (units * n_seqs) buffer each (the previous
# c is read into a temporary before the new c overwrites it), and the
# gate activations are dropped before the outputs are gathered.
#
# Outputs and gradients are bit for bit those of an engine that padded
# every run (pinned by tests/data/engine.npz), because:
# 1. every BLAS operand is C-ordered or a strided view of a C-ordered
#    array; an F-ordered h changes the bits of wh @ h at some widths;
# 2. dpre has the strides a padded (steps, G*units, n_seqs) array gave
#    it: wh.T @ dpre rounds differently when its operand is contiguous
#    rather than strided, at one-column steps in float32 and at every
#    width in a cell of one unit;
# 3. the bias gradient sums the C-order (n_valid, G*units) `flat`; a sum
#    over a C-order (G*units, n_valid) copy rounds differently;
# 4. state that a step reads as a (rows, nt) block is packed (c, tanh(c))
#    or pair-major (gates, upstream), so that it is one contiguous chunk:
#    the same state in (rows, n_valid) matrices is bit-identical, but a
#    step's slice then has each row on its own page, which made BPTT
#    steps about 25% slower;
# 5. np.tanh writes into a packed block, never into the strided hs[:, a:b]:
#    numpy's contiguous (SIMD) and strided tanh loops may round
#    differently.
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


@dataclass
class _DocsRun:
    params: LstmParams
    override: GateOverride
    totals: list  # per document length
    widths: np.ndarray  # (t_max,) active prefix size per step
    src: np.ndarray  # per pair, the position it reads in the concatenated docs
    emit: np.ndarray  # the pairs whose output is kept (past the warm-up)
    flat_ids: np.ndarray | None  # (n_valid,) word ids in pair order, one-hot inputs
    x_flat: np.ndarray | None  # (n_valid, input_dim), dense inputs
    sv_flat: list  # per side channel: (n_valid, dim)
    gates: np.ndarray  # (n_valid, G*units) gate activations, pair-major
    tc: np.ndarray  # (units * n_valid,) tanh(c_t), one packed (units, nt) block per step
    c: np.ndarray  # (units * n_valid,) c_t, packed like tc
    h: np.ndarray  # (units, n_valid) h_t, step-major columns


def _normalize_input(params, item):
    arr = np.asarray(item)
    if params.input_kind == "one-hot":
        if arr.ndim != 1:
            raise ValueError("one-hot input must be a 1-d id sequence")
        return arr.astype(np.int64, copy=False)
    if arr.ndim != 2 or arr.shape[0] != params.input_dim:
        raise ValueError(f"dense input must be ({params.input_dim}, T)")
    return arr


def _plan(totals, seg_len, overlap, reverse):
    """Segment lengths, first read position and warm-up steps, documents in
    order and each document's segments in plan order."""
    lengths, first, warm = [], [], []
    offset = 0
    for total in totals:
        for s, emit, e in (plan_segments(total, seg_len, overlap) if total else []):
            lengths.append(e - s)
            first.append(offset + total - 1 - s if reverse else offset + s)
            warm.append(emit - s)
        offset += total
    return (np.array(lengths, dtype=np.int64), np.array(first, dtype=np.int64),
            np.array(warm, dtype=np.int64))


def _steps(widths):
    """(first pair, end pair, previous step's first pair) of every step."""
    offsets = [0, *np.cumsum(widths).tolist()]
    return [(a, b, offsets[t - 1] if t else None)
            for t, (a, b) in enumerate(zip(offsets, offsets[1:]))]


def _block(buf, rows, a, b):
    """The packed C-order (rows, b - a) block of pairs a..b in a flat buffer."""
    return buf[rows * a:rows * b].reshape(rows, b - a)


def _recur(params, override, gates, widths, for_backward):
    """Run the steps of a pass, overwriting each step's gate pre-activations
    in `gates` with its activations.  Returns h (units, n_valid) and the
    c and tanh(c) buffers: every step's packed block with `for_backward`,
    else one block that every step reuses."""
    units = params.units
    dt = params.dtype
    n = int(widths[0]) if widths.size else 0
    n_valid = gates.shape[0]
    rows = _gate_rows(params)
    fixed = override.fixed_rows(rows)
    full = params.variant == "full"
    tcs = np.empty(units * (n_valid if for_backward else n), dtype=dt)
    cs = np.empty_like(tcs)
    hs = np.empty((units, n_valid), dtype=dt)
    c_prev = h_prev = np.zeros((units, n), dtype=dt)  # the initial state

    for a, b, _ in _steps(widths):
        nt = b - a
        s = a if for_backward else 0  # where this step's c and tanh(c) go
        act = gates[a:b].T
        pre = params.wh @ h_prev[:, :nt]
        pre += act
        act[:-units] = sigmoid(pre[:-units])
        act[-units:] = np.tanh(pre[-units:])
        for block in fixed:
            act[block] = 1.0
        f, u = act[rows["f"]], act[rows["u"]]
        c = _block(cs, units, s, s + nt)
        if full:
            np.add(act[rows["i"]] * u, f * c_prev[:, :nt], out=c)
        else:
            np.add(u, f * c_prev[:, :nt], out=c)
        tc = np.tanh(c, out=_block(tcs, units, s, s + nt))
        if full:
            np.multiply(act[rows["o"]], tc, out=hs[:, a:b])
        else:
            hs[:, a:b] = tc
        c_prev, h_prev = c, hs[:, a:b]
    return hs, cs, tcs


def batch_forward_docs(params, inputs_list, sides=None, seg_len=None,
                       overlap=0, override=None, reverse=False, for_backward=True):
    """Chop every document and run all segments through one batched pass.

    inputs_list: per document an id array (one-hot) or an (input_dim, T)
    matrix (dense); sides: per channel of params.side one (dim_j, N)
    matrix of the documents side by side, or None when the cell has none.
    State starts at zero in every segment (the chopping training
    approximation); with `reverse` each segment reads right to left.
    Returns the (units, N) outputs of the documents side by side, indexed
    by position, plus the run state consumed by batch_backward_docs; with
    `for_backward` off the pass keeps only what the outputs need and the
    run is None.
    """
    override = override or GateOverride()
    inputs_list = [_normalize_input(params, x) for x in inputs_list]
    dt = params.dtype
    one_hot = params.input_kind == "one-hot"
    totals = [x.shape[0] if one_hot else x.shape[1] for x in inputs_list]
    sides = sides or ()
    if len(sides) != len(params.side):
        raise ValueError(f"expected {len(params.side)} side matrices")

    lengths, first, warm = _plan(totals, seg_len, overlap, reverse)
    t_max = int(lengths.max()) if lengths.size else 0
    order = np.argsort(-lengths, kind="stable")
    widths = np.searchsorted(-lengths[order], -np.arange(t_max), side="left")
    n_valid = int(widths.sum())
    t_idx = np.repeat(np.arange(t_max), widths)
    k_idx = np.arange(n_valid) - np.repeat(np.cumsum(widths) - widths, widths)
    seg = order[k_idx]
    src = first[seg] + (-t_idx if reverse else t_idx)
    emit = np.flatnonzero(t_idx >= warm[seg])

    flat_ids = None
    x_flat = None
    if one_hot:
        flat_ids = np.concatenate([np.zeros(0, np.int64), *inputs_list])[src]
        zf = params.wx[:, flat_ids]
    else:
        x_flat = np.concatenate([np.zeros((params.input_dim, 0), dt), *inputs_list],
                                axis=1, dtype=dt).T[src]
        zf = params.wx @ x_flat.T
    sv_flat = []
    for j, (sp, sv) in enumerate(zip(params.side, sides)):
        sv = as_side_by_side(sv, sp.dim, sum(totals), dt, f"side input {j}")
        sv_flat.append(sv.T[src])
        zf += sp.w @ sv_flat[-1].T

    # the gate pre-activations, overwritten step by step by the activations
    gates = np.ascontiguousarray(zf.T)  # a copy only for dense inputs
    del zf
    gates += params.bias
    if not for_backward:
        flat_ids = x_flat = sv_flat = None  # only the backward pass reads them
    hs, cs, tcs = _recur(params, override, gates, widths, for_backward)
    run = _DocsRun(params, override, totals, widths, src, emit, flat_ids, x_flat,
                   sv_flat, gates, tcs, cs, hs) if for_backward else None
    del gates  # held by the run, or no longer needed

    # each position is emitted by exactly one pair
    pair = np.empty(sum(totals), dtype=np.int64)
    pair[src[emit]] = emit
    return np.take(hs, pair, axis=1), run


def batch_backward_docs(run, upstream, want_input_grad=False):
    """Exact BPTT over a batch_forward_docs pass.

    upstream: dL/dh of the documents side by side, (units, N), indexed by
    position; it is not changed.
    Returns (LstmGrads, the (input_dim, N) input gradient of the documents
    side by side, or None unless requested; dense inputs only).
    """
    params = run.params
    units = params.units
    dt = params.dtype
    widths = run.widths
    n = int(widths[0]) if widths.size else 0
    n_valid, gu = run.gates.shape
    if want_input_grad and params.input_kind != "dense":
        raise ValueError("input gradients only exist for dense inputs")

    up_all = as_side_by_side(upstream, units, sum(run.totals), dt, "upstream")
    up = np.zeros((n_valid, units), dtype=dt)  # pair-major, zero in the warm-up
    up[run.emit] = up_all.T[run.src[run.emit]]

    rows = _gate_rows(params)
    fixed = run.override.fixed_rows(rows)
    full = params.variant == "full"
    flat = np.empty((n_valid, gu), dtype=dt)  # dpre of every pair
    dpre_buf = np.empty((gu, n), dtype=dt)  # a step's dpre is its first nt columns
    dh_carry = np.zeros((units, n), dtype=dt)
    dc_carry = np.zeros((units, n), dtype=dt)
    c_zero = np.zeros((units, n), dtype=dt)

    for a, b, p in reversed(_steps(widths)):
        nt = b - a
        act = run.gates[a:b].T
        f, u = act[rows["f"]], act[rows["u"]]
        tc = _block(run.tc, units, a, b)
        c_prev = c_zero if p is None else _block(run.c, units, p, a)
        dh = up[a:b].T + dh_carry[:, :nt]
        dpre = dpre_buf[:, :nt]
        if full:
            i, o = act[rows["i"]], act[rows["o"]]
            dc = dc_carry[:, :nt] + dh * o * (1.0 - tc * tc)
            dpre[rows["o"]] = dh * tc * o * (1.0 - o)
            dpre[rows["i"]] = dc * u * i * (1.0 - i)
            du = dc * i
        else:
            dc = dc_carry[:, :nt] + dh * (1.0 - tc * tc)
            du = dc
        dpre[rows["f"]] = dc * c_prev[:, :nt] * f * (1.0 - f)
        dpre[rows["u"]] = du * (1.0 - u * u)
        for block in fixed:
            dpre[block] = 0.0
        dc_carry[:, :nt] = dc * f
        dh_carry[:, :nt] = params.wh.T @ dpre
        flat[a:b] = dpre.T

    # h_{t-1} of every pair: zero at step 0, else the segment's previous pair
    h_prev = np.zeros((n_valid, units), dtype=dt)
    h_prev[n:] = run.h.T[np.arange(n, n_valid) - np.repeat(widths[:-1], widths[1:])]
    if params.input_kind == "one-hot":
        wx = ColumnGrad.over(params.wx.shape, [run.flat_ids], dt)
        scatter_add_columns(wx.block, wx.slots(run.flat_ids), flat.T)
    else:
        wx = flat.T @ run.x_flat
    grads = LstmGrads(wx, flat.T @ h_prev, flat.sum(axis=0),
                      [flat.T @ sv for sv in run.sv_flat])
    dx = None
    if want_input_grad:
        # a warm-up position is read by two segments; their terms add up
        dx = np.zeros((params.input_dim, up_all.shape[1]), dtype=dt)
        scatter_add_columns(dx, run.src, (flat @ params.wx).T)
    return grads, dx


# ---------------------------------------------------------------------------
# Single-document wrappers over the engine.
# ---------------------------------------------------------------------------


def forward_sequence(params, inputs, seg_len=None, side_seq=None, override=None,
                     overlap=0, reverse=False):
    """Per-step outputs h_t as a (units, T) matrix, zero initial state.

    With seg_len set, state is reset at segment boundaries (the chopping
    training approximation); with `reverse` the cell reads right to left.
    Outputs stay indexed by position either way.
    """
    return batch_forward_docs(params, [inputs], side_seq, seg_len, overlap,
                              override, reverse, for_backward=False)[0]


def sequence_gradients(params, inputs, upstream, seg_len=None, side_seq=None,
                       override=None, overlap=0):
    """Exact gradients (LstmGrads) of sum_t upstream[:,t] . h_t w.r.t. all
    parameters."""
    _, run = batch_forward_docs(params, [inputs], side_seq, seg_len, overlap, override)
    return batch_backward_docs(run, upstream)[0]


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
