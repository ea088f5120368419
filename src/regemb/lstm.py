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
products.  Gradients are exact backpropagation through time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numkernel import (
    ColumnGrad,
    RngSpec,
    by_doc,
    gaussian_init,
    scatter_add_columns,
    side_by_side,
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
# of segments longer than t is active and state slices stay contiguous.
# One index, `src`, maps every valid (step, segment) pair to the position
# it reads in the concatenated documents: inputs and side values are
# gathered through it, and outputs and upstream gradients travel back
# through it, so callers see every document in position order.  The input
# and side contributions to the gate pre-activations are precomputed in
# one gather or product over all pairs; each step then makes one Wh
# product over the stacked gates.
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
    t_idx: np.ndarray  # valid (step, sorted-segment) pairs, step-major
    k_idx: np.ndarray
    src: np.ndarray  # per pair, the position it reads in the concatenated docs
    emit: np.ndarray  # the pairs whose output is kept (past the warm-up)
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


def batch_forward_docs(params, inputs_list, side_list=None, seg_len=None,
                       overlap=0, override=None, reverse=False):
    """Chop every document and run all segments through one batched pass.

    inputs_list: per document an id array (one-hot) or an (input_dim, T)
    matrix (dense); side_list: per document a list of (dim_j, T) matrices
    matching params.side, or None when the cell has no side channels.
    State starts at zero in every segment (the chopping training
    approximation); with `reverse` each segment reads right to left.
    Returns per-document (units, T) outputs indexed by position, plus the
    run state consumed by batch_backward_docs.
    """
    override = override or GateOverride()
    inputs_list = [_normalize_input(params, x) for x in inputs_list]
    units = params.units
    dt = params.dtype
    one_hot = params.input_kind == "one-hot"
    totals = [x.shape[0] if one_hot else x.shape[1] for x in inputs_list]
    side_list = side_list if side_list is not None else [None] * len(inputs_list)
    if any(len(sides or ()) != len(params.side) for sides in side_list):
        raise ValueError(f"expected {len(params.side)} side sequences per document")

    lengths, first, warm = _plan(totals, seg_len, overlap, reverse)
    n = lengths.size
    t_max = int(lengths.max()) if n else 0
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
        x_flat = side_by_side(inputs_list, params.input_dim, totals, dt, "input").T[src]
        zf = params.wx @ x_flat.T
    sv_flat = []
    for j, sp in enumerate(params.side):
        mats = [sides[j] for sides in side_list]
        sv_flat.append(side_by_side(mats, sp.dim, totals, dt, f"side input {j}").T[src])
        zf += sp.w @ sv_flat[-1].T

    n_rows = params.wx.shape[0]
    z = np.zeros((t_max, n_rows, n), dtype=dt)
    z[t_idx, :, k_idx] = zf.T
    del zf
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
    del z

    # each position is emitted once (no zero fill); rows scatter faster than columns
    out = np.empty((sum(totals), units), dtype=dt)
    out[src[emit]] = hs[t_idx[emit] + 1, :, k_idx[emit]]
    out = np.ascontiguousarray(out.T)
    run = _DocsRun(params, override, totals, widths, t_idx, k_idx, src, emit,
                   flat_ids, x_flat, sv_flat, gates, tcs, cs, hs)
    return by_doc(out, totals), run


def batch_backward_docs(run, upstreams, want_input_grad=False):
    """Exact BPTT over a batch_forward_docs pass.

    upstreams: per document dL/dh (units, T), indexed by position.
    Returns (LstmGrads, the (input_dim, N) input gradient of the documents
    side by side, or None unless requested; dense inputs only).
    """
    params = run.params
    units = params.units
    dt = params.dtype
    widths = run.widths
    t_max = len(widths)
    n = run.gates.shape[2]
    if want_input_grad and params.input_kind != "dense":
        raise ValueError("input gradients only exist for dense inputs")

    up_all = side_by_side(upstreams, units, run.totals, dt, "upstream")
    up = np.zeros((t_max, units, n), dtype=dt)
    up[run.t_idx[run.emit], :, run.k_idx[run.emit]] = up_all[:, run.src[run.emit]].T

    rows = _gate_rows(params)
    fixed = run.override.fixed_rows(rows)
    full = params.variant == "full"
    dpre_all = np.zeros_like(run.gates)
    dh_carry = np.zeros((units, n), dtype=dt)
    dc_carry = np.zeros((units, n), dtype=dt)

    for t in range(t_max - 1, -1, -1):
        nt = widths[t]
        act = run.gates[t][:, :nt]
        f, u = act[rows["f"]], act[rows["u"]]
        tc = run.tc[t][:, :nt]
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
        dpre[rows["f"]] = dc * run.c[t][:, :nt] * f * (1.0 - f)
        dpre[rows["u"]] = du * (1.0 - u * u)
        for block in fixed:
            dpre[block] = 0.0
        dc_carry[:, :nt] = dc * f
        dh_carry[:, :nt] = params.wh.T @ dpre

    flat = dpre_all[run.t_idx, :, run.k_idx]  # (n_valid, G*units)
    if params.input_kind == "one-hot":
        wx = ColumnGrad.over(params.wx.shape, [run.flat_ids], dt)
        scatter_add_columns(wx.block, wx.slots(run.flat_ids), flat.T)
    else:
        wx = flat.T @ run.x_flat
    grads = LstmGrads(wx, flat.T @ run.h[run.t_idx, :, run.k_idx],
                      flat.sum(axis=0), [flat.T @ sv for sv in run.sv_flat])
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
    h_docs, _ = batch_forward_docs(params, [inputs], [side_seq], seg_len, overlap,
                                   override, reverse)
    return h_docs[0]


def sequence_gradients(params, inputs, upstream, seg_len=None, side_seq=None,
                       override=None, overlap=0):
    """Exact gradients (LstmGrads) of sum_t upstream[:,t] . h_t w.r.t. all
    parameters."""
    _, run = batch_forward_docs(params, [inputs], [side_seq], seg_len, overlap, override)
    grads, _ = batch_backward_docs(run, [upstream])
    return grads


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
