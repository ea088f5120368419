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
pre-activation.

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

GATES = {"full": ("i", "o", "f", "u"), "simplified": ("f", "u")}

INIT_STD = 0.01


@dataclass
class SideInputParams:
    """Trainable matrices feeding one frozen embedding's output into gates.

    `w` maps gate name to a (units, dim) matrix; convolution layers use the
    single key "w".
    """

    tv_id: str
    dim: int
    w: dict


@dataclass
class LstmParams:
    variant: str
    units: int
    input_dim: int
    input_kind: str  # "one-hot" | "dense"
    wx: dict  # gate -> (units, input_dim)
    wh: dict  # gate -> (units, units)
    bias: dict  # gate -> (units,)
    side: list = field(default_factory=list)

    def __post_init__(self):
        gates = self.gates()
        for store, shape in ((self.wx, (self.units, self.input_dim)),
                             (self.wh, (self.units, self.units))):
            if set(store) != set(gates):
                raise ValueError(f"{self.variant} variant needs exactly gates {gates}")
            for g in gates:
                if store[g].shape != shape:
                    raise ValueError(f"gate {g}: expected shape {shape}, got {store[g].shape}")
        for g in gates:
            if self.bias[g].shape != (self.units,):
                raise ValueError(f"gate {g}: bias must have dim {self.units}")

    def gates(self) -> tuple:
        if self.variant not in GATES:
            raise ValueError(f"unknown LSTM variant {self.variant!r}")
        return GATES[self.variant]

    @property
    def dtype(self):
        return self.wx[self.gates()[0]].dtype

    @classmethod
    def create(cls, variant, units, input_dim, input_kind="one-hot", rng=None, std=INIT_STD):
        gen = rng.stream("init") if isinstance(rng, RngSpec) else rng
        wx, wh, bias = {}, {}, {}
        for g in GATES[variant]:
            wx[g] = gaussian_init(units, input_dim, std, gen)
            wh[g] = gaussian_init(units, units, std, gen)
            bias[g] = np.zeros(units, dtype=wx[g].dtype)
        return cls(variant, units, input_dim, input_kind, wx, wh, bias)

    def copy(self) -> "LstmParams":
        return LstmParams(
            self.variant, self.units, self.input_dim, self.input_kind,
            {g: m.copy() for g, m in self.wx.items()},
            {g: m.copy() for g, m in self.wh.items()},
            {g: v.copy() for g, v in self.bias.items()},
            [SideInputParams(s.tv_id, s.dim, {g: m.copy() for g, m in s.w.items()})
             for s in self.side],
        )


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


@dataclass
class LstmGrads:
    wx: dict  # gate -> ColumnGrad (one-hot cells) or dense matrix
    wh: dict
    bias: dict
    side: list  # per side channel: gate -> matrix

    @classmethod
    def zeros_like(cls, params: LstmParams) -> "LstmGrads":
        one_hot = params.input_kind == "one-hot"
        return cls(
            {g: ColumnGrad.over(m.shape, [], m.dtype) if one_hot else np.zeros_like(m)
             for g, m in params.wx.items()},
            {g: np.zeros_like(m) for g, m in params.wh.items()},
            {g: np.zeros_like(v) for g, v in params.bias.items()},
            [{g: np.zeros_like(m) for g, m in s.w.items()} for s in params.side],
        )


def _gate_pre(params, g, x, h_prev, side_vals):
    if isinstance(x, SparseVector):
        pre = affine_sparse(params.wx[g], params.bias[g], x)
    else:
        pre = affine_dense(params.wx[g], params.bias[g], np.asarray(x))
    pre = pre + params.wh[g] @ h_prev
    for sp, val in zip(params.side, side_vals):
        pre = pre + sp.w[g] @ val
    return pre


def lstm_step(params, x, prev: LstmState, side_vals=(), override=None) -> LstmState:
    """One recurrence step; reference implementation for the batched engine."""
    x_dim = x.dim if isinstance(x, SparseVector) else np.asarray(x).shape[0]
    if x_dim != params.input_dim:
        raise ValueError(f"input dim {x_dim} != params input_dim {params.input_dim}")
    if len(side_vals) != len(params.side):
        raise ValueError(f"expected {len(params.side)} side inputs, got {len(side_vals)}")
    if params.variant == "simplified":
        f = sigmoid(_gate_pre(params, "f", x, prev.h, side_vals))
        u = np.tanh(_gate_pre(params, "u", x, prev.h, side_vals))
        c = u + f * prev.c
        return LstmState(c, np.tanh(c))
    ov = override or GateOverride()
    if ov.input_gate_one:
        i = np.ones(params.units, dtype=params.dtype)
    else:
        i = sigmoid(_gate_pre(params, "i", x, prev.h, side_vals))
    if ov.output_gate_one:
        o = np.ones(params.units, dtype=params.dtype)
    else:
        o = sigmoid(_gate_pre(params, "o", x, prev.h, side_vals))
    f = sigmoid(_gate_pre(params, "f", x, prev.h, side_vals))
    u = np.tanh(_gate_pre(params, "u", x, prev.h, side_vals))
    c = i * u + f * prev.c
    return LstmState(c, o * np.tanh(c))


# ---------------------------------------------------------------------------
# Batched engine.
#
# Segments are sorted by length (descending); at step t only the prefix of
# segments longer than t is active, so state slices stay contiguous.  Input
# and side contributions to gate pre-activations are precomputed in one
# gather/matmul per gate over all valid (step, segment) pairs.
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
    acts: dict  # activation name -> (t_max, units, n_seqs)


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


def _grad_gates(params, override):
    gates = params.gates()
    if params.variant == "simplified":
        return gates
    skip = set()
    if override.input_gate_one:
        skip.add("i")
    if override.output_gate_one:
        skip.add("o")
    return tuple(g for g in gates if g not in skip)


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
    if t_max == 0:
        cache = _BatchCache(params, override, np.arange(n), lengths, lengths,
                            np.zeros(0, np.int64), np.zeros(0, np.int64),
                            np.zeros(0, np.int64), None, None, [], {})
        return [np.zeros((units, 0), dtype=dt) for _ in seqs], cache

    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    widths = np.searchsorted(-sorted_lengths, -np.arange(t_max), side="left")
    starts = np.concatenate(([0], np.cumsum(widths[:-1])))
    n_valid = int(widths.sum())
    t_idx = np.repeat(np.arange(t_max), widths)
    k_idx = np.arange(n_valid) - np.repeat(starts, widths)

    flat_ids = None
    x_flat = None
    if one_hot:
        id_pad = np.zeros((n, t_max), dtype=np.int64)
        for pos, k in enumerate(order):
            id_pad[pos, :lengths[k]] = seqs[k]
        flat_ids = id_pad[k_idx, t_idx]
    else:
        x_pad = np.zeros((n, params.input_dim, t_max), dtype=dt)
        for pos, k in enumerate(order):
            x_pad[pos, :, :lengths[k]] = seqs[k]
        x_flat = x_pad[k_idx, :, t_idx]

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

    gates = params.gates()
    active = _grad_gates(params, override)
    z = {}
    for g in active:
        zf = params.wx[g][:, flat_ids] if one_hot else params.wx[g] @ x_flat.T
        for j, sp in enumerate(params.side):
            zf = zf + sp.w[g] @ sv_flat[j].T
        zg = np.zeros((t_max, units, n), dtype=dt)
        zg[t_idx, :, k_idx] = zf.T
        zg += params.bias[g][None, :, None]
        z[g] = zg

    full = params.variant == "full"
    names = ["f", "u", "c", "tc", "h"] + (["i", "o"] if full else [])
    acts = {nm: np.zeros((t_max, units, n), dtype=dt) for nm in names}
    h_state = np.zeros((units, n), dtype=dt)
    c_state = np.zeros((units, n), dtype=dt)

    for t in range(t_max):
        nt = widths[t]
        h_prev = h_state[:, :nt]
        c_prev = c_state[:, :nt]
        pre = {g: z[g][t][:, :nt] + params.wh[g] @ h_prev for g in active}
        f = sigmoid(pre["f"])
        u = np.tanh(pre["u"])
        if full:
            i = sigmoid(pre["i"]) if not override.input_gate_one else np.ones((units, nt), dt)
            o = sigmoid(pre["o"]) if not override.output_gate_one else np.ones((units, nt), dt)
            c = i * u + f * c_prev
            tc = np.tanh(c)
            h = o * tc
            acts["i"][t][:, :nt] = i
            acts["o"][t][:, :nt] = o
        else:
            c = u + f * c_prev
            tc = np.tanh(c)
            h = tc
        acts["f"][t][:, :nt] = f
        acts["u"][t][:, :nt] = u
        acts["c"][t][:, :nt] = c
        acts["tc"][t][:, :nt] = tc
        acts["h"][t][:, :nt] = h
        h_state[:, :nt] = h
        c_state[:, :nt] = c

    outs = [None] * n
    hs = acts["h"]
    for pos, k in enumerate(order):
        outs[k] = np.ascontiguousarray(hs[:lengths[k], :, pos].T)

    cache = _BatchCache(params, override, order, lengths, sorted_lengths, widths,
                        t_idx, k_idx, flat_ids, x_flat, sv_flat, acts)
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
    grads = LstmGrads.zeros_like(params)
    t_max = int(cache.sorted_lengths[0]) if n else 0
    if t_max == 0:
        empty_sv = [[np.zeros((sp.dim, 0), dt) for sp in params.side] for _ in range(n)]
        return grads, (empty_sv if want_side_values_grad else None), None

    widths = cache.widths
    acts = cache.acts
    full = params.variant == "full"
    active = _grad_gates(params, cache.override)

    up = np.zeros((t_max, units, n), dtype=dt)
    for pos, k in enumerate(cache.order):
        length = int(cache.sorted_lengths[pos])
        mat = np.asarray(upstreams[k], dtype=dt)
        if mat.shape != (units, length):
            raise ValueError(f"upstream for segment {k}: expected ({units}, {length})")
        up[:length, :, pos] = mat.T

    dpre_store = {g: np.zeros((t_max, units, n), dtype=dt) for g in active}
    dh_carry = np.zeros((units, n), dtype=dt)
    dc_carry = np.zeros((units, n), dtype=dt)

    for t in range(t_max - 1, -1, -1):
        nt = widths[t]
        dh = up[t][:, :nt] + dh_carry[:, :nt]
        c_prev = acts["c"][t - 1][:, :nt] if t else np.zeros((units, nt), dtype=dt)
        f = acts["f"][t][:, :nt]
        u = acts["u"][t][:, :nt]
        tc = acts["tc"][t][:, :nt]
        dpre = {}
        if full:
            i = acts["i"][t][:, :nt]
            o = acts["o"][t][:, :nt]
            dc = dc_carry[:, :nt] + dh * o * (1.0 - tc * tc)
            if "o" in active:
                do = dh * tc
                dpre["o"] = do * o * (1.0 - o)
            if "i" in active:
                di = dc * u
                dpre["i"] = di * i * (1.0 - i)
            du = dc * i
        else:
            dc = dc_carry[:, :nt] + dh * (1.0 - tc * tc)
            du = dc
        df = dc * c_prev
        dc_carry[:, :nt] = dc * f
        dpre["f"] = df * f * (1.0 - f)
        dpre["u"] = du * (1.0 - u * u)
        dh_prev = params.wh[active[0]].T @ dpre[active[0]]
        for g in active[1:]:
            dh_prev += params.wh[g].T @ dpre[g]
        dh_carry[:, :nt] = dh_prev
        for g in active:
            dpre_store[g][t][:, :nt] = dpre[g]
        if t:
            h_prev = acts["h"][t - 1][:, :nt]
            for g in active:
                grads.wh[g] += dpre[g] @ h_prev.T

    flat = {g: dpre_store[g][cache.t_idx, :, cache.k_idx] for g in active}
    if params.input_kind == "one-hot":
        touched = ColumnGrad.over(params.wx[active[0]].shape, [cache.flat_ids], dt)
        slots = touched.slots(cache.flat_ids)
    for g in active:
        grads.bias[g] += flat[g].sum(axis=0)
        if params.input_kind == "one-hot":
            grads.wx[g] = ColumnGrad(touched.shape, touched.cols,
                                     np.zeros_like(touched.block))
            scatter_add_columns(grads.wx[g].block, slots, flat[g].T)
        else:
            grads.wx[g] += flat[g].T @ cache.x_flat
        for j, sp in enumerate(params.side):
            grads.side[j][g] += flat[g].T @ cache.sv_flat[j]

    side_value_grads = None
    if want_side_values_grad:
        side_value_grads = [None] * n
        per_j = []
        for j, sp in enumerate(params.side):
            dsv = flat[active[0]] @ params.side[j].w[active[0]]
            for g in active[1:]:
                dsv += flat[g] @ params.side[j].w[g]
            per_j.append(_unpack_rows(dsv, cache))
        for k in range(n):
            side_value_grads[k] = [per_j[j][k] for j in range(len(params.side))]

    input_grads = None
    if want_input_grad:
        if params.input_kind != "dense":
            raise ValueError("input gradients only exist for dense inputs")
        dx = flat[active[0]] @ params.wx[active[0]]
        for g in active[1:]:
            dx += flat[g] @ params.wx[g]
        input_grads = _unpack_rows(dx, cache)

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


def embedding_layer(emb: np.ndarray, word_id: int) -> np.ndarray:
    """Column `word_id` of the embedding matrix (the word's vector)."""
    if not 0 <= word_id < emb.shape[1]:
        raise ValueError(f"word id {word_id} out of range for {emb.shape[1]} columns")
    return emb[:, word_id].copy()


def fold_embedding(params: LstmParams, emb: np.ndarray) -> LstmParams:
    """Absorb a word embedding into the input weights: wx_g <- wx_g @ emb.

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
        {g: params.wx[g] @ emb for g in params.gates()},
        folded.wh, folded.bias, folded.side,
    )
