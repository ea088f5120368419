"""Dense references that the engine tests compare against.

Each function computes one position or one recurrence step the plain way,
on dense vectors.  For a one-hot input x, `w @ x` is exactly column x of w,
so a reference fed one-hot vectors reads the same weights as an engine that
gathers columns.
"""

import numpy as np

from regemb.lstm import GateOverride
from regemb.numkernel import sigmoid


def one_hot(dim, i):
    x = np.zeros(dim)
    x[i] = 1.0
    return x


def lstm_step(params, x, c, h, side_vals=(), override=None):
    """One step of an LSTM cell from state (c, h) on the dense input x and
    the side values of this position; returns the new (c, h)."""
    pre = params.bias + params.wx @ x + params.wh @ h
    for sp, val in zip(params.side, side_vals):
        pre = pre + sp.w @ val
    gate = dict(zip(params.gates(), np.split(pre, len(params.gates()))))
    f, u = sigmoid(gate["f"]), np.tanh(gate["u"])
    if params.variant == "simplified":
        c = u + f * c
        return c, np.tanh(c)
    override = override or GateOverride()
    i = np.ones_like(u) if override.input_gate_one else sigmoid(gate["i"])
    o = np.ones_like(u) if override.output_gate_one else sigmoid(gate["o"])
    c = i * u + f * c
    return c, o * np.tanh(c)


def region_vector(ids, loc, size, vocab, kind):
    """The conv input of the region starting at loc, truncated at the end of
    ids: the one-hots of its words concatenated (seq, a zero block per
    missing word) or their counts (bow)."""
    window = np.asarray(ids)[loc:loc + size]
    if kind == "seq":
        x = np.zeros(size * vocab)
        x[np.arange(window.size) * vocab + window] = 1.0
    else:
        x = np.zeros(vocab)
        np.add.at(x, window, 1.0)
    return x
