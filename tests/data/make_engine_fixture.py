"""Write the LSTM engine fixture that tests/test_lstm.py loads.

    PYTHONPATH=src python tests/data/make_engine_fixture.py tests/data/engine.npz

Runs `lstm.batch_forward_docs` and `batch_backward_docs` on every case of
CASES, in float32 and in float64, and records the outputs and every
gradient.  The cases cover ragged batches whose last steps are one
segment wide while several segments exist, a cell of one unit, a
one-segment batch, reading right to left, chop 7 with overlap 3, both
cell variants, a held gate, a side channel and dense inputs with their
input gradient.  engine.npz was
written by the code of commit 1c21c15, whose engine padded every run to
(steps, rows, segments) tensors, so the test pins the engine's outputs
and gradients byte for byte across a change of its storage.
"""

import sys
import zlib
from pathlib import Path

import numpy as np

from regemb.lstm import GateOverride, LstmParams, SideInputParams, batch_backward_docs, \
    batch_forward_docs

# name -> variant, input kind, units, document lengths, seg_len, overlap,
# reverse, side channels, held gates (input, output)
CASES = {
    "ragged": ("full", "one-hot", 8, [23, 9, 4, 1, 12, 0, 9], None, 0, False, 0, (False, False)),
    "ragged_simplified_reverse": ("simplified", "one-hot", 8, [17, 3, 3, 11, 1], None, 0,
                                  True, 0, (False, False)),
    "wide": ("full", "one-hot", 32, [60, 41, 35, 35, 20, 18, 7, 5, 2, 1] * 2 + [75], None, 0,
             False, 0, (False, False)),
    "wide_simplified_reverse": ("simplified", "one-hot", 32, [3, 50, 28, 9, 1, 44, 61], None,
                                0, True, 0, (False, False)),
    "one_unit": ("full", "one-hot", 1, [14, 9, 9, 3], None, 0, False, 0, (False, False)),
    "one_segment": ("full", "one-hot", 16, [19], None, 0, False, 0, (False, False)),
    "one_segment_reverse": ("simplified", "one-hot", 16, [19], None, 0, True, 0,
                            (False, False)),
    "chop7_overlap3_side": ("full", "one-hot", 8, [30, 7, 8, 1, 15, 0], 7, 3, False, 1,
                            (False, False)),
    "chop7_overlap3_reverse_side": ("simplified", "one-hot", 8, [30, 7, 8, 1, 15], 7, 3, True,
                                    1, (False, False)),
    "held_input_gate": ("full", "one-hot", 8, [13, 6, 2], None, 0, False, 0, (True, False)),
    "dense_input_grad": ("full", "dense", 8, [21, 5, 12, 1], 7, 3, False, 1, (False, False)),
    "dense_simplified_reverse": ("simplified", "dense", 8, [14, 9, 1], None, 0, True, 1,
                                 (False, False)),
}

VOCAB, DENSE_DIM, SIDE_DIM = 13, 6, 3


def build(name, dtype):
    """(params, inputs_list, sides, upstream) of one case."""
    variant, kind, units, lengths, *_, n_side, _ = CASES[name]
    gen = np.random.default_rng(zlib.crc32(name.encode()))
    n_gates = 4 if variant == "full" else 2
    input_dim = VOCAB if kind == "one-hot" else DENSE_DIM

    def draw(*shape):
        return (0.5 * gen.standard_normal(shape)).astype(dtype)

    side = [SideInputParams(f"tv{j}", SIDE_DIM, draw(n_gates * units, SIDE_DIM))
            for j in range(n_side)]
    params = LstmParams(variant, units, input_dim, kind, draw(n_gates * units, input_dim),
                        draw(n_gates * units, units), draw(n_gates * units), side)
    if kind == "one-hot":
        inputs = [gen.integers(0, VOCAB, size=n) for n in lengths]
    else:
        inputs = [draw(DENSE_DIM, n) for n in lengths]
    total = sum(lengths)
    sides = [draw(SIDE_DIM, total) for _ in range(n_side)]
    return params, inputs, sides, draw(units, total)


def run_case(name, dtype):
    """The engine's outputs and gradients of one case, keyed by array name."""
    _, kind, _, _, seg_len, overlap, reverse, _, held = CASES[name]
    params, inputs, sides, upstream = build(name, dtype)
    out, run = batch_forward_docs(params, inputs, sides, seg_len, overlap,
                                  GateOverride(*held), reverse)
    grads, dx = batch_backward_docs(run, upstream, want_input_grad=kind == "dense")
    arrays = {"out": out, "wx": np.asarray(grads.wx), "wh": grads.wh, "bias": grads.bias}
    arrays.update({f"side{j}": w for j, w in enumerate(grads.side)})
    if dx is not None:
        arrays["dx"] = dx
    return arrays


def main(path: Path):
    arrays = {}
    for dtype in ("float32", "float64"):
        for name in CASES:
            for key, value in run_case(name, dtype).items():
                arrays[f"{dtype}/{name}/{key}"] = value
    np.savez_compressed(path, **arrays)


if __name__ == "__main__":
    main(Path(sys.argv[1]))
