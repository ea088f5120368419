"""Numeric helpers shared by the document engines and the optimizer.

A single process-wide precision mode selects float64 (gradient checks and
most tests) or float32 (training runs); arrays are allocated in whichever
mode is active at creation time, never mixed per-tensor.  Besides the
precision mode: seeded rng streams, the column scatter, the check of the
side-by-side document layout, and ColumnGrad, the one sparse type.
"""

from __future__ import annotations

import mmap
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_PRECISIONS = {"float32": np.float32, "float64": np.float64}
_active_precision = "float64"


def set_precision(mode: str) -> None:
    global _active_precision
    if mode not in _PRECISIONS:
        raise ValueError(f"unknown precision mode {mode!r}; use 'float32' or 'float64'")
    _active_precision = mode


def get_precision() -> str:
    return _active_precision


def real_dtype() -> np.dtype:
    """numpy dtype of the active precision mode."""
    return np.dtype(_PRECISIONS[_active_precision])


@contextmanager
def precision(mode: str):
    """Temporarily switch the global precision mode."""
    previous = _active_precision
    set_precision(mode)
    try:
        yield
    finally:
        set_precision(previous)


# Every consumer derives its PCG64 stream from an RngSpec, so a whole run is
# reproducible from a single seed.
_STREAM_IDS = {"init": 0, "dropout": 1, "sampling": 2, "shuffle": 3, "data": 4}


@dataclass(frozen=True)
class RngSpec:
    """A run's seed; the same seed always yields bit-identical streams."""

    seed: int

    def stream(self, purpose: str = "init", *key: int) -> np.random.Generator:
        """Fresh generator for a purpose; identical arguments replay the stream."""
        try:
            stream_id = _STREAM_IDS[purpose]
        except KeyError:
            raise ValueError(f"unknown rng purpose {purpose!r}") from None
        seq = np.random.SeedSequence(self.seed, spawn_key=(stream_id, *key))
        return np.random.Generator(np.random.PCG64(seq))


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp may overflow to inf for very negative x; 1/(1+inf) -> 0 is the
    # value we want, so silence only that warning.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x)))


def gaussian_init(rows: int, cols: int, std: float, gen) -> np.ndarray:
    """i.i.d. Normal(0, std^2) matrix in the active precision, drawn from the
    numpy Generator `gen` (consecutive calls draw fresh values)."""
    if std <= 0:
        raise ValueError("std must be positive")
    out = gen.standard_normal((rows, cols), dtype=real_dtype())
    out *= std
    return out


def scatter_add_columns(dest: np.ndarray, idx: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """dest[:, idx[n]] += cols[:, n], accumulating repeated indices."""
    idx = np.asarray(idx)
    if idx.size == 0:
        return dest
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    uniq, starts = np.unique(sorted_idx, return_index=True)
    dest[:, uniq] += np.add.reduceat(cols[:, order], starts, axis=1)
    return dest


def as_side_by_side(mat, rows, n, dt, what):
    """`mat` checked as the (rows, n) matrix of documents side by side: the
    one layout that crosses a layer boundary.  Returned C-contiguous in
    dtype dt (a copy only if needed), so the products an engine makes with
    it round the same whichever view the caller passed."""
    if np.shape(mat) != (rows, n):
        raise ValueError(f"{what}: expected ({rows}, {n}), got {np.shape(mat)}")
    return np.ascontiguousarray(mat, dtype=dt)


def mapped_empty(shape, dtype) -> np.ndarray:
    """Uninitialised array in an anonymous memory mapping of its own, which
    goes back to the system as soon as the array is freed.

    glibc's malloc maps a large block of its own too, but freeing it raises
    the size above which malloc maps blocks (up to 32 MiB), so the next
    block of that size comes from the heap and stays resident after it is
    freed.  A seq-CNN's output for an eval block is such a block (31 MiB
    on seqcnn_30k); from the heap it stayed resident into the next
    command and raised that run's peak RSS by about 20 MB.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    area = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(area, dtype, count=count).reshape(shape)


@dataclass(eq=False)
class ColumnGrad:
    """Gradient of a matrix that is exactly zero outside a few columns.

    One-hot inputs touch only the columns of the words they contain, so the
    gradient is stored as the touched column ids (`cols`, sorted, unique)
    and their dense `(rows, len(cols))` block.  `np.asarray` gives the
    dense matrix.
    """

    shape: tuple
    cols: np.ndarray
    block: np.ndarray

    @classmethod
    def over(cls, shape, id_arrays, dtype) -> "ColumnGrad":
        """Zero gradient whose block covers every column id in `id_arrays`."""
        cols = np.unique(np.concatenate([np.zeros(0, np.int64), *id_arrays]))
        return cls(tuple(shape), cols, np.zeros((shape[0], cols.size), dtype=dtype))

    def slots(self, ids) -> np.ndarray:
        """Block positions of column ids (each must be in `cols`)."""
        return np.searchsorted(self.cols, ids)

    def __getitem__(self, rows: slice) -> "ColumnGrad":
        """The gradient of a row block: same `cols`, a view of the block."""
        if not isinstance(rows, slice):
            raise TypeError("a ColumnGrad takes only a row slice")
        block = self.block[rows]
        return ColumnGrad((block.shape[0], self.shape[1]), self.cols, block)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a ColumnGrad has no dense view; densifying copies")
        dense = np.zeros(self.shape, dtype=self.block.dtype)
        dense[:, self.cols] = self.block
        return dense if dtype is None else dense.astype(dtype, copy=False)


def all_finite(arr: np.ndarray) -> bool:
    """No NaN or Inf entry; checked in slices of 64k entries, so a large
    tensor needs no tensor-sized temporary."""
    flat, step = arr.reshape(-1), 1 << 16
    return all(np.isfinite(flat[i:i + step]).all() for i in range(0, flat.size, step))


def assert_finite(arr: np.ndarray, what: str) -> None:
    if not all_finite(arr):
        raise NumericError(f"non-finite values in {what}")
