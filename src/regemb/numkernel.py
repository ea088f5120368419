"""Dense and sparse numeric primitives used by every layer.

Dense matrices and vectors are plain numpy arrays in row-major (C) order.
A single process-wide precision mode selects float64 (gradient checks and
most tests) or float32 (training runs); arrays are allocated in whichever
mode is active at creation time, never mixed per-tensor.
"""

from __future__ import annotations

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


# One fixed generator algorithm; every consumer derives its stream from an
# RngSpec so a whole run is reproducible from a single seed.
RNG_ALGORITHM = "pcg64"

_STREAM_IDS = {"init": 0, "dropout": 1, "sampling": 2, "shuffle": 3, "data": 4}


@dataclass(frozen=True)
class RngSpec:
    """Seed plus algorithm id; same spec always yields bit-identical streams."""

    seed: int
    algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        if self.algorithm != RNG_ALGORITHM:
            raise ValueError(f"unsupported rng algorithm {self.algorithm!r}")

    def stream(self, purpose: str = "init", *key: int) -> np.random.Generator:
        """Fresh generator for a purpose; identical arguments replay the stream."""
        try:
            stream_id = _STREAM_IDS[purpose]
        except KeyError:
            raise ValueError(f"unknown rng purpose {purpose!r}") from None
        seq = np.random.SeedSequence(self.seed, spawn_key=(stream_id, *key))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class SparseVector:
    """Sparse vector with strictly increasing indices and no stored zeros."""

    dim: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=real_dtype())
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be 1-d arrays of equal length")
        if idx.size:
            if not np.all(np.diff(idx) > 0):
                raise ValueError("sparse indices must be strictly increasing")
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError(f"sparse index out of range for dim {self.dim}")
            if np.any(val == 0):
                raise ValueError("zero-valued entries must not be stored")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @classmethod
    def one_hot(cls, dim: int, index: int, value: float = 1.0) -> "SparseVector":
        return cls(dim, np.array([index]), np.array([value]))

    @classmethod
    def from_pairs(cls, dim: int, pairs) -> "SparseVector":
        pairs = sorted(pairs)
        idx = np.array([i for i, _ in pairs], dtype=np.int64)
        val = np.array([v for _, v in pairs], dtype=real_dtype())
        return cls(dim, idx, val)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def densify(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=real_dtype())
        out[self.indices] = self.values
        return out


def affine_sparse(w: np.ndarray, b: np.ndarray, s: SparseVector) -> np.ndarray:
    """w @ s + b via column gathers; cost proportional to nnz(s) * w.shape[0]."""
    if w.shape[1] != s.dim:
        raise ValueError(f"matrix has {w.shape[1]} cols, sparse input has dim {s.dim}")
    if w.shape[0] != b.shape[0]:
        raise ValueError(f"matrix has {w.shape[0]} rows, bias has dim {b.shape[0]}")
    out = np.array(b, copy=True)
    if s.nnz:
        out += w[:, s.indices] @ s.values
    return out


def affine_dense(w: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    if w.shape[1] != v.shape[0]:
        raise ValueError(f"matrix has {w.shape[1]} cols, input has dim {v.shape[0]}")
    if w.shape[0] != b.shape[0]:
        raise ValueError(f"matrix has {w.shape[0]} rows, bias has dim {b.shape[0]}")
    return w @ v + b


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp may overflow to inf for very negative x; 1/(1+inf) -> 0 is the
    # value we want, so silence only that warning.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x)))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x), 0)


def elementwise(kind: str, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    a = np.asarray(a)
    if kind in ("hadamard", "add"):
        if b is None:
            raise ValueError(f"{kind} needs two operands")
        b = np.asarray(b)
        if a.shape != b.shape:
            raise ValueError(f"operand shapes differ: {a.shape} vs {b.shape}")
        return a * b if kind == "hadamard" else a + b
    if b is not None:
        raise ValueError(f"{kind} takes one operand")
    if kind == "sigmoid":
        return sigmoid(a)
    if kind == "tanh":
        return np.tanh(a)
    if kind == "relu":
        return relu(a)
    raise ValueError(f"unknown elementwise kind {kind!r}")


def gaussian_init(rows: int, cols: int, std: float, rng) -> np.ndarray:
    """i.i.d. Normal(0, std^2) matrix in the active precision.

    `rng` may be an RngSpec (pure: every call replays the same stream) or a
    live numpy Generator (sequential: consecutive calls draw fresh values).
    """
    if std <= 0:
        raise ValueError("std must be positive")
    gen = rng.stream("init") if isinstance(rng, RngSpec) else rng
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

    @classmethod
    def sum(cls, grads) -> "ColumnGrad":
        """Sum in list order; bit-identical to dense `total += g` from zeros,
        since the columns a term skips would only add an exact zero."""
        total = cls.over(grads[0].shape, [g.cols for g in grads], grads[0].block.dtype)
        for g in grads:
            total.block[:, total.slots(g.cols)] += g.block
        return total

    def slots(self, ids) -> np.ndarray:
        """Block positions of column ids (each must be in `cols`)."""
        return np.searchsorted(self.cols, ids)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a ColumnGrad has no dense view; densifying copies")
        dense = np.zeros(self.shape, dtype=self.block.dtype)
        dense[:, self.cols] = self.block
        return dense if dtype is None else dense.astype(dtype, copy=False)


def assert_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")
