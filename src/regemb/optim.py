"""Minibatch SGD (momentum / rmsprop), dropout masks, the training loop,
and the finite-difference gradient-check oracle.

`run_epochs` is the one epoch loop: classifiers (`train`) and tv-embeddings
(`tvembed`) each pass it their own per-minibatch step, and it owns the
seeded shuffle, the per-epoch generator, minibatch slicing, the loss check,
the update rule, the `epoch=` log line and the final parameter check."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .numkernel import ColumnGrad, RngSpec, assert_finite, get_precision, real_dtype


@dataclass
class TrainConfig:
    lr: float = 0.05
    momentum: float = 0.9
    rmsprop: bool = False
    rmsprop_decay: float = 0.9
    rmsprop_eps: float = 1e-6
    minibatch: int = 50
    epochs: int = 20
    chop_len: int | None = None
    chop_overlap: int = 0
    dropout_rate: float = 0.5
    seed: int = 1

    def __post_init__(self):
        # lr 0 is allowed as a degenerate no-op run (useful in tests)
        if not 0 <= self.lr < math.inf:
            raise ValueError("lr must be finite and not negative")
        if not 0 < self.rmsprop_eps < math.inf:
            raise ValueError("rmsprop_eps must be finite and > 0")
        if self.minibatch < 1:
            raise ValueError("minibatch must be >= 1")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if not 0 <= self.rmsprop_decay < 1:
            raise ValueError("rmsprop_decay must be in [0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must not be negative")
        if self.chop_len is not None and self.chop_len < 1:
            raise ValueError("chop_len must be >= 1")
        # overlap is warm-up context before each chopped segment
        if not 0 <= self.chop_overlap < (self.chop_len or 1):
            raise ValueError("overlap must satisfy 0 <= overlap < chop_len "
                             "(0 without chopping)")


# A ColumnGrad is exactly zero outside its columns, where the dense rules
# leave the cache unchanged and subtract an exact zero from v or theta; so
# both steps below touch only its columns and stay bit-identical to dense.
# They index the columns as rows of the transposed view, which numpy
# gathers and scatters faster than columns of a C-order matrix.


def sgd_step(param, grad, velocity, cfg: TrainConfig):
    """Classical momentum, in place: v <- m*v - lr*g; theta <- theta + v."""
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ValueError("param/grad/velocity shapes differ")
    velocity *= cfg.momentum
    if isinstance(grad, ColumnGrad):
        velocity.T[grad.cols] -= (cfg.lr * grad.block).T
    else:
        velocity -= cfg.lr * grad
    param += velocity
    return param, velocity


def rmsprop_step(param, grad, cache, cfg: TrainConfig):
    """r <- decay*r + (1-decay)*g^2; theta <- theta - lr*g/sqrt(r+eps), in place."""
    if param.shape != grad.shape or param.shape != cache.shape:
        raise ValueError("param/grad/cache shapes differ")
    cache *= cfg.rmsprop_decay
    if isinstance(grad, ColumnGrad):
        cols, grad = grad.cols, grad.block.T
        touched = cache.T[cols]
        touched += (1.0 - cfg.rmsprop_decay) * grad * grad
        cache.T[cols] = touched
        param.T[cols] -= cfg.lr * grad / np.sqrt(touched + cfg.rmsprop_eps)
        return param, cache
    cache += (1.0 - cfg.rmsprop_decay) * grad * grad
    param -= cfg.lr * grad / np.sqrt(cache + cfg.rmsprop_eps)
    return param, cache


class Updater:
    """Per-tensor optimizer state applying the configured update rule."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.state = {}

    def apply(self, name, param, grad):
        slot = self.state.get(name)
        if slot is None:
            slot = self.state[name] = np.zeros_like(param)
        if self.cfg.rmsprop:
            rmsprop_step(param, grad, slot, self.cfg)
        else:
            sgd_step(param, grad, slot, self.cfg)


def dropout_mask(dim: int, rate: float, gen) -> np.ndarray:
    """Inverted-dropout mask drawn from `gen`: entries are 0 or 1/(1-rate)."""
    if not 0 <= rate < 1:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0:
        return np.ones(dim, dtype=real_dtype())
    keep = gen.random(dim) >= rate
    return keep.astype(real_dtype()) / (1.0 - rate)


@dataclass
class EpochLog:
    epoch: int
    loss: float
    dev_err: float
    seconds: float

    def line(self) -> str:
        return (f"epoch={self.epoch} loss={self.loss:.6f} "
                f"dev_err={self.dev_err:.4f} seconds={self.seconds:.3f}")


def run_epochs(cfg: TrainConfig, n_items: int, step, params, *, stream: str,
               eval_first=False, dev_err=None, saved=None, log_fn=None) -> list:
    """Shuffled minibatch SGD over items 0..n_items-1; returns the epoch logs.

    `step(take, gen, update)` runs minibatch `take` with the epoch's `stream`
    generator; it returns (loss sum, weight, grads keyed like the (name,
    array) pairs of `params`), applied in `params` order.  `eval_first` adds
    an epoch 0 in item order that updates nothing.  `saved` (default
    `params`) must end finite."""
    rng = RngSpec(cfg.seed)
    updater = Updater(cfg)
    logs = []
    for epoch in range(0 if eval_first else 1, cfg.epochs + 1):
        started = time.perf_counter()
        update = epoch > 0
        order = rng.stream("shuffle", epoch).permutation(n_items) if update \
            else np.arange(n_items)
        gen = rng.stream(stream, epoch)
        loss_sum = 0.0
        weight = 0
        for batch_no, lo in enumerate(range(0, n_items, cfg.minibatch)):
            loss, n, grads = step(order[lo:lo + cfg.minibatch], gen, update)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch} batch {batch_no}")
            loss_sum += loss
            weight += n
            if update:
                for name, param in params:
                    updater.apply(name, param, grads[name])
        entry = EpochLog(epoch, loss_sum / weight,
                         dev_err() if dev_err is not None else float("nan"),
                         time.perf_counter() - started)
        logs.append(entry)
        if log_fn is not None:
            log_fn(entry.line())
    # the last update can make a parameter non-finite that no loss shows
    for name, param in saved if saved is not None else params:
        assert_finite(param, f"{name} after epoch {cfg.epochs}")
    return logs


def train(spec, train_set, dev_set, cfg: TrainConfig, log_fn=None):
    """Shuffled-minibatch training; returns the trained model and epoch logs.

    The returned log has one entry per epoch (train loss, dev error, wall
    seconds) so callers can grid-search on dev error and retrain.
    """
    from . import model as model_mod

    docs = list(train_set.docs)
    if not docs:
        raise DataError("no training documents")
    labels = [doc.label for doc in docs]
    if any(lab is None for lab in labels):
        raise ValueError("training documents must all be labeled")
    spec.top.dropout_rate = cfg.dropout_rate
    tv_train = model_mod.tv_outputs(spec, docs)
    ends = np.cumsum([doc.ids.size for doc in docs])
    dev_err = None
    if dev_set is not None and len(dev_set.docs):
        dev_err = functools.partial(model_mod.error_rate, spec, dev_set,
                                    tv_outs=model_mod.tv_outputs(spec, dev_set.docs))

    def step(take, drop_gen, update):
        masks = np.stack([dropout_mask(spec.doc_dim, cfg.dropout_rate, drop_gen)
                          for _ in take], axis=1) if cfg.dropout_rate > 0 else None
        # one index: the columns of the minibatch's documents, in take order
        lens = np.diff(ends, prepend=0)[take]
        cols = np.arange(lens.sum()) + np.repeat(ends[take] - np.cumsum(lens), lens)
        loss, grads = model_mod.batch_forward_backward(
            spec, [docs[i] for i in take], [labels[i] for i in take],
            chop_len=cfg.chop_len, chop_overlap=cfg.chop_overlap, dropout_masks=masks,
            tv_outs=None if tv_train is None else
            {tv_id: np.take(out, cols, axis=1) for tv_id, out in tv_train.items()})
        return loss * len(take), len(take), grads

    logs = run_epochs(cfg, len(docs), step, list(model_mod.iter_params(spec)),
                      stream="dropout", dev_err=dev_err, log_fn=log_fn)
    return spec, logs


@dataclass
class GradCheckReport:
    per_tensor: dict
    max_rel_err: float
    threshold: float
    passed: bool
    checked: int = 0

    def lines(self):
        out = [f"gradcheck threshold={self.threshold:g} coords={self.checked}"]
        for name, err in sorted(self.per_tensor.items(), key=lambda kv: -kv[1]):
            out.append(f"  {name}: max_rel_err={err:.3e}")
        status = "PASS" if self.passed else "FAIL"
        out.append(f"gradcheck {status} max_rel_err={self.max_rel_err:.3e}")
        return out


def grad_check(spec, doc, label, eps=1e-4, threshold=1e-4, max_coords=200, seed=0):
    """Central finite differences vs. analytic gradients, per tensor.

    Checks every coordinate of tensors with up to `max_coords` entries and a
    seeded random subsample of `max_coords` coordinates otherwise.  Relative
    error is |a-n| / max(|a|, |n|, 1e-8).
    """
    from . import model as model_mod

    if get_precision() != "float64":
        raise NumericError("grad_check requires the float64 precision mode")
    tv_outs = model_mod.tv_outputs(spec, [doc])
    _, grads = model_mod.batch_forward_backward(spec, [doc], [label], tv_outs=tv_outs)

    def loss_now():
        scores = model_mod.model_forward(spec, doc, tv_outs=tv_outs)
        return model_mod.square_loss(scores, label, spec.target_encoding)[0]

    gen = np.random.default_rng(seed)
    per_tensor = {}
    checked = 0
    for name, param in model_mod.iter_params(spec):
        flat = param.reshape(-1)
        grad_flat = np.asarray(grads[name]).reshape(-1)
        if flat.size <= max_coords:
            coords = np.arange(flat.size)
        else:
            coords = gen.choice(flat.size, size=max_coords, replace=False)
        worst = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            up = loss_now()
            flat[c] = orig - eps
            down = loss_now()
            flat[c] = orig
            numeric = (up - down) / (2.0 * eps)
            analytic = grad_flat[c]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
            checked += 1
        per_tensor[name] = worst
    global_max = max(per_tensor.values()) if per_tensor else 0.0
    return GradCheckReport(per_tensor, global_max, threshold,
                           global_max < threshold, checked)
