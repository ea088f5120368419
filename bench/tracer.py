"""Layer spans recorded from outside the library.

`Tracer.install()` replaces, on their owning modules, the public functions
that one regemb module calls across a layer boundary (for example
`regemb.lstm.batch_forward_docs`, which `model` and `tvembed` reach through
their `lstm_mod` alias) with wrappers that record a span: name, start, end
and the index of the enclosing span.  Nothing under `src/` changes, and
`restore()` puts every original back.

Spans stay in memory; `layer_totals()` reduces them at the end:

* self time of a span = its duration minus the time its child spans cover;
* a call that re-enters the same layer (`conv_forward` calling
  `pre_activation`, `error_rate` calling `batch_scores`) is a child of the
  outer span with the same name, so it adds neither a call nor counts;
* counts (steps, bytes, documents...) are taken from the arguments and
  return value after the span has ended; the time spent counting is
  charged to no layer, so it shows only in the tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    parent: int  # index in Tracer.spans; -1 for a root span
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    counts: dict | None = None


def nbytes(obj) -> int:
    """Bytes of every array reachable through dataclass fields, dicts,
    lists and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(nbytes(v) for v in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(nbytes(getattr(obj, f)) for f in obj.__dataclass_fields__)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _enter(self, name) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    @contextmanager
    def span(self, name):
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a `name` span around every call of `owner.attr`.

        count(bound_arguments, result) -> dict of counts, added to the span.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original) if count is not None else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(span)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counted = time.perf_counter()
                span.counts = count(bound.arguments, result)
                if span.parent >= 0:  # keep counting out of the parent's self time
                    self.spans[span.parent].child_s += time.perf_counter() - counted
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> list:
        """Put every wrapped function back; returns the names that did not
        end up as their original object (empty on success)."""
        wrong = []
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                wrong.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return wrong

    def clear(self) -> None:
        self.spans = []
        self._stack = []

    # -- reduction ---------------------------------------------------------

    def layer_totals(self):
        """(self seconds, inclusive seconds, calls, counts), keyed by name.

        Inclusive seconds and calls count only the outermost span of a run
        of same-name spans.
        """
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(float)
        for span in self.spans:
            duration = span.end - span.start
            self_s[span.name] += duration - span.child_s
            if span.parent >= 0 and self.spans[span.parent].name == span.name:
                continue
            incl_s[span.name] += duration
            calls[span.name] += 1
            for key, value in (span.counts or {}).items():
                counts[key] += value
        return self_s, incl_s, calls, counts


# ---------------------------------------------------------------------------
# What is wrapped.  Counts come from arguments and return values only.
# ---------------------------------------------------------------------------


def _lstm_forward_counts(a, result):
    from regemb.lstm import plan_segments

    lengths = [np.shape(x)[0] if np.ndim(x) == 1 else np.shape(x)[1]
               for x in a["inputs_list"]]
    longest = 0
    for total in lengths:
        if total:
            plan = plan_segments(total, a["seg_len"], a["overlap"])
            longest = max(longest, max(e - s for s, _, e in plan))
    return {"lstm.steps": longest, "lstm.positions": sum(lengths)}


def _update_counts(a, result):
    grad = np.asarray(a["grad"])
    cols = grad.reshape(grad.shape[0], -1) if grad.ndim > 1 else grad.reshape(-1, 1)
    touched = int(np.count_nonzero(np.any(cols != 0, axis=0)))
    return {"optim.update_bytes": a["param"].nbytes,
            "optim.cols_touched": touched, "optim.cols_updated": cols.shape[1]}


def _file_bytes(a, result):
    return {"serialize.bytes": os.path.getsize(a["path"])}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the regemb modules."""
    from regemb import conv, corpus, lstm, model, optim, serialize, tvembed

    def grad_bytes(key):
        return lambda a, result: {key: nbytes(result[0])}

    tracer.wrap(lstm, "batch_forward_docs", "lstm.forward", _lstm_forward_counts)
    tracer.wrap(lstm, "batch_backward_docs", "lstm.backward",
                grad_bytes("lstm.grad_bytes"))
    tracer.wrap(conv, "conv_forward", "conv.forward")
    tracer.wrap(conv, "pre_activation", "conv.forward")
    tracer.wrap(conv, "backward_from_mask", "conv.backward",
                grad_bytes("conv.grad_bytes"))
    tracer.wrap(optim.Updater, "apply", "optim.update", _update_counts)
    tracer.wrap(model, "batch_forward_backward", "model.forward_backward")
    tracer.wrap(model, "pool", "model.pool")
    tracer.wrap(model, "pool_backward", "model.pool")
    tracer.wrap(model, "error_rate", "model.scores",
                lambda a, r: {"model.scores_docs": len(a["dataset"].docs)})
    tracer.wrap(model, "batch_scores", "model.scores",
                lambda a, r: {"model.scores_docs": len(a["docs"])})
    tracer.wrap(tvembed, "train_tv_lstm", "tvembed.train")
    tracer.wrap(tvembed, "train_tv_cnn", "tvembed.train")
    tracer.wrap(tvembed, "apply_tv", "tvembed.apply")
    # every module that imports the scatter kernel by name
    for owner in (lstm, conv, tvembed, model):
        tracer.wrap(owner, "scatter_add_columns", "numkernel.scatter")
    tracer.wrap(corpus, "load_token_file", "corpus.ingest",
                lambda a, r: {"corpus.tokens": sum(len(t) for t in r)})
    tracer.wrap(corpus, "load_dataset", "corpus.ingest",
                lambda a, r: {"corpus.tokens": sum(d.raw_len for d in r.docs)})
    tracer.wrap(corpus, "encode", "corpus.ingest")
    for attr in ("save_model", "save_tv"):
        tracer.wrap(serialize, attr, "serialize.save", _file_bytes)
    for attr in ("load_model", "load_tv"):
        tracer.wrap(serialize, attr, "serialize.load", _file_bytes)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced cycle, as name -> value."""
    self_s, incl_s, calls, counts = tracer.layer_totals()
    updated = counts["optim.cols_updated"]
    out = {
        "lstm.forward_s": self_s["lstm.forward"],
        "lstm.backward_s": self_s["lstm.backward"],
        "lstm.calls": calls["lstm.forward"],
        "lstm.steps": counts["lstm.steps"],
        "lstm.positions": counts["lstm.positions"],
        "lstm.grad_mb": counts["lstm.grad_bytes"] / 1e6,
        "conv.forward_s": self_s["conv.forward"],
        "conv.backward_s": self_s["conv.backward"],
        "conv.calls": calls["conv.forward"],
        "conv.grad_mb": counts["conv.grad_bytes"] / 1e6,
        "optim.update_s": self_s["optim.update"],
        "optim.update_calls": calls["optim.update"],
        "optim.update_mb": counts["optim.update_bytes"] / 1e6,
        "optim.touched_col_ratio":
            counts["optim.cols_touched"] / updated if updated else 0.0,
        "model.forward_backward_self_s": self_s["model.forward_backward"],
        "model.pool_s": self_s["model.pool"],
        "model.scores_s": incl_s["model.scores"],
        "model.scores_docs": counts["model.scores_docs"],
        "tvembed.train_self_s": self_s["tvembed.train"],
        "tvembed.apply_s": incl_s["tvembed.apply"],
        "tvembed.apply_calls": calls["tvembed.apply"],
        "numkernel.scatter_s": self_s["numkernel.scatter"],
        "numkernel.scatter_calls": calls["numkernel.scatter"],
        "corpus.ingest_s": incl_s["corpus.ingest"],
        "corpus.tokens": counts["corpus.tokens"],
        "serialize.save_s": incl_s["serialize.save"],
        "serialize.load_s": incl_s["serialize.load"],
        "serialize.mb": counts["serialize.bytes"] / 1e6,
    }
    for command in ("build-vocab", "train", "train-tv", "eval", "predict"):
        out[f"cli.{command}_s"] = incl_s[f"cli.{command}"]
    return out
