"""Bit-exact binary serialization of models and tv embeddings.

Container layout (all integers little-endian):
    magic "RGEM" | version u32 | meta_len u32 | metadata bytes
    | n_tensors u32 | per tensor: name_len u32, name bytes,
      rows u64, cols u64, row-major float32 data.
Metadata is UTF-8 ``key=value`` lines; structured values are canonical JSON
(sorted keys, compact separators), which makes save -> load -> save
byte-identical.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from . import conv as conv_mod
from . import lstm as lstm_mod
from . import model as model_mod
from . import tvembed as tv_mod
from .corpus import Vocabulary, split_lines
from .errors import DataError
from .numkernel import all_finite, real_dtype

MAGIC = b"RGEM"
VERSION = 1


def _canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def save_tensors(path, metadata: dict, tensors) -> None:
    """Write the container; 1-d arrays are stored as a single row."""
    meta_text = "".join(f"{k}={v}\n" for k, v in metadata.items())
    meta_bytes = meta_text.encode("utf-8")
    tensors = list(tensors)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            arr = np.asarray(arr)
            if arr.ndim == 1:
                arr = arr.reshape(1, -1)
            if arr.ndim != 2:
                raise ValueError(f"tensor {name!r} must be 1-d or 2-d")
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


class _Tensors(dict):
    """Tensors by name; looking up a missing one is a data error naming it."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, name):
        raise DataError(f"{self.path}: missing tensor {name!r}")


def load_tensors(path):
    """Read the container; data is promoted to the active precision.
    A tensor with a NaN or infinite entry, a repeated tensor name, a length
    field that runs past the end of the file and bytes after the last
    tensor are data errors.  Each tensor is read straight into its array,
    so in float32 mode the loaded arrays are the only copy."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise DataError(f"{path}: not a {MAGIC.decode()} file")
        left = os.fstat(fh.fileno()).st_size - 4

        def take(n):
            """Claim the next n bytes; checked before anything is allocated."""
            nonlocal left
            if n > left:
                raise DataError(f"{path}: corrupt container "
                                f"({n} bytes wanted, {left} left)")
            left -= n
            return n

        try:
            (version,) = struct.unpack("<I", fh.read(take(4)))
            if version != VERSION:
                raise DataError(f"{path}: unsupported format version {version}")
            (meta_len,) = struct.unpack("<I", fh.read(take(4)))
            metadata = {}
            for line in split_lines(fh.read(take(meta_len)).decode("utf-8")):
                key, _, value = line.partition("=")
                metadata[key] = value
            (n_tensors,) = struct.unpack("<I", fh.read(take(4)))
            tensors = _Tensors(path)
            for _ in range(n_tensors):
                (name_len,) = struct.unpack("<I", fh.read(take(4)))
                name = fh.read(take(name_len)).decode("utf-8")
                if name in tensors:
                    raise DataError(f"{path}: duplicate tensor {name!r}")
                rows, cols = struct.unpack("<QQ", fh.read(take(16)))
                take(4 * rows * cols)
                data = np.empty((rows, cols), dtype="<f4")
                fh.readinto(data)
                if not all_finite(data):
                    raise DataError(f"{path}: tensor {name!r} has non-finite values")
                tensors[name] = data.astype(real_dtype(), copy=False)
        except (struct.error, ValueError, OverflowError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: corrupt container ({exc})") from None
    if left:
        raise DataError(f"{path}: {left} bytes after the last tensor")
    return metadata, tensors


def _vec(tensors, name):
    return tensors[name].ravel()


def _tv_config(emb: tv_mod.TvEmbedding) -> dict:
    cfg = {
        "kind": emb.kind,
        "dim": emb.dim,
        "name": emb.name,
        "direction": emb.direction,
        "region_size": emb.region_size,
        "align_offset": emb.align_offset,
        "target_vocab_hash": emb.target_vocab_hash,
        "source_vocab_hash": emb.source_vocab_hash,
        "vocab_size": emb.vocab_size,
    }
    if emb.kind == "cnn":
        cfg["input_kind"] = emb.conv_params.input_kind
    return cfg


def _tv_from_config(cfg: dict, tensors: dict, prefix: str = "") -> tv_mod.TvEmbedding:
    if cfg["kind"] not in ("lstm", "cnn"):
        raise ValueError(f"unknown tv kind {cfg['kind']!r}")
    if cfg["kind"] == "lstm":
        if cfg["direction"] not in ("forward", "backward"):
            raise ValueError(f"unknown tv direction {cfg['direction']!r}")
        kind_params = {"direction": cfg["direction"],
                       "lstm_params": _lstm_from(tensors, prefix, "full", cfg["dim"],
                                                 cfg["vocab_size"], "one-hot", [])}
    else:
        kind_params = {"region_size": cfg["region_size"],
                       "conv_params": conv_mod.ConvParams(
                           cfg["dim"], cfg["region_size"], cfg["input_kind"],
                           cfg["vocab_size"], tensors[f"{prefix}w"],
                           _vec(tensors, f"{prefix}b"))}
    return tv_mod.TvEmbedding(
        kind=cfg["kind"], dim=cfg["dim"], name=cfg["name"],
        align_offset=cfg["align_offset"], target_vocab_hash=cfg["target_vocab_hash"],
        source_vocab_hash=cfg["source_vocab_hash"], **kind_params).freeze()


def save_tv(path, emb: tv_mod.TvEmbedding) -> None:
    metadata = {"format": "tv", "config": _canon_json(_tv_config(emb))}
    save_tensors(path, metadata, emb.tensors())


def _load(path, kind, build):
    """Read a `kind` container and build it from its config; a missing
    config key and a malformed or wrong config value are data errors."""
    metadata, tensors = load_tensors(path)
    if metadata.get("format") != kind:
        raise DataError(f"{path}: not a {kind} file")
    try:
        return build(json.loads(metadata["config"]), tensors)
    except KeyError as exc:
        raise DataError(f"{path}: no config key {exc}") from None
    except (TypeError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise DataError(f"{path}: bad config ({exc})") from None


def load_tv(path) -> tv_mod.TvEmbedding:
    return _load(path, "tv", _tv_from_config)


def _model_config(spec: model_mod.ModelSpec) -> dict:
    branches = []
    for branch in spec.branches:
        pooling = {"kind": branch.pooling.kind, "regions": branch.pooling.regions}
        if isinstance(branch, model_mod.LstmBranch):
            parts = {}
            for tag, params, _ in branch.parts():
                parts[tag] = {
                    "variant": params.variant,
                    "units": params.units,
                    "input_dim": params.input_dim,
                    "side": [sp.tv_id for sp in params.side],
                }
            branches.append({
                "type": "lstm",
                "direction": branch.direction,
                "pooling": pooling,
                "parts": parts,
                "embedding_dim": None if branch.embedding is None
                else branch.embedding.shape[0],
                "train_embedding": branch.train_embedding,
            })
        else:
            branches.append({
                "type": "conv",
                "pooling": pooling,
                "maps": branch.params.maps,
                "region_size": branch.params.region_size,
                "input_kind": branch.params.input_kind,
                "side": [sp.tv_id for sp in branch.params.side],
            })
    return {
        "n_classes": spec.n_classes,
        "vocab_size": spec.vocab_size,
        "class_names": spec.class_names,
        "target_encoding": spec.target_encoding,
        "dropout_rate": spec.top.dropout_rate,
        "branches": branches,
        "tv": {tv_id: _tv_config(emb) for tv_id, emb in spec.tv_table.items()},
        "vocab": spec.vocab.words if spec.vocab is not None else None,
    }


def save_model(path, spec: model_mod.ModelSpec) -> None:
    metadata = {"format": "model", "config": _canon_json(_model_config(spec))}
    save_tensors(path, metadata, model_mod.iter_tensors(spec))


def _lstm_from(tensors, prefix, variant, units, input_dim, input_kind, side):
    """A cell whose stacked tensors are filled from the per-gate ones that
    `gate_tensors` names; `side` lists (tv id, dim) pairs."""
    if variant not in lstm_mod.GATES:
        raise ValueError(f"unknown LSTM variant {variant!r}")
    rows = len(lstm_mod.GATES[variant]) * units
    dt = real_dtype()
    params = lstm_mod.LstmParams(
        variant, units, input_dim, input_kind, np.empty((rows, input_dim), dt),
        np.empty((rows, units), dt), np.empty(rows, dt),
        [lstm_mod.SideInputParams(tv_id, dim, np.empty((rows, dim), dt))
         for tv_id, dim in side],
    )
    for name, block in lstm_mod.gate_tensors(params, prefix):
        arr = tensors[name]
        if arr.shape not in (block.shape, (1, *block.shape)):  # biases are 1 row
            raise ValueError(f"tensor {name!r}: expected {block.shape}, got {arr.shape}")
        block[...] = arr
    return params


def load_model(path) -> model_mod.ModelSpec:
    return _load(path, "model", _model_from_config)


def _model_from_config(cfg: dict, tensors: dict) -> model_mod.ModelSpec:
    if not isinstance(cfg["class_names"], list):
        raise ValueError("class_names is not a list")
    tv_table = {}
    for tv_id in sorted(cfg["tv"]):
        tv_table[tv_id] = _tv_from_config(cfg["tv"][tv_id], tensors, f"tv.{tv_id}.")
    branches = []
    for bi, bc in enumerate(cfg["branches"]):
        if bc["type"] not in ("lstm", "conv"):
            raise ValueError(f"unknown branch type {bc['type']!r}")
        pooling = model_mod.PoolingSpec(bc["pooling"]["kind"], bc["pooling"]["regions"])
        if bc["type"] == "lstm":
            embedding = tensors.get(f"br{bi}.emb")
            input_kind = "dense" if embedding is not None else "one-hot"
            parts = {}
            for tag, part in bc["parts"].items():
                parts[tag] = _lstm_from(
                    tensors, f"br{bi}.{tag}.", part["variant"], part["units"],
                    part["input_dim"], input_kind,
                    [(tv_id, tv_table[tv_id].dim) for tv_id in part["side"]])
            fwd, bwd = parts.get("fwd"), parts.get("bwd")
            branches.append(model_mod.LstmBranch(
                bc["direction"], pooling, fwd, bwd, embedding,
                bc["train_embedding"],
            ))
        else:
            side = [lstm_mod.SideInputParams(tv_id, tv_table[tv_id].dim,
                                             tensors[f"br{bi}.side.{tv_id}.w"])
                    for tv_id in bc["side"]]
            params = conv_mod.ConvParams(
                bc["maps"], bc["region_size"], bc["input_kind"], cfg["vocab_size"],
                tensors[f"br{bi}.w"], _vec(tensors, f"br{bi}.b"), side,
            )
            branches.append(model_mod.ConvBranch(pooling, params))
    top = model_mod.TopLayerParams(tensors["top.w"], _vec(tensors, "top.b"),
                                   cfg["dropout_rate"])
    vocab = Vocabulary(cfg["vocab"]) if cfg["vocab"] is not None else None
    return model_mod.ModelSpec(
        branches, top, cfg["n_classes"], cfg["vocab_size"], cfg["class_names"],
        cfg["target_encoding"], tv_table, vocab,
    )
