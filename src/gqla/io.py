"""Bit-exact checkpoint container (GQCK).

One self-describing file format serves all three architecture kinds so the
converters are file-to-file transforms. Layout: 4-byte magic "GQCK", a u32
version and u64 header length (little-endian), a canonical-JSON manifest
(kind, config, dtype, tensor directory with shapes and payload offsets), then
the raw row-major little-endian payload. Writes are deterministic: sorted
manifest keys, fixed tensor order, no timestamps. Tensors are float64 and
round-trip bitwise.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys

import numpy as np

from .convert_gqa import GqaWeights
from .errors import CheckpointFormatError
from .model import GqlaConfig, GqlaWeights

MAGIC = b"GQCK"
VERSION = 1

KIND_GQA = "GQA"
KIND_MLA = "MLA"
KIND_GQLA = "GQLA"
_KINDS = (KIND_GQA, KIND_MLA, KIND_GQLA)

_GQLA_FIELDS = ("q_down", "q_up", "q_rope", "kv_down", "k_up", "v_up", "k_rope", "out_proj")
_GQA_FIELDS = ("q_proj", "k_proj", "v_proj", "out_proj")
_GQA_CONFIG_FIELDS = ("model_dim", "num_heads", "num_groups", "head_dim", "rope_base")
_CONFIG_FIELDS = ("model_dim", "num_heads", "num_groups", "head_dim", "value_head_dim",
                  "rope_head_dim", "kv_rank", "q_rank", "rope_base")
_DTYPE = np.dtype("<f8")


def _normalize_kind(kind: str) -> str:
    k = str(kind).upper()
    if k not in _KINDS:
        raise CheckpointFormatError(f"unknown checkpoint kind {kind!r}")
    return k


def _config_dict(kind: str, config, weights) -> dict:
    if kind == KIND_GQA:
        return {f: getattr(weights, f) for f in _GQA_CONFIG_FIELDS}
    return {f: getattr(config, f) for f in _CONFIG_FIELDS}


def _validate_pair(kind: str, config, weights, require_finite: bool = True) -> None:
    if kind == KIND_GQA:
        if not isinstance(weights, GqaWeights):
            raise CheckpointFormatError("GQA checkpoints carry GqaWeights")
        weights.validate()
        return
    if not isinstance(weights, GqlaWeights) or not isinstance(config, GqlaConfig):
        raise CheckpointFormatError(f"{kind} checkpoints carry GqlaConfig + GqlaWeights")
    if kind == KIND_MLA and config.num_groups != config.num_heads:
        raise CheckpointFormatError(
            "MLA checkpoints are head-indexed: num_groups must equal num_heads "
            f"(got {config.num_groups} groups for {config.num_heads} heads)")
    weights.validate(config, require_finite=require_finite)


def write_checkpoint(path, kind: str, config, weights, provenance: str | None = None) -> None:
    """Serialize one checkpoint; the file parses back to an identical value.

    For the GQA kind the dimensions live on the weights and ``config`` may be
    None. ``provenance`` is an optional free-text manifest field excluded
    from value equality.
    """
    kind = _normalize_kind(kind)
    _validate_pair(kind, config, weights)
    names = [n for n in (_GQA_FIELDS if kind == KIND_GQA else _GQLA_FIELDS)
             if getattr(weights, n) is not None]  # a missing q_down is left out
    directory = []
    offset = 0
    for name in names:
        shape = np.shape(getattr(weights, name))
        directory.append({"name": name, "shape": list(shape), "offset": offset})
        offset += math.prod(shape) * _DTYPE.itemsize
    header = {"kind": kind, "dtype": "float64", "config": _config_dict(kind, config, weights),
              "tensors": directory}
    if provenance is not None:
        header["provenance"] = provenance
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQ", VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for name in names:
            # each tensor's own buffer: a copy only where it is not contiguous <f8
            fh.write(np.ascontiguousarray(getattr(weights, name), dtype=_DTYPE))


def _manifest_int(value, what: str, least: int) -> int:
    """A JSON integer of at least ``least``; bools, floats and strings are refused."""
    if type(value) is not int or value < least:
        raise CheckpointFormatError(f"{what} must be an integer >= {least}, got {value!r:.40}")
    return value


def _config_value(cfg: dict, field: str):
    if field not in cfg:
        raise CheckpointFormatError(f"manifest config is missing field {field!r}")
    value = cfg[field]
    if field != "rope_base":
        return _manifest_int(value, f"config field {field!r}", 1)
    if type(value) not in (int, float) or not 1.0 < value <= sys.float_info.max:
        raise CheckpointFormatError(f"config field 'rope_base' must be a number > 1, "
                                    f"got {value!r:.40}")
    return float(value)


def read_checkpoint(path, strict: bool = True):
    """Parse a checkpoint back into (kind, config, weights).

    For GQLA/MLA kinds config is a GqlaConfig and weights a GqlaWeights; for
    GQA, config is the plain manifest dict and weights a GqaWeights. With
    strict=False non-finite tensor values are tolerated (shapes are still
    enforced), so verification tooling can surface payload corruption as a
    failed numerical check rather than a parse error. Whatever the file
    holds, the only error raised for its contents is CheckpointFormatError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(16)
        if prefix[:4] != MAGIC:
            raise CheckpointFormatError("not a GQCK checkpoint (bad magic)")
        if len(prefix) < 16:
            raise CheckpointFormatError("file too short for a GQCK header")
        version, header_len = struct.unpack("<IQ", prefix[4:])
        if version != VERSION:
            raise CheckpointFormatError(f"unsupported container version {version}")
        payload = 16 + header_len  # where the payload starts
        if payload > size:
            raise CheckpointFormatError("file truncated inside the manifest")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, nesting too deep
            raise CheckpointFormatError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointFormatError("manifest must be a JSON object")

        kind = _normalize_kind(header.get("kind", ""))
        dtype = header.get("dtype", "float64")
        if dtype != "float64":
            raise CheckpointFormatError(f"unsupported dtype {dtype!r:.40}")
        expected = _GQA_FIELDS if kind == KIND_GQA else _GQLA_FIELDS
        directory = header.get("tensors", [])
        if not (isinstance(directory, list) and all(
                isinstance(t, dict) and isinstance(t.get("name"), str) for t in directory)):
            raise CheckpointFormatError(
                "manifest tensors must be a list of objects with string names")
        names = [t["name"] for t in directory]
        # a GQLA or MLA file may leave q_down out; GqlaWeights.validate judges that
        if sorted(names) != sorted(expected) and sorted(names + ["q_down"]) != sorted(expected):
            missing = set(expected) - set(names)
            extra = set(names) - set(expected)
            raise CheckpointFormatError(
                f"manifest tensor set mismatch for kind {kind}: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}")

        spans = []  # checked against the file size before any tensor is allocated
        for entry in directory:
            name = entry["name"]
            shape = entry.get("shape")
            if not isinstance(shape, list):
                raise CheckpointFormatError(f"tensor {name!r} shape must be a list of integers")
            shape = tuple(_manifest_int(s, f"tensor {name!r} shape entry", 1) for s in shape)
            offset = _manifest_int(entry.get("offset"), f"tensor {name!r} offset", 0)
            end = offset + math.prod(shape) * _DTYPE.itemsize
            if payload + end > size:
                raise CheckpointFormatError(f"payload truncated reading tensor {name!r}")
            spans.append((offset, end, name, shape))
        spans.sort()
        for (_, end, name, _), (start, _, nxt, _) in zip(spans, spans[1:]):
            if start < end:
                raise CheckpointFormatError(f"tensors {name!r} and {nxt!r} overlap in the payload")
        arrays = {}
        for offset, _, name, shape in spans:  # one forward pass over the payload
            arrays[name] = np.empty(shape, dtype=_DTYPE)
            fh.seek(payload + offset)
            if fh.readinto(arrays[name]) != arrays[name].nbytes:
                raise CheckpointFormatError(f"payload truncated reading tensor {name!r}")

    cfg = header.get("config", {})
    if not isinstance(cfg, dict):
        raise CheckpointFormatError("manifest config must be a JSON object")
    values = {f: _config_value(cfg, f)
              for f in (_GQA_CONFIG_FIELDS if kind == KIND_GQA else _CONFIG_FIELDS)}
    try:  # arrays holds exactly the kind's tensors, perhaps without q_down (checked above)
        config = dict(cfg) if kind == KIND_GQA else GqlaConfig(**values)
        weights = (GqaWeights(**values, **arrays) if kind == KIND_GQA
                   else GqlaWeights(**{"q_down": None, **arrays}))
        _validate_pair(kind, config, weights, require_finite=strict)
        return kind, config, weights
    except (ValueError, TypeError) as exc:
        raise CheckpointFormatError(f"checkpoint is internally inconsistent: {exc}") from exc
