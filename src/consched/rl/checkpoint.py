"""Versioned policy checkpoint container.

Layout: magic line, 8-byte little-endian header length, JSON header
(format version, architecture descriptor, training metadata, parameter
manifest), then the raw float64 little-endian tensors in manifest order.
Writes are atomic (temp file + rename) and byte-deterministic for equal
parameters and metadata.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict

import numpy as np

from ..errors import CheckpointError, ConfigError
from .net import Architecture, PolicyNet
from .reward import RewardWeights

MAGIC = b"#consched-policy\n"
# 3: per-decision choice lists, so no head size and no stored prior;
# 2 held a head_prior per 2^i-node subset; 1 the state-grid trunk
FORMAT_VERSION = 3


def save_checkpoint(net: PolicyNet, path, metadata: dict | None = None) -> None:
    names = sorted(net.params)
    header = {
        "format_version": FORMAT_VERSION,
        "architecture": asdict(net.arch),
        "metadata": metadata or {},
        "params": [{"name": n, "shape": list(net.params[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for name in names:
                fh.write(np.ascontiguousarray(net.params[name], dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[PolicyNet, dict]:
    """Read a checkpoint; returns (net, metadata). Round-trips exactly.

    k must be an integer >= 1 and every parameter of the net in the manifest.
    The net's reward_weights come from the metadata's w1 when it has one.
    Any file that does not hold such a net raises CheckpointError naming path.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{path} is not a policy checkpoint (bad magic)")
    offset = len(MAGIC)
    if len(raw) < offset + 8:
        raise CheckpointError(f"{path}: truncated header length")
    blob_len = int.from_bytes(raw[offset:offset + 8], "little")
    offset += 8
    if len(raw) < offset + blob_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[offset:offset + blob_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unparseable header: {exc}") from exc
    offset += blob_len
    try:  # a header of the wrong shape fails in a lookup or a constructor
        if header.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {header.get('format_version')}; this build reads "
                f"format version {FORMAT_VERSION}")
        try:
            arch = Architecture(**{key: tuple(v) if isinstance(v, list) else v
                                   for key, v in header["architecture"].items()})
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: bad architecture descriptor: {exc}") from exc
        if not isinstance(arch.k, int) or arch.k < 1:
            raise CheckpointError(f"{path}: architecture k={arch.k!r}; k must be an integer >= 1")
        net = PolicyNet(arch, np.random.default_rng(0))
        for item in header["params"]:
            name, shape = item["name"], tuple(item["shape"])
            if name not in net.params or net.params[name].shape != shape:
                raise CheckpointError(f"{path}: unexpected parameter {name} {shape}")
            count = int(np.prod(shape)) if shape else 1
            nbytes = count * 8
            if len(raw) < offset + nbytes:
                raise CheckpointError(f"{path}: truncated tensor data for {name}")
            net.params[name] = np.frombuffer(
                raw[offset:offset + nbytes], dtype="<f8").reshape(shape).copy()
            offset += nbytes
        if offset != len(raw):
            raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
        missing = sorted(set(net.params) - {item["name"] for item in header["params"]})
        if missing:
            raise CheckpointError(f"{path}: missing parameters {', '.join(missing)}")
        metadata = header.get("metadata", {})
        if "w1" in metadata:
            net.reward_weights = RewardWeights(metadata["w1"])
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc!r}") from exc
    return net, metadata


def ensure_compatible(loaded: Architecture, expected: Architecture, path="checkpoint") -> None:
    if loaded != expected:
        raise CheckpointError(
            f"{path} architecture {asdict(loaded)} does not match "
            f"configured {asdict(expected)}")
