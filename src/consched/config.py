"""Experiment configuration: flat key=value config files + CLI overrides.

A config file holds `key = value` lines ('#' comments). CLI flags always
win over file values. Keys mirror the CLI flag names with '-' replaced
by '_'.
"""

from __future__ import annotations

import os

from .errors import ConfigError, TraceParseError


def parse_config_file(path) -> dict[str, str]:
    if not os.path.exists(path):
        raise TraceParseError(f"config file {path} does not exist")
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise TraceParseError(f"expected key = value, got {line!r}", line=lineno)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def merge_config(file_values: dict[str, str], cli_values: dict, defaults: dict) -> dict:
    """defaults < file < explicitly set CLI flags."""
    merged = dict(defaults)
    for key, value in file_values.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}; the keys read are "
                              + ", ".join(defaults))
        try:
            merged[key] = _coerce(value, defaults[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    for key, value in cli_values.items():
        if value is not None:
            merged[key] = value
    return merged


def _coerce(text: str, like):
    """text as the type of like: every key read is an int or a float."""
    return int(text) if isinstance(like, int) else float(text)


def output_root(cli_value: str | None) -> str:
    """CLI flag beats the CONSCHED_OUT environment variable beats cwd."""
    if cli_value:
        return cli_value
    return os.environ.get("CONSCHED_OUT", ".")
