"""Experiment configuration: flat key=value config files and the output root.

A config file holds `key = value` lines ('#' comments). Keys mirror the
CLI flag names with '-' replaced by '_'; the CLI decides which keys it
reads, and its flags win over file values.
"""

from __future__ import annotations

import os

from .errors import TraceParseError


def parse_config_file(path) -> dict[str, str]:
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


def output_root(cli_value: str | None) -> str:
    """CLI flag beats the CONSCHED_OUT environment variable beats cwd."""
    if cli_value:
        return cli_value
    return os.environ.get("CONSCHED_OUT", ".")
