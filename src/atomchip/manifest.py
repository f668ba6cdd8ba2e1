"""Run manifests and deterministic report emission.

Every output file records the manifest that produced it (command, config,
overrides, seed, tool version) as CSV comment lines or a JSON field.  The
manifest also carries a wall-clock timestamp, which is not written
anywhere: fixed seed + fixed config must reproduce every output byte for
byte.  Floats are written with 9 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

from . import __version__
from .errors import ChipError


def format_float(value: float) -> str:
    return f"{value:.9g}"


def round_floats(obj: Any) -> Any:
    """Round every float in a JSON tree to 9 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(format_float(obj))
    if isinstance(obj, Mapping):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: str | None = None
    overrides: Mapping[str, Any] = field(default_factory=dict)
    seed: int | None = None
    tool_version: str = __version__
    timestamp: str = ""

    @classmethod
    def create(cls, command: str, config: str | None = None,
               overrides: Mapping[str, Any] | None = None,
               seed: int | None = None) -> "RunManifest":
        return cls(
            command=command, config=config, overrides=dict(overrides or {}),
            seed=seed,
            timestamp=datetime.now(tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        )

    def to_dict(self, include_timestamp: bool = False) -> dict:
        out = {
            "command": self.command,
            "config": self.config,
            "overrides": round_floats(dict(sorted(self.overrides.items()))),
            "seed": self.seed,
            "tool_version": self.tool_version,
        }
        if include_timestamp:
            out["timestamp"] = self.timestamp
        return out

    def header_lines(self) -> list[str]:
        """Deterministic '#'-comment header (timestamp deliberately omitted)."""
        parts = [f"command={self.command}"]
        if self.config is not None:
            parts.append(f"config={self.config}")
        for key, value in sorted(self.overrides.items()):
            if isinstance(value, float):
                value = format_float(value)
            parts.append(f"{key}={value}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        parts.append(f"tool_version={self.tool_version}")
        return ["# manifest: " + " ".join(parts)]


def write_output(path: Path, text: str, force: bool = False) -> None:
    """Write text, creating parent directories; refuse overwrite sans force."""
    path = Path(path)
    if path.exists() and not force:
        raise ChipError(f"refusing to overwrite existing file {path} (use --force)")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ChipError(f"cannot write {path}: {exc}") from exc


def csv_document(manifest: RunManifest, rows: list[str]) -> str:
    return "\n".join(manifest.header_lines() + rows) + "\n"


def json_document(manifest: RunManifest, payload: Mapping[str, Any]) -> str:
    doc = {"manifest": manifest.to_dict(), **round_floats(dict(payload))}
    return json.dumps(doc, indent=2) + "\n"
