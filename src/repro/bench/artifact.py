"""The persisted ``BENCH_*.json`` artifacts: where they go, how they are
written."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.bench.artifact_schema import validate_artifact

#: Directory the artifacts are written to (default: the working
#: directory).
ARTIFACT_ENV_VAR = "REPRO_BENCH_ARTIFACT_DIR"


def artifact_path(name: str) -> Path:
    """Where the artifact file ``name`` is written."""
    return Path(os.environ.get(ARTIFACT_ENV_VAR, ".")) / name


def write_artifact(name: str, payload: Any, notes: list[str]) -> None:
    """Write ``payload`` as JSON and say where in ``notes`` — or why
    not: read-only CI checkouts still keep the rendered table.

    The payload is checked against its family schema first, so a
    malformed artifact raises :class:`~repro.exceptions.ArtifactError`
    instead of landing on disk.
    """
    validate_artifact(payload)
    path = artifact_path(name)
    try:
        path.write_text(json.dumps(payload, indent=2) + "\n")
        notes.append(f"artifact written to {path}")
    except OSError as error:
        notes.append(f"artifact not written ({error})")
