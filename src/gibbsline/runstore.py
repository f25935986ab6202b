"""Manifest-backed run store: per-run directories with content digests.

Every emitted file is listed in the run manifest with its sha256; writes go
through a temp file plus atomic rename. The store only writes: it never
reads a manifest back.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import MissingRun

MANIFEST_NAME = "manifest.json"


def _utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class RunManifest:
    run_id: str
    config_hash: str
    tool_version: str
    created_utc: str
    commands: list[dict] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


class RunStore:
    """Directory of runs named by config hash plus creation timestamp.

    The store keeps the manifest of each run it created, updates that copy
    on every put and finish, and rewrites the file from it. A run it did not
    create raises MissingRun.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifests: dict[str, RunManifest] = {}

    def new_run(self, config_hash: str, command: str, tool_version: str) -> str:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
        run_id = f"{config_hash[:12]}-{stamp}"
        bump = 0
        while (self.root / run_id).exists():
            bump += 1
            run_id = f"{config_hash[:12]}-{stamp}-{bump}"
        run_dir = self.root / run_id
        run_dir.mkdir(parents=True)
        manifest = RunManifest(
            run_id=run_id,
            config_hash=config_hash,
            tool_version=tool_version,
            created_utc=_utcnow(),
            commands=[{"command": command, "status": "running", "finished_utc": None}],
        )
        self._manifests[run_id] = manifest
        self._write_manifest(manifest)
        return run_id

    def run_dir(self, run_id: str) -> Path:
        d = self.root / run_id
        if not d.is_dir():
            raise MissingRun(f"no run directory {run_id!r} under {self.root}")
        return d

    def _created(self, run_id: str) -> RunManifest:
        """The manifest of a run this store created."""
        if run_id not in self._manifests:
            raise MissingRun(f"run {run_id!r} was not created by this store under {self.root}")
        return self._manifests[run_id]

    def _write_manifest(self, manifest: RunManifest) -> None:
        path = self.root / manifest.run_id / MANIFEST_NAME
        self._atomic_write(path, manifest.to_json().encode("utf-8"))

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def put(self, run_id: str, name: str, data: bytes | str) -> str:
        if isinstance(data, str):
            data = data.encode("utf-8")
        manifest = self._created(run_id)
        digest = _sha256(data)
        self._atomic_write(self.run_dir(run_id) / name, data)
        manifest.files[name] = digest
        self._write_manifest(manifest)
        return digest

    def finish_command(self, run_id: str, status: str) -> None:
        manifest = self._created(run_id)
        manifest.commands[-1]["status"] = status
        manifest.commands[-1]["finished_utc"] = _utcnow()
        self._write_manifest(manifest)
