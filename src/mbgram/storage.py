"""Versioned JSON disk cache with content digests.

Cache entries are single JSON files {key}.json of the shape

    {"format": <schema tag>, "digest": <sha256 of canonical payload>,
     "payload": {...}}

Reads verify both the schema tag and the digest; any mismatch is treated
as a miss so stale or truncated files trigger recomputation instead of
corrupt results.  Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

CACHE_DIR_ENV = "MBGRAM_CACHE_DIR"
DEFAULT_CACHE_DIR = "cache"


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def cache_path(cache_dir: Path, key: str) -> Path:
    return Path(cache_dir) / f"{key}.json"


def cache_write(cache_dir: Path, key: str, fmt: str, payload) -> Path:
    path = cache_path(cache_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    envelope = {"format": fmt, "digest": payload_digest(payload), "payload": payload}
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            # dumps runs the C encoder; dump would run the pure-Python one
            handle.write(json.dumps(envelope, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def cache_read(cache_dir: Path, key: str, fmt: str):
    """Return the cached payload, or None on any miss or mismatch."""
    path = cache_path(cache_dir, key)
    try:
        with open(path) as handle:
            envelope = json.load(handle)
    except (OSError, ValueError):  # ValueError: not UTF-8 (UnicodeDecodeError) or not JSON
        return None
    if not isinstance(envelope, dict) or envelope.get("format") != fmt:
        return None
    payload = envelope.get("payload")
    if payload is None or envelope.get("digest") != payload_digest(payload):
        return None
    return payload
