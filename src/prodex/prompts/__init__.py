"""Versioned prompt templates; hashes go into run ledgers.

Each template is read from disk once per process, so the ledger's
``bundle_hash`` covers exactly the bytes the prompts were built from.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

_TEMPLATE_NAMES = (
    "direct_system.txt",
    "direct_user.txt",
    "decision_system.txt",
    "decision_user.txt",
    "funcgen_system.txt",
    "funcgen_user.txt",
    "refine_user.txt",
)


@functools.cache
def load(name: str) -> str:
    return Path(__file__).with_name(name).read_text(encoding="utf-8")


def bundle_hash() -> str:
    """Stable hash over all templates, for reproducibility records."""
    digest = hashlib.sha256()
    for name in _TEMPLATE_NAMES:
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(load(name).encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()
