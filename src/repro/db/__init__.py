"""Database facade and value-to-positional update translation."""

from .database import Database
from .replicas import ReplicatedTable
from .update_processor import (
    DuplicateKey,
    KeyNotFound,
    PositionalUpdater,
    resolve_batch_positions,
)

__all__ = [
    "Database",
    "DuplicateKey",
    "KeyNotFound",
    "PositionalUpdater",
    "ReplicatedTable",
    "resolve_batch_positions",
]
