"""Deterministic simulator of an encrypted persistent memory system.

The simulator models a memory controller that encrypts 64-byte lines in
counter mode, keeps the per-page counters durable through a write-through
counter cache, merges redundant counter writes in the write queue, and
re-encrypts pages on minor-counter overflow.  A crash-injection engine
snapshots the durable state (NVM plus the battery-backed write queue) at
every durability-relevant boundary and verifies that recovery always lands
in a consistent state.
"""

from secpmsim.config import Config, Mode
from secpmsim.controller import Controller

__all__ = ["Config", "Controller", "Mode"]
