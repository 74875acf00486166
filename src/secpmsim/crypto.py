"""Counter-mode line encryption via one-time pads.

A 64-byte pad is derived from (key, line address, 71-bit counter) and XORed
with the line content.  The block function is an opaque fixed-latency
pseudorandom primitive; only determinism and pad non-reuse matter here, so
it is AES-128-ECB in a two-stage cascade:

    t      = E_K(addr64 || ctr_low64)
    pad_i  = E_K(t XOR (ctr_high64 || i)),   i = 0..3

The address/counter packing is a convention of this simulator, not a
hardware contract.

A pad is a pure function of (key, address, counter), so inside
``shared_pads()`` every engine on one key computes each pad once.  Crash
checks use it: they rebuild the same scenario for every crash point.  A
workload run (``secpmsim run``) does not, as its pads seldom repeat.
"""

from __future__ import annotations

import contextlib
import functools
import struct
from typing import Callable, Iterator

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from secpmsim.config import LINE

COUNTER_BITS = 71
_CTR_LIMIT = 1 << COUNTER_BITS
_LOW64 = (1 << 64) - 1
# base * _SPREAD copies a 128-bit value into all four 16-byte blocks of a
# line; XOR with _BLOCK_INDEX then turns block i into base ^ i.
_SPREAD = (1 << 384) | (1 << 256) | (1 << 128) | 1
_BLOCK_INDEX = (1 << 256) | (2 << 128) | 3
_PACK_ADDR_CTR = struct.Struct(">QQ").pack

BlockFn = Callable[[bytes], bytes]

# Key bytes -> {(line address, counter): pad}, set only inside shared_pads().
_shared: dict[bytes, dict[tuple[int, int], bytes]] | None = None


@contextlib.contextmanager
def shared_pads() -> Iterator[None]:
    """Every AES engine built inside the block shares one pad memo per key.

    A nested use keeps the outer memo; the previous state comes back on
    exit, also when the block raises.
    """
    global _shared
    outer = _shared
    if outer is None:
        _shared = {}
    try:
        yield
    finally:
        _shared = outer


@functools.lru_cache(maxsize=8)
def aes_block_fn(key_bytes: bytes) -> BlockFn:
    """Block permutation keyed by a 128-bit secret.

    Accepts any multiple of 16 bytes and permutes each 16-byte block
    independently (ECB), so a 64-byte pad costs one call.  ECB on whole
    blocks keeps no state between calls, so every engine with the same key
    shares one key schedule.
    """
    if len(key_bytes) != 16:
        raise ValueError("key must be 16 bytes")
    return Cipher(algorithms.AES(key_bytes), modes.ECB()).encryptor().update


class OtpEngine:
    """Pad generator for one encryption key, fixed for a simulation run."""

    def __init__(self, key_bytes: bytes):
        self._block = aes_block_fn(key_bytes)
        self._pads: dict[tuple[int, int], bytes] | None = (
            None if _shared is None else _shared.setdefault(key_bytes, {}))

    def generate(self, line_address: int, counter_value: int) -> bytes:
        """Deterministic 64-byte pad for (address, major||minor counter)."""
        pads = self._pads
        if pads is not None:
            pad = pads.get((line_address, counter_value))
            if pad is not None:
                return pad
        if not 0 <= counter_value < _CTR_LIMIT:
            raise ValueError("counter out of 71-bit range")
        t = int.from_bytes(
            self._block(_PACK_ADDR_CTR(line_address, counter_value & _LOW64)),
            "big",
        )
        base = t ^ ((counter_value >> 64) << 64)
        pad = self._block((base * _SPREAD ^ _BLOCK_INDEX).to_bytes(64, "big"))
        if pads is not None:
            pads[line_address, counter_value] = pad
        return pad


def xor_lines(a: bytes, b: bytes) -> bytes:
    if len(a) != LINE or len(b) != LINE:
        raise ValueError("lines must be 64 bytes")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(LINE, "big")


def encrypt_line(plaintext: bytes, pad: bytes) -> bytes:
    return xor_lines(plaintext, pad)


def decrypt_line(ciphertext: bytes, pad: bytes) -> bytes:
    return xor_lines(ciphertext, pad)
