"""Counter-mode line encryption via one-time pads.

A 64-byte pad is derived from (key, line address, 71-bit counter) and XORed
with the line content.  The block function is an opaque fixed-latency
pseudorandom primitive; only determinism and pad non-reuse matter here, so
it is AES-128 on the split-counter seed (Yan et al., ISCA 2006):

    pad_i = E_K(line_index55 || ctr71 || i2),   i = 0..3

where line_index is the address divided by 64.  The four blocks go through
one 64-byte ECB call, so a pad costs one AES call.  The seed fits one block
for line-aligned addresses below 2^61 (the pad domain); any other address
raises ``ValueError``.  Every address the simulator maps lies below 2^41.
The cipher backend (``cryptography``) is imported when the first key
schedule is built, so a run that encrypts nothing never loads it.

The controller stores each encrypted line as a ``Sealed`` value: the
plaintext with the (key, address, counter) it was encrypted under.  It
stands for ``plaintext XOR pad`` and computes those ciphertext bytes only
on demand (``bytes``, ``==``, ``hash``), so a read under the counter the
line was sealed with needs neither AES nor XOR, while a read under any
other counter decrypts the real ciphertext and gets the same garbage a
real device would return.
"""

from __future__ import annotations

import functools
from typing import Callable

from secpmsim.config import LINE

COUNTER_BITS = 71
_CTR_LIMIT = 1 << COUNTER_BITS
_ADDR_LIMIT = 1 << 61  # 55-bit line index, 71-bit counter, 2-bit block
# seed * _SPREAD copies a 128-bit seed into all four 16-byte blocks of a
# line; XOR with _BLOCK_INDEX then turns block i into seed | i.
_SPREAD = (1 << 384) | (1 << 256) | (1 << 128) | 1
_BLOCK_INDEX = (1 << 256) | (2 << 128) | 3

BlockFn = Callable[[bytes], bytes]


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
    # Imported on first use: an unencrypted run never loads the backend.
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    return Cipher(algorithms.AES(key_bytes), modes.ECB()).encryptor().update


class OtpEngine:
    """Pad generator for one encryption key, fixed for a simulation run."""

    def __init__(self, key_bytes: bytes):
        self.key = key_bytes
        self._block = aes_block_fn(key_bytes)

    def generate(self, line_address: int, counter_value: int) -> bytes:
        """Deterministic 64-byte pad for (address, major||minor counter)."""
        if not 0 <= counter_value < _CTR_LIMIT:
            raise ValueError("counter out of 71-bit range")
        if line_address % LINE or not 0 <= line_address < _ADDR_LIMIT:
            raise ValueError(f"address {line_address:#x} is not a 64-byte"
                             " aligned address below 2^61")
        # (line_address >> 6) << 73 for an aligned address.
        seed = line_address << 67 | counter_value << 2
        return self._block((seed * _SPREAD ^ _BLOCK_INDEX).to_bytes(64, "big"))


def xor_lines(a: bytes, b: bytes) -> bytes:
    if len(a) != LINE or len(b) != LINE:
        raise ValueError("lines must be 64 bytes")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(LINE, "big")


def encrypt_line(plaintext: bytes, pad: bytes) -> bytes:
    return xor_lines(plaintext, pad)


def decrypt_line(ciphertext: bytes, pad: bytes) -> bytes:
    return xor_lines(ciphertext, pad)


class Sealed:
    """A line encrypted under ``engine``'s key at (address, counter),
    held as its plaintext: it stands for ``plaintext XOR pad``.

    ``bytes()`` computes the ciphertext.  ``==`` and ``hash`` follow those
    bytes, so a sealed line equals the eager ciphertext and never its own
    plaintext; two seals of one plaintext under one (key, address,
    counter) compare equal without computing a pad.
    """

    __slots__ = ("plaintext", "engine", "address", "counter")

    def __init__(self, plaintext: bytes, engine: OtpEngine, address: int,
                 counter: int):
        self.plaintext = plaintext
        self.engine = engine
        self.address = address
        self.counter = counter

    def __bytes__(self) -> bytes:
        return encrypt_line(self.plaintext,
                            self.engine.generate(self.address, self.counter))

    def __eq__(self, other: object) -> bool:
        if type(other) is Sealed:
            if (self.address == other.address and self.counter == other.counter
                    and self.plaintext == other.plaintext
                    and self.engine.key == other.engine.key):
                return True
            return bytes(self) == bytes(other)
        if isinstance(other, bytes):
            return bytes(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(bytes(self))
