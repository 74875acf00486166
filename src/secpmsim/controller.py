"""Memory-controller state machine.

Orders every flush as: locate counter -> bump minor -> encrypt -> write the
counter through the cache -> stage counter+data in the two-line register ->
append both to the write queue in one indivisible step -> ack.  Reads
overlap pad generation with the NVM access.  Minor-counter overflow
triggers a page re-encryption tracked by the status register (``Rsr``), an
immutable value that a crash snapshot keeps as it was, so recovery can
finish the page.

A line is encrypted by sealing it (``crypto.Sealed``): the queue and the
NVM store hold the plaintext with the counter it was sealed under, and the
ciphertext is computed on demand, so the durable image is exactly the
counter-mode ciphertext.  Every encryption is charged ``aes_ns`` and
checked for pad reuse in ``_seal``.  A read under the sealing counter gets
the plaintext back directly; any other read (a line never written, a
counter lost in a crash, a counter-tracking bug) decrypts the real
ciphertext under the counter it looked up, as the hardware would.

The timing model is coarse and event-driven on one global clock: each
operation advances the clock by its configured latency, and appends stall
(draining the queue against per-bank occupancy) when the queue is full.  Crash
boundaries are announced through ``boundary_hook`` after every
durability-relevant state change.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Optional

from secpmsim.config import LINE, LINES_PER_PAGE, PAGE, Config, Mode
from secpmsim.counters import (
    CounterAddressMap,
    CounterCache,
    CounterLine,
    increment_minor,
)
# ``encrypt_line`` is unused here but stays a module global: tracing tools
# patch both XOR helpers on this module to count XOR work.
from secpmsim.crypto import OtpEngine, Sealed, decrypt_line, encrypt_line  # noqa: F401
from secpmsim.nvm import CrashSnapshot, NvmDevice, Rsr, take_crash_snapshot
from secpmsim.write_queue import (
    COUNTER,
    DATA,
    Origin,
    WriteQueue,
    WriteQueueEntry,
)


def derive_key(seed: int) -> bytes:
    return hashlib.sha256(b"secpmsim-key-%d" % seed).digest()[:16]


class Controller:
    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.mode = Mode(cfg.mode)
        # Per-flush constants, fixed for the controller's lifetime.
        self._encrypted = self.mode.encrypted
        self._write_through = self.mode.write_through
        self._use_register = cfg.use_register
        self._flush_overhead_ns = cfg.flush_overhead_ns
        self._cache_hit_ns = cfg.cache_hit_ns
        self._aes_ns = cfg.aes_ns
        self._read_ns = cfg.read_ns
        self.otp = OtpEngine(derive_key(cfg.seed))
        self._key = self.otp.key

        self.map = CounterAddressMap(cfg.mapped_pages)
        self.nvm = NvmDevice(cfg.banks, cfg.t_wr_ns, self._read_ns)
        self.cache = CounterCache(cfg.cache_size, cfg.cache_ways)
        self.queue = WriteQueue(cfg.queue_len, cwr_enabled=self.mode.cwr)
        self.rsr: Rsr | None = None
        self.clock = 0.0
        self.reencryptions = 0
        self.flushes = 0
        self.otp_reuse = 0
        # Highest counter each line has been encrypted under; a pad is
        # fresh only if its counter strictly exceeds it.
        self._last_ctr: dict[int, int] = {}
        self.boundary_hook: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    # plumbing

    def _boundary(self, label: str) -> None:
        if self.boundary_hook is not None:
            self.boundary_hook(label)

    def _read_line_raw(self, address: int, t: float
                       ) -> tuple[bytes | Sealed, float]:
        queued = self.queue.latest.get(address)
        if queued is not None:
            return queued.payload, t + self._read_ns
        return self.nvm.nvm_read(address, t)

    def _drain(self, t: float, keep: int = 0, until: float = math.inf) -> float:
        """Issue queue heads in FIFO order, each once its bank is free, until
        ``keep`` entries remain or the next issue would come after ``until``;
        returns the time of the last issue."""
        nvm = self.nvm
        entries = self.queue.entries
        while len(entries) > keep:
            ready = nvm.busy_until[nvm.bank(entries[0].address)]
            if ready > t:
                t = ready
            if t > until:
                break
            self.queue.drain_one(nvm, t)
            hook = self.boundary_hook
            if hook is not None:
                hook("drain")
        return t

    def _ensure_space(self, n: int, t: float) -> float:
        """Backpressure: when the queue cannot take n entries, drain down
        to the low watermark (half capacity), charging the wait time."""
        capacity = self.queue.capacity
        if len(self.queue.entries) + n <= capacity:
            return t
        return self._drain(t, keep=min(capacity - n, capacity // 2))

    def _enqueue(self, address: int, payload: bytes | Sealed, origin: Origin,
                 t: float) -> float:
        """Wait for a free slot, queue one line and announce it as durable."""
        t = self._ensure_space(1, t)
        self.queue.append(WriteQueueEntry(address, payload, origin))
        self._boundary("append")
        return t

    def idle_drain(self, duration: float) -> float:
        """Let the queue drain in the background for ``duration`` ns of
        CPU compute time (e.g. between transactions)."""
        end = self.clock + duration
        self._drain(self.clock, until=end)
        self.clock = end
        return end

    def drain_all(self) -> float:
        self.clock = self._drain(self.clock)
        return self.clock

    def _seal(self, address: int, ctr: int, plaintext: bytes, t: float
              ) -> tuple[Sealed, float]:
        """Encrypt a line under ``ctr``: count a reused pad input, charge
        the AES latency, and return the sealed line."""
        last = self._last_ctr.get(address)
        if last is not None and ctr <= last:
            self.otp_reuse += 1
        else:
            self._last_ctr[address] = ctr
        return Sealed(plaintext, self.otp, address, ctr), t + self._aes_ns

    def _open(self, address: int, ctr: int, stored: bytes | Sealed) -> bytes:
        """Decrypt a stored line under ``ctr``; a line sealed here under
        that very counter and key needs no pad."""
        if (type(stored) is Sealed and stored.counter == ctr
                and stored.address == address and stored.engine.key == self._key):
            return stored.plaintext
        return decrypt_line(bytes(stored), self.otp.generate(address, ctr))

    def _get_counter_line(self, cline: int, t: float) -> tuple[CounterLine, float]:
        line = self.cache.lookup(cline)
        if line is not None:
            return line, t + self._cache_hit_ns
        payload, t = self._read_line_raw(cline, t)
        line = CounterLine.deserialize(payload)
        t = self._insert_counter(cline, line, t)
        return line, t

    def _insert_counter(self, cline: int, line: CounterLine, t: float) -> float:
        victim = self.cache.insert(cline, line)
        if victim is not None:
            # Write-back eviction (only reachable without write-through).
            vaddr, vline = victim
            t = self._enqueue(vaddr, vline.serialize(), COUNTER, t)
        return t

    # ------------------------------------------------------------------
    # flush / read / fence

    def handle_flush(self, address: int, plaintext: bytes, now: float | None = None,
                     ) -> float:
        """Run the full flush sequence; returns the ack (retire) time."""
        if len(plaintext) != LINE:
            raise ValueError("line payload must be 64 bytes")
        t = (self.clock if now is None else now) + self._flush_overhead_ns
        self.flushes += 1

        if not self._encrypted:
            t = self._enqueue(address, plaintext, DATA, t)
            self.clock = t
            return t

        cline, minor_index = self.map.locate(address)
        # The cached line is bumped in place, which also keeps the cache
        # current; the lookup has already made it most recently used.
        line, t = self._get_counter_line(cline, t)
        if not increment_minor(line, minor_index):
            t = self.reencrypt_page(address // PAGE, t)
            line, t = self._get_counter_line(cline, t)
            increment_minor(line, minor_index)

        sealed, t = self._seal(address, line.counter_value(minor_index),
                               plaintext, t)

        if not self._write_through:
            # Broken baseline: the counter stays dirty in the cache and
            # only the data entry becomes durable.
            self.cache.mark_dirty(cline)
            t = self._enqueue(address, sealed, DATA, t)
        elif self._use_register:
            queue = self.queue
            hook = self.boundary_hook
            counter_image = line.serialize()
            if hook is not None:
                # The counter line, then the data line, go into the
                # two-line staging register.  It is volatile and nothing
                # reads it back, so its two stores are crash points only.
                hook("reg_store")
                hook("reg_store")
            if len(queue.entries) + 2 > queue.capacity:
                t = self._ensure_space(2, t)
            queue.atomic_append_pair(cline, counter_image, address, sealed)
            if hook is not None:
                hook("append_pair")
        else:
            t = self._enqueue(cline, line.serialize(), COUNTER, t)
            t = self._enqueue(address, sealed, DATA, t)

        self.clock = t
        return t

    def handle_read(self, address: int) -> bytes:
        """Decrypting read; pad generation overlaps the NVM access.

        A page re-encryption runs to completion inside the flush that
        overflows, or inside ``from_snapshot``, so no read sees an active
        status register or a half-moved page.
        """
        t0 = self.clock
        if not self._encrypted:
            payload, t = self._read_line_raw(address, t0)
            self.clock = t
            return payload

        cline, minor_index = self.map.locate(address)
        line, t_ctr = self._get_counter_line(cline, t0)
        stored, t_data = self._read_line_raw(address, t0)
        self.clock = max(t_data, t_ctr + self._aes_ns)
        return self._open(address, line.counter_value(minor_index), stored)

    def fence(self) -> float:
        """All prior flushes are acked (queued = durable) by construction."""
        self._boundary("fence")
        return self.clock

    def flush_counter_cache(self) -> float:
        """Push every dirty counter line to the queue (write-back modes
        only; a clean-shutdown aid so runs start from a consistent NVM)."""
        t = self.clock
        for addr, line in self.cache.dirty_entries():
            self.cache.mark_clean(addr)
            t = self._enqueue(addr, line.serialize(), COUNTER, t)
        self.clock = t
        return t

    # ------------------------------------------------------------------
    # page re-encryption

    def reencrypt_page(self, page: int, t: float) -> float:
        if self.rsr is not None:
            raise RuntimeError("a page re-encryption is already in flight")
        cline = self.map.counter_line_address(page)
        old_line, t = self._get_counter_line(cline, t)
        self.rsr = Rsr(page, old_line.major)
        self._boundary("rsr_arm")
        return self._reencrypt_lines(page, old_line, t)

    def resume_reencryption(self, rsr: Rsr) -> float:
        """Finish an interrupted re-encryption from the persisted register.

        Old minors for not-yet-done lines come from the durable counter
        line, which keeps them until each line's own counter write lands.
        """
        t = self.clock
        self.rsr = rsr
        cline = self.map.counter_line_address(rsr.page_number)
        durable, t = self._get_counter_line(cline, t)
        old = CounterLine(rsr.old_major, lanes=durable.lanes)
        return self._reencrypt_lines(rsr.page_number, old, t)

    def _reencrypt_lines(self, page: int, old: CounterLine, t: float) -> float:
        """Move every line not yet done from ``old`` to major + 1, minor 0.

        The cache holds the half-moved line itself from the first step on.
        """
        cline = self.map.counter_line_address(page)
        hybrid = CounterLine(old.major + 1, lanes=old.lanes)
        new_ctr = hybrid.major << 7
        rsr = self.rsr
        for i in range(LINES_PER_PAGE):
            if rsr.done(i):
                continue
            address = page * PAGE + i * LINE
            stored, t = self._read_line_raw(address, t)
            plain = self._open(address, old.counter_value(i), stored)
            hybrid.set_minor(i, 0)
            sealed, t = self._seal(address, new_ctr, plain, t)
            t = self._insert_counter(cline, hybrid, t)
            # The queue append and the done-bit update are one controller
            # action: no crash point separates them.
            t = self._ensure_space(2, t)
            self.queue.atomic_append_pair(cline, hybrid.serialize(), address,
                                          sealed)
            rsr = self.rsr = Rsr(page, rsr.old_major, rsr.done_bits | 1 << i)
            self._boundary("reencrypt_line")
        self.rsr = None
        self._boundary("rsr_done")
        self.reencryptions += 1
        self.clock = t
        return t

    # ------------------------------------------------------------------
    # crash handling

    def snapshot(self) -> CrashSnapshot:
        return take_crash_snapshot(self.nvm, self.queue, self.rsr)

    @classmethod
    def from_snapshot(cls, cfg: Config, snap: CrashSnapshot) -> "Controller":
        ctrl = cls(cfg)
        ctrl.nvm.store = dict(snap.store)
        if snap.rsr is not None:
            ctrl.resume_reencryption(snap.rsr)
        return ctrl
