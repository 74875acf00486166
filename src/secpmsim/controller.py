"""Memory-controller state machine.

Orders every flush as: locate counter -> bump minor -> encrypt -> write the
counter through the cache -> stage counter+data in the two-line register ->
append both to the write queue in one indivisible step -> ack.
Minor-counter overflow triggers a page re-encryption tracked by the status
register (``Rsr``), an immutable value that a crash snapshot keeps as it
was, so recovery can finish the page.

A line is encrypted by sealing it (``crypto.Sealed``): the queue and the
NVM store hold the plaintext with the counter it was sealed under, and the
ciphertext is computed on demand, so the durable image is exactly the
counter-mode ciphertext.  Every encryption is charged ``aes_ns`` and
checked for pad reuse in ``_seal``.  A read under the sealing counter gets
the plaintext back directly, and a line the NVM never held reads as the
pad for the counter it looked up (zeros XOR pad); any other read (a
counter lost in a crash, a counter-tracking bug) decrypts the real
ciphertext under that counter, as the hardware would.  An unencrypted
controller builds no pad engine.

The timing model is coarse and runs on one clock, ``Controller.clock``:
every step advances it in place by its configured latency, and an append
that finds the queue full first drains it against per-bank occupancy,
which moves the clock to the last issue.  A read overlaps its counter
fetch and its data fetch: both start at the read's start time, and the
read ends when the data has arrived and the pad, one AES latency after
the counter, is ready.  Crash boundaries are announced through
``boundary_hook`` after every durability-relevant state change.

A secure flush or read calls each layer once, directly: one ``locate``
and one counter-cache ``lookup`` (a miss goes to ``_load_counter``); a
flush then one ``increment_minor`` and one ``serialize`` before queueing
its two lines, a read the data line's newest queue entry or else one
``nvm_read``.  The benchmark's probes derive the cache hit rate, the
merge ratio and the queue depth from these calls, so a shortcut that
skips one skews those figures without an error;
``tests/test_layer_calls.py`` pins the counts.  ``NvmDevice.bank`` is the
bank rule, which ``_drain``, ``NvmDevice.nvm_write`` and ``nvm_read``
inline; an unencrypted flush inlines ``_enqueue`` the same way, and makes
one queue ``append`` and no other layer call.
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
from secpmsim.nvm import (
    ZERO_LINE,
    CrashSnapshot,
    NvmDevice,
    Rsr,
    take_crash_snapshot,
)
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
        self._key = derive_key(cfg.seed)
        # An unencrypted controller makes no pad, so it builds no engine
        # and never loads the cipher backend.
        self.otp = OtpEngine(self._key) if self._encrypted else None

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

    def _read_line_raw(self, address: int) -> bytes | Sealed:
        queued = self.queue.latest.get(address)
        if queued is not None:
            self.clock += self._read_ns
            return queued.payload
        payload, self.clock = self.nvm.nvm_read(address, self.clock)
        return payload

    def _drain(self, keep: int = 0, until: float = math.inf) -> None:
        """Issue queue heads in FIFO order, each once its bank is free, until
        ``keep`` entries remain or the next issue would come after ``until``;
        the clock stops at the last issue.  ``boundary_hook`` is read once,
        as the drain starts."""
        nvm = self.nvm
        queue = self.queue
        entries = queue.entries
        busy_until = nvm.busy_until
        nbanks = nvm.nbanks
        hook = self.boundary_hook
        t = self.clock
        while len(entries) > keep:
            # NvmDevice.bank, inlined.
            ready = busy_until[entries[0].address // LINE % nbanks]
            if ready > t:
                t = ready
            if t > until:
                break
            queue.drain_one(nvm, t)
            if hook is not None:
                hook("drain")
        self.clock = t

    def _ensure_space(self, n: int) -> None:
        """Backpressure: when the queue cannot take n entries, drain down
        to the low watermark (half capacity), charging the wait time."""
        capacity = self.queue.capacity
        if len(self.queue.entries) + n > capacity:
            self._drain(keep=min(capacity - n, capacity // 2))

    def _enqueue(self, address: int, payload: bytes | Sealed, origin: Origin
                 ) -> None:
        """Wait for a free slot, queue one line and announce it as durable.
        ``handle_flush``'s unencrypted branch does this step inline."""
        queue = self.queue
        if len(queue.entries) >= queue.capacity:
            self._ensure_space(1)
        queue.append(WriteQueueEntry(address, payload, origin))
        hook = self.boundary_hook
        if hook is not None:
            hook("append")

    def idle_drain(self, duration: float) -> None:
        """Let the queue drain in the background for ``duration`` ns of
        CPU compute time (e.g. between transactions)."""
        end = self.clock + duration
        self._drain(until=end)
        self.clock = end

    def drain_all(self) -> None:
        self._drain()

    def _seal(self, address: int, ctr: int, plaintext: bytes) -> Sealed:
        """Encrypt a line under ``ctr``: count a reused pad input, charge
        the AES latency, and return the sealed line."""
        last = self._last_ctr.get(address)
        if last is not None and ctr <= last:
            self.otp_reuse += 1
        else:
            self._last_ctr[address] = ctr
        self.clock += self._aes_ns
        return Sealed(plaintext, self.otp, address, ctr)

    def _open(self, address: int, ctr: int, stored: bytes | Sealed) -> bytes:
        """Decrypt a stored line under ``ctr``; a line sealed here under
        that very counter and key needs no pad, and a line the NVM never
        held (zeros) decrypts to the pad itself."""
        if (type(stored) is Sealed and stored.counter == ctr
                and stored.address == address and stored.engine.key == self._key):
            return stored.plaintext
        pad = self.otp.generate(address, ctr)
        if stored is ZERO_LINE:
            return pad
        return decrypt_line(bytes(stored), pad)

    def _get_counter_line(self, cline: int) -> CounterLine:
        line = self.cache.lookup(cline)
        if line is None:
            return self._load_counter(cline)
        self.clock += self._cache_hit_ns
        return line

    def _load_counter(self, cline: int) -> CounterLine:
        """Counter-cache miss: fetch the counter line (from the queue while
        it is still queued) and install it in the cache."""
        line = CounterLine.deserialize(self._read_line_raw(cline))
        self._insert_counter(cline, line)
        return line

    def _insert_counter(self, cline: int, line: CounterLine) -> None:
        victim = self.cache.insert(cline, line)
        if victim is not None:
            # Write-back eviction (only reachable without write-through).
            vaddr, vline = victim
            self._enqueue(vaddr, vline.serialize(), COUNTER)

    # ------------------------------------------------------------------
    # flush / read / fence

    def handle_flush(self, address: int, plaintext: bytes, now: float | None = None,
                     ) -> float:
        """Run the full flush sequence; returns the ack (retire) time."""
        if len(plaintext) != LINE:
            raise ValueError("line payload must be 64 bytes")
        self.clock = (self.clock if now is None else now) + self._flush_overhead_ns
        self.flushes += 1

        if not self._encrypted:
            # Controller._enqueue, inlined.
            queue = self.queue
            if len(queue.entries) >= queue.capacity:
                self._ensure_space(1)
            queue.append(WriteQueueEntry(address, plaintext, DATA))
            hook = self.boundary_hook
            if hook is not None:
                hook("append")
            return self.clock

        cline, minor_index = self.map.locate(address)
        # The cached line is bumped in place, which also keeps the cache
        # current; the lookup has already made it most recently used.
        line = self.cache.lookup(cline)
        if line is None:
            line = self._load_counter(cline)
        else:
            self.clock += self._cache_hit_ns
        if not increment_minor(line, minor_index):
            self.reencrypt_page(address // PAGE)
            line = self._get_counter_line(cline)
            increment_minor(line, minor_index)

        sealed = self._seal(address, line.counter_value(minor_index), plaintext)

        if not self._write_through:
            # Broken baseline: the counter stays dirty in the cache and
            # only the data entry becomes durable.
            self.cache.mark_dirty(cline)
            self._enqueue(address, sealed, DATA)
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
                self._ensure_space(2)
            queue.atomic_append_pair(cline, counter_image, address, sealed)
            if hook is not None:
                hook("append_pair")
        else:
            self._enqueue(cline, line.serialize(), COUNTER)
            self._enqueue(address, sealed, DATA)
        return self.clock

    def handle_read(self, address: int) -> bytes:
        """Decrypting read; pad generation overlaps the NVM access.

        A page re-encryption runs to completion inside the flush that
        overflows, or inside ``from_snapshot``, so no read sees an active
        status register or a half-moved page.
        """
        # The counter fetch and the data fetch both start now; the pad is
        # ready one AES latency after the counter.  The counter is fetched
        # first, so a data line on its bank waits for it.
        start = self.clock
        encrypted = self._encrypted
        if encrypted:
            cline, minor_index = self.map.locate(address)
            line = self.cache.lookup(cline)
            if line is None:
                line = self._load_counter(cline)
                pad_ready = self.clock + self._aes_ns
            else:
                pad_ready = start + self._cache_hit_ns + self._aes_ns
        queued = self.queue.latest.get(address)
        if queued is None:
            stored, t = self.nvm.nvm_read(address, start)
        else:
            stored, t = queued.payload, start + self._read_ns
        if not encrypted:
            self.clock = t
            return stored
        self.clock = pad_ready if pad_ready > t else t  # max(t, pad_ready)
        return self._open(address, line.counter_value(minor_index), stored)

    def fence(self) -> None:
        """All prior flushes are acked (queued = durable) by construction."""
        hook = self.boundary_hook
        if hook is not None:
            hook("fence")

    def flush_counter_cache(self) -> None:
        """Push every dirty counter line to the queue (write-back modes
        only; a clean-shutdown aid so runs start from a consistent NVM)."""
        for addr, line in self.cache.dirty_entries():
            self.cache.mark_clean(addr)
            self._enqueue(addr, line.serialize(), COUNTER)

    # ------------------------------------------------------------------
    # page re-encryption

    def reencrypt_page(self, page: int) -> None:
        if self.rsr is not None:
            raise RuntimeError("a page re-encryption is already in flight")
        old_line = self._get_counter_line(self.map.counter_line_address(page))
        self.rsr = Rsr(page, old_line.major)
        self._boundary("rsr_arm")
        self._reencrypt_lines(page, old_line)

    def resume_reencryption(self, rsr: Rsr) -> None:
        """Finish an interrupted re-encryption from the persisted register.

        Old minors for not-yet-done lines come from the durable counter
        line, which keeps them until each line's own counter write lands.
        """
        self.rsr = rsr
        durable = self._get_counter_line(
            self.map.counter_line_address(rsr.page_number))
        old = CounterLine(rsr.old_major, lanes=durable.lanes)
        self._reencrypt_lines(rsr.page_number, old)

    def _reencrypt_lines(self, page: int, old: CounterLine) -> None:
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
            plain = self._open(address, old.counter_value(i),
                               self._read_line_raw(address))
            hybrid.set_minor(i, 0)
            sealed = self._seal(address, new_ctr, plain)
            self._insert_counter(cline, hybrid)
            # The queue append and the done-bit update are one controller
            # action: no crash point separates them.
            self._ensure_space(2)
            self.queue.atomic_append_pair(cline, hybrid.serialize(), address,
                                          sealed)
            rsr = self.rsr = Rsr(page, rsr.old_major, rsr.done_bits | 1 << i)
            self._boundary("reencrypt_line")
        self.rsr = None
        self._boundary("rsr_done")
        self.reencryptions += 1

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
