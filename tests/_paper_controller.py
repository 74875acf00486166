"""Reference controller, written from the paper's flush sequence: locate the
counter, bump its minor, encrypt under a fresh pad, write the counter
through, stage counter and data in the register and append both to the
write queue as one.  A minor at its limit first moves the page to the next
major, line by line under the re-encryption status register, which a crash
keeps so that recovery can finish the page.

It runs on the layer references: ``ScanQueue`` with its NVM,
``EagerCounterCache``, the bit-loop counter line and the fresh-cipher pad.
It holds eager ciphertext bytes and no clock: an append that finds the
queue full drains it to half its capacity, which depends on counts alone.
It makes the controller's counter-cache accesses in the same order, and
announces the same crash boundaries through ``boundary_hook``.
"""

import functools
from types import SimpleNamespace

from _bit_loop import reference_deserialize, reference_serialize
from secpmsim.config import COUNTER_REGION_BASE, LINE, LINES_PER_PAGE, PAGE
from secpmsim.counters import MINOR_MAX
from secpmsim.write_queue import COUNTER, DATA, WriteQueueEntry
from test_counters import EagerCounterCache
from test_crypto import pad_on_a_fresh_cipher
from test_write_queue import ScanQueue


def xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


# Every run starts from the same hot page, so its pads recur across runs.
pad = functools.lru_cache(maxsize=None)(pad_on_a_fresh_cipher)


class PaperController:
    """State and counts from the durable image ``store`` and register
    ``rsr`` on.  ``queued_plaintext`` gets, per address, the plaintext of
    the last flush whose data line was queued."""

    def __init__(self, cfg, key, store, rsr, queued_plaintext):
        self.encrypted = cfg.mode != "unsec-pm"
        self.write_through = cfg.mode in ("secpm-no-cwr", "secpm")
        self.use_register = cfg.use_register
        self.key = key
        self.queue = ScanQueue(cfg.queue_len, cwr_enabled=cfg.mode == "secpm")
        self.nvm = self.queue.nvm
        self.nvm.store = dict(store)
        ways = cfg.cache_ways
        self.cache = EagerCounterCache(cfg.cache_size // LINE // ways, ways)
        self.queued_plaintext = queued_plaintext
        self.highest_ctr = {}  # per line, the highest counter encrypted under
        self.reencryptions = self.otp_reuse = 0
        self.boundary_hook = lambda label: None
        self.rsr = None  # (page, old major, done bits) while a page moves
        if rsr is not None:  # finish the interrupted re-encryption
            durable = self.counter_line(rsr[0])
            self.rsr = rsr
            self.move_page(rsr[0], rsr[1], durable.minors)

    def snapshot(self):
        return self.queue.snapshot_store(), self.rsr

    def newest(self, address):
        """A line's newest copy: its last queued entry, else the NVM's."""
        entry = self.queue.latest(address)
        if entry is None:
            return self.nvm.store.get(address, bytes(LINE))
        return entry.payload

    def append(self, entries, plaintext=None):
        """Queue (address, bytes, origin) ``entries`` together, after
        draining the queue in FIFO order to half its capacity if they do
        not fit; ``plaintext`` is the last entry's, if it is a flush's."""
        queue = self.queue
        if len(queue.entries) + len(entries) > queue.capacity:
            keep = min(queue.capacity - len(entries), queue.capacity // 2)
            while len(queue.entries) > keep:
                # One write per t_WR keeps every bank free at its issue.
                queue.drain_one(self.nvm.t_wr_ns * self.nvm.writes)
                self.boundary_hook("drain")
        for address, payload, origin in entries:
            queue.append(WriteQueueEntry(address, payload, origin))
        if plaintext is not None:
            self.queued_plaintext[entries[-1][0]] = plaintext

    def enqueue(self, address, payload, origin, plaintext=None):
        self.append([(address, payload, origin)], plaintext)
        self.boundary_hook("append")

    def counter_line(self, page):
        """The page's counter line through the cache; a miss installs the
        line's newest copy, writing back a dirty victim."""
        cline = COUNTER_REGION_BASE + LINE * page
        line = self.cache.lookup(cline)
        if line is None:
            major, minors = reference_deserialize(self.newest(cline))
            line = SimpleNamespace(major=major, minors=minors)
            self.install(cline, line)
        return line

    def install(self, cline, line):
        victim = self.cache.insert(cline, line, False)
        if victim is not None:
            self.enqueue(victim[0], reference_serialize(victim[1]), COUNTER)

    def seal(self, address, ctr, plaintext):
        """Encrypt under ``ctr``; a counter not above the highest this line
        was encrypted under reuses a pad."""
        if ctr <= self.highest_ctr.get(address, -1):
            self.otp_reuse += 1
        else:
            self.highest_ctr[address] = ctr
        return xor(plaintext, pad(address, ctr, self.key))

    def handle_flush(self, address, plaintext):
        if not self.encrypted:
            self.enqueue(address, plaintext, DATA, plaintext)
            return
        page, i = address // PAGE, address % PAGE // LINE
        cline = COUNTER_REGION_BASE + LINE * page
        line = self.counter_line(page)
        if line.minors[i] == MINOR_MAX:
            old = self.counter_line(page)  # a second lookup, as in Controller
            self.rsr = (page, old.major, 0)
            self.boundary_hook("rsr_arm")
            self.move_page(page, old.major, old.minors)
            line = self.counter_line(page)
        line.minors[i] += 1
        ciphertext = self.seal(address, line.major << 7 | line.minors[i],
                               plaintext)
        if not self.write_through:
            self.cache.mark(cline, True)
            self.enqueue(address, ciphertext, DATA, plaintext)
        elif self.use_register:
            self.boundary_hook("reg_store")  # the counter line
            self.boundary_hook("reg_store")  # the data line
            self.append([(cline, reference_serialize(line), COUNTER),
                         (address, ciphertext, DATA)], plaintext)
            self.boundary_hook("append_pair")
        else:
            self.enqueue(cline, reference_serialize(line), COUNTER)
            self.enqueue(address, ciphertext, DATA, plaintext)

    def handle_read(self, address):
        if not self.encrypted:
            return self.newest(address)
        line = self.counter_line(address // PAGE)
        ctr = line.major << 7 | line.minors[address % PAGE // LINE]
        return xor(self.newest(address), pad(address, ctr, self.key))

    def fence(self):
        self.boundary_hook("fence")

    def flush_counter_cache(self):
        for cline, line in self.cache.dirty_entries():
            self.cache.mark(cline, False)
            self.enqueue(cline, reference_serialize(line), COUNTER)

    def move_page(self, page, old_major, old_minors):
        """Move each line not yet done from (old major, its old minor) to
        (old major + 1, 0): queue it with the half-moved counter line as one
        pair, then set its done bit."""
        cline = COUNTER_REGION_BASE + LINE * page
        moved = SimpleNamespace(major=old_major + 1, minors=list(old_minors))
        for i in range(LINES_PER_PAGE):
            if self.rsr[2] >> i & 1:
                continue
            address = page * PAGE + i * LINE
            old_pad = pad(address, old_major << 7 | old_minors[i], self.key)
            plaintext = xor(self.newest(address), old_pad)
            moved.minors[i] = 0
            ciphertext = self.seal(address, moved.major << 7, plaintext)
            self.install(cline, moved)
            self.append([(cline, reference_serialize(moved), COUNTER),
                         (address, ciphertext, DATA)])
            self.rsr = (page, old_major, self.rsr[2] | 1 << i)
            self.boundary_hook("reencrypt_line")
        self.rsr = None
        self.boundary_hook("rsr_done")
        self.reencryptions += 1
