import pytest

from secpmsim.config import Config
from secpmsim.nvm import ZERO_LINE, NvmDevice, take_crash_snapshot
from secpmsim.write_queue import Origin, WriteQueue, WriteQueueEntry


def device(**overrides):
    cfg = Config(**overrides)
    return NvmDevice(cfg.banks, cfg.t_wr_ns, cfg.read_ns)


def test_write_then_read_persists():
    nvm = device()
    nvm.nvm_write(0, b"\7" * 64, 0.0)
    payload, _ = nvm.nvm_read(0, 1000.0)
    assert payload == b"\7" * 64
    assert nvm.store.get(0, ZERO_LINE) == b"\7" * 64


def test_untouched_lines_read_zero():
    nvm = device()
    payload, _ = nvm.nvm_read(12345 * 64, 0.0)
    assert payload == bytes(64)


def test_bank_interleaving():
    nvm = device(banks=16)
    assert nvm.bank(0) == 0
    assert nvm.bank(64) == 1
    assert nvm.bank(16 * 64) == 0


def test_write_to_busy_bank_rejected():
    nvm = device()
    nvm.nvm_write(0, bytes(64), 0.0)
    with pytest.raises(RuntimeError):
        nvm.nvm_write(16 * 64, bytes(64), 10.0)  # same bank, inside tWR
    nvm.nvm_write(16 * 64, bytes(64), Config().t_wr_ns)


def test_read_waits_for_bank():
    nvm = device()
    nvm.nvm_write(0, bytes(64), 0.0)
    _, done = nvm.nvm_read(0, 10.0)
    assert done == Config().t_wr_ns + Config().read_ns


def test_snapshot_applies_queue_fifo():
    nvm = device()
    nvm.nvm_write(0, b"\0" * 64, 0.0)
    q = WriteQueue(capacity=8)
    q.append(WriteQueueEntry(0, b"\1" * 64, Origin.DATA))
    q.append(WriteQueueEntry(0, b"\2" * 64, Origin.DATA))
    snap = take_crash_snapshot(nvm, q)
    assert snap.store.get(0, ZERO_LINE) == b"\2" * 64  # later entry wins
    # The snapshot is a copy; the device is untouched.
    assert nvm.store.get(0, ZERO_LINE) == b"\0" * 64
