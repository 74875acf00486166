import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secpmsim.config import COUNTER_REGION_BASE, PAGE, Config
from secpmsim.controller import Controller, derive_key
from secpmsim.counters import CounterAddressMap
from secpmsim.crypto import (
    OtpEngine,
    Sealed,
    aes_block_fn,
    decrypt_line,
    encrypt_line,
    xor_lines,
)

KEY = bytes(range(16))
REFERENCE = OtpEngine(KEY)
lines = st.binary(min_size=64, max_size=64)


@pytest.fixture()
def otp():
    return OtpEngine(KEY)


def test_pad_changes_with_counter_and_address(otp):
    base = otp.generate(0x1000, 42)
    assert otp.generate(0x1000, 43) != base
    assert otp.generate(0x1040, 42) != base


def test_pad_distinguishes_major_and_minor(otp):
    # major=1,minor=0 and major=0,minor=128 would collide if only the low
    # bits mattered; counter values are full 71-bit concatenations.
    assert otp.generate(0, 1 << 7) != otp.generate(0, 127)


def test_counter_range_enforced(otp):
    with pytest.raises(ValueError):
        otp.generate(0, -1)
    with pytest.raises(ValueError):
        otp.generate(0, 1 << 71)


def test_key_must_be_128_bit():
    with pytest.raises(ValueError):
        aes_block_fn(b"short")


def test_engines_sharing_a_key_schedule_stay_independent():
    assert aes_block_fn(KEY) is aes_block_fn(bytes(KEY))  # one schedule
    other_key = bytes(range(1, 17))
    a, b, other = OtpEngine(KEY), OtpEngine(KEY), OtpEngine(other_key)
    rng = random.Random(7)
    for _ in range(50):
        addr, ctr = rng.randrange(1 << 40) * 64, rng.randrange(1 << 71)
        pads = [a.generate(addr, ctr), other.generate(addr, ctr),
                b.generate(addr, ctr)]
        assert pads[0] == pads[2] == pad_on_a_fresh_cipher(addr, ctr)
        assert pads[1] != pads[0]


def pad_on_a_fresh_cipher(addr, ctr, key=KEY):
    """Block i of the pad is E_K(line index || counter || i), one block per
    call, each on its own unshared AES context."""
    seed = (addr // 64) << 73 | ctr << 2
    return b"".join(
        Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(
            (seed | i).to_bytes(16, "big"))
        for i in range(4))


# The line index, counter and block number fields abut in the seed: each
# case carries into, or sits at the edge of, a neighbouring field.
TOP_CTR = (1 << 71) - 1
FIELD_BOUNDARIES = [(64, 0), (0, 1 << 70), (0, TOP_CTR), (0, 1), (0, 0),
                    ((1 << 61) - 64, TOP_CTR), ((1 << 61) - 128, TOP_CTR)]


def at_field_boundaries(test):
    """``test`` with every FIELD_BOUNDARIES case as an explicit example."""
    for addr, ctr in FIELD_BOUNDARIES:
        test = example(addr=addr, ctr=ctr)(test)
    return test


@given(addr=st.integers(min_value=0, max_value=(1 << 55) - 1).map(
           lambda index: index * 64),
       ctr=st.integers(min_value=0, max_value=TOP_CTR))
@at_field_boundaries
def test_pad_is_the_fresh_cipher_pad(addr, ctr):
    """Over the whole pad domain an engine's pad is the reference pad."""
    assert REFERENCE.generate(addr, ctr) == pad_on_a_fresh_cipher(addr, ctr)


def test_pads_stay_apart_across_field_boundaries(otp):
    """Carrying into a neighbouring seed field must not reproduce any pad
    block."""
    blocks = [pad[i:i + 16]
              for pad in (otp.generate(*c) for c in FIELD_BOUNDARIES)
              for i in range(0, 64, 16)]
    assert len(set(blocks)) == len(blocks)


outside_pad_domain = st.one_of(
    st.integers(min_value=0, max_value=1 << 62).filter(lambda a: a % 64),
    st.integers(min_value=1 << 61, max_value=1 << 80),
    st.integers(min_value=-(1 << 80), max_value=-1),
)


@given(addr=outside_pad_domain, ctr=st.integers(0, (1 << 71) - 1))
def test_address_outside_pad_domain_rejected(addr, ctr):
    with pytest.raises(ValueError):
        REFERENCE.generate(addr, ctr)


def test_largest_accepted_layout_stays_inside_pad_domain(otp):
    """The largest layout a Config accepts maps every page below the
    counter region; its last counter line still gets a pad."""
    def layout(footprint):
        return Config(workload="array", txn_size=64, cores=1, log_slots=1,
                      footprint=footprint)
    with pytest.raises(ValueError, match="past the counter region"):
        layout(COUNTER_REGION_BASE)
    cfg = layout(COUNTER_REGION_BASE - PAGE)
    pages = cfg.mapped_pages
    assert pages == COUNTER_REGION_BASE // PAGE
    top = CounterAddressMap(pages).counter_line_address(pages - 1)
    assert len(otp.generate(top, (1 << 71) - 1)) == 64


@given(plain=lines, pad=lines)
def test_encryption_is_bytewise_xor(plain, pad):
    xor = bytes(a ^ b for a, b in zip(plain, pad))
    assert encrypt_line(plain, pad) == decrypt_line(plain, pad) == xor


def test_xor_lines_rejects_short_input():
    with pytest.raises(ValueError):
        xor_lines(b"ab", bytes(64))


# Sealing and opening draw from small pools, so that the seal's own
# (key, address, counter) comes up often next to every kind of mismatch.
CONTROLLER_KEY = derive_key(0)
seal_keys = st.sampled_from([CONTROLLER_KEY, KEY])
seal_addresses = st.sampled_from([0, 64, 4096, (1 << 40) * 64])
seal_counters = st.sampled_from([0, 1, 127, 1 << 7, (1 << 71) - 1])
REFERENCE_ENGINES = {k: OtpEngine(k) for k in (CONTROLLER_KEY, KEY)}


@given(plain=lines, key=seal_keys, address=seal_addresses,
       counter=seal_counters, read_address=seal_addresses,
       read_counter=seal_counters)
def test_opening_a_sealed_line_equals_eager_decryption(
        plain, key, address, counter, read_address, read_counter):
    """A read of a sealed line returns exactly what decrypting its eager
    ciphertext under the read's pad returns: the plaintext under the seal's
    own key, address and counter, and the same garbage under any other."""
    ctrl = Controller(Config(mode="secpm", seed=0))
    sealed = Sealed(plain, OtpEngine(key), address, counter)
    eager = encrypt_line(plain, REFERENCE_ENGINES[key].generate(address, counter))
    expected = decrypt_line(eager, ctrl.otp.generate(read_address, read_counter))
    assert ctrl._open(read_address, read_counter, sealed) == expected
    # A stored line of plain bytes (never written, or a counter line) opens
    # by the same eager route.
    assert ctrl._open(read_address, read_counter, eager) == expected


@given(plain=lines, key=seal_keys, address=seal_addresses,
       counter=seal_counters)
def test_sealed_line_is_its_eager_ciphertext(plain, key, address, counter):
    sealed = Sealed(plain, OtpEngine(key), address, counter)
    eager = encrypt_line(plain, REFERENCE_ENGINES[key].generate(address, counter))
    assert bytes(sealed) == eager
    assert sealed == eager and eager == sealed
    assert not sealed != eager
    assert hash(sealed) == hash(eager)
    # No stored line equals its plaintext: the image holds ciphertext only.
    assert sealed != plain and plain != sealed
    assert bytes(sealed) != plain


@given(plain=lines, other=lines, keys=st.tuples(seal_keys, seal_keys),
       addresses=st.tuples(seal_addresses, seal_addresses),
       counters=st.tuples(seal_counters, seal_counters),
       same_plain=st.booleans())
@settings(max_examples=200)
def test_sealed_lines_compare_by_ciphertext(plain, other, keys, addresses,
                                            counters, same_plain):
    a = Sealed(plain, OtpEngine(keys[0]), addresses[0], counters[0])
    b = Sealed(plain if same_plain else other, OtpEngine(keys[1]),
               addresses[1], counters[1])
    assert (a == b) == (bytes(a) == bytes(b))
    assert (a != b) == (bytes(a) != bytes(b))
    if a == b:
        assert hash(a) == hash(b)
    assert {a: 1}.get(bytes(a)) == 1  # a dict key is found by its bytes


@given(values=st.lists(lines, min_size=1, max_size=8))
@settings(max_examples=20, deadline=None)
def test_no_durable_line_holds_its_plaintext(values):
    """Every data line in the durable image is ciphertext, never the
    plaintext that was flushed (no data remanence on the DIMM)."""
    ctrl = Controller(Config(mode="secpm", workload="array", txn_size=256))
    for i, value in enumerate(values):
        ctrl.handle_flush(i * 64, value)
    store = ctrl.snapshot().store
    for i, value in enumerate(values):
        assert store[i * 64] != value and bytes(store[i * 64]) != value
        assert ctrl.handle_read(i * 64) == value


_BACKEND_PROBE = """
import sys
import secpmsim.cli  # every module of the program
from secpmsim.config import Config
from secpmsim.runner import run_experiment
run_experiment(Config(mode=sys.argv[1], workload="array", txn_size=256,
                      txn_count=3))
print("cryptography.hazmat.primitives.ciphers" in sys.modules)
"""


@pytest.mark.parametrize("mode, loads", [("unsec-pm", False), ("secpm", True)])
def test_only_an_encrypted_run_loads_the_cipher_backend(mode, loads):
    """In a fresh interpreter, an unencrypted run imports no cipher
    backend; an encrypted one does."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    out = subprocess.run([sys.executable, "-c", _BACKEND_PROBE, mode],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == str(loads)
