"""Pinned output digests.

secpmsim's product is the numbers it reports, so a refactor or speed-up
must leave them byte-identical.  These tests hash the stats report of a
small sweep and the outcome list of three crash scopes, and the same for
the flush branch that appends counter and data without the staging
register (``use_register=False``), the normalized report of the same
sweep, a sweep that reuses each undo-log slot many times and what
``secpmsim crashcheck`` prints; a digest that changes means some reported
number changed.  One more pin hashes sixteen fixed pads, so that a change
to the pad construction, which no report shows, is deliberate.  Update a
pin only together with a note saying which number changed and why.
"""

import hashlib

import pytest

from secpmsim import runner
from secpmsim.cli import main
from secpmsim.config import MODES, Config
from secpmsim.controller import derive_key
from secpmsim.crash import (
    AtomicWriteScenario,
    CrashPlan,
    ReencryptScenario,
    TxnScenario,
    inject,
)
from secpmsim.crypto import OtpEngine
from secpmsim.runner import run_experiment
from secpmsim.stats import emit_normalized_report, emit_report

RUN_CELLS = (("btree", 4096), ("hashtable", 256))
RUN_TXNS = 20
RUN_PIN = "6a96b16ce783f8b148a7bd7b15917711bc5ef24d0e0719f19e32f34e8bf043c3"
NORMALIZED_PIN = "a45388544cbb92abe35014cff3ede25b0e2fec2dd2f789a82ea35e37ad725761"

CRASH_SCOPES = {
    "txn": (MODES, lambda cfg: TxnScenario(cfg, n_lines=4)),
    "atomic": (MODES, AtomicWriteScenario),
    # One consistent and one broken mode keep this scope at a few seconds.
    "reencrypt": (("secpm-no-cwt", "secpm"), ReencryptScenario),
}
# atomic and reencrypt changed when their scenarios began to write the
# secpm-no-cwt counter back before the crash check: its rows at -1 pre (both
# scopes) and 0 rsr_arm (reencrypt) went from inconsistent at 0x0 to
# rolled-back / consistent.  Every other row is unchanged.
CRASH_PINS = {
    "txn": "a9fdc5751eea1630fcd9e84e8f9ce44486a0f191259e9492e18ce97b82551e3b",
    "atomic": "d548197ce9a0a694cce73fddeade01fe741d9d665097cc6b5b3f3780519899ea",
    "reencrypt": "a397d9c3b17b8f9ebf2947aa985bb11ecd6d90345b702640513e82970cfa24ea",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def run_sweep():
    """All four modes x {btree 4 KiB, hashtable 256 B} x cores {1, 4}."""
    return [
        run_experiment(Config(mode=mode, workload=kind, txn_size=size,
                              txn_count=RUN_TXNS, cores=cores, seed=0))
        for mode in MODES for kind, size in RUN_CELLS for cores in (1, 4)
    ]


def test_run_report_digest(run_sweep):
    assert sha256(emit_report(run_sweep)) == RUN_PIN


def test_normalized_report_digest(run_sweep):
    assert sha256(emit_normalized_report(run_sweep)) == NORMALIZED_PIN


def crash_digest(modes, make, **overrides) -> str:
    rows = []
    for mode in modes:
        cfg = Config(mode=mode, txn_size=4096, seed=0, **overrides)
        rows += [
            (mode, o.crash_point, o.label, o.stage, o.verdict.value,
             o.failing_address)
            for o in inject(CrashPlan("exhaustive"), lambda: make(cfg))
        ]
    return sha256(repr(rows))


@pytest.mark.parametrize("scope", sorted(CRASH_SCOPES))
def test_crash_outcome_digest(scope):
    modes, make = CRASH_SCOPES[scope]
    assert crash_digest(modes, make) == CRASH_PINS[scope]


# Three undo-log slots per core and 30 transactions per core, so every slot
# is reused many times over; the log sits right above a 64 KiB footprint.
SLOT_REUSE_PIN = (
    "0bb5e6ff81bf518ad16d6ee8a4c9c12c5086040c70d97d0da205b477db0be888"
)


def test_run_report_digest_with_reused_log_slots():
    stats = [
        run_experiment(Config(mode=mode, workload=kind, txn_size=size,
                              txn_count=30, cores=cores, seed=0, log_slots=3,
                              footprint=65536))
        for mode in ("unsec-pm", "secpm") for kind in ("btree", "queue")
        for size in (256, 1024) for cores in (1, 2)
    ]
    assert sha256(emit_report(stats)) == SLOT_REUSE_PIN


# The write-through modes without the staging register: the counter and the
# data line go to the queue as two separate appends.
NO_REGISTER_MODES = ("secpm-no-cwr", "secpm")
NO_REGISTER_RUN_PIN = (
    "60993ac2f20ff8874d7518ffa3b6228887666d938acd3f4462460c24dbfa14ff"
)
NO_REGISTER_CRASH_PINS = {
    "txn": "277438341579f4d8a324e83f996559cf9c680cd159e56e288a40936b79d41dec",
    "atomic": "7fd1f15fce106d70398bf30ce90017f067d9bf0124e04ca7ae408102cccad1b2",
}


def test_run_report_digest_without_register():
    stats = [
        run_experiment(Config(mode=mode, workload=kind, txn_size=size,
                              txn_count=RUN_TXNS, cores=cores, seed=0,
                              use_register=False))
        for mode in NO_REGISTER_MODES for kind, size in RUN_CELLS
        for cores in (1, 4)
    ]
    assert sha256(emit_report(stats)) == NO_REGISTER_RUN_PIN


@pytest.mark.parametrize("scope", sorted(NO_REGISTER_CRASH_PINS))
def test_crash_outcome_digest_without_register(scope):
    _, make = CRASH_SCOPES[scope]
    digest = crash_digest(NO_REGISTER_MODES, make, use_register=False)
    assert digest == NO_REGISTER_CRASH_PINS[scope]


# ``secpmsim crashcheck`` output (CSV, VIOLATION/EXPECTED flags, summary
# lines and exit status) for the txn and atomic-write scopes in every mode
# and the re-encrypt scope in one broken and one consistent mode.
CRASHCHECK_CELLS = ([("txn", mode) for mode in MODES]
                    + [("atomic-write", mode) for mode in MODES]
                    + [("reencrypt", "secpm-no-cwt"), ("reencrypt", "secpm")])
CRASHCHECK_PIN = "3362234795c3f7e2d643773a984db662184b28b1f188726cb252293f1a304730"


def test_crashcheck_cli_digest(capsys):
    parts = []
    for scope, mode in CRASHCHECK_CELLS:
        status = main(["crashcheck", "--scope", scope, "--mode", mode,
                       "--txn-size", "256"])
        captured = capsys.readouterr()
        parts += [scope, mode, captured.out, captured.err, str(status)]
    assert sha256("\x00".join(parts)) == CRASHCHECK_PIN


# No report holds ciphertext, so the pins above cannot see the pad
# construction; this one can.  Sixteen pads under the seed-0 key, at the
# edges of the line-index and counter fields of the pad seed.
PAD_INPUTS = [(addr, ctr)
              for addr in (0, 64, 1 << 40, (1 << 61) - 64)
              for ctr in (0, 1, 1 << 70, (1 << 71) - 1)]
PAD_PIN = "666bdc5450c64fae51159d92d81698db795863a39e770eb17aa17bfeffa5d48b"


def test_pad_digest():
    engine = OtpEngine(derive_key(0))
    pads = b"".join(engine.generate(addr, ctr) for addr, ctr in PAD_INPUTS)
    assert hashlib.sha256(pads).hexdigest() == PAD_PIN


# The reports hold no ciphertext byte, so this pin hashes the simulated NVM
# image itself: every durable line, the queue applied, as the bytes a stolen
# DIMM would hold.  A run of the headline mode, a run of the write-back
# baseline, and page 0 after a re-encryption.
def _run_image(mode, monkeypatch):
    made = []

    class Recorded(runner.Controller):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(runner, "Controller", Recorded)
    run_experiment(Config(mode=mode, workload="btree", txn_size=4096,
                          txn_count=RUN_TXNS, seed=0))
    return made[0].snapshot().store


def _reencrypt_image():
    scenario = ReencryptScenario(Config(mode="secpm", txn_size=4096, seed=0))
    ctrl = scenario.fresh()
    scenario.run(ctrl)
    return ctrl.snapshot().store


NVM_IMAGES = {
    "secpm": lambda mp: _run_image("secpm", mp),
    "secpm-no-cwt": lambda mp: _run_image("secpm-no-cwt", mp),
    "reencrypt": lambda mp: _reencrypt_image(),
}
NVM_IMAGE_PINS = {
    "secpm": "276a1ccc2a137e24dbedc7f15cdccfe4bad41da308bf428833cffb553a54b956",
    "secpm-no-cwt":
        "0836bb1f473420648e41922c883d7f0fb7a275e6dd6ed0d89259297ba0310941",
    "reencrypt": "4ac4cbbc913cddbb7b36422f02816fa01c01165fd4cef5b831f18f6a972e923a",
}


@pytest.mark.parametrize("image", sorted(NVM_IMAGES))
def test_nvm_image_digest(image, monkeypatch):
    store = NVM_IMAGES[image](monkeypatch)
    digest = hashlib.sha256()
    for address in sorted(store):
        digest.update(address.to_bytes(8, "big") + bytes(store[address]))
    assert digest.hexdigest() == NVM_IMAGE_PINS[image]
