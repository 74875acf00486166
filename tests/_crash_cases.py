"""The configurations the crash tests run, and the one table of where each
recovers to a torn state.

``crash_configs`` gives every mode x queue_len {2, 32} x use_register that
runs distinct code: only a write-through encrypted flush reads
``use_register`` (one branch of ``Controller.handle_flush``), so the other
modes run with it on alone, and ``test_crash.py`` checks that turning it
off changes none of their cases.  ``scope_cases`` runs each scope over them
at 64 log slots, and each txn case again at 1, where the set-up
transaction and the checked one share the slot, and at 3, where slot 2
stays unwritten: recovery skips it, and the every-slot reference of
``_every_slot_recover.py`` reads it.  ``torn_stages`` is the table; the
crash matrix of ``test_crash.py`` and the ``crashcheck`` tests of
``test_cli.py`` both judge against it.
"""

import dataclasses
import itertools

import pytest

from secpmsim.config import MODES, Config, Mode
from secpmsim.crash import SCOPES


def cfg_for(mode="secpm", **kw):
    kw.setdefault("workload", "array")
    kw.setdefault("txn_size", 256)
    kw.setdefault("txn_count", 1)
    return Config(mode=mode, **kw)


def crash_configs(modes=MODES):
    """``(mode, queue_len, use_register)`` of each crash-test configuration."""
    return [(mode, queue_len, use_register) for mode in modes
            for queue_len in (2, 32) for use_register in (
                (True, False) if Mode(mode).write_through else (True,))]


def scope_cases():
    """One ``pytest.param(scope, config)`` per case, with an id such as
    ``txn-secpm-q32-noreg-slots1``; the reencrypt scope runs at 64-byte
    transactions, the others at 256."""
    for scope, (mode, queue_len, use_register) in itertools.product(
            SCOPES, crash_configs()):
        cfg = cfg_for(mode, txn_size=64 if scope == "reencrypt" else 256,
                      queue_len=queue_len, use_register=use_register)
        case = f"{scope}-{mode}-q{queue_len}-{'reg' if use_register else 'noreg'}"
        yield pytest.param(scope, cfg, id=case)
        if scope == "txn":
            for log_slots in (1, 3):
                yield pytest.param(
                    scope, dataclasses.replace(cfg, log_slots=log_slots),
                    id=f"{case}-slots{log_slots}")


def torn_stages(scope, cfg):
    """The stages at which some crash point of the scope recovers torn.  The
    write-back baseline loses a data line's counter in the txn scope's
    mutate and commit epochs; the undo log keeps every other mode whole.  A
    single-flush scope tears exactly where its configuration promises no
    consistency.  Neither queue_len nor log_slots moves a tear."""
    if scope == "txn":
        return ({"mutate", "commit"} if cfg.mode == Mode.SECPM_NO_CWT.value
                else set())
    return set() if cfg.crash_consistent else {scope}
