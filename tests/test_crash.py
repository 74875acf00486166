import collections
import copy
import itertools
import random

import pytest
from _every_slot_recover import recover_every_slot

from secpmsim import crash, txn
from secpmsim.config import MODES, Config, Mode
from secpmsim.controller import Controller
from secpmsim.crash import (
    SCOPES,
    AtomicWriteScenario,
    CrashPlan,
    PointOutOfRange,
    ReencryptScenario,
    TxnScenario,
    Verdict,
    count_boundaries,
    inject,
)
from secpmsim.nvm import CrashSnapshot


def cfg_for(mode="secpm", **kw):
    kw.setdefault("workload", "array")
    kw.setdefault("txn_size", 256)
    kw.setdefault("txn_count", 1)
    return Config(mode=mode, **kw)


def _draws(seed, count):
    rng = random.Random(seed)
    return tuple(rng.randbytes(64) for _ in range(count))


@pytest.mark.parametrize("make, images, expected", [
    (lambda: TxnScenario(cfg_for(), n_lines=4, seed=5),
     lambda s: [s.pre, s.post], [_draws(5, 8)[:4], _draws(5, 8)[4:]]),
    (lambda: ReencryptScenario(cfg_for(), seed=5, writes=7),
     lambda s: [s.values], [_draws(5, 8)]),
    (lambda: AtomicWriteScenario(cfg_for()),
     lambda s: [s.values], [_draws(11, 2)]),
], ids=["txn", "reencrypt", "atomic-write"])
def test_scenario_images_are_tuples_of_the_seeds_draws(make, images,
                                                        expected):
    """A scenario's line images are the lines its seed draws, as tuples:
    scenarios of one seed may share them, for no scenario can change them."""
    for scenario in (make(), make()):
        assert images(scenario) == expected
        assert all(type(image) is tuple for image in images(scenario))


def test_plan_exhaustive_includes_pre_point():
    assert CrashPlan("exhaustive").points(3) == [-1, 0, 1, 2]


def test_plan_at_validates_range():
    assert CrashPlan("at", at=1).points(3) == [1]
    with pytest.raises(ValueError):
        CrashPlan("at", at=3).points(3)


def test_plan_random_is_seeded_subset():
    plan = CrashPlan("random", count=4, seed=1)
    pts = plan.points(50)
    assert len(pts) == 4 and pts == sorted(set(pts))
    assert pts == CrashPlan("random", count=4, seed=1).points(50)
    assert all(-1 <= p < 50 for p in pts)


def test_plan_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        CrashPlan("fuzz").points(3)


def test_count_boundaries_positive():
    n = count_boundaries(lambda: TxnScenario(cfg_for(), n_lines=2))
    assert n > 0


def test_replay_to_same_point_is_deterministic():
    factory = lambda: TxnScenario(cfg_for(), n_lines=2)
    point = count_boundaries(factory) // 2

    def snapshot_at(p):
        return crash._crash_at(factory(), p)[0].snapshot()

    assert snapshot_at(point) == snapshot_at(point)


def _scope_cases():
    """Every scope x mode x queue_len {2, 32} x use_register, as (scope,
    config); the reencrypt scope runs at 64-byte transactions."""
    for scope, mode, queue_len, use_register in itertools.product(
            SCOPES, MODES, [2, 32], [True, False]):
        yield scope, cfg_for(mode, txn_size=64 if scope == "reencrypt" else 256,
                             queue_len=queue_len, use_register=use_register)


def test_counting_and_crashing_agree_on_the_boundaries():
    """count_boundaries counts the labels one plain run announces, and a
    crash at point k reports the k-th of them (-1: "pre"); one past the
    last point is out of range."""
    for scope, cfg in _scope_cases():
        factory = lambda: SCOPES[scope](cfg)
        scenario = factory()
        ctrl = scenario.fresh()
        labels = []
        ctrl.boundary_hook = labels.append
        scenario.run(ctrl)
        n = count_boundaries(factory)
        case = (scope, cfg.mode, cfg.queue_len, cfg.use_register)
        assert n == len(labels), case
        for k in (-1, 0, n // 2, n - 1):
            [outcome] = inject(CrashPlan("at", at=k), factory)
            assert (outcome.crash_point, outcome.label) == (
                k, (["pre"] + labels)[k + 1]), (case, k)
        with pytest.raises(PointOutOfRange):
            inject(CrashPlan("at", at=n), factory)


# Boundaries after which the durable image (store, rsr) is the one before
# them, and those after which it differs.
KEEP_IMAGE = {"reg_store", "drain", "fence"}
CHANGE_IMAGE = {"append", "append_pair", "reencrypt_line", "rsr_arm", "rsr_done"}


def test_snapshots_change_monotonically():
    """Consecutive crash points differ only by newly-durable lines: a
    boundary that makes nothing durable leaves the image as it was, every
    other boundary changes it, and no line ever leaves the store.  Checked
    at every boundary of every scope x mode x queue_len {2, 32} x
    use_register {1, 0}."""
    labels = collections.Counter()
    for scope, cfg in _scope_cases():
        scenario = SCOPES[scope](cfg)
        ctrl = scenario.fresh()

        previous = ctrl.snapshot()

        def hook(label):
            nonlocal previous
            current = ctrl.snapshot()
            labels[label] += 1
            case = (scope, cfg.mode, cfg.queue_len, cfg.use_register, label)
            assert label in KEEP_IMAGE | CHANGE_IMAGE, case
            assert (current == previous) == (label in KEEP_IMAGE), case
            assert previous.store.keys() <= current.store.keys(), case
            previous = current

        ctrl.boundary_hook = hook
        scenario.run(ctrl)
    assert labels.keys() == KEEP_IMAGE | CHANGE_IMAGE


def test_txn_scenario_secpm_never_inconsistent():
    # With one log slot the setup and the checked transaction share it.
    for log_slots in (64, 1):
        cfg = cfg_for("secpm", log_slots=log_slots)
        outcomes = inject(CrashPlan("exhaustive"),
                          lambda: TxnScenario(cfg, n_lines=2))
        verdicts = collections.Counter(o.verdict for o in outcomes)
        assert verdicts[Verdict.INCONSISTENT] == 0
        assert verdicts[Verdict.ROLLED_BACK] > 0
        assert verdicts[Verdict.COMMITTED] > 0


def test_txn_scenario_no_cwr_never_inconsistent():
    for log_slots in (64, 1):
        cfg = cfg_for("secpm-no-cwr", log_slots=log_slots)
        outcomes = inject(CrashPlan("exhaustive"),
                          lambda: TxnScenario(cfg, n_lines=2))
        assert all(o.verdict.ok for o in outcomes)


def test_txn_scenario_unencrypted_never_inconsistent():
    for log_slots in (64, 1):
        cfg = cfg_for("unsec-pm", log_slots=log_slots)
        outcomes = inject(CrashPlan("exhaustive"),
                          lambda: TxnScenario(cfg, n_lines=2))
        assert all(o.verdict.ok for o in outcomes)


def test_txn_scenario_write_back_baseline_breaks():
    """Without write-through, a crash can strand a counter update in the
    volatile cache: data in persistence, counter lost, line undecryptable.
    Crashes during prepare must still recover (the log is self-contained);
    the damage appears in mutate/commit."""
    outcomes = inject(CrashPlan("exhaustive"),
                      lambda: TxnScenario(cfg_for("secpm-no-cwt"), n_lines=4))
    bad_stages = {o.stage for o in outcomes if o.verdict is Verdict.INCONSISTENT}
    assert "mutate" in bad_stages
    assert "commit" in bad_stages
    assert "prepare" not in bad_stages


def test_atomic_write_register_prevents_tearing():
    with_reg = inject(
        CrashPlan("exhaustive"),
        lambda: AtomicWriteScenario(cfg_for("secpm", use_register=True)))
    assert all(o.verdict.ok for o in with_reg)

    without = inject(
        CrashPlan("exhaustive"),
        lambda: AtomicWriteScenario(cfg_for("secpm", use_register=False)))
    torn = [o for o in without if o.verdict is Verdict.INCONSISTENT]
    assert len(torn) >= 1
    assert torn[0].failing_address == 0


def test_reencryption_survives_all_crash_points():
    outcomes = inject(CrashPlan("exhaustive"),
                      lambda: ReencryptScenario(cfg_for("secpm", txn_size=64)))
    assert all(o.verdict is Verdict.CONSISTENT for o in outcomes)
    # The sweep covers every per-line boundary of the 64-line page.
    assert sum(1 for o in outcomes if o.label == "reencrypt_line") >= 64


def test_a_snapshot_keeps_the_register_it_was_taken_with():
    """Snapshots kept from one run through the boundary hook still hold the
    register as it was when each was taken: the k-th reencrypt_line image
    has done bits 0..k-1, and images outside the re-encryption hold none.
    Recovering any image twice gives the same store and leaves the image
    as it was."""
    cfg = cfg_for("secpm", txn_size=64)
    scenario = ReencryptScenario(cfg)
    ctrl = scenario.fresh()
    taken = [("pre", ctrl.snapshot())]
    ctrl.boundary_hook = lambda label: taken.append((label, ctrl.snapshot()))
    scenario.run(ctrl)

    labels = [label for label, _ in taken]
    arm, done = labels.index("rsr_arm"), labels.index("rsr_done")
    moved = 0
    for i, (label, snap) in enumerate(taken):
        moved += label == "reencrypt_line"
        if arm <= i < done:
            assert snap.rsr.page_number == 0, (i, label)
            assert snap.rsr.done_bits == (1 << moved) - 1, (i, label)
        else:
            assert snap.rsr is None, (i, label)
    assert moved == 64

    for i, (label, snap) in enumerate(taken):
        kept = CrashSnapshot(dict(snap.store), copy.copy(snap.rsr))
        first, _ = txn.recover(snap, cfg)
        second, _ = txn.recover(snap, cfg)
        assert first.nvm.store == second.nvm.store, (i, label)
        assert snap == kept, (i, label)


def _reordering(order):
    """A Controller that holds each epoch's flushes until ``fence()``, then
    issues them in ``order(held)``: x86 ``clwb``s between two ``sfence``s
    may reach the persistence domain in any order."""
    class Reordering(Controller):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.held = []

        def handle_flush(self, address, plaintext, now=None):
            self.held.append((address, plaintext))
            return self.clock

        def fence(self):
            held, self.held = order(self.held), []
            for address, plaintext in held:
                super().handle_flush(address, plaintext)
            super().fence()

    return Reordering


def _txn_outcomes(cfg):
    return inject(CrashPlan("exhaustive"), lambda: SCOPES["txn"](cfg))


def test_flushes_issued_at_the_fence_in_program_order_change_no_outcome(
        monkeypatch):
    """Holding an epoch's flushes until its fence moves no boundary, label,
    stage or verdict of the txn scope, in any mode, queue_len {2, 32} or
    use_register case."""
    for mode, queue_len, use_register in itertools.product(
            MODES, [2, 32], [True, False]):
        cfg = cfg_for(mode, queue_len=queue_len, use_register=use_register)
        expected = _txn_outcomes(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(crash, "Controller", _reordering(list))
            assert _txn_outcomes(cfg) == expected, (mode, queue_len,
                                                    use_register)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: no fence between the undo log's "
                          "old values and its end tag")
def test_an_epoch_issued_last_flush_first_never_tears(monkeypatch):
    """An epoch's last flush may reach the persistence domain first; in the
    prepare epoch that is the end tag, which makes the log look complete
    before its old values are durable."""
    monkeypatch.setattr(crash, "Controller",
                        _reordering(lambda held: held[-1:] + held[:-1]))
    torn = {}
    for mode in ("secpm", "secpm-no-cwr", "unsec-pm"):
        outcomes = _txn_outcomes(cfg_for(mode, queue_len=32,
                                         use_register=True))
        torn[mode] = [(o.crash_point, o.stage) for o in outcomes
                      if o.verdict is Verdict.INCONSISTENT]
    assert torn == {"secpm": [], "secpm-no-cwr": [], "unsec-pm": []}


def test_outcome_csv_fields_are_complete():
    outcomes = inject(CrashPlan("random", count=3, seed=2),
                      lambda: TxnScenario(cfg_for("secpm"), n_lines=2))
    for o in outcomes:
        assert o.stage in ("prepare", "mutate", "commit", "done")
        assert isinstance(o.label, str)


def test_reencrypt_oracle_catches_a_line_left_under_its_old_ciphertext(
        monkeypatch):
    """A re-encryption that leaves line 5 under its old ciphertext while its
    counter moves on garbles that line in a crash-free run too.  The oracle
    is the page as it read before the overflowing flush, so every crash
    point from the re-encryption on names that line."""
    target = 5 * 64
    seal = Controller._seal

    def keep_old_cipher(self, address, ctr, plaintext):
        if address == target:
            ctr -= 1 << 7  # the counter before the major moved: the old pad
        return seal(self, address, ctr, plaintext)

    monkeypatch.setattr(Controller, "_seal", keep_old_cipher)
    outcomes = inject(CrashPlan("exhaustive"),
                      lambda: ReencryptScenario(cfg_for("secpm", txn_size=64)))
    assert outcomes[0].verdict is Verdict.CONSISTENT
    assert {(o.verdict, o.failing_address) for o in outcomes[1:]} == {
        (Verdict.INCONSISTENT, target)}


def test_reencrypt_scope_builds_two_controllers_per_point(monkeypatch):
    """One to run the scenario and one to recover it; none to find the
    expected page."""
    built = []
    init = Controller.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Controller, "__init__", counting_init)
    outcomes = inject(CrashPlan("exhaustive"),
                      lambda: ReencryptScenario(cfg_for("secpm", txn_size=64)))
    assert len(built) == 1 + 2 * len(outcomes)


@pytest.mark.parametrize("scope", ["atomic-write", "reencrypt"])
def test_write_back_baseline_starts_from_a_durable_counter(scope):
    """secpm-no-cwt recovers from a crash before the scope's own write; its
    failure is the last append, which leaves the new counter in the cache."""
    outcomes = inject(CrashPlan("exhaustive"),
                      lambda: SCOPES[scope](cfg_for("secpm-no-cwt")))
    assert outcomes[0].verdict.ok
    assert [(o.label, o.verdict) for o in outcomes if not o.verdict.ok] == [
        ("append", Verdict.INCONSISTENT)]
    assert outcomes[-1].failing_address == 0


@pytest.mark.parametrize("scope", SCOPES)
def test_outcomes_do_not_depend_on_the_key(scope):
    """Config.seed only picks the encryption key, and no verdict reads a
    ciphertext byte, so two keys give the same outcome list.  That is why a
    change to the pad construction moves no crash verdict."""
    def outcomes(seed):
        # 256-byte transactions: the txn scope checks 4 lines.
        cfg = cfg_for("secpm", txn_size=256, seed=seed)
        return inject(CrashPlan("exhaustive"), lambda: SCOPES[scope](cfg))

    assert Controller(cfg_for(seed=0)).otp.generate(0, 0) != (
        Controller(cfg_for(seed=1)).otp.generate(0, 0))
    assert outcomes(0) == outcomes(1)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scope", SCOPES)
def test_recover_matches_the_every_slot_scan(scope, mode):
    """recover reads only the log slots in the durable image; the reference
    reads all cores * log_slots of them.  At crash point -1 and at every
    boundary of every queue_len {2, 32} x use_register x log_slots
    {1, 3, 64} case, both undo the same transactions, leave the same store
    and give the same verdict.  One run of the scenario yields every
    point's image, the one ``inject`` replays up to."""
    undid = False
    for queue_len, use_register, log_slots in itertools.product(
            [2, 32], [True, False], [1, 3, 64]):
        cfg = cfg_for(mode, txn_size=64 if scope == "reencrypt" else 256,
                      queue_len=queue_len, use_register=use_register,
                      log_slots=log_slots)
        scenario = SCOPES[scope](cfg)
        ctrl = scenario.fresh()
        images = [ctrl.snapshot()]
        ctrl.boundary_hook = lambda label: images.append(ctrl.snapshot())
        scenario.run(ctrl)
        for point, snapshot in enumerate(images, -1):
            case = (queue_len, use_register, log_slots, point)
            got, undone = txn.recover(snapshot, cfg)
            ref, ref_undone = recover_every_slot(snapshot, cfg)
            assert undone == ref_undone, case
            assert got.snapshot().store == ref.snapshot().store, case
            assert scenario.verify(got) == scenario.verify(ref), case
            undid = undid or bool(undone)
    # The txn scope undoes a complete log at some crash point wherever its
    # log lines decrypt after a crash: unencrypted or written through.
    m = Mode(mode)
    assert undid == (scope == "txn" and (not m.encrypted or m.write_through))


def _nested_recovery_points(monkeypatch, scenario, cfg):
    """Crash the scenario at every point, then crash its recovery at every
    boundary the recovery announces, including those of the re-encryption
    ``Controller.from_snapshot`` resumes, and recover that image again.
    Asserts that each nested verdict equals its outer one; returns the
    number of nested points."""
    nested = []
    hooking = False

    class Hooked(Controller):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if hooking:
                self.boundary_hook = lambda label: nested.append(
                    (label, self.snapshot()))

    monkeypatch.setattr(txn, "Controller", Hooked)
    ctrl = scenario.fresh()
    images = [ctrl.snapshot()]
    ctrl.boundary_hook = lambda label: images.append(ctrl.snapshot())
    scenario.run(ctrl)
    count = 0
    for point, image in enumerate(images, -1):
        nested.clear()
        hooking = True
        recovered, _ = txn.recover(image, cfg)
        hooking = False
        recovered.boundary_hook = None
        outer = scenario.verify(recovered)
        checked = None
        for inner_point, (label, inner_image) in enumerate(nested):
            if inner_image != checked:  # an equal image recovers alike
                again, _ = txn.recover(inner_image, cfg)
                assert scenario.verify(again) == outer, (point, inner_point,
                                                         label)
                checked = inner_image
        count += len(nested)
    return count


@pytest.mark.parametrize("use_register", [True, False])
@pytest.mark.parametrize("queue_len", [2, 32])
@pytest.mark.parametrize("mode", ["secpm", "secpm-no-cwr", "unsec-pm"])
def test_a_crash_during_txn_recovery_recovers_to_the_same_verdict(
        monkeypatch, mode, queue_len, use_register):
    """A second power failure anywhere in the undo pass leaves an image
    whose recovery gives the verdict the first recovery gave."""
    cfg = cfg_for(mode, queue_len=queue_len, use_register=use_register)
    scenario = SCOPES["txn"](cfg)
    assert _nested_recovery_points(monkeypatch, scenario, cfg) > 0


@pytest.mark.parametrize("use_register", [True, False])
@pytest.mark.parametrize("queue_len", [2, 32])
@pytest.mark.parametrize("mode", MODES)
def test_atomic_write_recovery_announces_no_boundary(monkeypatch, mode,
                                                     queue_len, use_register):
    """The scope writes no log and overflows no counter, so its recovery
    writes nothing and has no point to crash at."""
    cfg = cfg_for(mode, queue_len=queue_len, use_register=use_register)
    scenario = SCOPES["atomic-write"](cfg)
    assert _nested_recovery_points(monkeypatch, scenario, cfg) == 0


def test_a_crash_during_resumed_reencryption_recovers_to_the_same_verdict(
        monkeypatch):
    """Recovery resumes an interrupted page re-encryption; a second power
    failure at any of its steps recovers to a page that still reads
    consistently.  Only ``queue_len`` 32 runs here: 2 gives three times
    the nested points (18,527) and takes 3.3 s on a 2-core VM, against
    1.1 s for 32."""
    cfg = cfg_for("secpm", txn_size=64, queue_len=32)
    scenario = SCOPES["reencrypt"](cfg)
    assert _nested_recovery_points(monkeypatch, scenario, cfg) > 0
