import collections
import copy
import enum
import itertools
import random

import pytest
from _crash_cases import cfg_for, scope_cases, torn_stages
from _every_slot_recover import recover_every_slot

from secpmsim import crash, txn
from secpmsim.config import LINES_PER_PAGE, MODES, Config, Mode
from secpmsim.controller import Controller
from secpmsim.counters import CounterAddressMap
from secpmsim.crash import (
    SCOPES,
    AtomicWriteScenario,
    CrashPlan,
    Outcome,
    PointOutOfRange,
    ReencryptScenario,
    TxnScenario,
    Verdict,
    count_boundaries,
    inject,
)
from secpmsim.crypto import Sealed
from secpmsim.nvm import CrashSnapshot, Rsr
from secpmsim.write_queue import WriteQueueEntry


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


def _one_run(scenario, own_reads=False):
    """Run a fresh scenario once and keep the durable image at each of its
    boundaries, as [(label, stage, snapshot)] from ("pre", ...) on: entry
    k + 1 is the image a crash at point k leaves.  With ``own_reads``, a
    txn scenario's transaction reads its old values again itself, after
    the set-up has read them."""
    ctrl = scenario.fresh()
    if own_reads:
        scenario.txn.old_values = None
    taken = [("pre", scenario.stage(), ctrl.snapshot())]
    ctrl.boundary_hook = lambda label: taken.append(
        (label, scenario.stage(), ctrl.snapshot()))
    scenario.run(ctrl)
    return taken


# Boundaries after which the durable image (store, rsr) is the one before
# them, and those after which it differs.
KEEP_IMAGE = {"reg_store", "drain", "fence"}
CHANGE_IMAGE = {"append", "append_pair", "reencrypt_line", "rsr_arm", "rsr_done"}


def _announced(scope, cfg):
    """The boundary kinds one run announces, drains aside: a write-through
    flush through the register stores twice and appends a pair, any other
    flush appends its lines one by one; only txn fences, and only an
    encrypted reencrypt scope moves a page."""
    mode = Mode(cfg.mode)
    kinds = ({"reg_store", "append_pair"}
             if mode.write_through and cfg.use_register else {"append"})
    if scope == "txn":
        kinds.add("fence")
    if scope == "reencrypt" and mode.encrypted:
        kinds |= {"rsr_arm", "reencrypt_line", "rsr_done"}
    return kinds


@pytest.mark.parametrize("scope, cfg", scope_cases())
def test_one_run_states_the_crash_claim(scope, cfg):
    """One run of the scenario yields every crash point's durable image.
    Each image differs from the one before only by newly durable lines.
    Recovered and judged, the images give the outcome list ``inject``
    gives by replaying the scenario to each point.  A configuration that
    promises consistency never recovers torn; any other tears at the
    stages of ``torn_stages``."""
    factory = lambda: SCOPES[scope](cfg)
    scenario = factory()
    run = _one_run(scenario)
    n = len(run) - 1

    for (_, _, before), (label, _, after) in zip(run, run[1:]):
        assert label in KEEP_IMAGE | CHANGE_IMAGE, label
        assert (after == before) == (label in KEEP_IMAGE), label
        assert before.store.keys() <= after.store.keys(), label
    kinds = collections.Counter(label for label, _, _ in run[1:])
    assert kinds.keys() - {"drain"} == _announced(scope, cfg)
    # The queue drains exactly when the run appends more than it holds.
    appended = kinds["append"] + 2 * (kinds["append_pair"]
                                      + kinds["reencrypt_line"])
    assert ("drain" in kinds) == (appended > cfg.queue_len)
    assert kinds["reencrypt_line"] in (0, LINES_PER_PAGE)

    outcomes = []
    for point, (label, stage, image) in enumerate(run, -1):
        verdict, failing = scenario.verify(txn.recover(image, cfg)[0])
        outcomes.append(Outcome(point, label, stage, verdict, failing))
    assert outcomes == inject(CrashPlan("exhaustive"), factory)
    assert count_boundaries(factory) == n
    first = factory()
    setup = first.fresh()
    for k in (-1, 0, n // 2, n - 1):
        assert inject(CrashPlan("at", at=k), factory) == [outcomes[k + 1]]
        point = factory()
        point.start(first)
        assert (crash._crash_at(point, setup, k)[0].snapshot()
                == run[k + 1][2])
    with pytest.raises(PointOutOfRange):
        inject(CrashPlan("at", at=n), factory)
    plan = CrashPlan("random", count=3, seed=2)
    assert inject(plan, factory) == [outcomes[p + 1] for p in plan.points(n)]

    stages = {"prepare", "mutate", "commit"} if scope == "txn" else {scope}
    assert {o.stage for o in outcomes} == stages
    assert outcomes[0].verdict.ok
    torn = [o for o in outcomes if not o.verdict.ok]
    if cfg.crash_consistent:
        assert not torn
    assert {o.stage for o in torn} == torn_stages(scope, cfg)
    if not torn:  # the run passes from the pre-image to the post-image
        assert {o.verdict for o in outcomes} == (
            {Verdict.CONSISTENT} if scope == "reencrypt"
            else {Verdict.ROLLED_BACK, Verdict.COMMITTED})
        return
    # A tear starts at the append that leaves a line durable without its
    # counter, or the counter without its line, and lasts until the next
    # append joins them; a counter kept in the write-back cache never does.
    assert {o.failing_address for o in torn} == {0}
    start = torn[0].crash_point + 1
    later = [o.label for o in outcomes[start + 1:]]
    end = (len(outcomes) if cfg.mode == Mode.SECPM_NO_CWT.value
           else start + 1 + later.index("append"))
    assert outcomes[start].label == "append" and torn == outcomes[start:end]


def test_a_snapshot_keeps_the_register_it_was_taken_with():
    """Snapshots kept from one run through the boundary hook still hold the
    register as it was when each was taken: the k-th reencrypt_line image
    has done bits 0..k-1, and images outside the re-encryption hold none.
    Recovering any image twice gives the same store and leaves the image
    as it was."""
    cfg = cfg_for("secpm", txn_size=64)
    taken = _one_run(ReencryptScenario(cfg))
    labels = [label for label, _, _ in taken]
    arm, done = labels.index("rsr_arm"), labels.index("rsr_done")
    moved = 0
    for i, (label, _, snap) in enumerate(taken):
        moved += label == "reencrypt_line"
        if arm <= i < done:
            assert snap.rsr.page_number == 0, (i, label)
            assert snap.rsr.done_bits == (1 << moved) - 1, (i, label)
        else:
            assert snap.rsr is None, (i, label)
    assert moved == 64

    for i, (label, _, snap) in enumerate(taken):
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
                   reason="the undo log has no fence between its old "
                          "values and its end tag")
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


@pytest.mark.parametrize("scope, cfg",
                         [case for case in scope_cases() if case.values[0] == "txn"])
def test_reading_the_old_values_is_no_crash_point(scope, cfg):
    """A txn set-up reads the lines its transaction logs, so that no crash
    point replays those reads.  Reading them announces no boundary and
    makes nothing durable: a transaction that reads them again itself
    gives the same run, image by image."""
    assert (_one_run(SCOPES[scope](cfg), own_reads=True)
            == _one_run(SCOPES[scope](cfg)))


def test_reencrypt_scope_builds_two_controllers_per_point(monkeypatch):
    """A pass builds one controller to set the scenario up and one copy of
    it to count the boundaries; each point, one copy to run and one
    controller to recover, and none to find the expected page.  A second
    pass builds as many, so no set-up outlives its pass."""
    built = []
    init = Controller.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Controller, "__init__", counting_init)
    for _ in range(2):
        built.clear()
        outcomes = inject(
            CrashPlan("exhaustive"),
            lambda: ReencryptScenario(cfg_for("secpm", txn_size=64)))
        assert len(built) == 2 + 2 * len(outcomes)


# Values that a controller copy shares with its original: none changes
# after it is built.
SHARED = (type(None), bool, int, float, str, bytes, enum.Enum, Config,
          CounterAddressMap, Rsr, Sealed, WriteQueueEntry)


def _fields(obj):
    """Every attribute of ``obj``: its ``vars()`` and the ``__slots__`` of
    its classes."""
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.update([slots] if isinstance(slots, str) else slots)
    return names


def _assert_same_state(orig, dup, path="ctrl"):
    """``dup`` holds ``orig``'s state, field by field and in order (a
    cache set's order is its recency order), and shares with it nothing
    but ``SHARED`` values and functions.  A controller's ``flushes`` is
    the exception: ``dup``'s is 0."""
    assert type(dup) is type(orig), path
    if isinstance(orig, SHARED) or callable(orig):
        assert dup is orig or dup == orig, path
        return
    assert dup is not orig, path
    if isinstance(orig, dict):
        assert list(dup) == list(orig), path
        for key, value in orig.items():
            _assert_same_state(value, dup[key], f"{path}[{key!r}]")
    elif isinstance(orig, (list, collections.deque)):
        assert len(dup) == len(orig), path
        for i, (a, b) in enumerate(zip(orig, dup)):
            _assert_same_state(a, b, f"{path}[{i}]")
    elif isinstance(orig, set):
        assert dup == orig, path
    else:
        fields = _fields(orig)
        assert fields and _fields(dup) == fields, path
        if isinstance(orig, Controller):
            # a copy counts only the flushes it handles itself
            assert dup.flushes == 0, path
            fields -= {"flushes"}
        for name in sorted(fields):
            _assert_same_state(getattr(orig, name), getattr(dup, name),
                               f"{path}.{name}")


# The controller fields that Controller(cfg) derives from the config alone;
# every other field of a controller and of its layers is state.
FROM_CONFIG = {"cfg", "mode", "_encrypted", "_write_through", "_use_register",
               "_flush_overhead_ns", "_cache_hit_ns", "_aes_ns", "_read_ns",
               "_key", "otp", "map"}


def _bump_numbers(ctrl):
    """Move every numeric state field, counters included, off its value."""
    for obj in (ctrl, ctrl.nvm, ctrl.cache, ctrl.queue):
        for name in _fields(obj) - (FROM_CONFIG if obj is ctrl else set()):
            value = getattr(obj, name)
            if type(value) in (int, float):
                setattr(obj, name, value + 1)


@pytest.mark.parametrize("scope, cfg", scope_cases())
def test_a_copy_holds_the_set_up_state_and_shares_none_of_it(scope, cfg):
    """A copy of a controller equals it in every field of every layer:
    store, bank times, cache sets in recency order, dirty lines, queue
    entries, the newest entry per address and every counter but
    ``flushes``, whatever value each holds; a copy starts ``flushes`` at 0.
    That holds for the set-up controller and at every boundary of a run
    from it.  The copy shares no mutable container, so running the
    scenario to its end on a copy leaves the set-up controller as it
    was."""
    scenario = SCOPES[scope](cfg)
    setup = scenario.fresh()
    setup_flushes = setup.flushes
    kept = Controller.copy_of(setup)
    _assert_same_state(setup, kept)
    marked = Controller.copy_of(setup)
    _bump_numbers(marked)
    _assert_same_state(marked, Controller.copy_of(marked))

    ctrl = Controller.copy_of(setup)
    ctrl.boundary_hook = lambda label: _assert_same_state(
        ctrl, Controller.copy_of(ctrl))
    scenario.run(ctrl)
    ctrl.drain_all()
    scenario.verify(ctrl)
    assert ctrl.snapshot() != setup.snapshot()
    assert ctrl.flushes > 0 and setup.flushes == setup_flushes
    _assert_same_state(setup, kept)


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
    point's image, the one ``inject`` replays up to; an image equal to the
    one before it is not recovered again."""
    undid = False
    for queue_len, use_register, log_slots in itertools.product(
            [2, 32], [True, False], [1, 3, 64]):
        cfg = cfg_for(mode, txn_size=64 if scope == "reencrypt" else 256,
                      queue_len=queue_len, use_register=use_register,
                      log_slots=log_slots)
        scenario = SCOPES[scope](cfg)
        checked = None
        for point, (_, _, snapshot) in enumerate(_one_run(scenario), -1):
            if snapshot == checked:  # an equal image recovers alike
                continue
            checked = snapshot
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
    count = 0
    for point, (_, _, image) in enumerate(_one_run(scenario), -1):
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
