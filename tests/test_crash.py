import collections
import contextlib
import dataclasses
import functools
import random
import types

import pytest
from _crash_cases import cfg_for, crash_configs, scope_cases, torn_stages
from _every_slot_recover import recover_every_slot

from secpmsim import crash, txn
from secpmsim.config import LINES_PER_PAGE, Mode
from secpmsim.controller import Controller
from secpmsim.counters import MINOR_MAX
from secpmsim.crash import (SCOPES, CrashPlan, Outcome, ReencryptScenario,
                            TxnScenario, Verdict, inject)
from secpmsim.nvm import CrashSnapshot


def _draws(seed, count):
    rng = random.Random(seed)
    return tuple(rng.randbytes(64) for _ in range(count))


@pytest.mark.parametrize("make, images, expected, stage", [
    (lambda: TxnScenario(cfg_for(), n_lines=4, seed=5),
     lambda s: [s.pre, s.post], [_draws(5, 8)[:4], _draws(5, 8)[4:]],
     "prepare"),
    (lambda: ReencryptScenario(cfg_for(), seed=5, writes=7),
     lambda s: [s.values], [_draws(5, 8)], "reencrypt"),
    (lambda: crash.AtomicWriteScenario(cfg_for()),
     lambda s: [s.values], [_draws(11, 2)], "atomic-write"),
], ids=["txn", "reencrypt", "atomic-write"])
def test_a_scenario_draws_its_lines_in_fresh(make, images, expected, stage):
    """A built scenario holds its fields alone.  Each ``fresh`` draws the
    line images its seed gives, as tuples, and sets up a new run at its
    first stage: a txn scenario runs a transaction of its own each time."""
    scenario = make()
    assert vars(scenario).keys() == {
        f.name for f in dataclasses.fields(scenario)}
    for _ in range(2):
        ctrl = scenario.fresh()
        assert images(scenario) == expected
        assert all(type(image) is tuple for image in images(scenario))
        assert scenario.stage() == stage
        scenario.run(ctrl)
    if isinstance(scenario, TxnScenario):
        assert scenario.txn.write_set == list(
            zip(range(0, 256, 64), scenario.post))


def test_plan_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        CrashPlan("fuzz").points(3)


class CrashNow(Exception):
    """Raised at the crash point."""


def _replay(factory, point):
    """The replay oracle: set a new scenario of ``factory`` up, run it until
    boundary ``point`` fails it (-1 fails it before its first event, so
    nothing runs), then recover the image it leaves and judge it."""
    scenario, labels = factory(), ["pre"]
    ctrl = scenario.fresh()

    def hook(label):
        labels.append(label)
        if len(labels) == point + 2:
            raise CrashNow

    if point != -1:
        ctrl.boundary_hook = hook
        with contextlib.suppress(CrashNow):
            scenario.run(ctrl)
    recovered, _ = txn.recover(ctrl.snapshot(), scenario.cfg)
    return Outcome(point, labels[-1], scenario.stage(),
                   *scenario.verify(recovered))


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


# One pass per crash case: the tests of a case share its ``crash_pass``.
CASES = [pytest.param(case.values, id=case.id) for case in scope_cases()]
TXN_CASES = [case for case in CASES if case.values[0][0] == "txn"]


@pytest.fixture(scope="module")
def crash_pass(request):
    """One set-up and one run of a case's scenario, with the durable image
    at each of its boundaries and a copy of each taken before any recovery;
    then an exhaustive ``inject`` pass, its outcomes and the calls it made.
    The run has already set the case up once, so that pass is its second:
    it counts what a first would, and no set-up outlives its pass."""
    scope, cfg = request.param
    factory = lambda: SCOPES[scope](cfg)
    scenario = factory()
    run = crash.boundary_images(scenario)
    copies = {id(image): CrashSnapshot(dict(image.store), image.rsr)
              for _, _, image in run}
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for owner, attr, name in [
                (crash, "_random_lines", "draw"), (crash, "recover", "recover"),
                (Controller, "__init__", "init"),
                (type(scenario), "verify", "verify")]:
            patch.setattr(owner, attr, counted(name, vars(owner)[attr]))
        addresses = functools.cached_property(
            counted("sort", CrashSnapshot.addresses.func))
        addresses.__set_name__(CrashSnapshot, "addresses")
        patch.setattr(CrashSnapshot, "addresses", addresses)
        outcomes = inject(CrashPlan("exhaustive"), factory)
    return types.SimpleNamespace(scope=scope, cfg=cfg, factory=factory,
                                 scenario=scenario, run=run, copies=copies,
                                 outcomes=outcomes, calls=calls)


@pytest.mark.parametrize("crash_pass", CASES, indirect=True)
def test_one_run_states_the_crash_claim(crash_pass):
    """One set-up and one run of the scenario state the crash claim.

    Each image adds only newly durable lines to the one before, and is that
    same object if equal to it.  Recovered, each gives what
    ``recover_every_slot`` gives.  Judged at every point, they give the
    outcomes of the replay oracle, which runs the scenario again to each
    point, and of ``inject``.  A random plan's points are sorted, distinct,
    in range and the same each time.  A configuration that promises
    consistency never recovers torn; any other tears at the stages of
    ``torn_stages``."""
    scope, cfg, factory = crash_pass.scope, crash_pass.cfg, crash_pass.factory
    scenario, run = crash_pass.scenario, crash_pass.run
    n = len(run) - 1

    for (_, _, before), (label, _, after) in zip(run, run[1:]):
        assert label in KEEP_IMAGE | CHANGE_IMAGE, label
        kept = label in KEEP_IMAGE
        assert (after == before) == (after is before) == kept, label
        assert before.store.keys() <= after.store.keys(), label
    kinds = collections.Counter(label for label, _, _ in run[1:])
    assert kinds.keys() - {"drain"} == _announced(scope, cfg)
    # The queue drains exactly when the run appends more than it holds.
    appended = kinds["append"] + 2 * (kinds["append_pair"]
                                      + kinds["reencrypt_line"])
    assert ("drain" in kinds) == (appended > cfg.queue_len)
    assert kinds["reencrypt_line"] in (0, LINES_PER_PAGE)

    outcomes, undid, checked = [], False, None
    for point, (label, stage, image) in enumerate(run, -1):
        recovered, undone = txn.recover(image, cfg)
        if image is not checked:  # an equal image recovers alike
            checked = image
            ref, ref_undone = recover_every_slot(image, cfg)
            assert undone == ref_undone, point
            assert recovered.snapshot().store == ref.snapshot().store, point
            assert scenario.verify(recovered) == scenario.verify(ref), point
            undid = undid or bool(undone)
        verdict, failing = scenario.verify(recovered)
        outcomes.append(Outcome(point, label, stage, verdict, failing))
    # The txn scope undoes a complete log at some crash point wherever its
    # log lines decrypt after a crash: unencrypted or written through.
    m = Mode(cfg.mode)
    assert undid == (scope == "txn" and (not m.encrypted or m.write_through))
    assert outcomes == crash_pass.outcomes
    assert outcomes == [_replay(factory, k) for k in range(-1, n)]
    assert crash.count_boundaries(factory) == n
    for k in (-1, 0, n // 2, n - 1):
        assert inject(CrashPlan("at", at=k), factory) == [outcomes[k + 1]]
    with pytest.raises(crash.PointOutOfRange):
        inject(CrashPlan("at", at=n), factory)
    plan = CrashPlan("random", count=3, seed=2)
    points = plan.points(n)
    assert points == sorted(set(points)) == plan.points(n)
    assert len(points) == min(3, n + 1) and -1 <= points[0] and points[-1] < n
    assert inject(plan, factory) == [outcomes[p + 1] for p in points]
    # Every other point, from each end: each judged image follows one the
    # pass skipped, so no verdict may carry over a skipped boundary.
    for first in (-1, 0):
        every_other = types.SimpleNamespace(
            points=lambda n, first=first: list(range(first, n, 2)))
        assert inject(every_other, factory) == outcomes[first + 1::2]

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


@pytest.mark.parametrize("crash_pass", CASES, indirect=True)
def test_a_pass_recovers_every_point_and_judges_each_image_once(crash_pass):
    """An exhaustive pass draws the lines once, builds one controller to
    run and one per point, recovers the image of every point, and judges
    and sorts each distinct image once: the pre-image and the image after
    each boundary that changes it.  The matrix judges every point and
    finds the same outcomes, so reusing a verdict loses nothing."""
    n = len(crash_pass.run) - 1
    changes = sum(label in CHANGE_IMAGE for label, _, _ in crash_pass.run)
    assert len(crash_pass.outcomes) == 1 + n
    assert crash_pass.calls == {"init": 2 + n, "recover": 1 + n,
                                "verify": 1 + changes, "sort": 1 + changes,
                                "draw": 1}


@pytest.mark.parametrize("crash_pass", CASES, indirect=True)
def test_a_kept_image_recovers_as_a_copy_of_it_does(crash_pass):
    """A kept image caches its sorted addresses, so recovering it again
    must not differ from recovering a copy of it made before any recovery:
    each distinct image, recovered twice, gives the undone list, store,
    clock and NVM write count of its copy, and stays as it was."""
    cfg = crash_pass.cfg

    def recovered(image):
        ctrl, undone = txn.recover(image, cfg)
        return undone, ctrl.nvm.store, ctrl.clock, ctrl.nvm.writes

    checked = None
    for point, (label, _, image) in enumerate(crash_pass.run, -1):
        if image is checked:
            continue
        checked, copy = image, crash_pass.copies[id(image)]
        expected = recovered(copy)
        assert recovered(image) == recovered(image) == expected, (point, label)
        assert image == copy, (point, label)


@pytest.mark.parametrize("crash_pass", CASES, indirect=True)
def test_a_snapshot_keeps_the_register_it_was_taken_with(crash_pass):
    """Snapshots kept from one run through the boundary hook still hold the
    register as it was when each was taken: the k-th reencrypt_line image
    has done bits 0..k-1, and images outside a re-encryption, the
    pre-image among them, hold none."""
    run = crash_pass.run
    assert run[0][2].rsr is None
    moved = armed = 0
    for label, _, image in run[1:]:
        moved += label == "reencrypt_line"
        armed = label == "rsr_arm" or armed and label != "rsr_done"
        rsr = image.rsr and (image.rsr.page_number, image.rsr.done_bits)
        assert rsr == ((0, (1 << moved) - 1) if armed else None), label


@pytest.mark.parametrize("crash_pass", TXN_CASES, indirect=True)
def test_reading_the_old_values_is_no_crash_point(crash_pass):
    """A transaction reads the lines it logs before its first flush, and a
    read is no crash point.  From a new set-up, reading those lines
    announces no boundary, gives the pre-image and leaves the durable
    image the pass starts from; the run that then reads them again gives
    the pass's boundaries and images."""
    scenario = crash_pass.factory()
    ctrl, taken = scenario.fresh(), []
    ctrl.boundary_hook = lambda label: taken.append(
        (label, scenario.stage(), ctrl.snapshot()))
    old = tuple(ctrl.handle_read(addr) for addr, _ in scenario.txn.write_set)
    assert taken == [] and old == scenario.pre
    assert ctrl.snapshot() == crash_pass.run[0][2]
    scenario.run(ctrl)
    assert taken == crash_pass.run[1:]


@pytest.mark.parametrize("scope, cfg", [
    pytest.param(scope, dataclasses.replace(cfg, use_register=False),
                 id=case.id.replace("-reg", "-noreg"))
    for case in scope_cases() for scope, cfg in [case.values]
    if not Mode(cfg.mode).write_through])
def test_the_register_setting_changes_nothing_it_does_not_reach(scope, cfg):
    """The matrix runs a mode that is not written through with
    ``use_register`` on alone, since only a write-through flush reads it.
    With it off, such a case gives the boundaries, stages, images and
    outcomes it gives with it on."""
    def result(cfg):
        factory = lambda: SCOPES[scope](cfg)
        return ([(label, stage, image.store, image.rsr) for label, stage,
                 image in crash.boundary_images(factory())],
                inject(CrashPlan("exhaustive"), factory))

    assert result(cfg) == result(dataclasses.replace(cfg, use_register=True))


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


@pytest.mark.parametrize("crash_pass", [
    case for case in TXN_CASES if "-slots" not in case.id], indirect=True)
def test_flushes_issued_at_the_fence_in_program_order_change_no_outcome(
        crash_pass, monkeypatch):
    """Holding an epoch's flushes until its fence moves no boundary, label,
    stage or verdict of the txn scope."""
    monkeypatch.setattr(crash, "Controller", _reordering(list))
    assert inject(CrashPlan("exhaustive"),
                  crash_pass.factory) == crash_pass.outcomes


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
        cfg = cfg_for(mode)  # queue_len 32, register on
        outcomes = inject(CrashPlan("exhaustive"), lambda: SCOPES["txn"](cfg))
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


@pytest.mark.parametrize("scope", SCOPES)
def test_outcomes_do_not_depend_on_the_key(scope):
    """Config.seed only picks the encryption key, and no verdict reads a
    ciphertext byte, so two keys give the same outcome list.  That is why a
    change to the pad construction moves no crash verdict."""
    def outcomes(seed):
        cfg = cfg_for("secpm", seed=seed)  # the txn scope checks 4 lines
        return inject(CrashPlan("exhaustive"), lambda: SCOPES[scope](cfg))

    assert Controller(cfg_for(seed=0)).otp.generate(0, 0) != (
        Controller(cfg_for(seed=1)).otp.generate(0, 0))
    assert outcomes(0) == outcomes(1)


def _nested_recovery_points(monkeypatch, scenario):
    """Crash the scenario at every point, then its recovery at every
    boundary that announces, the steps of a resumed re-encryption too, and
    recover again: each nested verdict must equal its outer one.  Returns
    the number of nested points."""
    nested, hooking = [], False

    class Hooked(Controller):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if hooking:
                self.boundary_hook = lambda label: nested.append(
                    (label, self.snapshot()))

    monkeypatch.setattr(txn, "Controller", Hooked)
    count = 0
    for point, (_, _, image) in enumerate(crash.boundary_images(scenario), -1):
        nested.clear()
        hooking = True
        recovered, _ = txn.recover(image, scenario.cfg)
        hooking = False
        recovered.boundary_hook = None
        outer = scenario.verify(recovered)
        checked = None
        for inner_point, (label, inner_image) in enumerate(nested):
            if inner_image != checked:  # an equal image recovers alike
                again, _ = txn.recover(inner_image, scenario.cfg)
                assert scenario.verify(again) == outer, (point, inner_point,
                                                         label)
                checked = inner_image
        count += len(nested)
    return count


@pytest.mark.parametrize("mode, queue_len, use_register",
                         crash_configs(("secpm", "secpm-no-cwr", "unsec-pm")))
def test_a_crash_during_txn_recovery_recovers_to_the_same_verdict(
        monkeypatch, mode, queue_len, use_register):
    """A second power failure anywhere in the undo pass leaves an image
    whose recovery gives the verdict the first recovery gave."""
    cfg = cfg_for(mode, queue_len=queue_len, use_register=use_register)
    assert _nested_recovery_points(monkeypatch, SCOPES["txn"](cfg)) > 0


@pytest.mark.parametrize("mode, queue_len, use_register", crash_configs())
def test_atomic_write_recovery_announces_no_boundary(monkeypatch, mode,
                                                     queue_len, use_register):
    """The scope writes no log and overflows no counter, so its recovery
    writes nothing and has no point to crash at."""
    cfg = cfg_for(mode, queue_len=queue_len, use_register=use_register)
    assert _nested_recovery_points(monkeypatch,
                                   SCOPES["atomic-write"](cfg)) == 0


def test_a_crash_during_resumed_reencryption_recovers_to_the_same_verdict(
        monkeypatch):
    """Recovery resumes an interrupted page re-encryption; a second power
    failure at any of its steps recovers to a page that still reads
    consistently.  Only ``queue_len`` 32 runs here: 2 gives three times
    the nested points (18,527) and takes 3.3 s on a 2-core VM, against
    1.1 s for 32."""
    cfg = cfg_for("secpm", txn_size=64, queue_len=32)
    assert _nested_recovery_points(monkeypatch, SCOPES["reencrypt"](cfg)) > 0


@dataclasses.dataclass
class HotPageTxnScenario(TxnScenario):
    """A transaction whose first data flush re-encrypts page 0, which holds
    its lines: once the pre-image is durable, line 0 is flushed again with
    its pre-image value until its minor counter is at its limit."""

    def fresh(self):
        ctrl = super().fresh()
        for _ in range(MINOR_MAX - 1):  # the pre-image left line 0 at minor 1
            ctrl.handle_flush(0, self.pre[0])
        ctrl.flush_counter_cache()
        ctrl.drain_all()
        return ctrl


@pytest.mark.parametrize("mode, queue_len, use_register", crash_configs())
def test_a_crash_in_a_reencryption_a_transaction_triggers_tears_no_more(
        mode, queue_len, use_register):
    """A crash anywhere in the page re-encryption that a transaction's
    mutate epoch runs recovers as a crash anywhere else in the transaction
    does: recovery finishes the page before it undoes the log, so only the
    configurations and stages of ``torn_stages`` tear."""
    cfg = cfg_for(mode, queue_len=queue_len, use_register=use_register)
    outcomes = inject(CrashPlan("exhaustive"), lambda: HotPageTxnScenario(cfg))
    moved = [o.stage for o in outcomes if o.label == "reencrypt_line"]
    assert moved == ["mutate"] * LINES_PER_PAGE * Mode(mode).encrypted
    assert {o.stage for o in outcomes
            if not o.verdict.ok} == torn_stages("txn", cfg)
