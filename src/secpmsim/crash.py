"""Crash injection: run a deterministic scenario once, keep the durable
state at every durability boundary, then recover and classify the state a
crash at each chosen boundary leaves.

Boundaries are announced by the controller after every queue append, drain,
register store and fence, and at each step of a page re-encryption (rsr_arm,
reencrypt_line, rsr_done); enumerating them is exhaustive.  Crash point -1
(label ``pre``) denotes a failure before the scenario's first event.
``SCOPES`` names the scenarios ``crashcheck`` runs; each judges its lines
by one rule, ``_classify``, against its pre- and post-image.  ``reencrypt``
and ``atomic-write`` are one scenario, a crash inside one flush of line 0;
``atomic-write`` has one earlier write and judges line 0 only.

A pass (``inject`` or ``count_boundaries``) sets its scenario up once
(``fresh``: the pre-image transaction, or the earlier flushes of line 0)
and runs the checked transaction or flush once on that controller,
snapshotting the durable image at each boundary (``boundary_images``).  A
boundary that leaves the image as it was (a register store, a drain, a
fence) keeps the earlier snapshot object, so a pass holds each distinct
image once and ``inject`` judges it once; every point still recovers its
own image.  A kept image is never mutated (recovery copies its store), so
it sorts its addresses for recovery once, however many points recover it,
and ``inject`` lets it go after its last point.

A scenario stores only its arguments when built; ``fresh`` draws its
line images from its seed and builds the transaction or flush it checks.
So the pass draws once, the scenario ``inject`` builds at each point
draws nothing, and ``controller.derive_key`` hashes each seed once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Protocol, Sequence

from secpmsim.config import LINE, LINES_PER_PAGE, Config
from secpmsim.controller import Controller
from secpmsim.nvm import CrashSnapshot
from secpmsim.txn import TxnDescriptor, execute, recover, run_transaction


class PointOutOfRange(ValueError):
    def __init__(self, at: int, n_boundaries: int):
        super().__init__(f"crash point {at} is outside -1..{n_boundaries - 1}")
        self.n_boundaries = n_boundaries


class Verdict(Enum):
    ROLLED_BACK = "rolled-back"
    COMMITTED = "committed"
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"

    @property
    def ok(self) -> bool:
        return self is not Verdict.INCONSISTENT


@dataclass(frozen=True)
class CrashPlan:
    strategy: str = "exhaustive"  # exhaustive | random | at
    at: int = 0
    count: int = 0
    seed: int = 0

    def points(self, n_boundaries: int) -> list[int]:
        if self.strategy == "exhaustive":
            return list(range(-1, n_boundaries))
        if self.strategy == "at":
            if not -1 <= self.at < n_boundaries:
                raise PointOutOfRange(self.at, n_boundaries)
            return [self.at]
        if self.strategy == "random":
            rng = random.Random(self.seed)
            pool = range(-1, n_boundaries)
            k = min(self.count, len(pool))
            return sorted(rng.sample(pool, k))
        raise ValueError(f"unknown crash strategy {self.strategy!r}")


@dataclass
class Outcome:
    crash_point: int
    label: str
    stage: str
    verdict: Verdict
    failing_address: int | None = None


class Scenario(Protocol):
    """``fresh`` sets the scenario up on a new controller and returns it,
    ready to ``run`` once."""

    cfg: Config

    def fresh(self) -> Controller: ...
    def run(self, ctrl: Controller) -> None: ...
    def stage(self) -> str: ...
    def verify(self, recovered: Controller) -> tuple[Verdict, int | None]: ...


def boundary_images(scenario: Scenario
                    ) -> list[tuple[str, str, CrashSnapshot]]:
    """Set the scenario up and run it once, keeping (label, stage, durable
    image) at each boundary from ("pre", ...) on: entry k + 1 is the image
    a crash at point k leaves.  An image equal to the one before it is kept
    as that same object, so the list holds each distinct image once."""
    ctrl = scenario.fresh()
    taken = [("pre", scenario.stage(), ctrl.snapshot())]

    def hook(label: str) -> None:
        image = ctrl.snapshot()
        if image == taken[-1][2]:
            image = taken[-1][2]
        taken.append((label, scenario.stage(), image))

    ctrl.boundary_hook = hook
    scenario.run(ctrl)
    return taken


def count_boundaries(factory: Callable[[], Scenario]) -> int:
    return len(boundary_images(factory())) - 1


def inject(plan: CrashPlan, factory: Callable[[], Scenario]) -> list[Outcome]:
    """Crash a scenario from ``factory`` at each point of ``plan``: run it
    once (``boundary_images``), then recover each point's image and judge
    it.  Recovery and verdict depend on the image alone, so an image that
    is the one judged last keeps its verdict.  ``factory`` is called once
    for the run, then once per point before that point's recovery, so a
    caller can time each point between calls; a point's scenario is only
    built, never set up, so it draws nothing."""
    scenario = factory()
    taken = boundary_images(scenario)
    outcomes, judged, verdict = [], None, None
    for point in plan.points(len(taken) - 1):
        label, stage, image = taken[point + 1]
        # A plan names each point once, in order: the pass lets an image,
        # and the addresses it sorted, go after its last point.
        taken[point + 1] = None
        factory()
        recovered, _ = recover(image, scenario.cfg)
        if image is not judged:
            judged, verdict = image, scenario.verify(recovered)
        outcomes.append(Outcome(point, label, stage, *verdict))
    return outcomes


# ----------------------------------------------------------------------
# concrete scenarios

def _random_lines(seed: int, count: int) -> tuple[bytes, ...]:
    """The first ``count`` lines ``random.Random(seed)`` draws."""
    rng = random.Random(seed)
    return tuple(rng.randbytes(LINE) for _ in range(count))


def _classify(recovered: Controller, addrs: Sequence[int], pre: tuple[bytes, ...],
              post: tuple[bytes, ...]) -> tuple[Verdict, int | None]:
    """ROLLED_BACK if every line reads its pre-image, COMMITTED if every
    line reads its post-image; otherwise INCONSISTENT, with the first
    address that reads neither image (None for a mix of the two)."""
    values = tuple(map(recovered.handle_read, addrs))
    if values == pre:
        return Verdict.ROLLED_BACK, None
    if values == post:
        return Verdict.COMMITTED, None
    failing = next((a for a, value, old, new in zip(addrs, values, pre, post)
                    if value != old and value != new), None)
    return Verdict.INCONSISTENT, failing


@dataclass
class TxnScenario:
    """One durable transaction over pre-initialized lines."""

    cfg: Config
    n_lines: int = 4
    seed: int = 7

    def fresh(self) -> Controller:
        """Draw the pre- and post-image and write the pre-image durably."""
        n = self.n_lines
        images = _random_lines(self.seed, 2 * n)
        self.pre, self.post = images[:n], images[n:]
        self._addrs = range(0, n * LINE, LINE)
        self.txn = TxnDescriptor(1, list(zip(self._addrs, self.post)), seq=1)
        ctrl = Controller(self.cfg)
        execute(ctrl, TxnDescriptor(0, list(zip(self._addrs, self.pre))))
        ctrl.flush_counter_cache()  # leave write-back baselines consistent
        ctrl.drain_all()
        return ctrl

    def run(self, ctrl: Controller) -> None:
        for _ in run_transaction(ctrl, self.txn):
            pass

    def stage(self) -> str:
        return self.txn.stage

    def verify(self, recovered: Controller) -> tuple[Verdict, int | None]:
        return _classify(recovered, self._addrs, self.pre, self.post)


_PAGE0 = [i * LINE for i in range(LINES_PER_PAGE)]


@dataclass
class ReencryptScenario:
    """A crash inside one flush of line 0 of page 0, after ``writes`` durable
    earlier ones; after 127 the flush overflows the minor counter and
    re-encrypts the page.  The page's first ``lines`` lines must read as
    before that flush (line 0 = ``values[-2]``) or after it (``values[-1]``);
    the others keep what they held."""

    cfg: Config
    seed: int = 13
    writes: int = 127
    lines: int = LINES_PER_PAGE

    def fresh(self) -> Controller:
        """Draw the page's line-0 values, make the earlier writes durable
        and read the page's other lines back as they are before the
        checked flush."""
        self.values = _random_lines(self.seed, self.writes + 1)
        ctrl = Controller(self.cfg)
        for value in self.values[:-1]:
            ctrl.handle_flush(0, value)
        ctrl.flush_counter_cache()
        ctrl.drain_all()
        rest = tuple(map(ctrl.handle_read, _PAGE0[1:self.lines]))
        self.pre = (self.values[-2], *rest)
        self.post = (self.values[-1], *rest)
        return ctrl

    def run(self, ctrl: Controller) -> None:
        ctrl.handle_flush(0, self.values[-1])  # the checked flush

    def stage(self) -> str:
        return "reencrypt"

    def verify(self, recovered: Controller) -> tuple[Verdict, int | None]:
        verdict, failing = _classify(recovered, _PAGE0[:self.lines],
                                     self.pre, self.post)
        return (verdict if verdict is Verdict.INCONSISTENT
                else Verdict.CONSISTENT), failing


@dataclass
class AtomicWriteScenario(ReencryptScenario):
    """A logless atomic write of line 0 over one durable earlier write;
    line 0 alone is judged, and must read its old or its new value."""

    seed: int = 11
    writes: int = 1
    lines: int = 1

    def stage(self) -> str:
        return "atomic-write"

    def verify(self, recovered: Controller) -> tuple[Verdict, int | None]:
        return _classify(recovered, _PAGE0[:self.lines], self.pre, self.post)


# Scope name (``crashcheck --scope``) -> scenario for a configuration.
SCOPES: dict[str, Callable[[Config], Scenario]] = {
    "txn": lambda cfg: TxnScenario(cfg, n_lines=min(cfg.txn_size // LINE, 64)),
    "atomic-write": AtomicWriteScenario,
    "reencrypt": ReencryptScenario,
}
