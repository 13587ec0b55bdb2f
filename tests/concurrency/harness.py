"""A deterministic, seeded, barrier-driven interleaving harness.

``threading`` gives no control over *when* each thread runs, so a
naive stress test only ever explores whatever interleaving the OS
scheduler happens to produce — green today, deadlocked in CI next
month.  :class:`InterleavingScheduler` takes the scheduler out of the
picture: worker threads pause at explicit :func:`checkpoint` calls and
a controller grants exactly one worker at a time permission to run to
its next checkpoint, picking the order from a seeded RNG.  The same
seed always replays the same interleaving, so a failure is a pinned
regression instead of a flake — and different seeds explore genuinely
different acquisition orders.

Permits and acknowledgements are semaphores, not events: a semaphore
counts, so a grant issued before the worker blocks is never lost.
Every wait carries a timeout — a worker that cannot reach its next
checkpoint (deadlock) fails the test with a diagnosis instead of
hanging the suite (CI additionally runs this under ``faulthandler``
with a hard external timeout).

:class:`NestingProbe` checks the serving plane's flat lock rule at run
time: no thread takes one watched lock while it holds another.
"""

from __future__ import annotations

import random
import threading
from typing import Callable

#: generous per-step bound: any single step is sub-millisecond work,
#: so a step that takes this long is a deadlock, not a slow machine.
DEFAULT_STEP_TIMEOUT = 60.0


class DeadlockDetected(AssertionError):
    """A worker failed to reach its next checkpoint in time."""


class InterleavingScheduler:
    """Serializes worker steps in a seeded pseudo-random order.

    Usage::

        sched = InterleavingScheduler(seed=11)
        sched.spawn("writer", lambda step: (op1(), step(), op2()))
        sched.spawn("reader", lambda step: (op3(), step(), op4()))
        sched.run()   # raises on worker error or deadlock

    Each worker receives a ``step`` callable and must call it between
    operations; the code between two ``step()`` calls runs while every
    other worker is parked at a checkpoint.
    """

    def __init__(self, seed: int,
                 step_timeout: float = DEFAULT_STEP_TIMEOUT):
        self.rng = random.Random(seed)
        self.step_timeout = step_timeout
        self._permits: dict[str, threading.Semaphore] = {}
        self._threads: dict[str, threading.Thread] = {}
        self._ack = threading.Semaphore(0)
        self._finished: set[str] = set()
        self._errors: dict[str, BaseException] = {}
        self.steps_granted = 0

    def spawn(self, name: str,
              worker: Callable[[Callable[[], None]], None]) -> None:
        """Register and start a worker (parked until :meth:`run`)."""
        if name in self._permits:
            raise ValueError(f"duplicate worker name {name!r}")
        permit = threading.Semaphore(0)
        self._permits[name] = permit

        def step() -> None:
            self._ack.release()
            if not permit.acquire(timeout=self.step_timeout):
                raise DeadlockDetected(
                    f"worker {name!r} starved waiting for a permit")

        def run() -> None:
            try:
                if not permit.acquire(timeout=self.step_timeout):
                    raise DeadlockDetected(
                        f"worker {name!r} never granted a first step")
                worker(step)
            except BaseException as exc:  # noqa: BLE001 - reraised in run()
                self._errors[name] = exc
            finally:
                self._finished.add(name)
                self._ack.release()

        thread = threading.Thread(target=run, name=name, daemon=True)
        self._threads[name] = thread
        thread.start()

    def run(self) -> int:
        """Drive all workers to completion; returns steps granted.

        Re-raises the first worker exception; raises
        :class:`DeadlockDetected` when a granted worker never reaches
        its next checkpoint (or completion) within the step timeout.
        """
        live = sorted(self._permits)
        while live:
            name = self.rng.choice(live)
            self._permits[name].release()
            self.steps_granted += 1
            if not self._ack.acquire(timeout=self.step_timeout):
                raise DeadlockDetected(
                    f"worker {name!r} was granted a step but never "
                    "reached its next checkpoint: likely deadlock "
                    f"after {self.steps_granted} steps")
            live = sorted(n for n in self._permits
                          if n not in self._finished)
        for name, thread in self._threads.items():
            thread.join(timeout=self.step_timeout)
            if thread.is_alive():
                raise DeadlockDetected(
                    f"worker {name!r} finished stepping but its "
                    "thread did not exit")
        for name in sorted(self._errors):
            raise self._errors[name]
        return self.steps_granted


class NestingProbe:
    """Records every acquisition of a watched lock by a thread that
    already holds another watched lock.

    Usage::

        with NestingProbe() as probe:
            probe.watch(session.plan_cache, "_lock", "PlanCache._lock")
            ...  # run the workload
        assert probe.nestings == []

    :meth:`watch` swaps ``obj.attr`` for a forwarding proxy (so watch
    while the lock is free); leaving the ``with`` block puts the
    originals back.  Re-entering a held ``RLock`` is no nesting.
    """

    def __init__(self) -> None:
        #: (held, acquired, thread name), in the order seen.
        self.nestings: list[tuple[str, str, str]] = []
        self._held = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def watch(self, obj, attr: str, name: str) -> None:
        original = getattr(obj, attr)
        setattr(obj, attr, _ProbedLock(original, name, self))
        self._originals.append((obj, attr, original))

    def __enter__(self) -> "NestingProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            obj, attr, original = self._originals.pop()
            setattr(obj, attr, original)

    def _entered(self, name: str) -> None:
        held = self._held.__dict__.setdefault("names", [])
        for other in set(held) - {name}:
            self.nestings.append(
                (other, name, threading.current_thread().name))
        held.append(name)

    def _left(self, name: str) -> None:
        self._held.names.remove(name)


class _ProbedLock:
    """Forwards the lock protocol (and a ``Condition``'s ``wait`` /
    ``notify``) to the real primitive, telling the probe what the
    calling thread holds."""

    def __init__(self, inner, name: str, probe: NestingProbe):
        self._inner = inner
        self._name = name
        self._probe = probe

    def acquire(self, *args, **kwargs) -> bool:
        acquired = self._inner.acquire(*args, **kwargs)
        if acquired:
            self._probe._entered(self._name)
        return acquired

    def release(self) -> None:
        self._probe._left(self._name)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)
