"""Time and concurrency behind one interface, with two implementations.

Agents are written as ordinary blocking loops against a `Runtime`: they
sleep, wait on queues and events, and spawn activities, and every blocking
primitive they use comes from their Runtime. Under `RealRuntime` those map
to threads and the wall clock; a blocked wait sleeps on its condition until
it is notified, times out or its task is cancelled. `SimScheduler` is the
simulated Runtime: every activity is a thread on a virtual clock, and the
threads pass a baton: exactly one of them runs at any instant. An activity
that parks or returns pops the next due wakeup, ordered by (wake time,
creation sequence), and hands the baton straight to that task, or goes on
itself when the wakeup is its own. The driver (`run_until`, `run_while` or
`step`) only starts a slice and takes the baton back when the slice ends. A
whole multi-agent scenario is therefore deterministic, byte for byte, given
the same inputs.

The simulated clock only advances when the baton passes to a later wakeup.
Hour-long experiments complete in milliseconds unless a pacing factor (real
seconds per virtual second) is requested.
"""

from __future__ import annotations

import _thread
import heapq
import itertools
import logging
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Optional

logger = logging.getLogger(__name__)

# Virtual runs start at a fixed instant so timestamps are reproducible.
SIM_EPOCH_MS = 1_704_067_200_000  # 2024-01-01T00:00:00.000Z


class TaskCancelled(BaseException):
    """Raised inside an activity at its next blocking point after cancel()."""


class WaitTimeout(Exception):
    """A bounded queue.get or event.wait expired."""


class Task(ABC):
    name: str

    @abstractmethod
    def cancel(self) -> None: ...

    @property
    @abstractmethod
    def alive(self) -> bool: ...


class BlockingQueue(ABC):
    @abstractmethod
    def put(self, item) -> None: ...

    @abstractmethod
    def get(self, timeout_ms: Optional[int] = None): ...

    @abstractmethod
    def __len__(self) -> int: ...


class Signal(ABC):
    """A level-triggered event activities can wait on."""

    @abstractmethod
    def set(self) -> None: ...

    @abstractmethod
    def clear(self) -> None: ...

    @abstractmethod
    def wait(self, timeout_ms: Optional[int] = None) -> bool: ...


class Mutex(ABC):
    """Mutual exclusion that is safe to hold across blocking points.

    Never hold a plain threading.Lock across a Runtime blocking call in
    simulated mode; use one of these instead.
    """

    @abstractmethod
    def acquire(self) -> None: ...

    @abstractmethod
    def release(self) -> None: ...

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class Runtime(ABC):
    @abstractmethod
    def now_ms(self) -> int: ...

    @abstractmethod
    def sleep(self, ms: int) -> None: ...

    @abstractmethod
    def spawn(self, name: str, fn: Callable[[], None]) -> Task: ...

    @abstractmethod
    def new_queue(self) -> BlockingQueue: ...

    @abstractmethod
    def new_signal(self) -> Signal: ...

    @abstractmethod
    def new_mutex(self) -> Mutex: ...


# ---------------------------------------------------------------------------
# Simulated runtime
# ---------------------------------------------------------------------------


class _SimTask(Task):
    def __init__(self, scheduler: "SimScheduler", name: str, fn: Callable[[], None]) -> None:
        self.name = name
        self._scheduler = scheduler
        self._fn = fn
        # Held while the task is parked; whoever passes the baton releases it.
        self.baton = _thread.allocate_lock()
        self.baton.acquire()
        self.active_token: Optional[int] = None
        self.pending_exc: Optional[BaseException] = None
        self.finished = False
        self.error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name=f"sim:{name}", daemon=True)
        self._thread.start()

    @property
    def alive(self) -> bool:
        return not self.finished

    def cancel(self) -> None:
        self._scheduler.cancel(self)

    def _run(self) -> None:
        sched = self._scheduler
        self.baton.acquire()
        try:
            if self.pending_exc is not None:
                exc, self.pending_exc = self.pending_exc, None
                raise exc
            self._fn()
        except TaskCancelled:
            pass
        except BaseException as exc:  # surfaced by the driver's step()
            self.error = exc
        finally:
            self.finished = True
            sched._on_task_return(self)


_NO_LIMIT = float("inf")


class SimScheduler(Runtime):
    """The simulated runtime: cooperative activities on a virtual clock.

    Exactly one thread holds the baton: the driver, or the activity that is
    running. The driver starts a slice in step(); from then on each activity
    that parks or returns pops the next due wakeup itself and passes the
    baton straight to that task. The slice ends, and the baton returns to the
    driver, when nothing is due by the slice's limit, its predicate is false,
    or an activity crashed.
    """

    def __init__(self, start_ms: int = SIM_EPOCH_MS) -> None:
        self._now = start_ms
        # (wake time, token, task). Every park, wake and spawn takes the next
        # token, so same-instant wakeups run in creation order, and a task
        # whose active_token moved on ignores its older entries.
        self._heap: list[tuple[int, int, _SimTask]] = []
        self._tokens = itertools.count(1)
        self._driver = _thread.allocate_lock()
        self._driver.acquire()
        self._limit: float = _NO_LIMIT
        self._predicate: Optional[Callable[[], bool]] = None
        self._crashed: Optional[_SimTask] = None
        self._current: Optional[_SimTask] = None
        self._tasks: list[_SimTask] = []
        self.pacing_factor: float = 0.0  # real seconds per virtual second

    # -- the Runtime interface ------------------------------------------------

    def now_ms(self) -> int:
        return self._now

    def sleep(self, ms: int) -> None:
        self.park(self._now + max(int(ms), 0))

    def spawn(self, name: str, fn: Callable[[], None]) -> _SimTask:
        task = _SimTask(self, name, fn)
        self._tasks.append(task)
        self._push(self._now, task)
        return task

    def new_queue(self) -> BlockingQueue:
        return SimQueue(self)

    def new_signal(self) -> Signal:
        return SimSignal(self)

    def new_mutex(self) -> Mutex:
        return SimMutex(self)

    # -- task-side primitives (called from inside activity threads) ---------

    def park(self, wake_at_ms: Optional[int]) -> None:
        task = self._current
        assert task is not None, "park() outside an activity"
        if wake_at_ms is None:
            task.active_token = next(self._tokens)
        else:
            self._push(max(wake_at_ms, self._now), task)
        following = self._next()
        if following is not task:
            self._pass(following)
            task.baton.acquire()
        if task.pending_exc is not None:
            exc, task.pending_exc = task.pending_exc, None
            raise exc

    def park_on(self, waiters: list[_SimTask], ready: Callable[[], bool],
                timeout_ms: Optional[int] = None) -> bool:
        """Park the running activity on `waiters` until ready() holds; False
        once timeout_ms passes first. Whoever makes ready() true wakes the
        list, which keeps its identity: an activity woken after another took
        what it waited for parks on it again."""
        deadline = None if timeout_ms is None else self._now + timeout_ms
        while not ready():
            if deadline is not None and self._now >= deadline:
                return False
            task = self._current
            assert task is not None, "blocking call outside an activity"
            waiters.append(task)
            try:
                self.park(deadline)
            finally:
                if task in waiters:
                    waiters.remove(task)
        return True

    def wake(self, task: _SimTask) -> None:
        """Make a parked task runnable now, superseding any pending timer."""
        if not task.finished:
            self._push(self._now, task)

    def wake_all(self, waiters: list[_SimTask]) -> None:
        for task in waiters:
            self.wake(task)
        waiters.clear()

    def cancel(self, task: _SimTask) -> None:
        if task.finished:
            return
        task.pending_exc = TaskCancelled()
        if task is self._current:
            return  # caller decides when to unwind itself
        self.wake(task)

    # -- passing the baton ----------------------------------------------------

    def _push(self, wake_ms: int, task: _SimTask) -> None:
        token = next(self._tokens)
        task.active_token = token
        heapq.heappush(self._heap, (wake_ms, token, task))

    def _next(self) -> Optional[_SimTask]:
        """Pop the slice's next due wakeup, advance the clock to it and make
        its task current. None when the slice is over."""
        heap = self._heap
        while heap:
            wake, token, task = heap[0]
            if task.finished or token != task.active_token:
                heapq.heappop(heap)
                continue
            if wake > self._limit or (self._predicate is not None and not self._predicate()):
                break
            heapq.heappop(heap)
            if wake > self._now:
                self._advance(wake)
            task.active_token = None
            self._current = task
            return task
        self._current = None
        return None

    def _pass(self, task: Optional[_SimTask]) -> None:
        """Hand the baton to task, or back to the driver when task is None."""
        (self._driver if task is None else task.baton).release()

    def _on_task_return(self, task: _SimTask) -> None:
        if task.error is not None:
            self._crashed = task
            self._current = None
            self._pass(None)
        else:
            self._pass(self._next())

    def _advance(self, t_ms: int) -> None:
        if self.pacing_factor > 0:
            time.sleep((t_ms - self._now) / 1000.0 * self.pacing_factor)
        self._now = t_ms

    # -- driving (called from the driving thread) ------------------------------

    def step(self, limit_ms: Optional[int] = None,
             predicate: Optional[Callable[[], bool]] = None) -> bool:
        """Run one slice of hand-offs: every wakeup due at or before limit_ms,
        for as long as predicate (checked before each wakeup) holds. False if
        no wakeup ran. Raises RuntimeError if an activity crashed; no other
        activity runs after it in the slice."""
        self._limit = _NO_LIMIT if limit_ms is None else limit_ms
        self._predicate = predicate
        first = self._next()
        if first is None:
            return False
        self._pass(first)
        self._driver.acquire()
        crashed, self._crashed = self._crashed, None
        if crashed is not None:
            error, crashed.error = crashed.error, None
            raise RuntimeError(f"activity {crashed.name!r} crashed") from error
        return True

    def run_until(self, t_ms: int) -> None:
        """Process every wakeup up to and including t_ms, then land on t_ms."""
        self.step(limit_ms=t_ms)
        if t_ms > self._now:
            self._advance(t_ms)

    def run_while(self, predicate: Callable[[], bool], limit_ms: int) -> None:
        self.step(limit_ms=limit_ms, predicate=predicate)

    def shutdown(self) -> None:
        """Cancel every live task and let them unwind."""
        for task in self._tasks:
            if task.alive:
                self.cancel(task)
        self.step(limit_ms=self._now)


class SimQueue(BlockingQueue):
    def __init__(self, scheduler: SimScheduler) -> None:
        self._scheduler = scheduler
        self._items: deque = deque()
        self._waiters: list[_SimTask] = []

    def put(self, item) -> None:
        self._items.append(item)
        self._scheduler.wake_all(self._waiters)

    def get(self, timeout_ms: Optional[int] = None):
        if not self._scheduler.park_on(self._waiters, self._items.__len__, timeout_ms):
            raise WaitTimeout("queue.get timed out")
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)


class SimSignal(Signal):
    def __init__(self, scheduler: SimScheduler) -> None:
        self._scheduler = scheduler
        self._flag = False
        self._waiters: list[_SimTask] = []

    def set(self) -> None:
        self._flag = True
        self._scheduler.wake_all(self._waiters)

    def clear(self) -> None:
        self._flag = False

    def wait(self, timeout_ms: Optional[int] = None) -> bool:
        return self._scheduler.park_on(self._waiters, lambda: self._flag, timeout_ms)


class SimMutex(Mutex):
    def __init__(self, scheduler: SimScheduler) -> None:
        self._scheduler = scheduler
        self._holder: Optional[_SimTask] = None
        self._waiters: list[_SimTask] = []

    def acquire(self) -> None:
        task = self._scheduler._current
        assert task is not None, "mutex acquire outside an activity"
        self._scheduler.park_on(self._waiters, lambda: self._holder is None)
        self._holder = task

    def release(self) -> None:
        self._holder = None
        if self._waiters:
            self._scheduler.wake(self._waiters[0])


# ---------------------------------------------------------------------------
# Real runtime (threads + wall clock)
# ---------------------------------------------------------------------------

class _RealTask(Task):
    def __init__(self, name: str, fn: Callable[[], None]) -> None:
        self.name = name
        self.cancelled = threading.Event()
        # The condition the task is blocked on, so that cancel() can wake it.
        self.waiting_on: Optional[threading.Condition] = None
        self._fn = fn
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)

    def start(self) -> None:
        self._thread.start()

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def cancel(self) -> None:
        self.cancelled.set()
        cond = self.waiting_on
        if cond is not None:
            with cond:
                cond.notify_all()

    def join(self, timeout_s: Optional[float] = None) -> None:
        self._thread.join(timeout_s)

    def _run(self) -> None:
        _current_real_task.task = self
        try:
            self._fn()
        except TaskCancelled:
            pass
        except Exception:
            logger.exception("activity %s crashed", self.name)


_current_real_task = threading.local()


def _running_task() -> Optional[_RealTask]:
    return getattr(_current_real_task, "task", None)


def _wait_until(cond: threading.Condition, ready: Callable[[], bool],
                timeout_ms: Optional[int]) -> bool:
    """Wait on cond, whose lock the caller holds, until ready() is true.

    False once timeout_ms passes; raises TaskCancelled as soon as the calling
    task is cancelled. The task registers cond before it checks for
    cancellation, so a cancel() that misses the registration is seen by the
    check instead.
    """
    deadline = None if timeout_ms is None else time.monotonic() + timeout_ms / 1000.0
    task = _running_task()
    if task is not None:
        task.waiting_on = cond
    try:
        while True:
            if task is not None and task.cancelled.is_set():
                raise TaskCancelled()
            if ready():
                return True
            if deadline is None:
                cond.wait()
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            cond.wait(remaining)
    finally:
        if task is not None:
            task.waiting_on = None


class RealQueue(BlockingQueue):
    def __init__(self) -> None:
        self._items: deque = deque()
        self._cond = threading.Condition()

    def put(self, item) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify_all()

    def get(self, timeout_ms: Optional[int] = None):
        with self._cond:
            if not _wait_until(self._cond, self._items.__len__, timeout_ms):
                raise WaitTimeout("queue.get timed out")
            return self._items.popleft()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)


class RealSignal(Signal):
    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._flag = False

    def set(self) -> None:
        with self._cond:
            self._flag = True
            self._cond.notify_all()

    def clear(self) -> None:
        with self._cond:
            self._flag = False

    def wait(self, timeout_ms: Optional[int] = None) -> bool:
        with self._cond:
            return _wait_until(self._cond, lambda: self._flag, timeout_ms)


class RealMutex(Mutex):
    def __init__(self) -> None:
        self._lock = threading.RLock()

    def acquire(self) -> None:
        self._lock.acquire()

    def release(self) -> None:
        self._lock.release()


class RealRuntime(Runtime):
    def now_ms(self) -> int:
        return int(time.time() * 1000)

    def sleep(self, ms: int) -> None:
        task = _running_task()
        if task is None:
            time.sleep(ms / 1000.0)
            return
        if task.cancelled.wait(ms / 1000.0):
            raise TaskCancelled()

    def spawn(self, name: str, fn: Callable[[], None]) -> Task:
        task = _RealTask(name, fn)
        task.start()
        return task

    def new_queue(self) -> BlockingQueue:
        return RealQueue()

    def new_signal(self) -> Signal:
        return RealSignal()

    def new_mutex(self) -> Mutex:
        return RealMutex()
