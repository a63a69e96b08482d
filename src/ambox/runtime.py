"""Time and concurrency behind one interface, with two implementations.

Agents are written as ordinary blocking loops against a `Runtime`: they
sleep, wait on queues and events, and spawn activities. Under `RealRuntime`
those map to threads and the wall clock. Under `SimRuntime` every activity
is a cooperatively scheduled thread on a virtual clock: exactly one activity
runs at any instant, handoffs are ordered by (wake time, creation sequence),
and therefore a whole multi-agent scenario is deterministic, byte for byte,
given the same inputs.

The simulated clock only advances between activities, when the scheduler
picks the next wakeup. Hour-long experiments complete in milliseconds unless
a pacing factor (real seconds per virtual second) is requested.
"""

from __future__ import annotations

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
        self._resume = threading.Event()
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
        self._resume.wait()
        self._resume.clear()
        try:
            if self.pending_exc is not None:
                exc, self.pending_exc = self.pending_exc, None
                raise exc
            self._fn()
        except TaskCancelled:
            pass
        except BaseException as exc:  # surfaced by the scheduler loop
            self.error = exc
        finally:
            self.finished = True
            sched._on_task_return()


class SimScheduler:
    """Priority-queue scheduler driving cooperative activities on virtual time."""

    def __init__(self, start_ms: int = SIM_EPOCH_MS) -> None:
        self._now = start_ms
        self._heap: list[tuple[int, int, int, _SimTask]] = []
        self._seq = itertools.count()
        self._tokens = itertools.count(1)
        self._control = threading.Event()
        self._current: Optional[_SimTask] = None
        self._tasks: list[_SimTask] = []
        self.pacing_factor: float = 0.0  # real seconds per virtual second

    # -- queries ------------------------------------------------------------

    def now_ms(self) -> int:
        return self._now

    def current_task(self) -> Optional[_SimTask]:
        return self._current

    # -- task-side primitives (called from inside activity threads) ---------

    def park(self, wake_at_ms: Optional[int]) -> None:
        task = self._current
        assert task is not None, "park() outside an activity"
        token = next(self._tokens)
        task.active_token = token
        if wake_at_ms is not None:
            heapq.heappush(self._heap, (max(wake_at_ms, self._now), next(self._seq), token, task))
        self._current = None
        self._control.set()
        task._resume.wait()
        task._resume.clear()
        self._current = task
        if task.pending_exc is not None:
            exc, task.pending_exc = task.pending_exc, None
            raise exc

    def sleep(self, ms: int) -> None:
        self.park(self._now + max(int(ms), 0))

    def wake(self, task: _SimTask) -> None:
        """Make a parked task runnable now, superseding any pending timer."""
        if task.finished:
            return
        token = next(self._tokens)
        task.active_token = token
        heapq.heappush(self._heap, (self._now, next(self._seq), token, task))

    def cancel(self, task: _SimTask) -> None:
        if task.finished:
            return
        task.pending_exc = TaskCancelled()
        if task is self._current:
            return  # caller decides when to unwind itself
        self.wake(task)

    def spawn(self, name: str, fn: Callable[[], None]) -> _SimTask:
        task = _SimTask(self, name, fn)
        self._tasks.append(task)
        token = next(self._tokens)
        task.active_token = token
        heapq.heappush(self._heap, (self._now, next(self._seq), token, task))
        return task

    # -- scheduler loop (called from the driving thread) ---------------------

    def _on_task_return(self) -> None:
        self._current = None
        self._control.set()

    def _resume(self, task: _SimTask) -> None:
        self._control.clear()
        self._current = task
        task._resume.set()
        self._control.wait()
        if task.finished and task.error is not None:
            error, task.error = task.error, None
            raise RuntimeError(f"activity {task.name!r} crashed") from error

    def step(self, limit_ms: Optional[int] = None) -> bool:
        """Run the next wakeup at or before limit_ms. False if none exists."""
        while self._heap:
            wake, _, token, task = self._heap[0]
            if task.finished or token != task.active_token:
                heapq.heappop(self._heap)
                continue
            if limit_ms is not None and wake > limit_ms:
                return False
            heapq.heappop(self._heap)
            if wake > self._now:
                if self.pacing_factor > 0:
                    time.sleep((wake - self._now) / 1000.0 * self.pacing_factor)
                self._now = wake
            task.active_token = None
            self._resume(task)
            return True
        return False

    def run_until(self, t_ms: int) -> None:
        """Process every wakeup up to and including t_ms, then land on t_ms."""
        while self.step(limit_ms=t_ms):
            pass
        if t_ms > self._now:
            if self.pacing_factor > 0:
                time.sleep((t_ms - self._now) / 1000.0 * self.pacing_factor)
            self._now = t_ms

    def run_while(self, predicate: Callable[[], bool], limit_ms: int) -> None:
        while predicate() and self._now <= limit_ms:
            if not self.step(limit_ms=limit_ms):
                break

    def drain(self, limit_ms: Optional[int] = None) -> None:
        """Run until no runnable work remains (parked-forever tasks excluded)."""
        while self.step(limit_ms=limit_ms):
            pass

    def shutdown(self) -> None:
        """Cancel every live task and let them unwind."""
        for task in self._tasks:
            if task.alive:
                self.cancel(task)
        self.drain(limit_ms=self._now)


class SimQueue(BlockingQueue):
    def __init__(self, scheduler: SimScheduler) -> None:
        self._scheduler = scheduler
        self._items: deque = deque()
        self._waiters: list[_SimTask] = []

    def put(self, item) -> None:
        self._items.append(item)
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            self._scheduler.wake(task)

    def get(self, timeout_ms: Optional[int] = None):
        deadline = None if timeout_ms is None else self._scheduler.now_ms() + timeout_ms
        while True:
            if self._items:
                return self._items.popleft()
            if deadline is not None and self._scheduler.now_ms() >= deadline:
                raise WaitTimeout("queue.get timed out")
            task = self._scheduler.current_task()
            assert task is not None, "blocking get() outside an activity"
            self._waiters.append(task)
            try:
                self._scheduler.park(deadline)
            finally:
                if task in self._waiters:
                    self._waiters.remove(task)

    def __len__(self) -> int:
        return len(self._items)


class SimSignal(Signal):
    def __init__(self, scheduler: SimScheduler) -> None:
        self._scheduler = scheduler
        self._flag = False
        self._waiters: list[_SimTask] = []

    def set(self) -> None:
        self._flag = True
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            self._scheduler.wake(task)

    def clear(self) -> None:
        self._flag = False

    def wait(self, timeout_ms: Optional[int] = None) -> bool:
        deadline = None if timeout_ms is None else self._scheduler.now_ms() + timeout_ms
        while True:
            if self._flag:
                return True
            if deadline is not None and self._scheduler.now_ms() >= deadline:
                return False
            task = self._scheduler.current_task()
            assert task is not None, "blocking wait() outside an activity"
            self._waiters.append(task)
            try:
                self._scheduler.park(deadline)
            finally:
                if task in self._waiters:
                    self._waiters.remove(task)


class SimMutex(Mutex):
    def __init__(self, scheduler: SimScheduler) -> None:
        self._scheduler = scheduler
        self._holder: Optional[_SimTask] = None
        self._waiters: list[_SimTask] = []

    def acquire(self) -> None:
        task = self._scheduler.current_task()
        assert task is not None, "mutex acquire outside an activity"
        while self._holder is not None:
            self._waiters.append(task)
            try:
                self._scheduler.park(None)
            finally:
                if task in self._waiters:
                    self._waiters.remove(task)
        self._holder = task

    def release(self) -> None:
        self._holder = None
        if self._waiters:
            self._scheduler.wake(self._waiters[0])


class SimRuntime(Runtime):
    def __init__(self, scheduler: Optional[SimScheduler] = None) -> None:
        self.scheduler = scheduler or SimScheduler()

    def now_ms(self) -> int:
        return self.scheduler.now_ms()

    def sleep(self, ms: int) -> None:
        self.scheduler.sleep(ms)

    def spawn(self, name: str, fn: Callable[[], None]) -> Task:
        return self.scheduler.spawn(name, fn)

    def new_queue(self) -> BlockingQueue:
        return SimQueue(self.scheduler)

    def new_signal(self) -> Signal:
        return SimSignal(self.scheduler)

    def new_mutex(self) -> Mutex:
        return SimMutex(self.scheduler)


# ---------------------------------------------------------------------------
# Real runtime (threads + wall clock)
# ---------------------------------------------------------------------------

_POLL_S = 0.05


class _RealTask(Task):
    def __init__(self, name: str, fn: Callable[[], None]) -> None:
        self.name = name
        self.cancelled = threading.Event()
        self._fn = fn
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)

    def start(self) -> None:
        self._thread.start()

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def cancel(self) -> None:
        self.cancelled.set()

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


def _check_cancelled() -> None:
    task = _running_task()
    if task is not None and task.cancelled.is_set():
        raise TaskCancelled()


class RealQueue(BlockingQueue):
    def __init__(self) -> None:
        self._items: deque = deque()
        self._cond = threading.Condition()

    def put(self, item) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify_all()

    def get(self, timeout_ms: Optional[int] = None):
        deadline = None if timeout_ms is None else time.monotonic() + timeout_ms / 1000.0
        while True:
            _check_cancelled()
            with self._cond:
                if self._items:
                    return self._items.popleft()
                remaining = _POLL_S
                if deadline is not None:
                    remaining = min(remaining, deadline - time.monotonic())
                    if remaining <= 0:
                        raise WaitTimeout("queue.get timed out")
                self._cond.wait(remaining)

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)


class RealSignal(Signal):
    def __init__(self) -> None:
        self._event = threading.Event()

    def set(self) -> None:
        self._event.set()

    def clear(self) -> None:
        self._event.clear()

    def wait(self, timeout_ms: Optional[int] = None) -> bool:
        deadline = None if timeout_ms is None else time.monotonic() + timeout_ms / 1000.0
        while True:
            _check_cancelled()
            remaining = _POLL_S
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
                if remaining <= 0:
                    return self._event.is_set()
            if self._event.wait(max(remaining, 0)):
                return True


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
