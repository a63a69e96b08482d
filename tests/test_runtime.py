import ast
import threading
import time
from pathlib import Path

import pytest

import ambox
from ambox.runtime import (
    SIM_EPOCH_MS,
    RealRuntime,
    SimScheduler,
    TaskCancelled,
    WaitTimeout,
)


def test_virtual_time_starts_at_epoch():
    rt = SimScheduler()
    assert rt.now_ms() == SIM_EPOCH_MS


def test_sleep_order_and_time():
    rt = SimScheduler()
    trace = []

    def worker(name, delay):
        def run():
            rt.sleep(delay)
            trace.append((name, rt.now_ms() - SIM_EPOCH_MS))
        return run

    rt.spawn("b", worker("b", 200))
    rt.spawn("a", worker("a", 100))
    rt.step()
    assert trace == [("a", 100), ("b", 200)]


def test_same_instant_ordered_by_creation():
    rt = SimScheduler()
    trace = []
    for name in ("first", "second", "third"):
        rt.spawn(name, lambda n=name: trace.append(n))
    rt.step()
    assert trace == ["first", "second", "third"]


def test_run_until_lands_on_time():
    rt = SimScheduler()
    rt.spawn("t", lambda: rt.sleep(500))
    rt.run_until(SIM_EPOCH_MS + 1000)
    assert rt.now_ms() == SIM_EPOCH_MS + 1000


def test_queue_wakes_waiter():
    rt = SimScheduler()
    q = rt.new_queue()
    got = []

    def consumer():
        got.append(q.get())
        got.append(q.get())

    def producer():
        rt.sleep(50)
        q.put("x")
        rt.sleep(50)
        q.put("y")

    rt.spawn("consumer", consumer)
    rt.spawn("producer", producer)
    rt.step()
    assert got == ["x", "y"]


def test_a_waiter_that_loses_the_item_waits_for_the_next():
    rt = SimScheduler()
    q = rt.new_queue()
    got = []

    def consumer(name):
        return lambda: got.append((name, q.get(), rt.now_ms() - SIM_EPOCH_MS))

    def producer():
        rt.sleep(50)
        q.put("x")
        rt.sleep(50)
        q.put("y")

    rt.spawn("a", consumer("a"))
    rt.spawn("b", consumer("b"))
    rt.spawn("producer", producer)
    rt.step()
    assert got == [("a", "x", 50), ("b", "y", 100)]


def test_queue_timeout():
    rt = SimScheduler()
    q = rt.new_queue()
    outcome = []

    def consumer():
        try:
            q.get(timeout_ms=250)
        except WaitTimeout:
            outcome.append(rt.now_ms() - SIM_EPOCH_MS)

    rt.spawn("consumer", consumer)
    rt.step()
    assert outcome == [250]


def test_cancel_parked_task():
    rt = SimScheduler()
    events = []

    def sleeper():
        try:
            rt.sleep(10_000)
            events.append("woke")
        except TaskCancelled:
            events.append("cancelled")
            raise

    task = rt.spawn("sleeper", sleeper)

    def canceller():
        rt.sleep(100)
        task.cancel()

    rt.spawn("canceller", canceller)
    rt.step()
    assert events == ["cancelled"]
    assert not task.alive


def test_cancelled_task_never_runs_user_code_again():
    rt = SimScheduler()
    ticks = []

    def ticker():
        while True:
            rt.sleep(10)
            ticks.append(rt.now_ms())

    task = rt.spawn("ticker", ticker)

    def killer():
        rt.sleep(35)
        task.cancel()

    rt.spawn("killer", killer)
    rt.run_until(SIM_EPOCH_MS + 200)
    assert len(ticks) == 3  # t=10,20,30; the t=40 tick must not fire


def test_signal_set_and_wait():
    rt = SimScheduler()
    log = []
    sig = rt.new_signal()

    def waiter():
        assert sig.wait(timeout_ms=1000) is True
        log.append(rt.now_ms() - SIM_EPOCH_MS)

    def setter():
        rt.sleep(300)
        sig.set()

    rt.spawn("waiter", waiter)
    rt.spawn("setter", setter)
    rt.step()
    assert log == [300]


def test_signal_wait_timeout_false():
    rt = SimScheduler()
    result = []
    sig = rt.new_signal()
    rt.spawn("w", lambda: result.append(sig.wait(timeout_ms=100)))
    rt.step()
    assert result == [False]


def test_mutex_serializes_critical_sections():
    rt = SimScheduler()
    mutex = rt.new_mutex()
    log = []

    def worker(name, hold_ms):
        def run():
            with mutex:
                log.append(f"{name}:in")
                rt.sleep(hold_ms)
                log.append(f"{name}:out")
        return run

    rt.spawn("a", worker("a", 100))
    rt.spawn("b", worker("b", 10))
    rt.step()
    assert log == ["a:in", "a:out", "b:in", "b:out"]


def test_task_error_propagates_to_driver():
    rt = SimScheduler()

    def boom():
        rt.sleep(10)
        raise ValueError("exploded")

    rt.spawn("boom", boom)
    with pytest.raises(RuntimeError, match="boom"):
        rt.step()


def test_determinism_two_identical_runs():
    def run_once():
        rt = SimScheduler()
        trace = []

        def periodic(name, interval, count):
            def run():
                for _ in range(count):
                    rt.sleep(interval)
                    trace.append((name, rt.now_ms() - SIM_EPOCH_MS))
            return run

        q = rt.new_queue()

        def pinger():
            for i in range(5):
                rt.sleep(70)
                q.put(i)

        def ponger():
            while True:
                item = q.get()
                trace.append(("pong", item, rt.now_ms() - SIM_EPOCH_MS))
                if item == 4:
                    return

        rt.spawn("a", periodic("a", 30, 10))
        rt.spawn("b", periodic("b", 50, 6))
        rt.spawn("ping", pinger)
        rt.spawn("pong", ponger)
        rt.step()
        return trace

    assert run_once() == run_once()


def test_handoff_trace_is_pinned():
    """Every wakeup of a small program, in order, with ties at equal times
    broken by the order in which the wakeups were scheduled."""
    rt = SimScheduler()
    q = rt.new_queue()
    sig = rt.new_signal()
    trace = []

    def mark(name):
        trace.append((rt.now_ms() - SIM_EPOCH_MS, name))

    def ticker():
        mark("tick")
        for _ in range(3):
            rt.sleep(10)
            mark("tick")

    def producer():
        mark("prod")
        rt.sleep(20)
        mark("prod")
        q.put("x")
        rt.sleep(10)
        mark("prod")
        sig.set()

    def consumer():
        mark("cons")
        q.get()
        mark("cons")
        sig.wait()
        mark("cons")

    def late():
        rt.sleep(30)
        mark("late")
        rt.sleep(0)
        mark("late")

    for name, fn in (("tick", ticker), ("prod", producer), ("cons", consumer),
                     ("late", late)):
        rt.spawn(name, fn)
    rt.step()
    assert trace == [
        (0, "tick"), (0, "prod"), (0, "cons"),
        (10, "tick"),
        (20, "prod"), (20, "tick"), (20, "cons"),
        (30, "late"), (30, "prod"), (30, "tick"), (30, "late"), (30, "cons"),
    ]


def test_run_while_runs_exactly_until_the_predicate_flips():
    rt = SimScheduler()
    woken = []

    def ticker(offset):
        def run():
            rt.sleep(offset)
            while True:
                woken.append(rt.now_ms() - SIM_EPOCH_MS)
                rt.sleep(2)
        return run

    rt.spawn("even", ticker(0))
    rt.spawn("odd", ticker(1))
    k = 7
    rt.run_while(lambda: len(woken) < k, limit_ms=SIM_EPOCH_MS + 1000)
    # Two start-up wakeups carry no mark; every later one adds one.
    assert woken == [0, 1, 2, 3, 4, 5, 6]
    assert rt.now_ms() == SIM_EPOCH_MS + 6
    rt.run_until(SIM_EPOCH_MS + 8)
    assert woken[k:] == [7, 8]
    rt.shutdown()


def test_crash_ends_the_slice_before_any_other_activity_runs():
    rt = SimScheduler()
    ran = []

    def boom():
        rt.sleep(10)
        raise ValueError("exploded")

    def bystander():
        rt.sleep(10)
        ran.append(rt.now_ms() - SIM_EPOCH_MS)

    rt.spawn("boom", boom)
    rt.spawn("bystander", bystander)
    with pytest.raises(RuntimeError, match="activity 'boom' crashed") as info:
        rt.run_until(SIM_EPOCH_MS + 100)
    assert isinstance(info.value.__cause__, ValueError)
    assert ran == []
    assert rt.now_ms() == SIM_EPOCH_MS + 10
    rt.run_until(SIM_EPOCH_MS + 100)
    assert ran == [10]


def test_sleep_zero_with_nothing_earlier_due_keeps_the_baton(monkeypatch):
    passes = []
    original = SimScheduler._pass

    def counting(self, task):
        passes.append(None if task is None else task.name)
        original(self, task)

    monkeypatch.setattr(SimScheduler, "_pass", counting)
    rt = SimScheduler()
    trace = []

    def spinner():
        thread = threading.get_ident()
        for _ in range(100):
            rt.sleep(0)
            assert threading.get_ident() == thread
        trace.append(("spinner", rt.now_ms() - SIM_EPOCH_MS))

    def later():
        rt.sleep(5)
        trace.append(("later", rt.now_ms() - SIM_EPOCH_MS))

    rt.spawn("later", later)
    rt.spawn("spinner", spinner)
    rt.step()
    assert trace == [("spinner", 0), ("later", 5)]
    # Driver to later, later to spinner, spinner to later, later to driver:
    # a hundred sleep(0) calls pass the baton to no one.
    assert passes == ["later", "spinner", "later", None]


def test_shutdown_unwinds_every_parked_task():
    rt = SimScheduler()
    q = rt.new_queue()
    sig = rt.new_signal()
    mutex = rt.new_mutex()
    unwound = []

    def parked(name, block):
        def run():
            try:
                block()
            finally:
                unwound.append(name)
        return run

    def holder():
        with mutex:
            rt.sleep(10**9)

    blocks = {
        "sleeper": lambda: rt.sleep(10**9),
        "getter": q.get,
        "waiter": sig.wait,
        "locker": mutex.acquire,
        "holder": holder,
    }
    tasks = [rt.spawn(f"shut-{name}", parked(name, block)) for name, block in blocks.items()]
    rt.run_until(SIM_EPOCH_MS + 50)
    tasks.append(rt.spawn("shut-unstarted", parked("unstarted", lambda: None)))
    rt.shutdown()
    assert sorted(unwound) == sorted(blocks)
    assert not any(task.alive for task in tasks)
    names = {f"sim:{task.name}" for task in tasks}
    threads = [t for t in threading.enumerate() if t.name in names]
    for thread in threads:
        thread.join(2.0)
    assert [t.name for t in threads if t.is_alive()] == []


def test_real_runtime_basics():
    rt = RealRuntime()
    q = rt.new_queue()
    results = []

    def worker():
        results.append(q.get(timeout_ms=2000))

    task = rt.spawn("w", worker)
    q.put("hello")
    task.join(2.0)
    assert results == ["hello"]


def test_real_runtime_cancel_interrupts_sleep():
    rt = RealRuntime()
    outcome = []

    def sleeper():
        try:
            rt.sleep(5000)
            outcome.append("woke")
        except TaskCancelled:
            outcome.append("cancelled")

    task = rt.spawn("s", sleeper)
    import time

    time.sleep(0.05)
    task.cancel()
    task.join(2.0)
    assert outcome == ["cancelled"]

@pytest.mark.parametrize("block", ["get", "wait"])
def test_real_cancel_wakes_a_blocked_wait_at_once(block):
    rt = RealRuntime()
    q = rt.new_queue()
    sig = rt.new_signal()
    blocked = threading.Event()
    returned = []

    def waiter():
        blocked.set()
        try:
            q.get() if block == "get" else sig.wait()
        except TaskCancelled:
            returned.append(time.monotonic())

    task = rt.spawn("waiter", waiter)
    assert blocked.wait(2.0)
    time.sleep(0.075)  # well into the wait
    cancelled_at = time.monotonic()
    task.cancel()
    task.join(2.0)
    assert not task.alive
    assert len(returned) == 1
    assert returned[0] - cancelled_at < 0.010


def test_blocking_primitives_come_from_a_runtime():
    # Agents and transports take queues, signals and mutexes from the Runtime
    # they are given, so the same code runs on threads and on the virtual clock.
    package = Path(ambox.__file__).parent
    concrete = {"SimQueue", "SimSignal", "SimMutex", "RealQueue", "RealSignal", "RealMutex",
                "SimRuntime"}
    found = []
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix()
        if name == "runtime.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found.extend(f"{name}:{node.lineno} {n}" for n in names if n in concrete)
    assert found == []
