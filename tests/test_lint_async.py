"""Async/concurrency rule pack tests (ASYNC001–ASYNC005).

One positive (hazard caught) and one negative (sanctioned pattern
silent) per rule, mirroring the real serve/obs code: the event loop,
the BackgroundServer thread handshake, and the oplog contextvars
discipline.  These rules apply in every scope, so the fixtures use a
host path to keep the DET rules out of the assertions.
"""

import textwrap

from repro.lint.engine import lint_source


def findings(src, *, path="repro/serve/fixture.py", scope="host"):
    found, _ = lint_source(textwrap.dedent(src), path, scope=scope)
    return found


def rule_ids(src, **kw):
    return [f.rule for f in findings(src, **kw)]


# -- ASYNC001: blocking call in a coroutine ---------------------------------

def test_async001_flags_sleep_subprocess_and_file_io():
    src = """
        import time
        import subprocess

        async def handler(path):
            time.sleep(0.1)
            subprocess.run(["ls"])
            return path.read_text()
    """
    assert rule_ids(src) == ["ASYNC001"] * 3


def test_async001_names_the_coroutine_and_suggests_async_sleep():
    src = """
        import time

        async def poll():
            time.sleep(1)
    """
    (f,) = findings(src)
    assert "`poll`" in f.message
    assert "asyncio.sleep" in f.message


def test_async001_silent_on_async_sleep_and_sync_functions():
    src = """
        import asyncio
        import time

        async def poll():
            await asyncio.sleep(1)
            await asyncio.to_thread(expensive)

        def expensive():
            time.sleep(1)  # fine: runs on a worker thread
    """
    assert rule_ids(src) == []


def test_async001_applies_in_sim_scope_too():
    src = """
        import subprocess

        async def spawn():
            subprocess.call(["true"])
    """
    assert "ASYNC001" in rule_ids(src, path="repro/sim/fixture.py",
                                  scope="sim")


def test_async001_flags_blocking_future_waits():
    """The mutation-table plant: a pool future waited on in place of
    ``await asyncio.wrap_future(fut)`` stalls the loop."""
    src = """
        async def simulate(pool, cfg):
            fut = pool.submit(run, cfg)
            run = fut.result()
            err = fut.exception(timeout=1)
            return run, err
    """
    found = findings(src)
    assert [f.rule for f in found] == ["ASYNC001"] * 2
    assert "wrap_future" in found[0].message


def test_async001_silent_on_a_future_read_under_its_done_check():
    src = """
        import asyncio

        async def simulate(hop, i):
            fut = (await hop)[i]
            if fut.done():
                run = fut.result()
            else:
                run = await asyncio.wrap_future(fut)
            if fut.done() and not fut.cancelled():
                fut.exception()
            return run

        def sync_reader(fut):
            return fut.result()  # fine: not a coroutine
    """
    assert rule_ids(src) == []


def test_async001_done_check_must_guard_the_same_future_on_its_true_branch():
    src = """
        async def simulate(a, b):
            if a.done():
                b.result()
            if a.done():
                pass
            else:
                a.result()
            if not a.done():
                a.result()
    """
    assert rule_ids(src) == ["ASYNC001"] * 3


# -- ASYNC002: coroutine never awaited --------------------------------------

def test_async002_flags_bare_coroutine_calls():
    src = """
        async def refresh():
            pass

        def kick():
            refresh()

        class Poller:
            async def tick(self):
                pass

            def run_once(self):
                self.tick()
    """
    assert rule_ids(src) == ["ASYNC002", "ASYNC002"]


def test_async002_silent_when_awaited_stored_or_run():
    src = """
        import asyncio

        async def refresh():
            pass

        async def main():
            await refresh()
            task = asyncio.create_task(refresh())
            await task

        def sync_entry():
            asyncio.run(refresh())
    """
    assert rule_ids(src) == []


# -- ASYNC003: dropped task handle ------------------------------------------

def test_async003_flags_fire_and_forget_create_task():
    src = """
        import asyncio

        async def serve(loop):
            asyncio.create_task(work())
            loop.create_task(work())

        async def work():
            pass
    """
    found = findings(src)
    assert [f.rule for f in found] == ["ASYNC003", "ASYNC003"]
    assert all(f.severity == "warning" for f in found)


def test_async003_silent_when_handle_is_kept():
    src = """
        import asyncio

        async def serve(tasks):
            t = asyncio.create_task(work())
            tasks.add(t)
            t.add_done_callback(tasks.discard)

        async def work():
            pass
    """
    assert rule_ids(src) == []


# -- ASYNC004: thread-shared state without a lock ---------------------------

UNLOCKED_SERVER = """
    import threading

    class Server:
        def __init__(self):
            self.port = None
            self._thread = threading.Thread(target=self._main)

        def _main(self):
            self.port = 8080

        def address(self):
            return f"127.0.0.1:{self.port}"
"""


def test_async004_flags_unlocked_thread_handshake():
    (f,) = findings(UNLOCKED_SERVER)
    assert f.rule == "ASYNC004"
    assert "self.port" in f.message
    assert "_main" in f.message and "address" in f.message


def test_async004_silent_when_both_sides_hold_the_lock():
    src = """
        import threading

        class Server:
            def __init__(self):
                self.port = None
                self._lock = threading.Lock()
                self._thread = threading.Thread(target=self._main)

            def _main(self):
                with self._lock:
                    self.port = 8080

            def address(self):
                with self._lock:
                    return f"127.0.0.1:{self.port}"
    """
    assert rule_ids(src) == []


def test_async004_exempts_sync_primitives_and_init_writes():
    src = """
        import queue
        import threading

        class Sampler:
            def __init__(self):
                self.out = queue.Queue()
                self.stop = threading.Event()
                self._thread = threading.Thread(target=self._main)

            def _main(self):
                while not self.stop.is_set():
                    self.out.put(1)

            def drain(self):
                return self.out.get_nowait()
    """
    assert rule_ids(src) == []


def test_async004_follows_self_calls_into_the_thread_context():
    src = """
        import threading

        class Worker:
            def __init__(self):
                self.result = None
                self._thread = threading.Thread(target=self._main)

            def _main(self):
                self._step()

            def _step(self):
                self.result = 42

            def collect(self):
                return self.result
    """
    assert rule_ids(src) == ["ASYNC004"]


def test_async004_flags_global_shared_between_thread_and_coroutine():
    src = """
        import threading

        SAMPLES = []

        def sampler():
            SAMPLES.append(1)

        def start():
            threading.Thread(target=sampler).start()

        async def report():
            return len(SAMPLES)
    """
    assert rule_ids(src) == ["ASYNC004"]


# -- ASYNC005: ContextVar.set without reset ---------------------------------

def test_async005_flags_dropped_token_and_missing_finally():
    src = """
        import contextvars

        REQ = contextvars.ContextVar("req")

        def enter(rid):
            REQ.set(rid)

        def enter_keeping_token(rid):
            token = REQ.set(rid)
            do_work()
            REQ.reset(token)  # not in a finally: skipped on raise
    """
    found = findings(src)
    assert [f.rule for f in found] == ["ASYNC005", "ASYNC005"]
    assert all(f.severity == "warning" for f in found)


def test_async005_silent_on_the_try_finally_discipline():
    src = """
        import contextvars

        REQ = contextvars.ContextVar("req")

        def scoped(rid):
            token = REQ.set(rid)
            try:
                do_work()
            finally:
                REQ.reset(token)
    """
    assert rule_ids(src) == []


def test_async005_sees_annotated_context_vars():
    """``obs/oplog.py`` declares its context var with an annotation;
    the rule must see that shape too."""
    src = """
        import contextvars

        CTX: contextvars.ContextVar[tuple] = contextvars.ContextVar("ctx")

        def enter(fields):
            CTX.set(fields)
    """
    assert rule_ids(src) == ["ASYNC005"]
