"""Unit tests for the AMPED helper pool and IPC protocol."""

import os
import threading
import time

import pytest

from repro.core.event_loop import EventLoop
from repro.core.helpers import (
    OP_READ,
    OP_TRANSLATE,
    HelperPool,
    HelperRequest,
    perform_helper_operation,
    translation_entry_from_reply,
)


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "index.html").write_text("<html>hi</html>")
    (tmp_path / "big.bin").write_bytes(b"b" * 100_000)
    return str(tmp_path)


class TestPerformHelperOperation:
    def test_translate_success(self, docroot):
        request = HelperRequest(seq=1, op=OP_TRANSLATE, uri="/index.html", document_root=docroot)
        reply = perform_helper_operation(request)
        assert reply.ok
        assert reply.path == os.path.join(docroot, "index.html")
        assert reply.size == len("<html>hi</html>")
        entry = translation_entry_from_reply("/index.html", reply)
        assert entry.filesystem_path == reply.path

    def test_translate_missing_file(self, docroot):
        request = HelperRequest(seq=2, op=OP_TRANSLATE, uri="/nope.html", document_root=docroot)
        reply = perform_helper_operation(request)
        assert not reply.ok
        assert reply.error_type == "NotFoundError"
        with pytest.raises(ValueError):
            translation_entry_from_reply("/nope.html", reply)

    def test_read_touches_whole_file(self, docroot):
        request = HelperRequest(seq=3, op=OP_READ, path=os.path.join(docroot, "big.bin"))
        reply = perform_helper_operation(request)
        assert reply.ok
        assert reply.bytes_touched == 100_000

    def test_read_range(self, docroot):
        request = HelperRequest(
            seq=4, op=OP_READ, path=os.path.join(docroot, "big.bin"), offset=50_000, length=10_000
        )
        reply = perform_helper_operation(request)
        assert reply.bytes_touched == 10_000

    def test_unknown_operation_reported_as_failure(self):
        reply = perform_helper_operation(HelperRequest(seq=5, op="defragment"))
        assert not reply.ok
        assert reply.error_type == "ValueError"


class TestHelperPoolThreads:
    def test_submit_and_wait(self, docroot):
        pool = HelperPool(num_helpers=2)
        replies = []
        for name in ("index.html", "big.bin"):
            pool.submit(
                HelperRequest(seq=0, op=OP_TRANSLATE, uri=f"/{name}", document_root=docroot),
                replies.append,
            )
        pool.wait_all(timeout=5.0)
        assert len(replies) == 2
        assert all(reply.ok for reply in replies)
        assert pool.completed == 2
        pool.shutdown()

    def test_completions_delivered_through_event_loop(self, docroot):
        loop = EventLoop()
        pool = HelperPool(num_helpers=1)
        pool.register(loop)
        replies = []
        pool.submit(
            HelperRequest(seq=0, op=OP_TRANSLATE, uri="/index.html", document_root=docroot),
            replies.append,
        )
        deadline = 200
        while not replies and deadline:
            loop.run_once(timeout=0.05)
            deadline -= 1
        assert replies and replies[0].ok
        pool.unregister(loop)
        pool.shutdown()
        loop.close()

    def test_errors_reported_not_raised(self, docroot):
        """A failed operation completes with a failed reply, so its
        requester degrades instead of hanging, and the same helper serves
        the next request."""
        pool = HelperPool(num_helpers=1)
        replies = []
        for uri in ("/missing", "/index.html"):
            pool.submit(
                HelperRequest(seq=0, op=OP_TRANSLATE, uri=uri, document_root=docroot),
                replies.append,
            )
        pool.wait_all(timeout=5.0)
        assert [reply.ok for reply in replies] == [False, True]
        pool.shutdown()

    def test_more_requests_than_helpers(self, docroot):
        pool = HelperPool(num_helpers=1)
        replies = []
        for _ in range(10):
            pool.submit(
                HelperRequest(seq=0, op=OP_READ, path=os.path.join(docroot, "big.bin")),
                replies.append,
            )
        pool.wait_all(timeout=10.0)
        assert len(replies) == 10
        pool.shutdown()

    def test_shutdown_idempotent(self):
        pool = HelperPool(num_helpers=1)
        pool.shutdown()
        pool.shutdown()

    def test_submit_after_shutdown_rejected(self, docroot):
        pool = HelperPool(num_helpers=1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(HelperRequest(seq=0, op=OP_READ, path="x"), lambda r: None)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            HelperPool(num_helpers=0)

    def test_no_mode_argument(self):
        """Threads are the only realization: there is nothing to select."""
        with pytest.raises(TypeError):
            HelperPool(num_helpers=1, mode="thread")

    def test_backlog_when_all_helpers_busy(self, docroot, monkeypatch):
        """Requests beyond the pool size queue behind the busy helper and
        all complete once it is free."""
        import repro.core.helpers as helpers_module

        gate = threading.Event()
        real_touch = helpers_module._touch_file_range

        def gated_touch(path, offset, length):
            gate.wait(timeout=10.0)
            return real_touch(path, offset, length)

        monkeypatch.setattr(helpers_module, "_touch_file_range", gated_touch)
        pool = HelperPool(num_helpers=1)
        replies = []
        try:
            for _ in range(5):
                pool.submit(
                    HelperRequest(seq=0, op=OP_READ, path=os.path.join(docroot, "big.bin")),
                    replies.append,
                )
            pool.process_completions()
            assert pool.outstanding == 5
            assert pool.dispatched == 5
            assert pool.completed == 0
            gate.set()
            pool.wait_all(timeout=10.0)
        finally:
            gate.set()
            pool.shutdown()
        assert len(replies) == 5
        assert all(reply.bytes_touched == 100_000 for reply in replies)
        assert pool.completed == 5

    def test_replies_matched_to_callbacks_by_seq(self, docroot, monkeypatch):
        """Completions that arrive out of submission order still reach the
        callback of the request they answer."""
        import repro.core.helpers as helpers_module

        gate = threading.Event()
        real_touch = helpers_module._touch_file_range

        def gated_touch(path, offset, length):
            gate.wait(timeout=10.0)
            return real_touch(path, offset, length)

        monkeypatch.setattr(helpers_module, "_touch_file_range", gated_touch)
        pool = HelperPool(num_helpers=2)
        slow, fast = [], []
        try:
            slow_seq = pool.submit(
                HelperRequest(seq=0, op=OP_READ, path=os.path.join(docroot, "big.bin")),
                slow.append,
            )
            fast_seq = pool.submit(
                HelperRequest(seq=0, op=OP_TRANSLATE, uri="/index.html", document_root=docroot),
                fast.append,
            )
            assert fast_seq == slow_seq + 1
            deadline = time.monotonic() + 10.0
            while not fast and time.monotonic() < deadline:
                pool.process_completions()
                time.sleep(0.001)
            assert fast
            assert not slow  # the read is still parked behind the gate
            gate.set()
            pool.wait_all(timeout=10.0)
        finally:
            gate.set()
            pool.shutdown()
        assert [reply.seq for reply in slow] == [slow_seq]
        assert slow[0].op == OP_READ and slow[0].bytes_touched == 100_000
        assert [reply.seq for reply in fast] == [fast_seq]
        assert fast[0].op == OP_TRANSLATE and fast[0].path.endswith("index.html")

    def test_callbacks_run_on_the_draining_thread(self, docroot):
        """Helpers only queue replies; every callback runs on the thread
        that drains completions (the event loop's), never on a helper."""
        pool = HelperPool(num_helpers=2)
        threads = []
        try:
            for _ in range(4):
                pool.submit(
                    HelperRequest(seq=0, op=OP_TRANSLATE, uri="/index.html", document_root=docroot),
                    lambda reply: threads.append(threading.current_thread()),
                )
            pool.wait_all(timeout=5.0)
        finally:
            pool.shutdown()
        assert threads == [threading.current_thread()] * 4


class TestHelperFailure:
    """An operation that raises inside a helper thread must not hang its
    requester or cost the pool a helper: it completes with a failed reply
    and the helper goes on serving."""

    @staticmethod
    def crash_reads(monkeypatch):
        import repro.core.helpers as helpers_module

        def crash(path, offset, length):
            raise RuntimeError("disk read exploded")

        monkeypatch.setattr(helpers_module, "_touch_file_range", crash)

    def test_exception_synthesizes_failed_reply(self, docroot, monkeypatch):
        self.crash_reads(monkeypatch)
        pool = HelperPool(num_helpers=2)
        replies = []
        try:
            pool.submit(
                HelperRequest(seq=0, op=OP_READ, path=os.path.join(docroot, "big.bin")),
                replies.append,
            )
            pool.wait_all(timeout=5.0)
        finally:
            pool.shutdown()
        assert len(replies) == 1
        assert not replies[0].ok
        assert replies[0].error_type == "RuntimeError"
        assert replies[0].error_message == "disk read exploded"
        assert pool.completed == 1

    def test_pool_keeps_every_helper_after_failures(self, docroot, monkeypatch):
        self.crash_reads(monkeypatch)
        pool = HelperPool(num_helpers=2)
        replies = []
        try:
            for _ in range(4):
                pool.submit(
                    HelperRequest(seq=0, op=OP_READ, path=os.path.join(docroot, "big.bin")),
                    replies.append,
                )
            pool.wait_all(timeout=5.0)
            alive = [thread.is_alive() for thread in pool._threads]
            for _ in range(2):
                pool.submit(
                    HelperRequest(seq=0, op=OP_TRANSLATE, uri="/index.html", document_root=docroot),
                    replies.append,
                )
            pool.wait_all(timeout=5.0)
        finally:
            pool.shutdown()
        assert alive == [True, True]
        assert [reply.ok for reply in replies] == [False] * 4 + [True] * 2

    def test_failure_observed_through_event_loop(self, docroot, monkeypatch):
        """The AMPED observation path: a failed reply wakes the loop like
        any other completion and its callback runs from the loop."""
        self.crash_reads(monkeypatch)
        pool = HelperPool(num_helpers=1)
        loop = EventLoop()
        replies = []
        try:
            pool.register(loop)
            pool.submit(
                HelperRequest(seq=0, op=OP_READ, path=os.path.join(docroot, "big.bin")),
                replies.append,
            )
            deadline = time.monotonic() + 10.0
            while not replies and time.monotonic() < deadline:
                loop.run_once(timeout=0.05)
            pool.unregister(loop)
        finally:
            pool.shutdown()
            loop.close()
        assert len(replies) == 1
        assert replies[0].error_type == "RuntimeError"
