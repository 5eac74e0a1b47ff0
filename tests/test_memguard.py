import threading

import pytest

from rdmd import memguard
from rdmd.errors import MemoryCapExceeded


def test_nested_sessions_restore_the_outer_one():
    with memguard.session() as outer:
        memguard.note(10)
        with memguard.session(cap_bytes=100) as inner:
            memguard.note(50)
            with pytest.raises(MemoryCapExceeded):
                memguard.note(200)
        memguard.note(150)  # the inner cap is gone with the inner session
    memguard.note(10**12)  # outside every session the note is free
    assert inner.largest_bytes == 200
    assert outer.largest_bytes == 150


def test_session_opened_in_another_thread_is_not_seen_here():
    opened, release = threading.Event(), threading.Event()
    guards = []

    def hold_a_session():
        with memguard.session(cap_bytes=1) as guard:
            guards.append(guard)
            opened.set()
            release.wait(timeout=10)

    thread = threading.Thread(target=hold_a_session)
    thread.start()
    try:
        assert opened.wait(timeout=10)
        memguard.note(1000)  # above the other thread's cap
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert guards[0].largest_bytes == 0
