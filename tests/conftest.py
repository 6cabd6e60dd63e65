"""Checks that every test gets: it must end with no thread running that it
started, so a worker thread that is never joined fails the test that left
it instead of outliving it."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"threads left running: {', '.join(sorted(left))}")
