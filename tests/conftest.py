"""Checks that hold for every test of the suite."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fail a test that leaves a child process alive: a fit's scorer or a pool
    worker must be joined before the call that started it returns."""
    yield
    left = multiprocessing.active_children()
    for child in left:  # so that the next test starts clean
        child.kill()
        child.join()
    assert not left, f"child processes left running: {left}"
