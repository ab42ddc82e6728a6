"""Fixtures that run around every test."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_worker_process_left():
    # a catalog check builds a process pool by default; none may outlive its test
    yield
    assert multiprocessing.active_children() == []
