"""Fixtures shared across the test packages."""

import pytest

from repro.analysis import sanitizer


@pytest.fixture
def sanitized():
    """Runtime ownership sanitizer (and, on pipelined data paths built
    while it is on, the HB monitor) for the duration of one test."""
    sanitizer.install()
    try:
        yield
    finally:
        sanitizer.uninstall()
