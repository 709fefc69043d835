"""Suite-wide hypothesis settings, and the package path for child processes.

Examples are derived from each test's name instead of a random seed, so a
run is reproducible, and no example is timed, so a slow or busy host cannot
fail a property test.

pytest puts ``src`` on this process's path (``pythonpath`` in
pyproject.toml); tests that start ``python -m raclib.cli`` need it on the
child's path too, so it is added to ``PYTHONPATH``, which children inherit.

A run fails if it ends holding more file descriptors than it began with,
beyond ``FD_SLACK``: a raw fd left open raises no ``ResourceWarning``, so
the warning filters cannot catch a library a test builds and never closes.
"""

import os
from pathlib import Path

import pytest
from helpers import open_fd_count
from hypothesis import settings

settings.register_profile("raclib", deadline=None, derandomize=True)
settings.load_profile("raclib")

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

FD_SLACK = 4  # for what pytest itself may open during a run
_FDS_AT_START = pytest.StashKey[int]()


def pytest_sessionstart(session):
    session.config.stash[_FDS_AT_START] = open_fd_count()


def pytest_sessionfinish(session):
    started, ended = session.config.stash[_FDS_AT_START], open_fd_count()
    if ended > started + FD_SLACK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
        session.config.pluginmanager.get_plugin("terminalreporter").write_line(
            f"\nthe run began holding {started} fds and ended holding {ended}: a test leaves files open", red=True
        )
