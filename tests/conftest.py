"""Suite-wide hypothesis settings, and the package path for child processes.

Examples are derived from each test's name instead of a random seed, so a
run is reproducible, and no example is timed, so a slow or busy host cannot
fail a property test.

pytest puts ``src`` on this process's path (``pythonpath`` in
pyproject.toml); tests that start ``python -m raclib.cli`` need it on the
child's path too, so it is added to ``PYTHONPATH``, which children inherit.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("raclib", deadline=None, derandomize=True)
settings.load_profile("raclib")

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
