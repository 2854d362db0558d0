"""Import setup for the benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402

_CACHE_DIR = run.isolate_environment(run.BUILD_DIR)
sys.path.insert(0, run.SRC)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_CACHE_DIR, ignore_errors=True)
