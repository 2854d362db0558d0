"""Performance engine: C hot-path kernels and parallel experiment fan-out.

* :mod:`repro.perf.native` — optional C kernels for the simulator's
  innermost loops, compiled on demand with a pure-Python fallback.
* :mod:`repro.perf.engine` — the supervised warm worker pool and the
  artifact cache behind :func:`repro.api.run_many`.
* :mod:`repro.perf.bench` — the ``python -m repro bench`` suite, emitting
  machine-readable ``BENCH_*.json`` snapshots for regression tracking.
"""

from .native import available as native_available  # noqa: F401
