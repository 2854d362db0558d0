"""Every ``REPRO_*`` environment knob, parsed in one place.

Each accessor reads the environment when it is called, never at import,
so pool workers (which inherit the parent's environment) and tests that
monkeypatch it see the current value.  Unset or empty means the default;
a malformed value raises :class:`~repro.errors.ConfigError` naming the
knob and the value.  ``docs/scaling.md`` has the table of knobs.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from .errors import ConfigError

#: every knob this module parses, in the order ``docs/scaling.md`` lists them
KNOBS = (
    "REPRO_FASTPATH",
    "REPRO_FASTPATH_CACHE",
    "REPRO_BATCH_SLOTS",
    "REPRO_AUDIT",
    "REPRO_CACHE_DIR",
    "REPRO_DISK_CACHE",
    "REPRO_TASK_RETRIES",
    "REPRO_TASK_TIMEOUT",
    "REPRO_MAX_RESPAWNS",
    "REPRO_RECORDS",
    "REPRO_WORKLOADS",
    "REPRO_CONFIG",
    "REPRO_SEED",
)


def _raw(name: str) -> Optional[str]:
    return os.environ.get(name, "").strip() or None


def _malformed(name: str, raw: str, expected: str) -> ConfigError:
    return ConfigError(f"{name}={raw!r} is malformed: expected {expected}")


def _number(name, default, parse=int, minimum: Optional[int] = 0):
    raw = _raw(name)
    if raw is None:
        return default
    try:
        value = parse(raw)
    except ValueError:
        value = None
    if value is None or (minimum is not None and not value >= minimum):
        kind = "an integer" if parse is int else "a number"
        bound = "" if minimum is None else f" >= {minimum}"
        raise _malformed(name, raw, kind + bound)
    return value


def _flag(name: str, default: bool) -> bool:
    raw = _raw(name)
    if raw is None:
        return default
    if raw not in ("0", "1"):
        raise _malformed(name, raw, "0 or 1")
    return raw == "1"


def _directory(name: str) -> Optional[str]:
    raw = _raw(name)
    if raw is not None and os.path.exists(raw) and not os.path.isdir(raw):
        raise _malformed(name, raw, "a directory, not a file")
    return raw


# -- native kernels ----------------------------------------------------------
def fastpath() -> bool:
    """``REPRO_FASTPATH``: load the C kernels (default on)."""
    return _flag("REPRO_FASTPATH", True)


def fastpath_cache() -> Optional[str]:
    """``REPRO_FASTPATH_CACHE``: where the compiled kernels are cached."""
    return _directory("REPRO_FASTPATH_CACHE")


def batch_slots() -> int:
    """``REPRO_BATCH_SLOTS``: dummy slots per native batch call (0 = off)."""
    return _number("REPRO_BATCH_SLOTS", 256)


# -- auditing ----------------------------------------------------------------
def audit() -> int:
    """``REPRO_AUDIT``: 0 defers to the spec, 1 audits at the default
    cadence, ``N > 1`` audits every N paths."""
    return _number("REPRO_AUDIT", 0)


# -- artifact cache ----------------------------------------------------------
def cache_dir() -> Optional[str]:
    """``REPRO_CACHE_DIR``: the on-disk artifact cache directory."""
    return _directory("REPRO_CACHE_DIR")


def disk_cache() -> bool:
    """``REPRO_DISK_CACHE``: persist artifacts and priors (default on)."""
    return _flag("REPRO_DISK_CACHE", True)


# -- engine supervision ------------------------------------------------------
def task_retries() -> int:
    """``REPRO_TASK_RETRIES``: retries per task before it is a fault."""
    return _number("REPRO_TASK_RETRIES", 2)


def task_timeout() -> float:
    """``REPRO_TASK_TIMEOUT``: fixed per-task deadline in seconds (0 =
    derive it from the wall-time priors)."""
    return _number("REPRO_TASK_TIMEOUT", 0.0, parse=float)


def max_respawns() -> int:
    """``REPRO_MAX_RESPAWNS``: pool respawns per call before running serially."""
    return _number("REPRO_MAX_RESPAWNS", 3)


# -- experiment harness ------------------------------------------------------
def records(default: int) -> int:
    """``REPRO_RECORDS``: trace records per experiment workload."""
    return _number("REPRO_RECORDS", default, minimum=1)


def workloads(default: Sequence[str]) -> List[str]:
    """``REPRO_WORKLOADS``: comma-separated subset of experiment workloads."""
    from .traces.benchmarks import BENCHMARKS

    raw = _raw("REPRO_WORKLOADS")
    if raw is None:
        return list(default)
    names = [name.strip() for name in raw.split(",") if name.strip()]
    known = set(BENCHMARKS) | {"mix", "random"}
    if not names or any(name not in known for name in names):
        raise _malformed(
            "REPRO_WORKLOADS", raw,
            f"a comma-separated list of {sorted(known)}",
        )
    return names


def config_name() -> str:
    """``REPRO_CONFIG``: the named platform experiments run on."""
    from .api import CONFIG_NAMES

    raw = _raw("REPRO_CONFIG")
    if raw is None:
        return "scaled"
    if raw not in CONFIG_NAMES:
        raise _malformed("REPRO_CONFIG", raw, f"one of {CONFIG_NAMES}")
    return raw


def seed(default: int) -> int:
    """``REPRO_SEED``: base seed of the experiment matrix."""
    return _number("REPRO_SEED", default, minimum=None)


def snapshot() -> Dict[str, str]:
    """Every ``REPRO_*`` variable as set now; pool workers inherit these."""
    return {
        key: value for key, value in os.environ.items()
        if key.startswith("REPRO_")
    }
