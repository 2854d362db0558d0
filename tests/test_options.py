"""Tests for :mod:`repro.options`, the one parser of ``REPRO_*`` knobs."""

import ast
import os

import pytest

import repro
from repro import api, options
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.experiments import common
from repro.perf import engine, native


def _tiny_run():
    api.run(api.RunSpec(records=60, config=SystemConfig.tiny()))


def _pool_map():
    engine.engine_map(abs, [1, 2], jobs=2)


def _a_file(tmp_path):
    path = tmp_path / "not-a-dir"
    path.write_text("x", encoding="utf-8")
    return str(path)


#: (knob, malformed value or tmp_path -> value, the call that reads it)
MALFORMED = [
    ("REPRO_FASTPATH", "yes", options.fastpath),
    ("REPRO_FASTPATH_CACHE", _a_file, native._cache_dir),
    ("REPRO_BATCH_SLOTS", "abc", _tiny_run),
    ("REPRO_AUDIT", "yes", _tiny_run),
    ("REPRO_CACHE_DIR", _a_file, engine.cache_root),
    ("REPRO_DISK_CACHE", "off", engine.disk_cache_enabled),
    ("REPRO_TASK_RETRIES", "abc", _pool_map),
    ("REPRO_TASK_TIMEOUT", "soon", _pool_map),
    ("REPRO_MAX_RESPAWNS", "-1", _pool_map),
    ("REPRO_RECORDS", "abc", common.experiment_records),
    ("REPRO_WORKLOADS", "gcc,nope", common.experiment_workloads),
    ("REPRO_CONFIG", "warehouse", common.experiment_config),
    ("REPRO_SEED", "7.5", common.experiment_seed),
]


class TestMalformedKnobs:
    def test_every_knob_is_covered(self):
        assert sorted(knob for knob, _, _ in MALFORMED) == sorted(options.KNOBS)

    @pytest.mark.parametrize(
        "knob, value, read", MALFORMED, ids=[knob for knob, _, _ in MALFORMED]
    )
    def test_malformed_value_fails_loudly(
        self, knob, value, read, tmp_path, monkeypatch
    ):
        if callable(value):
            value = value(tmp_path)
        monkeypatch.setenv(knob, value)
        with pytest.raises(ConfigError) as excinfo:
            read()
        assert knob in str(excinfo.value)
        assert repr(value) in str(excinfo.value)


class TestWellFormedKnobs:
    def test_unset_and_empty_mean_default(self, monkeypatch):
        for knob in options.KNOBS:
            monkeypatch.delenv(knob, raising=False)
        assert options.batch_slots() == 256
        assert options.audit() == 0
        assert options.task_retries() == 2
        assert options.task_timeout() == 0.0
        assert options.records(5000) == 5000
        assert options.config_name() == "scaled"
        monkeypatch.setenv("REPRO_DISK_CACHE", "")
        assert options.disk_cache() is True

    def test_values_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SLOTS", "0")
        monkeypatch.setenv("REPRO_AUDIT", "16")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_WORKLOADS", " gcc, mix ")
        monkeypatch.setenv("REPRO_SEED", "-3")
        assert options.batch_slots() == 0
        assert options.audit() == 16
        assert options.task_timeout() == 2.5
        assert options.workloads(["lbm"]) == ["gcc", "mix"]
        assert options.seed(7) == -3


def _environ(node):
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def _repro_constant(node):
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("REPRO_")
    )


def _knob_reads(source):
    """Line numbers where ``source`` reads a ``REPRO_*`` variable."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            getter = (func.attr == "get" and _environ(func.value)) or (
                func.attr == "getenv"
            )
            if getter and node.args and _repro_constant(node.args[0]):
                lines.append(node.lineno)
            if func.attr == "startswith" and node.args and _repro_constant(
                node.args[0]
            ):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and _environ(node.value)
            and _repro_constant(node.slice)
        ):
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Compare)
            and _repro_constant(node.left)
            and any(_environ(c) for c in node.comparators)
        ):
            lines.append(node.lineno)
    return lines


class TestOneParser:
    def test_detector_sees_every_read_form(self):
        source = "\n".join([
            'os.environ.get("REPRO_A")',
            'os.getenv("REPRO_B", "1")',
            'x = os.environ["REPRO_C"]',
            'ok = "REPRO_D" in os.environ',
            '[k for k in os.environ if k.startswith("REPRO_")]',
            'os.environ["REPRO_E"] = "1"',  # a write, not a read
        ])
        assert sorted(_knob_reads(source)) == [1, 2, 3, 4, 5]

    def test_only_the_options_module_reads_knobs(self):
        root = os.path.dirname(os.path.abspath(repro.__file__))
        offenders = []
        for directory, _, names in os.walk(root):
            for name in names:
                path = os.path.join(directory, name)
                if not name.endswith(".py") or path == os.path.abspath(
                    options.__file__
                ):
                    continue
                with open(path, "r", encoding="utf-8") as handle:
                    lines = _knob_reads(handle.read())
                offenders.extend(
                    f"{os.path.relpath(path, root)}:{line}" for line in lines
                )
        assert offenders == []
