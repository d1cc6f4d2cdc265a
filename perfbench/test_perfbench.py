"""Tests of the benchmark itself: tiny runs of each workload.

    python -m pytest perfbench
"""

import functools
import json
import shutil
import subprocess
import sys

import pytest

import reference
import run
import workloads

sys.path.insert(0, str(run.SRC))

TINY = {
    "trace-shallow": functools.partial(workloads.trace_shallow, sizes=(50, 100, 200)),
    "trace-deep": functools.partial(workloads.trace_deep, sizes=(400, 500)),
    "bounds-synth": functools.partial(workloads.bounds_synth, lengths=(5, 10),
                                      auto_calls=20, scenario_scale=20),
}


def tiny_run(name, tmp_path, trace=False):
    return run.run(name, 7, 0, trace, tmp_path, make=TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    spec = run.load_spec()
    result = tiny_run(name, tmp_path, trace)
    assert result["failures"] == []
    assert result["attempted"] > 0 and result["failed"] == 0
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_the_same_output_digest(tmp_path):
    digests = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        digests.append(tiny_run("trace-deep", tmp_path / sub)["output_sha256"])
    assert digests[0] == digests[1]


def off_by_one(fn):
    return lambda *args: fn(*args) + 1


@pytest.mark.parametrize("name, corrupt", [
    ("trace-shallow", "rto"),
    ("trace-deep", "rbo"),
    ("bounds-synth", "rbo"),
])
def test_corrupted_expected_value_is_counted_as_failed(name, corrupt, tmp_path, monkeypatch):
    monkeypatch.setattr(reference, corrupt, off_by_one(getattr(reference, corrupt)))
    result = tiny_run(name, tmp_path)
    assert result["failed_ratio"] > 0
    assert result["failures"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace-shallow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
