"""Smoke tests of the benchmark on tiny pools.

Run from the root of the repository:  python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORK = BENCH / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", "--seconds", "0.5", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


@pytest.fixture(scope="module")
def end_to_end():
    return bench("--trace", "0")


@pytest.fixture(scope="module")
def traced():
    return bench("--trace", "1")


@pytest.mark.parametrize("kind, run", [("end_to_end", "end_to_end"),
                                       ("per_layer", "traced")])
def test_every_metric_is_printed_with_its_unit(kind, run, request):
    rc, result = request.getfixturevalue(run)
    assert rc == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{m['name']}": m["unit"]
                for w in WORKLOADS for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if kind == "end_to_end":
            assert metric["value"] > 0, name


def test_self_times_and_other_add_up_to_the_traced_wall_time(traced):
    _, result = traced
    metrics = result["metrics"]
    for w in WORKLOADS:
        self_s = [v["value"] for k, v in metrics.items()
                  if k.startswith(f"{w}.") and k.endswith(".self_s")
                  and v["unit"] == "s/item"]
        assert metrics[f"{w}.other.self_s"]["value"] >= 0
        assert sum(self_s) == pytest.approx(
            metrics[f"{w}.trace.item_wall_s"]["value"], rel=1e-9)


def copy_bench(dest, *, with_sources):
    """A checkout at dest holding only BENCHMARK.json and the benchmark,
    plus a link to the sources if asked."""
    shutil.rmtree(dest, ignore_errors=True)
    (dest / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for f in [*BENCH.glob("*.py"), BENCH / "reference.json"]:
        shutil.copy(f, dest / "perfbench")
    if with_sources:
        (dest / "src").symlink_to(ROOT / "src", target_is_directory=True)


def test_corrupted_reference_digest_is_a_failure():
    tree = WORK / "corrupted"
    copy_bench(tree, with_sources=True)
    path = tree / "perfbench" / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    digest = ref["tiny"]["run-dense"][0]
    ref["tiny"]["run-dense"][0] = "0" * len(digest)
    path.write_text(json.dumps(ref), encoding="utf-8")
    try:
        rc, result = bench("--workload", "run-dense", "--trace", "0", cwd=tree)
    finally:
        shutil.rmtree(tree)
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_sources():
    bare = WORK / "bare"
    copy_bench(bare, with_sources=False)
    try:
        rc, result = bench("--workload", "game", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert rc != 0
    assert result is None
