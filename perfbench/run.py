#!/usr/bin/env python3
"""gridhit benchmark: run-large, run-dense and game workloads.

    python3 perfbench/run.py --workload run-dense --seed 1 --seconds 30 --trace 0

Each workload runs in child processes of its own (perfbench/child.py),
started one after another; each runs a closed loop, one item at a time,
through ``harness.run_online`` or ``harness.run_adversary``.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics; names and units come
from BENCHMARK.json at the root of the checkout.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Every item's result is checked, and its report digest is compared with
perfbench/reference.json; any failure makes the exit code 1.

``--workload all`` runs the three workloads in turn and prefixes each
metric name with its workload.  See perfbench/README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("run-large", "run-dense", "game")
REFERENCE = HERE / "reference.json"
# An end-to-end run splits its timed loop over this many fresh processes,
# one after another: each sets the pool up again, which gives setup_s its
# median, and a process that happens to be slow weighs a third.
CHILDREN = 3
WORKLOAD_LIMIT_S = 170  # children of one workload still running then are killed

# Spans of set-up are reported as totals, those of items per item.
SETUP_LAYERS = ("formats.read_instance", "harness.gen_random")
ITEM_LAYERS = tuple(name for name, _, _ in spans.TIMED
                    if name not in SETUP_LAYERS)


class ChildRun:
    """Item records and final summary of one child process."""

    def __init__(self, workload, mode, seed, deadline, *, seconds=0.0,
                 passes=0, tiny=False):
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--mode", mode, "--seed", str(seed), "--seconds", str(seconds),
               "--passes", str(passes)]
        if tiny:
            cmd.append("--tiny")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), GRIDHIT_WORKERS="1")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=env, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=max(0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            print(f"# {workload}: {mode} child killed at the "
                  f"{WORKLOAD_LIMIT_S} s limit", file=sys.stderr)
        records = [json.loads(line) for line in out.splitlines()
                   if line.startswith("{")]
        self.items = [r for r in records if "item" in r]
        self.done = next((r["done"] for r in records if "done" in r), None)
        self.complete = proc.returncode == 0 and self.done is not None

    @property
    def attempted(self) -> int:
        # An item cut off by a crash or the kill is attempted and failed.
        return len(self.items) + (not self.complete)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.items) + (not self.complete)

    def report_failures(self, workload: str) -> None:
        for r in self.items:
            if not r["ok"]:
                print(f"# {workload}: item {r['item']} failed: {r['why']}",
                      file=sys.stderr)


def tail(durations) -> tuple[float, float]:
    """The highest percentile with at least 10 items beyond it, as
    (value, percentile)."""
    xs = sorted(durations)
    n = len(xs)
    if n < 11:
        raise ValueError(f"{n} items are too few for a tail percentile")
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seed, seconds, tiny):
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    start = time.monotonic()
    runs = []
    for k in range(CHILDREN):
        # Child k stops at its first pass boundary once the run is k+1
        # shares of `seconds` old, and runs at least one pass.
        left = start + seconds * (k + 1) / CHILDREN - time.monotonic()
        runs.append(ChildRun(workload, "run", seed * CHILDREN + k, deadline,
                             seconds=max(0.0, left), tiny=tiny))
        if not runs[-1].complete:
            return runs, None, {}
    items = [r for run in runs for r in run.items]
    # Passes repeat the same items, so the latency distribution is over the
    # pool's distinct items, each at its median time over the passes.
    runs_of = {}
    for r in items:
        runs_of.setdefault(r["item"], []).append(r["s"])
    item_s = [statistics.median(v) for v in runs_of.values()]
    tail_s, pct = tail(item_s)
    setup_s = [run.done["setup_s"] for run in runs]
    values = {
        "setup_s": statistics.median(setup_s),
        "items_per_s": (sum(r["ok"] for r in items)
                        / sum(run.done["loop_s"] for run in runs)),
        "item_p50_s": statistics.median(item_s),
        "item_tail_s": tail_s,
        "peak_rss_mb": max(run.done["maxrss_kb"] for run in runs) / 1024,
    }
    passes = "+".join(str(run.done["passes"]) for run in runs)
    note = (f"{len(items)} items in {passes} passes, fail_frac "
            f"{sum(run.failed for run in runs) / len(items):.3f}, item_tail_s "
            f"is p{pct:.1f} of {len(item_s)} pool items, setup_s samples "
            f"{', '.join(f'{s:.4f}' for s in setup_s)}")
    return runs, values, {"note": note, "kernel_backend": runs[0].done["kernel_backend"]}


def per_layer(workload, seed, seconds, tiny):
    # Untraced for half the time, then the same passes traced, so the two
    # runs time the same items and their ratio is the tracing overhead.
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    plain = ChildRun(workload, "run", seed, deadline, seconds=seconds / 2,
                     tiny=tiny)
    if not plain.complete:
        return [plain], None, {}
    traced = ChildRun(workload, "trace", seed, deadline,
                      passes=plain.done["passes"], tiny=tiny)
    runs = [plain, traced]
    if not traced.complete:
        return runs, None, {}
    done = traced.done
    n = len(traced.items)
    layers, counts = done["layers"], done["counts"]
    calls, self_ns = layers["calls"], layers["self_ns"]
    values = {}
    for name in ITEM_LAYERS:
        values[f"{name}.calls"] = calls.get(name, 0) / n
        values[f"{name}.self_s"] = self_ns.get(name, 0) / n / 1e9
    for name in SETUP_LAYERS:
        values[f"{name}.self_s"] = done["setup_layers"]["self_ns"].get(name, 0) / 1e9
    for name, _, _ in spans.COUNTED:
        values[f"{name}.calls"] = counts.get(name, 0) / n
    values["geometry.points_enumerated"] = counts.get("geometry.points_enumerated", 0) / n
    values["oracle.candidates"] = counts.get("oracle.candidates", 0) / n
    values["oracle.bb.exact_frac"] = (counts.get("oracle.bb.exact", 0)
                                      / max(1, calls.get("oracle.bb", 0)))
    ok_items = [r for r in traced.items if r["ok"]]
    values["engine.already_hit_frac"] = (
        sum(r["already_hit"] for r in ok_items)
        / max(1, sum(r["objects"] for r in ok_items)))
    values["engine.points_added"] = sum(r["added"] for r in ok_items) / n
    # The "item" root span's self time is whatever no wrapped layer covers.
    values["other.self_s"] = self_ns.get("item", 0) / n / 1e9
    values["trace.item_wall_s"] = layers["root_ns"] / n / 1e9
    values["trace.overhead_frac"] = (sum(r["s"] for r in traced.items)
                                     / sum(r["s"] for r in plain.items) - 1)
    note = (f"{n} items traced in {done['passes']} passes; spans in "
            f"perfbench/out/spans-{workload}.jsonl")
    return runs, values, {"note": note, "kernel_backend": done["kernel_backend"]}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def write_reference() -> int:
    """Record the report digest of every pool item, at both scales."""
    ref = {}
    for scale in ("full", "tiny"):
        ref[scale] = {}
        for workload in WORKLOADS:
            run = ChildRun(workload, "reference", 0,
                           time.monotonic() + WORKLOAD_LIMIT_S,
                           tiny=scale == "tiny")
            if run.failed:
                run.report_failures(workload)
                return 1
            ref[scale][workload] = [r["digest"] for r in
                                    sorted(run.items, key=lambda r: r["item"])]
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="small pools, for the benchmark's own tests")
    ap.add_argument("--write-reference", action="store_true",
                    help="record the digests at the current commit and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gridhit" / "__init__.py").is_file():
        print(f"error: no gridhit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measure = per_layer if args.trace else end_to_end

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    env = {"git_sha": git_sha(), "python": platform.python_version(),
           "nproc": os.cpu_count()}
    for workload in workloads:
        runs, values, info = measure(workload, args.seed, args.seconds,
                                     args.tiny)
        for r in runs:
            r.report_failures(workload)
        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        result["attempted"] += attempted
        result["failed"] += failed
        if values is None or failed:
            result["correct"] = False
        if values is None:
            print(f"# {workload}: no result", file=sys.stderr)
            continue
        env["kernel_backend"] = info["kernel_backend"]
        print(f"# {workload}: {info['note']}")
        prefix = f"{workload}." if args.workload == "all" else ""
        for m in wanted:
            result["metrics"][prefix + m["name"]] = {"value": values[m["name"]],
                                                     "unit": m["unit"]}
    print(f"# env: {json.dumps(env)}")
    if result["attempted"] == 0:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
