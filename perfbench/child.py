"""One benchmark process: set up a workload, run its items, print JSON lines.

run.py starts this file in fresh interpreters, one at a time, with
``PYTHONPATH`` pointing at the checkout's ``src``.  Every line on stdout
is one JSON object: ``{"item": ...}`` per attempted item, then a final
``{"done": ...}``.

Each workload is a fixed pool of items.  The seed only shuffles the order
of every pass over the pool, and the loop stops at the first pass boundary
after ``--seconds`` (or after ``--passes`` passes), so every run does whole
passes of the same work.
Random instances would not do: the branch-and-bound cost of random dense
instances is heavy-tailed (one of the 60 run-dense instances takes about
60 times the median), so the throughput of a 30-second run would depend
more on the seed than on the code.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import random
import resource
import shutil
import signal
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ITEM_LIMIT_S = 60  # an item slower than this counts as failed
SHAPES = ("ball", "cube", "box")

# Forcing games as (d, log2 N, shape).  At the commit that added the
# benchmark a pass takes about 3.7 s for the ball half and 5.3 s for the
# cube and box half, so neither hides the other.
GAMES = (
    *((2, k, "ball") for k in range(12, 19)),
    *((3, k, "ball") for k in range(5, 10)),
    *((2, k, "cube") for k in range(64, 225, 32)),
    *((3, k, "cube") for k in range(64, 225, 32)),
    *((3, k, "box") for k in range(128, 513, 64)),
)
TINY_GAMES = (
    *((2, k, "ball") for k in range(4, 9)), *((3, k, "ball") for k in (3, 4, 5)),
    (2, 16, "cube"), (2, 32, "cube"), (3, 16, "cube"),
    (3, 16, "box"), (3, 32, "box"),
)


def instance_params(workload: str, tiny: bool) -> list[dict]:
    """gen_random arguments for the pool of a run-* workload."""
    if workload == "run-large":
        # Objects of log-uniform width up to N: cost grows with their area.
        if tiny:
            return [dict(d=2, N=32, count=8, seed=i, min_width=1, max_width=32)
                    for i in range(12)]
        return [dict(d=2, N=n, count=30, seed=i, min_width=1, max_width=n)
                for i in range(48) for n in [(128, 192, 256)[i % 3]]]
    # run-dense: many small overlapping objects, so branch and bound dominates.
    if tiny:
        return [dict(d=2, N=16, count=12, seed=i, min_width=2, max_width=5)
                for i in range(12)]
    return [dict(d=2, N=40 + i % 9, count=80, seed=i, min_width=6, max_width=16)
            for i in range(60)]


class ItemTimeout(BaseException):
    """Raised by SIGALRM inside an item that ran past ITEM_LIMIT_S."""


def _alarm(signum, frame):
    raise ItemTimeout()


class Workload:
    """The item pool of one workload and the checks on each item's result."""

    def __init__(self, name: str, tiny: bool, workdir: Path):
        from gridhit import exactnum, formats, harness

        self.name = name
        self.formats = formats
        self.harness = harness
        if name == "game":
            self.pool = list(TINY_GAMES if tiny else GAMES)
            self.keys = [" ".join(map(str, game)) for game in self.pool]
            return
        alpha = exactnum.sqrt_exact(2)
        self.pool, self.keys = [], []
        for k, params in enumerate(instance_params(name, tiny)):
            path = workdir / f"instance-{k}.jsonl"
            formats.write_instance(harness.gen_random(
                fatness=alpha, shapes=SHAPES, **params), path)
            self.pool.append(formats.read_instance(path))
            self.keys.append(hashlib.sha256(path.read_bytes()).hexdigest())

    def run(self, item):
        if self.name == "game":
            d, log_n, shape = item
            summary, report = self.harness.run_adversary(d, 1 << log_n, shape)
            return report, summary
        return self.harness.run_online(item), None

    def problem(self, report, summary):
        """Why the result is wrong, or None."""
        if summary is None:
            if not report.opt_exact:
                return "optimum not certified"
            if report.within_bound is not True:
                return "ratio above the bound"
            return None
        if not summary.forced_minimum_met:
            return "forced minimum not met"
        if report.opt_size != 1:
            return f"offline optimum {report.opt_size} != 1"
        return None

    def digest(self, index, report, summary) -> str:
        """Digest of the item (the game, or the SHA-256 of the instance
        file) and its canonical report, plus the game summary."""
        dumps, to_json = self.formats.dumps, self.formats.scalar_to_json
        text = self.keys[index] + "\n" + dumps(report.to_json())
        if summary is not None:
            text += "\n" + dumps({
                "steps": summary.steps,
                "points_per_step": list(summary.points_per_step),
                "total_points": summary.total_points,
                "forced_minimum_met": summary.forced_minimum_met,
                "certificate": list(summary.certificate),
                "final_width": None if summary.final_width is None
                else to_json(summary.final_width),
            })
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def attempt(self, index: int, reference, tracer) -> dict:
        """Run one item under the time limit and check its result."""
        rec = {"item": index, "ok": False}
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
        try:
            with tracer.span("item") if tracer is not None else nullcontext():
                report, summary = self.run(self.pool[index])
                # The kernels' self-recursive closures keep their point lists
                # in reference cycles.  Collecting them here charges each
                # item for its own garbage, and keeps the peak memory from
                # depending on when the collector last ran.
                gc.collect()
            rec["s"] = time.perf_counter() - t0
        except ItemTimeout:
            rec.update(s=time.perf_counter() - t0, why="time limit")
            return rec
        except Exception as exc:  # a crashing item is a failed item
            rec.update(s=time.perf_counter() - t0,
                       why=f"{type(exc).__name__}: {exc}")
            return rec
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec["digest"] = self.digest(index, report, summary)
        why = self.problem(report, summary)
        if why is None and reference is not None \
                and reference[index] != rec["digest"]:
            why = "report differs from the reference digest"
        rec.update(ok=why is None, why=why, objects=report.object_count,
                   already_hit=report.already_hit, added=report.alg_size)
        return rec


def kernel_backend() -> str:
    if importlib.util.find_spec("gridhit.kernels") is None:
        return "none"
    return importlib.import_module("gridhit.kernels").BACKEND


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=("run-large", "run-dense", "game"))
    ap.add_argument("--mode", required=True,
                    choices=("run", "trace", "reference"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes instead of --seconds")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import gridhit

    src = (ROOT / "src").resolve()
    if src not in Path(gridhit.__file__).resolve().parents:
        print(f"error: gridhit was imported from {gridhit.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    workdir = ROOT / "perfbench" / ".work"
    workdir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=workdir))
    try:
        with tracer.span("setup") if tracer is not None else nullcontext():
            wl = Workload(args.workload, args.tiny, tmp)
    finally:
        shutil.rmtree(tmp)
    # The pool lives for the whole run: keep it out of every collection, as
    # a single-instance `gridhit run` process would have no such heap.
    gc.freeze()
    setup_s = time.perf_counter() - t0
    done = {"setup_s": setup_s, "kernel_backend": kernel_backend()}

    reference = None
    if args.mode != "reference":
        scale = "tiny" if args.tiny else "full"
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)[scale][args.workload]

    signal.signal(signal.SIGALRM, _alarm)
    if tracer is not None:
        setup_spans = len(tracer)
        done["setup_layers"] = tracer.totals(0, setup_spans)
        tracer.counts.clear()
    rng = random.Random(args.seed)
    passes = 1 if args.mode == "reference" else args.passes
    start = time.perf_counter()
    done_passes = 0
    while True:
        order = list(range(len(wl.pool)))
        rng.shuffle(order)
        for index in order:
            print(json.dumps(wl.attempt(index, reference, tracer)), flush=True)
        done_passes += 1
        if passes and done_passes >= passes:
            break
        if not passes and time.perf_counter() - start >= args.seconds:
            break
    done.update(loop_s=time.perf_counter() - start, passes=done_passes,
                maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        done["layers"] = tracer.totals(setup_spans, len(tracer))
        done["counts"] = dict(tracer.counts)
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}.jsonl")
    print(json.dumps({"done": done}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
