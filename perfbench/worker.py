"""Run one round of a workload in this fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --round R [--trace] [--setup-only]

Imports the package from ``src/`` of the checkout, builds the round's
inputs, runs its tasks one after another (closed loop, one caller), then
checks every output.  Prints one JSON line: wall and CPU time of the task
list, per-task times, peak RSS, task failures, check errors and, with
``--trace``, the per-layer statistics.  With ``--setup-only`` it stops
after building the inputs; ``run.py`` times that whole process as set-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    if not (SRC / "forestmaps" / "__init__.py").is_file():
        raise SystemExit("perfbench: no src/forestmaps under %s" % ROOT)
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("forestmaps")
    if Path(pkg.__file__).resolve().parent != SRC / "forestmaps":
        raise SystemExit("perfbench: imported forestmaps from %s, not %s"
                         % (pkg.__file__, SRC))


def thread_count() -> int:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading
    return threading.active_count()


def run_task(task, out_dir: Path):
    """Run one task; returns (output, None) or (None, failure message)."""
    if task.target == "cli":
        from forestmaps import cli

        path = out_dir / (task.name + ".json")
        try:
            cli.main(["--output", str(path)] + list(task.args))
        except SystemExit as exc:
            if exc.code not in (0, None):
                return None, "exit %s" % exc.code
        return path, None
    module, name = task.target.split(".")
    fn = getattr(importlib.import_module("forestmaps." + module), name)
    return fn(*task.args), None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads

    import_package()
    for name in workloads.MODULES[args.workload]:
        importlib.import_module("forestmaps." + name)
    rnd = workloads.build_round(args.workload, args.seed, args.round)
    out_dir = ROOT / ".perfbench" / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    outputs, task_s, failures = {}, {}, {}
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for task in rnd.tasks:
        t0 = time.perf_counter()
        try:
            out, failure = run_task(task, out_dir)
        except Exception:  # a failed task is counted, the round goes on
            out, failure = None, traceback.format_exc(limit=3)
        task_s[task.name] = time.perf_counter() - t0
        if failure is None:
            outputs[task.name] = out
        else:
            failures[task.name] = failure
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    threads = thread_count()
    stats = tracer.snapshot() if tracer else None
    if tracer:
        tracer.uninstall()

    import checks

    errors = checks.check_round(rnd, outputs)
    print(json.dumps({
        "round": args.round,
        "traced": args.trace,
        "wall_s": wall,
        "cpu_s": cpu,
        "task_s": task_s,
        "peak_rss_mb": peak_rss_mb,
        "threads": threads,
        "attempted": len(rnd.tasks),
        "failures": failures,
        "errors": errors,
        "params": {k: str(v) for k, v in rnd.params.items()},
        "trace": stats,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
