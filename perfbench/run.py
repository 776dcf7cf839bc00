"""The forestmaps benchmark.

    python3 perfbench/run.py --workload {symbolic,specialized,numeric} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Rounds of the workload's task list run one after another, each in a fresh
interpreter (``worker.py``), as long as another round fits in
``--seconds``; every round is a whole, so each run attempts whole rounds.
Before each round, set-up is timed three times as a fresh interpreter that
imports what the workload calls and builds the round's inputs.  The seed
and the round index choose the inputs.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics (medians over rounds); with ``--trace 1`` each round
runs untraced and then traced on the same inputs, and the object holds the
per-layer metrics of the traced rounds and the tracing overhead.  Metric
names and units come from BENCHMARK.json.  Per-round details, the
environment and the full traces go to ``.perfbench/``.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUPS_PER_ROUND = 3
WORKER_TIMEOUT_S = 150


def spawn(workload: str, seed: int, index: int, trace=False, setup_only=False):
    """Run one worker to its end; returns (its parsed JSON line or None, seconds)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--round", str(index)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("worker %s failed (exit %d):\n%s"
                           % (" ".join(cmd[2:]), proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines and not setup_only else None), elapsed


def environment() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import mpmath
    import numpy
    from forestmaps import exact

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "HAVE_GMPY2": exact.HAVE_GMPY2,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))
    if not (ROOT / "src" / "forestmaps" / "__init__.py").is_file():
        print("perfbench: no src/forestmaps in %s; run from a checkout" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup, rounds, traced, took = [], [], [], []
    start = time.perf_counter()
    # whole rounds only, and none that would end past --seconds (but at least one)
    while not took or time.perf_counter() - start + max(took) <= args.seconds:
        t0 = time.perf_counter()
        if args.trace:
            rounds.append(spawn(args.workload, args.seed, len(took))[0])
            traced.append(spawn(args.workload, args.seed, len(took), trace=True)[0])
        else:
            # set-up samples are spread over the run, as the rounds are
            setup += [spawn(args.workload, args.seed, len(took), setup_only=True)[1]
                      for _ in range(SETUPS_PER_ROUND)]
            rounds.append(spawn(args.workload, args.seed, len(took))[0])
        took.append(time.perf_counter() - t0)

    done = rounds + traced
    attempted = sum(r["attempted"] for r in done)
    failed = sum(len(r["failures"]) for r in done)
    errors = [e for r in done for e in r["errors"]]
    median = statistics.median
    if args.trace:
        values = {m["name"]: median(t["trace"]["stats"][m["name"]] for t in traced)
                  for m in spec["per_layer"] if m["name"] != "tracing_overhead_s"}
        values["tracing_overhead_s"] = median(t["wall_s"] - r["wall_s"]
                                              for r, t in zip(rounds, traced))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": median(setup),
            "wall_s": median(r["wall_s"] for r in rounds),
            "cpu_s": median(r["cpu_s"] for r in rounds),
            "task_p50_s": median(t for r in rounds for t in r["task_s"].values()),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    detail = dict(vars(args), environment=environment(), setup_s=setup,
                  threads=[r["threads"] for r in rounds], rounds=rounds, traced=traced,
                  errors=errors, result=result)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (out / name).write_text(json.dumps(detail, indent=1) + "\n")
    for r in done:
        for task, why in r["failures"].items():
            print("failed: round %d %s: %s" % (r["round"], task, why.strip()), file=sys.stderr)
    for e in errors:
        print("check: %s" % e, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
