"""Benchmark of the hydrohist library: one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload transport --seed 1 --seconds 25 --trace 0

Workloads: ``transport``, ``hydro-peaking``, ``histories-dense`` (see
``perfbench/README.md``).  The run builds nothing: it imports hydrohist from
the checkout's ``src/`` in child processes whose BLAS thread count is pinned
to 1.  It times set-up in several fresh processes, then runs the workload in
one more (a closed loop with one client: each task starts when the previous
one ends), checks every task's output, prints each metric with its unit and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Full reports and the traced spans go to
``.perfbench_out/`` in the checkout.  Exit status is 0 when a result was
printed, 1 when the workload could not be measured, 2 for a bad invocation
or a checkout without ``src/hydrohist``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("transport", "hydro-peaking", "histories-dense")

#: one BLAS thread in every benchmark process, on both sides of a comparison
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
#: fresh processes that only set up; the first is a discarded warm-up
#: process, the workload process adds one more sample
SETUP_PROBES = 4
#: wall-clock budget of one run, below the 180 s a run may take
TIME_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("pass_frac", "ratio"))


class BenchError(RuntimeError):
    pass


def _spawn(args, deadline):
    """Run the worker; return (seconds from spawn to READY, final stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT)] + args
    env = dict(os.environ, **PINNED_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    buf, ready = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError("worker exceeded the time limit")
            readable, _, _ = select.select([fd], [], [], left)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            if ready is None and b"READY\n" in buf:
                ready = time.perf_counter() - start
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker exited with status {code}")
    lines = buf.decode().splitlines()
    return ready, lines[-1]


def _quantiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _declared_metrics():
    """Metric names and units declared in BENCHMARK.json, by trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark one hydrohist workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hydrohist" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/hydrohist to benchmark",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup, warmup_setup = [], None
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(_spawn(common + ["--setup-only"], deadline)[0])
            warmup_setup = setup.pop(0)
        ready, line = _spawn(common + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)], deadline)
        setup.append(ready)
        result = json.loads(line)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    all_passes = ([result["warmup"]] + result["passes"]
                  + result["traced_passes"])
    records = [r for p in all_passes for r in p["tasks"]]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    walls = [p["wall_s"] for p in result["passes"]]
    cpus = [p["cpu_s"] for p in result["passes"]]

    if args.trace:
        metrics = result["layer_metrics"]
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
            "pass_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END}
    declared = _declared_metrics()[args.trace]
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        print("error: emitted metrics differ from BENCHMARK.json: "
              f"{sorted(set(emitted.items()) ^ set(declared.items()))}",
              file=sys.stderr)
        return 1

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs sha256 {result['inputs_sha256'][:16]}")
    print(f"environment: {env['nproc']} cpus ({env['cpu_model']}), "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, BLAS threads "
          f"{[lib.get('threads') for lib in env['blas_libraries']]}")
    lo, hi = _quantiles(walls)
    sys_share = (sum(p["sys_s"] for p in result["passes"])
                 / sum(p["cpu_s"] for p in result["passes"]))
    print(f"passes: {len(walls)} timed after a warm-up; wall quartiles "
          f"{lo:.3f} / {hi:.3f} s; system share of CPU {sys_share:.0%}; "
          f"set-up samples {', '.join(f'{s:.3f}' for s in setup)} s")
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['task']}: {r['detail']}")
    print(f"fail_frac = {failed / attempted:.4f} ({failed} of {attempted} "
          "tasks failed)")
    for name, m in metrics.items():
        print(f"{name:<56} {m['value']:>16.6g} {m['unit']}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    report = dict(result, setup_samples=setup,
                  setup_warmup_sample=warmup_setup, metrics=metrics,
                  attempted=attempted, failed=failed, seed=args.seed,
                  workload=args.workload, seconds=args.seconds)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
