"""Benchmark worker: one process that runs one workload against ``src/``.

Started by ``run.py`` with the BLAS thread count pinned in its environment.
It imports hydrohist from the checkout's ``src/``, draws the workload's
inputs from the seed, writes and validates the scenario configs, and prints
``READY`` once the first task could start (the end of set-up).  With
``--setup-only`` it stops there.  Otherwise it runs a discarded warm-up
(see ``run_warmup``), then timed passes for about ``--seconds``, and prints one JSON line with the per-pass timings and task verdicts.  With
``--trace 1`` every task of a timed pass runs once untraced and once traced,
back to back, and the JSON carries the per-layer metrics of the traced runs.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import tracer as tracing

#: environment variables that pin the BLAS thread count (set by run.py)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the warm-up ends at the first task boundary after this many seconds
WARMUP_S = 5.0


def _cpu_seconds():
    """(user + system, system) CPU seconds of this process so far."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime, r.ru_stime


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _run_task(index, task, tracer=None):
    """Run one task in its own ``try``; a crash is a failed task."""
    if tracer is not None:
        tracer.task_index, tracer.task = index, task
    (cpu0, sys0), start = _cpu_seconds(), time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ok, detail = task.run()
        except (Exception, SystemExit):
            ok, detail = False, traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start
    cpu, sys_cpu = _cpu_seconds()
    if tracer is not None:
        if task.out_dir is not None:
            tracer.counters["scenarios.artifact_bytes"] += _dir_bytes(
                task.out_dir)
        tracer.task_index, tracer.task = -1, None
    return {"task": task.name, "ok": bool(ok), "s": seconds,
            "cpu_s": cpu - cpu0, "sys_s": sys_cpu - sys0, "detail": detail,
            "warnings": len(caught)}


def _pass(records):
    return {"wall_s": sum(r["s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "sys_s": sum(r["sys_s"] for r in records),
            "tasks": records}


def run_pass(tasks):
    """Run the task list once, untraced."""
    return _pass([_run_task(i, task) for i, task in enumerate(tasks)])


def run_warmup(tasks):
    """Discarded warm-up: the task list once, cut at the first task boundary
    after ``WARMUP_S`` so that a workload of long tasks does not spend a
    whole pass on it (their first-run cost is small against their length)."""
    records, start = [], time.perf_counter()
    for index, task in enumerate(tasks):
        records.append(_run_task(index, task))
        if time.perf_counter() - start >= WARMUP_S:
            break
    return _pass(records)


def run_paired_pass(tasks, tracer):
    """Run each task untraced and traced back to back.

    Pairing at task level lets the shared machine's drift hit both sides
    alike; the order alternates from task to task.  Returns the untraced
    and the traced pass.
    """
    plain, traced = [], []
    for index, task in enumerate(tasks):
        for use_tracer in ((False, True) if index % 2 == 0 else (True, False)):
            if not use_tracer:
                plain.append(_run_task(index, task))
                continue
            tracer.install()
            try:
                traced.append(_run_task(index, task, tracer))
            finally:
                tracer.uninstall()
    return _pass(plain), _pass(traced)


def _blas_libraries():
    """Loaded OpenBLAS builds and the thread count each reports."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower() and path.endswith(".so"):
                    paths.add(path)
    except OSError:
        return []
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and "threads" not in info:
                    getter.restype = ctypes.c_int
                    info["threads"] = getter()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        out.append(info)
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _cache_sizes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    sizes = {}
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": _blas_libraries(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
    }


def measure(tasks, seconds, tracer, out_dir, label):
    """Warm-up, then timed passes for about ``seconds``.

    Another pass starts only while it brings the measured time closer to
    ``seconds``, judged by the last pass; there is always one.  With a
    ``tracer``, every timed pass is paired with a traced one.
    """
    warmup = run_warmup(tasks)
    start = time.perf_counter()
    passes, traced = [], []
    while True:
        pass_start = time.perf_counter()
        if tracer is None:
            passes.append(run_pass(tasks))
        else:
            plain, with_spans = run_paired_pass(tasks, tracer)
            passes.append(plain)
            traced.append(with_spans)
        now = time.perf_counter()
        if now - start + 0.5 * (now - pass_start) >= seconds:
            break
    result = {"warmup": warmup, "passes": passes, "traced_passes": traced}
    if tracer is not None:
        result["layer_metrics"] = tracing.layer_metrics(
            tracer.spans, tracer.counters, tasks, len(traced),
            statistics.median(p["wall_s"] for p in passes),
            statistics.median(p["wall_s"] for p in traced))
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{label}.json"
        spans_path.write_text(json.dumps({
            "tasks": [t.name for t in tasks],
            "fields": ["name", "start", "end", "parent", "task", "path"],
            "spans": tracer.spans}))
        result["spans_file"] = str(spans_path)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import hydrohist

    if Path(hydrohist.__file__).resolve().parent != src / "hydrohist":
        print(f"error: hydrohist imported from {hydrohist.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import workloads

    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        inputs = workloads.make_inputs(args.workload, args.seed)
        tasks = workloads.build_tasks(args.workload, inputs, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            tracer = tracing.Tracer({name: importlib.import_module(
                f"hydrohist.{name}") for name in tracing.LAYERS})
        result = measure(tasks, args.seconds, tracer, root / ".perfbench_out",
                         f"{args.workload}-seed{args.seed}")
        result["inputs"] = inputs
        result["inputs_sha256"] = hashlib.sha256(
            json.dumps(inputs, sort_keys=True).encode()).hexdigest()
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = environment()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
