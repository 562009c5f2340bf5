"""giantqed benchmark: three workloads, timed from outside the package.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload runs in a fresh Python process (``worker.py``) that imports
giantqed from ``src/`` of this checkout, with BLAS/OpenMP pinned to one
thread.  Set-up time is measured from process start to the first task
being ready, over several fresh processes, and reported as the median.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of the traced run,
whose passes alternate untraced and traced.  The line before it
(``perfbench-report {...}``) holds the full report: every end-to-end
metric with unit and sample count, failed checks, the seed, the
environment and, when traced, the per-layer figures and self-checks.

``correct`` is false when any check fails, except checks of tasks listed
in ``workloads.KNOWN_DEFECTS``; those still run, are printed and count in
``fail_frac``.  The process exits non-zero, without a result line, when
the checkout holds no giantqed sources or a workload process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("cli", "dark-dynamics", "mode-sum")
SETUP_PROBES = 4           # set-up-only processes before the measured one
BLAS_THREADS = 1
# glibc otherwise raises its mmap threshold as large arrays are freed and
# keeps later mid-size ones on the heap; how much it keeps depends on the
# order of allocation sizes (so on the seed), by up to 100 MB on mode-sum
MEMORY_PROBE_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 20)}
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _start(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its set-up time (start to ready)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             *args], stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "PERFBENCH_READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (printed {line!r})")
    return proc, setup


def _finish(proc: subprocess.Popen, workload: str) -> str:
    """Wait for a started worker; kill it if it overruns.  Returns stdout."""
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return stdout


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work_dir = os.path.join(OUT, workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = _child_env()
    base = ["--workload", workload, "--seed", str(seed), "--work-dir", work_dir]
    setups = []
    try:
        for _ in range(SETUP_PROBES):
            proc, setup = _start(base + ["--mode", "setup"], env)
            _finish(proc, workload)
            setups.append(setup)
        proc, _ = _start(base + ["--mode", "memory"],
                         env | MEMORY_PROBE_ENV)
        memory = json.loads(_finish(proc, workload).strip().splitlines()[-1])
        trace_file = os.path.join(OUT, f"trace-{workload}-seed{seed}.npz")
        proc, setup = _start(base + ["--seconds", str(seconds),
                                     "--trace", str(trace),
                                     "--trace-file", trace_file], env)
        setups.append(setup)
        stdout = _finish(proc, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = json.loads(stdout.strip().splitlines()[-1])
    if not os.path.abspath(result["giantqed_file"]).startswith(SRC + os.sep):
        raise BenchError(f"giantqed imported from {result['giantqed_file']}, "
                         f"not from {SRC}")
    result["setups"] = setups
    result["peak_rss_mb"] = memory["peak_rss_mb"]
    return result


def _environment(result: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "giantqed")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": result["numpy"], "blas": result["blas"],
            "blas_threads": BLAS_THREADS, "git_commit": commit,
            "source_sha256": digest.hexdigest()[:16]}


def _pick(values: dict, declared: list[dict]) -> dict:
    """The metrics ``BENCHMARK.json`` declares, with its units."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"declared metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def summarize(workload: str, seed: int, trace: int, result: dict,
              spec: dict) -> dict:
    """Turn one worker result into the report and the result line."""
    passes = result["passes"]
    plain = [i for i, f in enumerate(result["traced"]) if not f]
    task_times = {name: [ts[i] for i in plain]
                  for name, ts in result["task_times"].items()}
    walls = [result["walls"][i] for i in plain]
    attempted = passes * len(task_times)
    failed_runs = {(f["pass"], f["task"]) for f in result["failures"]}
    blocking = {(f["pass"], f["task"]) for f in result["failures"]
                if not f["known_defect"]}
    medians = {name: _median(ts) for name, ts in task_times.items()}

    def metric(value, unit, n):
        return {"value": value, "unit": unit, "n": n}

    e2e = {
        "setup_s": metric(_median(result["setups"]), "s", len(result["setups"])),
        "wall_s": metric(_median(walls), "s", len(walls)),
        "task_geomean_s": metric(
            math.exp(statistics.fmean(math.log(max(m, 1e-12))
                                      for m in medians.values())),
            "s", len(walls)),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB", 1),
        "fail_frac": metric(len(failed_runs) / attempted, "1", attempted),
    }
    for name in result["all_task_metrics"]:
        e2e[name] = (metric(medians[name], "s", len(task_times[name]))
                     if name in medians else {"produced": False})

    self_ok = True
    report = {"workload": workload, "seed": seed, "trace": trace,
              "passes": passes, "end_to_end": e2e,
              "samples": {"wall_s": walls, **task_times},
              "tail_percentiles": "none: fewer than ten samples beyond p90",
              "failures": result["failures"],
              "known_defects": result["known_defects"],
              "digests": result["digests"],
              "environment": _environment(result)}
    if trace:
        checks = result["self_checks"]
        self_ok = checks["counts_repeat"] and checks["self_le_wall"]
        layers = result["layers"]
        metrics = _pick(layers, spec["per_layer"])
        overhead = layers["trace.overhead_s"]
        untraced = _median(checks["untraced_walls"])
        report.update({
            "per_layer": metrics,
            "not_produced": sorted(k for k, v in layers.items()
                                   if v == 0 and k != "trace.overhead_s"),
            "trace_overhead": {"seconds": overhead,
                               "fraction": overhead / untraced if untraced else 0.0},
            "self_checks": checks, "spans_first_traced_pass": result["layer_spans"],
        })
    else:
        metrics = _pick({k: m["value"] for k, m in e2e.items()
                         if m.get("produced", True)}, spec["end_to_end"])
    line = {"correct": not blocking and self_ok, "attempted": attempted,
            "failed": len(blocking), "metrics": metrics}
    return {"report": report, "line": line}


def _print_human(out: dict) -> None:
    rep = out["report"]
    print(f"perfbench workload={rep['workload']} seed={rep['seed']} "
          f"trace={rep['trace']} passes={rep['passes']}")
    for name, m in rep["end_to_end"].items():
        if m.get("produced", True):
            print(f"  {name:24s} {m['value']:12.6g} {m['unit']:3s} n={m['n']}")
    for name, m in rep.get("per_layer", {}).items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    if rep["trace"]:
        oh = rep["trace_overhead"]
        print(f"  tracing overhead {oh['seconds']:.4f} s per pass "
              f"({100 * oh['fraction']:.1f}%)")
    for f in rep["failures"]:
        tag = "known defect" if f["known_defect"] else "FAILED"
        print(f"  [{tag}] pass {f['pass']} {f['task']}: {f['check']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "giantqed", "__init__.py")):
        print(f"perfbench: no giantqed sources under {SRC}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    outs = {}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for wl in chosen:
            outs[wl] = summarize(wl, args.seed, args.trace,
                                 run_workload(wl, args.seed, args.seconds,
                                              args.trace), spec)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for out in outs.values():
        _print_human(out)
        print("perfbench-report " + json.dumps(out["report"]))
    if len(outs) == 1:
        line = next(iter(outs.values()))["line"]
    else:
        lines = [o["line"] for o in outs.values()]
        line = {"correct": all(l["correct"] for l in lines),
                "attempted": sum(l["attempted"] for l in lines),
                "failed": sum(l["failed"] for l in lines),
                "metrics": {f"{wl}/{k}": v for wl, o in outs.items()
                            for k, v in o["line"]["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
