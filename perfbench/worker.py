"""One workload in one fresh process; started by run.py, not by hand.

Imports numpy and giantqed, builds the seeded task list and prints the
ready marker (run.py times set-up up to it).  ``--mode setup`` stops there
and ``--mode memory`` runs one unchecked pass and prints its peak RSS.
``--mode run`` then runs passes until the time budget is spent.  A pass runs every task once; each task's call is timed
and its check runs after the clock stops.  With ``--trace 1`` the passes
alternate untraced and traced, so the tracing overhead is measured under
the same conditions.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import giantqed
import tracing
import workloads

READY = "PERFBENCH_READY"


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer_metrics(summaries: list[dict], configs: list[int],
                   traced_wall: list[float], plain_wall: list[float]) -> dict:
    """Per-layer figures: counts from one traced pass, times as medians."""
    first = summaries[0]

    def count(name, key="calls"):
        return first.get(name, {}).get(key, 0)

    def self_s(name):
        return _median([s.get(name, {}).get("self_s", 0.0) for s in summaries])

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    poles = count("spectral.connected_pole")
    den_evals = (count("analytic.laplace_denominator")
                 + count("analytic.laplace_denominator_derivative"))
    out = {
        "model.delay_table.calls": count("model.delay_table"),
        "model.delay_table.calls_per_config":
            ratio(count("model.delay_table"), configs[0]),
        "analytic.laplace_denominator.calls":
            count("analytic.laplace_denominator"),
        "spectral.connected_pole.calls": poles,
        "spectral.connected_pole.self_s": self_s("spectral.connected_pole"),
        "spectral.denominator_evals_per_pole": ratio(den_evals, poles),
    }
    for kind in ("static", "driven"):
        span = f"dde.integrate.{kind}"
        steps = count(span, "work")
        out[f"dde.integrate.{kind}_self_s"] = self_s(span)
        out[f"dde.integrate.{kind}_steps"] = steps
        out[f"dde.integrate.{kind}_step_us"] = ratio(self_s(span), steps, 1e6)
    pairs = count("dde.field_amplitudes", "work")
    out.update({
        "dde.field_amplitudes.self_s": self_s("dde.field_amplitudes"),
        "dde.field_amplitudes.pairs": pairs,
        "dde.field_amplitudes.pair_ns":
            ratio(self_s("dde.field_amplitudes"), pairs, 1e9),
        "analytic.exact_solution.self_s": self_s("analytic.exact_solution"),
        "analytic.exact_solution.branches":
            count("analytic.exact_solution", "work"),
        "analytic.evaluate.self_s": self_s("analytic.evaluate"),
        "analytic.evaluate.points": count("analytic.evaluate", "work"),
        "field.fdd.self_s": self_s("field.fdd"),
        "field.fdd.cells": count("field.fdd", "work"),
        "field.detector_signal.self_s": self_s("field.detector_signal"),
        "bic.field_norm.self_s": self_s("bic.field_norm"),
        "bic.field_norm.points": count("bic.field_norm", "work"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.write.self_s": self_s("cli.write"),
        "cli.write.bytes": count("cli.write", "work"),
        "trace.overhead_s": _median(traced_wall) - _median(plain_wall),
    })
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--trace-file")
    p.add_argument("--mode", choices=("setup", "memory", "run"), default="run")
    args = p.parse_args(argv)

    os.chdir(args.work_dir)                # cli tasks write relative paths
    tasks = workloads.build(args.workload, args.seed, ".")
    print(READY, flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "memory":
        # one pass, unchecked; run.py fixes glibc's mmap threshold here so
        # the peak is the memory the tasks hold, not heap the allocator kept
        for task in tasks:
            task.prepare()
            try:
                task.run()
            except Exception:            # counted by the measured run
                pass
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"peak_rss_mb": rss}), flush=True)
        return 0

    tracer = tracing.Tracer() if args.trace else None
    times = {t.name: [] for t in tasks}
    walls: list[float] = []
    traced_flags: list[bool] = []
    digests: dict[str, str] = {}
    failures: list[dict] = []
    summaries: list[dict] = []
    configs: list[int] = []
    self_le_wall = True
    min_passes = 2 if args.trace else 1
    t_start = perf_counter()
    pass_no = 0
    while True:
        traced = bool(args.trace) and pass_no % 2 == 1
        if traced:
            tracer.install()
        wall = 0.0
        for i, task in enumerate(tasks):
            if traced:
                tracer.current_task = i
            error = None
            task.prepare()
            t0 = perf_counter()
            try:
                out = task.run()
            except Exception as exc:     # a raised task is a counted failure
                error = f"raised {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if traced:
                tracer.current_task = -1
            wall += dt
            times[task.name].append(dt)
            if error is None:
                try:
                    digest, fails = task.check(out)
                except Exception as exc:  # an unreadable output fails its check
                    digest, fails = "", [f"check raised {type(exc).__name__}: {exc}"]
                if digests.setdefault(task.name, digest) != digest:
                    fails.append(f"output digest {digest} differs from "
                                 f"pass 0 ({digests[task.name]})")
            else:
                fails = [error]
            for text in fails:
                failures.append({"pass": pass_no, "task": task.name,
                                 "traced": traced, "check": text,
                                 "known_defect": task.name in workloads.KNOWN_DEFECTS})
            out = None
        walls.append(wall)
        traced_flags.append(traced)
        if traced:
            tracer.uninstall()
            summary, n_configs = tracer.finish_pass(pass_no)
            summaries.append(summary)
            configs.append(n_configs)
            self_total = sum(v["self_s"] for v in summary.values())
            self_le_wall = self_le_wall and self_total <= wall
        pass_no += 1
        elapsed = perf_counter() - t_start
        if pass_no >= min_passes and elapsed + _median(walls) > args.seconds:
            break

    result = {
        "workload": args.workload, "seed": args.seed, "passes": pass_no,
        "traced": traced_flags, "task_times": times, "walls": walls,
        "failures": failures, "digests": digests,
        "known_defects": {k: v for k, v in workloads.KNOWN_DEFECTS.items()
                          if k in times},
        "all_task_metrics": [m for ms in workloads.TASK_METRICS.values()
                             for m in ms],
        "giantqed_file": giantqed.__file__,
        "numpy": np.__version__,
        "blas": _blas_name(),
    }
    if tracer is not None:
        plain = [w for w, f in zip(walls, traced_flags) if not f]
        traced_w = [w for w, f in zip(walls, traced_flags) if f]
        keys = [{k: (v["calls"], v["work"]) for k, v in s.items()}
                for s in summaries]
        result["layers"] = _layer_metrics(summaries, configs, traced_w, plain)
        result["layer_spans"] = summaries[0]
        result["self_checks"] = {
            "counts_repeat": all(k == keys[0] for k in keys)
                             and len(set(configs)) == 1,
            "self_le_wall": self_le_wall,
            "untraced_walls": plain, "traced_walls": traced_w,
            "not_traced": tracer.missing,
        }
        if args.trace_file:
            tracer.save(args.trace_file)
    print(json.dumps(result), flush=True)
    return 0


def _blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):        # the config layout varies by version
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
