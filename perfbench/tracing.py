"""Outside-in span tracer for giantqed's public calls.

The tracer replaces a fixed set of public callables with timing wrappers,
at every name a caller binds them under (module globals such as
``giantqed.cli.integrate_with_drive`` as well as the defining module, and
methods on their class).  Each wrapped call records one span: name, start,
end, parent span, task and a work figure (steps, ω-node pairs, grid cells,
bytes ...).  Spans live in flat arrays in memory and are summarised per
pass; ``save`` writes them once at the end of a run.

Nothing here edits giantqed: ``install`` patches the live modules of this
process and ``uninstall`` restores every original object.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

import numpy as np

MODULES = ("model", "dde", "analytic", "spectral", "bic", "field", "cli")


def _steps(args, kwargs, result):
    return len(result.t) - 1


def _drive_kind(args, kwargs):
    """Span name of integrate_with_drive: static for a one-segment schedule."""
    schedule = kwargs.get("schedule", args[3] if len(args) > 3 else None)
    if len(schedule.omegas) == 1:
        return "dde.integrate.static"
    return "dde.integrate.driven"


def _pairs(args, kwargs, result):
    """Trajectory nodes swept times ω points, computed from the inputs."""
    traj = args[0]
    omega = np.asarray(kwargs.get("omega_grid", args[1] if len(args) > 1 else None))
    t = kwargs.get("t", args[2] if len(args) > 2 else None)
    last = max(traj.nearest_index(float(tv)) for tv in np.atleast_1d(t))
    return (last + 1) * omega.size


def _branches(args, kwargs, result):
    return len(result.branches)


def _points(args, kwargs, result):
    return np.size(kwargs.get("t", args[1] if len(args) > 1 else None))


def _cells(args, kwargs, result):
    """nt * nx * legs * directions of one real-space collapse."""
    config = args[1] if len(args) > 1 else kwargs["config"]
    return result.t.size * result.x.size * 2 * config.n_legs * 2


# (layer, module, attribute path, work figure[, span name or function
# giving it]); a layer may repeat.  The spans without a metric of their own
# (scan_decay_rates, released_energy, bic_field_profile) keep their time
# out of cli.main's self time.
TARGETS = (
    ("model.delay_table", "model", "delay_table", None),
    ("analytic.laplace_denominator", "analytic", "laplace_denominator", None),
    ("analytic.laplace_denominator_derivative", "analytic",
     "laplace_denominator_derivative", None),
    ("spectral.scan_decay_rates", "spectral", "scan_decay_rates", None),
    ("spectral.connected_pole", "spectral", "connected_pole", None),
    ("dde.integrate", "dde", "integrate", _steps, "dde.integrate.static"),
    ("dde.integrate", "dde", "integrate_with_drive", _steps, _drive_kind),
    ("dde.field_amplitudes", "dde", "field_amplitudes", _pairs),
    ("analytic.exact_solution", "analytic", "exact_solution", _branches),
    ("analytic.evaluate", "analytic", "ExpPolySolution.evaluate", _points),
    ("field.fdd", "field", "fdd", _cells),
    ("field.detector_signal", "field", "detector_signal", None),
    ("field.released_energy", "field", "released_energy", None),
    ("bic.field_norm", "bic", "field_norm", None),
    ("bic.bic_field_profile", "bic", "bic_field_profile", None),
    ("cli.main", "cli", "main", None),
    ("cli.write", "dde", "to_csv", None),
    ("cli.write", "spectral", "DecayRateScan.to_csv", None),
    ("cli.write", "field", "FieldGrid.to_csv", None),
    ("cli.write", "field", "DetectorRecord.to_csv", None),
    ("cli.write", "bic", "FieldProfile.to_csv", None),
    ("cli.write", "cli", "RunManifest.write", None),
)

# k points evaluated inside bic.field_norm, counted on the enclosing span
POINT_COUNTERS = (("bic.field_norm", "bic", "BicState.intensity"),)


class _TracedFile:
    """File proxy that closes its ``cli.write`` span and counts bytes."""

    def __init__(self, tracer, fh, rec):
        self._tracer, self._fh, self._rec = tracer, fh, rec

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if self._rec is None:
            return
        self._rec[5] = self._fh.tell()
        self._fh.close()
        self._rec[4] = perf_counter()
        self._tracer._stack.pop()
        self._rec = None


class Tracer:
    """Span recorder plus the patch set that feeds it.

    A span is the list [name, parent index, task, start, end, work]; the
    open spans form a stack of (layer, index).  ``finish_pass`` turns the
    pass's spans into arrays and summarises them.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.config_log: list = []
        self.current_task = -1
        self.missing: list[str] = []
        self._stack: list[tuple[str, int]] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._saved: list[dict[str, np.ndarray]] = []

    def _open(self, name: str, layer: str) -> list:
        stack = self._stack
        rec = [name, stack[-1][1] if stack else -1, self.current_task,
               0.0, 0.0, 0.0]
        stack.append((layer, len(self.spans)))
        self.spans.append(rec)
        rec[3] = perf_counter()
        return rec

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, layer: str, work, name=None):
        tracer = self
        log_config = layer == "model.delay_table"
        kind = name if callable(name) else None
        name = layer if name is None or kind else name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            # untimed checks run with no task; a call nested in a span of
            # the same layer (integrate -> integrate_with_drive) is one span
            if tracer.current_task < 0 or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            if log_config:
                tracer.config_log.append(args[0] if args else kwargs["config"])
            rec = tracer._open(kind(args, kwargs) if kind else name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if work is not None:
                rec[5] = work(args, kwargs, result)
            return result
        return traced

    def _point_counter(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def counted(self_, k):
            for open_layer, idx in reversed(tracer._stack):
                if open_layer == layer:
                    tracer.spans[idx][5] += np.size(k)
                    break
            return fn(self_, k)
        return counted

    def _open_wrapper(self):
        tracer = self

        def traced_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            if not any(c in mode for c in "wax") or tracer.current_task < 0:
                return fh
            return _TracedFile(tracer, fh, tracer._open("cli.write", "cli.write"))
        return traced_open

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, new, existed: bool = True) -> None:
        self._patches.append((owner, attr, getattr(owner, attr, None), existed))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every binding of every target in the giantqed modules."""
        self.missing = []
        mods = {m: importlib.import_module(f"giantqed.{m}") for m in MODULES}
        namespaces = [importlib.import_module("giantqed"), *mods.values()]
        for layer, mod, path, work, *name in TARGETS:
            owner, attr = self._resolve(mods[mod], path)
            if owner is None:
                self.missing.append(f"{mod}.{path}")
                continue
            original = vars(owner)[attr]
            wrapped = self._span_wrapper(original, layer, work, *name)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for binding, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, binding, wrapped)
        for layer, mod, path in POINT_COUNTERS:
            owner, attr = self._resolve(mods[mod], path)
            if owner is None:
                self.missing.append(f"{mod}.{path}")
                continue
            self._patch(owner, attr, self._point_counter(vars(owner)[attr], layer))
        traced_open = self._open_wrapper()
        for mod in mods.values():
            self._patch(mod, "open", traced_open, existed="open" in vars(mod))

    @staticmethod
    def _resolve(module, path: str):
        owner = module
        *heads, attr = path.split(".")
        for head in heads:
            owner = getattr(owner, head, None)
            if owner is None:
                return None, None
        if attr not in vars(owner):
            return None, None
        return owner, attr

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original, existed = self._patches.pop()
            if existed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- summaries -----------------------------------------------------------

    def finish_pass(self, pass_no: int) -> tuple[dict, int]:
        """Summarise and store this pass's spans; start the next pass empty.

        Returns per span name the calls, total and self seconds and summed
        work, plus the number of distinct configs given to delay_table.
        """
        spans, self.spans = self.spans, []
        configs, self.config_log = len(set(self.config_log)), []
        n = len(spans)
        names = sorted({rec[0] for rec in spans})
        nid = {name: i for i, name in enumerate(names)}
        a = {"name": np.array([nid[r[0]] for r in spans], dtype=np.int32),
             "parent": np.array([r[1] for r in spans], dtype=np.int64),
             "task": np.array([r[2] for r in spans], dtype=np.int32),
             "start": np.array([r[3] for r in spans], dtype=float),
             "end": np.array([r[4] for r in spans], dtype=float),
             "work": np.array([r[5] for r in spans], dtype=float)}
        self._saved.append({f"pass{pass_no}_{k}": v for k, v in a.items()}
                           | {f"pass{pass_no}_names": np.array(names)})
        if n == 0:
            return {}, configs
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        self_s = dur - child
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(names):
            m = a["name"] == i
            out[name] = {"calls": int(m.sum()),
                         "total_s": float(dur[m].sum()),
                         "self_s": float(self_s[m].sum()),
                         "work": float(a["work"][m].sum())}
        return out, configs

    def save(self, path: str) -> None:
        """Write every traced pass's spans, once, as one .npz file."""
        merged: dict[str, np.ndarray] = {}
        for arrays in self._saved:
            merged.update(arrays)
        np.savez_compressed(path, **merged)
