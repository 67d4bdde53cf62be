"""Outside-in span tracing of trajplan's layers, and the per-layer metrics.

Spans are recorded by wrappers that the benchmark swaps into trajplan's
namespaces for the duration of a traced run: the module-level names that
callers look up at call time (``trajplan.cemgd.run_cem``,
``trajplan.gradplanner.rollout_batch``, ...) and the ``step`` /
``backward`` / ``reward`` methods of the model classes. No file of the
library changes, and leaving ``installed`` puts every original object back.

A span holds a name, a start, an end, its parent span and a row count
(batch size where the call has one). Spans of one run share the tracer's
run id, stay in memory in flat arrays, and are written out once, after
the measured work has finished.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

# ---------------------------------------------------------------------------
# Spans


class Tracer:
    """In-memory span store; wrappers made by ``wrap`` append to it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.rows = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name, rows=None, observe=None) -> Callable:
        """Return fn wrapped in a span.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``rows(args)`` gives the span's row count (default 1);
        ``observe(counters, args, result)`` records counts from the result.
        """
        fixed_id = self._intern(name) if isinstance(name, str) else None
        stack, perf = self._stack, time.perf_counter
        name_ids, parents, row_counts = self.name_id, self.parent, self.rows
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(fixed_id if fixed_id is not None else self._intern(name(args)))
            parents.append(stack[-1])
            row_counts.append(rows(args) if rows is not None else 1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self):
        """(name ids, parents, rows, starts, ends) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.rows, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path) -> None:
        name_id, parent, rows, start, end = self.arrays()
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 name_id=name_id, parent=parent, rows=rows, start=start, end=end)


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes below zero.
    """
    parent = np.asarray(parent)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children = np.nonzero(parent >= 0)[0]
    children = children[np.lexsort((start[children], parent[children]))]
    current, covered_to = -1, 0.0
    for i in children.tolist():
        p = int(parent[i])
        if p != current:
            current, covered_to = p, float(start[p])
        lo = max(float(start[i]), covered_to)
        hi = min(float(end[i]), float(end[p]))
        if hi > lo:
            out[p] -= hi - lo
            covered_to = hi
    return out


# ---------------------------------------------------------------------------
# Where the wrappers go


def _batch_rows(arg_index):
    def rows(args):
        x = args[arg_index]
        return x.shape[0] if getattr(x, "ndim", 1) > 1 else 1
    return rows


def _plan_name(args):
    return "cemgd.plan.first" if args[0].timestep == 0 else "cemgd.plan.replan"


def _observe_line_search(counters, args, result):
    _, accepted, record, _ = result
    counters["line_search.updates"] += 1
    counters["line_search.accepted"] += int(accepted)
    counters["line_search.trials_needed"] += record.trials_used
    counters["line_search.candidates"] += record.evaluations


@dataclass(frozen=True)
class Patch:
    """One name to swap: ``owner`` is a module path or "module:Class"."""

    owner: str
    attr: str
    span: object
    rows: Callable | None = None
    observe: Callable | None = None


_ROLLOUT_BATCH = dict(span="core.rollout_batch", rows=lambda args: len(args[3]))

PATCHES = [
    Patch("trajplan.harness", "compare_planners", "harness.compare_planners"),
    Patch("trajplan.harness", "run_episode", "harness.run_episode"),
    Patch("trajplan.harness", "write_raw_csv", "harness.write_raw_csv"),
    Patch("trajplan.harness", "plan", _plan_name),
    Patch("trajplan.harness", "run_cem", "cem.run_cem"),
    Patch("trajplan.harness", "rollout", "core.rollout"),
    Patch("trajplan.cemgd", "run_cem", "cem.run_cem"),
    Patch("trajplan.cemgd", "optimize", "gradplanner.optimize"),
    Patch("trajplan.cemgd", "rollout", "core.rollout"),
    Patch("trajplan.cem", "sample", "cem.sample", rows=lambda args: int(args[1])),
    Patch("trajplan.cem", "update_distribution", "cem.update_distribution"),
    Patch("trajplan.cem", "rollout_batch", **_ROLLOUT_BATCH),
    Patch("trajplan.gradplanner", "rollout", "core.rollout"),
    Patch("trajplan.gradplanner", "rollout_batch", **_ROLLOUT_BATCH),
    Patch("trajplan.gradplanner", "reward_gradient", "gradplanner.reward_gradient"),
    Patch("trajplan.gradplanner", "line_search_update", "gradplanner.line_search_update",
          observe=_observe_line_search),
    Patch("trajplan.gradplanner", "optimize", "gradplanner.optimize"),
    Patch("trajplan.dynamics", "fit_mlp", "dynamics.fit_mlp"),
    Patch("trajplan.dynamics:MlpModel", "save_binary", "dynamics.save_binary"),
    Patch("trajplan.dynamics:MlpModel", "load_binary", "dynamics.load_binary"),
] + [
    Patch(f"trajplan.dynamics:{cls}", method, f"dynamics.{method}", rows=_batch_rows(1))
    for cls in ("BarrierDynamics", "CartpoleDynamics", "MlpModel")
    for method in ("step", "backward")
] + [
    Patch(f"trajplan.dynamics:{cls}", method, span, rows=_batch_rows(1))
    for cls in ("QuadraticGoalReward", "CartpoleReward")
    for method, span in (("reward", "dynamics.reward"), ("backward", "dynamics.reward_backward"))
]


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


class installed:
    """Context manager: swap every patch point for a span wrapper, then restore.

    Class attributes are read from the class ``__dict__`` so that a
    classmethod is restored as the same descriptor object it was. A patch
    point whose module, class or attribute no longer exists has no caller
    to trace; it is skipped and listed in ``missing``.
    """

    def __init__(self, tracer: Tracer, patches=PATCHES):
        self.tracer = tracer
        self.patches = patches
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for patch in self.patches:
            try:
                owner = _resolve(patch.owner)
                original = vars(owner)[patch.attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{patch.owner}.{patch.attr}")
                continue
            self._saved.append((owner, patch.attr, original))
            if isinstance(original, classmethod):
                inner = self.tracer.wrap(original.__func__, patch.span, patch.rows, patch.observe)
                setattr(owner, patch.attr, classmethod(inner))
            else:
                setattr(owner, patch.attr,
                        self.tracer.wrap(original, patch.span, patch.rows, patch.observe))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics

# (metric name, unit, better); values are per traced episode unless the
# name is a set-up call (fit_mlp, save_binary, load_binary: per set-up).
PER_LAYER = [
    ("dynamics.step.calls", "count", "lower"),
    ("dynamics.step.rows", "count", "lower"),
    ("dynamics.step.self_s", "s", "lower"),
    ("dynamics.backward.calls", "count", "lower"),
    ("dynamics.backward.self_s", "s", "lower"),
    ("dynamics.reward.calls", "count", "lower"),
    ("dynamics.reward.self_s", "s", "lower"),
    ("dynamics.reward_backward.self_s", "s", "lower"),
    ("dynamics.fit_mlp.s", "s", "lower"),
    ("dynamics.save_binary.s", "s", "lower"),
    ("dynamics.load_binary.s", "s", "lower"),
    ("core.rollout_batch.calls", "count", "lower"),
    ("core.rollout_batch.rows", "count", "lower"),
    ("core.rollout_batch.self_s", "s", "lower"),
    ("core.rollout.calls", "count", "lower"),
    ("core.rollout.calls_under_plan", "count", "lower"),
    ("core.rollout.self_s", "s", "lower"),
    ("cem.run_cem.calls", "count", "lower"),
    ("cem.run_cem.self_s", "s", "lower"),
    ("cem.samples", "count", "lower"),
    ("cem.sample.s", "s", "lower"),
    ("cem.update_distribution.s", "s", "lower"),
    ("gradplanner.optimize.s", "s", "lower"),
    ("gradplanner.reward_gradient.calls", "count", "lower"),
    ("gradplanner.reward_gradient.self_s", "s", "lower"),
    ("gradplanner.line_search_update.calls", "count", "lower"),
    ("gradplanner.line_search_update.self_s", "s", "lower"),
    ("gradplanner.line_search.accept_ratio", "ratio", "higher"),
    ("gradplanner.line_search.useful_trial_ratio", "ratio", "higher"),
    ("cemgd.plan.calls", "count", "lower"),
    ("cemgd.plan.first_s", "s", "lower"),
    ("cemgd.plan.replan_s", "s", "lower"),
    ("cemgd.plan.self_s", "s", "lower"),
    ("harness.run_episode.self_s", "s", "lower"),
    ("harness.write_raw_csv.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

_SETUP_SPANS = ("dynamics.fit_mlp", "dynamics.save_binary", "dynamics.load_binary")


@dataclass
class SpanTotals:
    calls: int = 0
    rows: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def span_totals(tracer: Tracer) -> dict[str, SpanTotals]:
    """Calls, rows, total and self time per span name."""
    name_id, parent, rows, start, end = tracer.arrays()
    own = self_times(parent, start, end)
    dur = end - start
    totals = {}
    for nid, name in enumerate(tracer.names):
        mask = name_id == nid
        totals[name] = SpanTotals(calls=int(mask.sum()), rows=int(rows[mask].sum()),
                                  total_s=float(dur[mask].sum()),
                                  self_s=float(own[mask].sum()))
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(setup: Tracer, episodes: Tracer, n_episodes: int,
                      overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric from a set-up trace and an episode trace."""
    st = span_totals(setup)
    et = span_totals(episodes)
    none = SpanTotals()
    get = lambda name: et.get(name, none)  # noqa: E731
    per = lambda x: x / n_episodes  # noqa: E731

    # The re-evaluation rollouts: core.rollout spans whose parent is a plan call.
    name_id, parent, _, _, _ = episodes.arrays()
    names = np.array(episodes.names + [""])
    parent_names = names[np.where(parent >= 0, name_id[parent], -1)]
    under_plan = int(((names[name_id] == "core.rollout")
                      & np.char.startswith(parent_names, "cemgd.plan.")).sum())

    first, replan = get("cemgd.plan.first"), get("cemgd.plan.replan")
    c = episodes.counters
    values = {
        "dynamics.step.calls": per(get("dynamics.step").calls),
        "dynamics.step.rows": per(get("dynamics.step").rows),
        "dynamics.step.self_s": per(get("dynamics.step").self_s),
        "dynamics.backward.calls": per(get("dynamics.backward").calls),
        "dynamics.backward.self_s": per(get("dynamics.backward").self_s),
        "dynamics.reward.calls": per(get("dynamics.reward").calls),
        "dynamics.reward.self_s": per(get("dynamics.reward").self_s),
        "dynamics.reward_backward.self_s": per(get("dynamics.reward_backward").self_s),
        "core.rollout_batch.calls": per(get("core.rollout_batch").calls),
        "core.rollout_batch.rows": per(get("core.rollout_batch").rows),
        "core.rollout_batch.self_s": per(get("core.rollout_batch").self_s),
        "core.rollout.calls": per(get("core.rollout").calls),
        "core.rollout.calls_under_plan": per(under_plan),
        "core.rollout.self_s": per(get("core.rollout").self_s),
        "cem.run_cem.calls": per(get("cem.run_cem").calls),
        "cem.run_cem.self_s": per(get("cem.run_cem").self_s),
        "cem.samples": per(get("cem.sample").rows),
        "cem.sample.s": per(get("cem.sample").total_s),
        "cem.update_distribution.s": per(get("cem.update_distribution").total_s),
        "gradplanner.optimize.s": per(get("gradplanner.optimize").total_s),
        "gradplanner.reward_gradient.calls": per(get("gradplanner.reward_gradient").calls),
        "gradplanner.reward_gradient.self_s": per(get("gradplanner.reward_gradient").self_s),
        "gradplanner.line_search_update.calls": per(get("gradplanner.line_search_update").calls),
        "gradplanner.line_search_update.self_s": per(get("gradplanner.line_search_update").self_s),
        "gradplanner.line_search.accept_ratio":
            _ratio(c["line_search.accepted"], c["line_search.updates"]),
        "gradplanner.line_search.useful_trial_ratio":
            _ratio(c["line_search.trials_needed"], c["line_search.candidates"]),
        "cemgd.plan.calls": per(first.calls + replan.calls),
        "cemgd.plan.first_s": per(first.total_s),
        "cemgd.plan.replan_s": per(replan.total_s),
        "cemgd.plan.self_s": per(first.self_s + replan.self_s),
        "harness.run_episode.self_s": per(get("harness.run_episode").self_s),
        "harness.write_raw_csv.s": per(get("harness.write_raw_csv").total_s),
        "trace.overhead_ratio": overhead_ratio,
    }
    for name in _SETUP_SPANS:
        values[f"{name}.s"] = st.get(name, none).total_s
    return {name: values[name] for name, _, _ in PER_LAYER}
