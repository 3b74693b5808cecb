"""In-memory span tracing for the benchmark's traced run.

The tracer wraps the nsvlab functions listed in SPANS from outside the
package: at the definition site (module attribute or class attribute) and at
every nsvlab module that imported the function by name.  Each call records a
span (name, parent span, start, end) in memory; the spans are written out
once, when the traced child ends.  Counters marked "computed" are derived
from argument and result shapes, never from report files, so they repeat
exactly for a fixed workload.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time

import numpy as np


def _rows(points) -> int:
    shape = np.shape(points)
    return 1 if len(shape) < 2 else int(shape[0])


def _active_half_modes(coeffs: np.ndarray) -> int:
    """Nonzero modes on the half lattice k1 > 0, or k1 == 0 and k2 > 0."""
    K = (coeffs.shape[0] - 1) // 2
    k1, k2 = np.meshgrid(np.arange(-K, K + 1), np.arange(-K, K + 1), indexing="ij")
    half = (k1 > 0) | ((k1 == 0) & (k2 > 0))
    nonzero = np.abs(coeffs) > 0
    if nonzero.ndim == 3:
        nonzero = nonzero.any(axis=-1)
    return int(np.count_nonzero(half & nonzero))


class Tracer:
    """Records nested spans and computed counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counters: dict[str, float] = {}
        self.rss_hwm_mb: dict[str, float] = {}
        self.notes: list[str] = []  # spans not installed, probes that failed
        self._stack: list[int] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, span_name: str, fn, probe=None):
        module = span_name.split(".", 1)[0]
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [span_name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            result = error = None
            span[2] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[3] = time.monotonic()
                self._stack.pop()
                if module in RSS_MODULES:
                    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                    self.rss_hwm_mb[module] = max(self.rss_hwm_mb.get(module, 0.0), rss)
                if probe is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        probe(self, bound.arguments, result, error)
                    except Exception as exc:  # a counter must never change the traced call
                        note = f"probe of {span_name} failed: {exc!r}"
                        if note not in self.notes:
                            self.notes.append(note)

        return traced

    def install(self, package_name: str = "nsvlab") -> None:
        """Wrap every function in SPANS and rebind names imported elsewhere."""
        replaced = {}
        for module_name, qualname, probe in SPANS:
            module = importlib.import_module(f"{package_name}.{module_name}")
            owner, attr = module, qualname
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name, None)
            span_name = f"{module_name}.{qualname}"
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.notes.append(f"{span_name} not found; its metrics read 0")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(span_name, raw.__func__, probe)))
                continue
            traced = self.wrap(span_name, raw, probe)
            setattr(owner, attr, traced)
            if owner is module:
                replaced[id(raw)] = (raw, traced)
        # `from .x import f` copies the binding, so patch every copy too
        for name, module in list(sys.modules.items()):
            if name != package_name and not name.startswith(package_name + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


# -- probes: computed counters from argument and result shapes ----------------


def _field_terms(tracer, a, result, error):
    tracer.count("fields.trig_terms", _rows(a["points"]) * _active_half_modes(a["self"].coeffs))


def _velocity_terms(tracer, a, result, error):
    # the flow caches its active half-lattice modes, shared by all frames
    modes = a["self"]._compile()[0].shape[0]
    tracer.count("flows.velocity_trig_terms", _rows(a["points"]) * modes)


def _ensemble(tracer, a, result, error):
    if result is None:
        return
    n, mp1 = result.unwrapped.shape[:2]
    tracer.count("sde.path_steps", n * (mp1 - 1))
    nbytes = sum(int(np.prod(x.shape)) * x.itemsize for x in (result.unwrapped, result.drift, result.dW))
    tracer.count("sde.ensemble_mb", nbytes / 1e6)


def _ensemble_samples(tracer, a, result, error):
    tracer.count("action.samples", int(np.prod(a["ens"].unwrapped.shape[:2])))


def _occupation_samples(tracer, a, result, error):
    tracer.count("action.samples", int(np.size(a["samples"].t)))


def _flow_evals(tracer, a, result, error):
    tracer.count("variation.flow_points_evals", _rows(a["points"]) * 4 * int(a["n_steps"]))


def _fd_outcome(tracer, a, result, error):
    if isinstance(error, FloatingPointError) and "Richardson" in str(error):
        tracer.count("variation.richardson_rejects", 1)


SPANS = (
    ("fields", "FourierVectorField.evaluate_at", _field_terms),
    ("fields", "FourierVectorField.gradient_at", _field_terms),
    ("fields", "FourierScalarField.evaluate_at", _field_terms),
    ("fields", "FourierScalarField.gradient_at", _field_terms),
    ("fields", "deformation_laplacian", None),
    ("flows", "TimeDependentVelocity.velocity_at", _velocity_terms),
    ("flows", "TimeDependentVelocity.velocity_gradient_at", None),
    ("flows", "TimeDependentVelocity.pressure_at", None),
    ("flows", "TimeDependentVelocity.pressure_gradient_at", None),
    ("flows", "hessian_bound", None),
    ("flows", "ns_step", None),
    ("sde", "path_rng", None),
    ("sde", "simulate_ito", _ensemble),
    ("sde", "brownian_bridge", _ensemble),
    ("action", "occupation_measure", None),
    ("action", "action", _ensemble_samples),
    ("action", "action_prefixes", _ensemble_samples),
    ("action", "dpm_residual", _occupation_samples),
    ("action", "first_variation_direct", _ensemble_samples),
    ("action", "weak_ns_residual", None),
    ("variation", "flow_points", _flow_evals),
    ("variation", "first_variation_fd", _fd_outcome),
    ("variation", "pinned_family", None),
    ("variation", "minimality_check", None),
    ("variation", "mean_acceleration_check", None),
    ("estimates", "EstimateWithError.from_samples", None),
    ("cli", "run", None),
    ("cli", "build_drift", None),
    ("cli", "Report.write", None),
)

RSS_MODULES = ("sde", "variation")

_FIELD_EVAL = [
    "fields.FourierVectorField.evaluate_at",
    "fields.FourierVectorField.gradient_at",
    "fields.FourierScalarField.evaluate_at",
    "fields.FourierScalarField.gradient_at",
]

# per-layer time metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "fields.eval_s": _FIELD_EVAL,
    "flows.velocity_at_s": ["flows.TimeDependentVelocity.velocity_at"],
    "flows.pressure_at_s": ["flows.TimeDependentVelocity.pressure_at"],
    "flows.gradient_at_s": [
        "flows.TimeDependentVelocity.velocity_gradient_at",
        "flows.TimeDependentVelocity.pressure_gradient_at",
    ],
    "flows.hessian_bound_s": ["flows.hessian_bound"],
    "flows.ns_step_s": ["flows.ns_step"],
    "sde.simulate_s": ["sde.simulate_ito", "sde.brownian_bridge", "sde.path_rng"],
    "action.first_variation_direct_s": ["action.first_variation_direct"],
    "action.dpm_residual_s": ["action.dpm_residual"],
    "action.occupation_measure_s": ["action.occupation_measure"],
    "action.weak_ns_residual_s": ["action.weak_ns_residual"],
    "action.action_s": ["action.action", "action.action_prefixes"],
    "variation.first_variation_fd_s": ["variation.first_variation_fd"],
    "variation.flow_points_s": ["variation.flow_points"],
    "variation.pinned_family_s": ["variation.pinned_family"],
    "variation.minimality_check_s": ["variation.minimality_check"],
    "variation.mean_acceleration_s": ["variation.mean_acceleration_check"],
    "estimates.s": ["estimates.EstimateWithError.from_samples"],
    "cli.run_s": ["cli.run"],
    "cli.build_drift_s": ["cli.build_drift"],
    "cli.report_write_s": ["cli.Report.write"],
}

# per-layer call-count metric -> span names whose calls it counts
CALL_METRICS = {
    "fields.eval_calls": _FIELD_EVAL,
    "fields.deformation_laplacian_calls": ["fields.deformation_laplacian"],
    "flows.velocity_at_calls": ["flows.TimeDependentVelocity.velocity_at"],
    "flows.pressure_at_calls": ["flows.TimeDependentVelocity.pressure_at"],
    "flows.hessian_bound_calls": ["flows.hessian_bound"],
    "flows.ns_steps": ["flows.ns_step"],
    "sde.path_rng_calls": ["sde.path_rng"],
    "variation.fd_attempts": ["variation.first_variation_fd"],
    "estimates.from_samples_calls": ["estimates.EstimateWithError.from_samples"],
}

# counters filled by the probes above; all are computed from shapes
COMPUTED_METRICS = {
    "fields.trig_terms": "count",
    "flows.velocity_trig_terms": "count",
    "sde.path_steps": "count",
    "sde.ensemble_mb": "MB",
    "action.samples": "count",
    "variation.flow_points_evals": "count",
    "variation.richardson_rejects": "count",
}


def self_times(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds.

    Spans come from one thread, so children nest inside their parent and the
    part of a parent covered by children is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered[i]
    return table


def uncovered_time(spans, wall_s: float) -> float:
    """Part of the timed window that no top-level span covers."""
    return wall_s - sum(end - start for _, parent, start, end in spans if parent < 0)


def layer_metrics(spans, counters, rss_hwm_mb, wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced run, as name -> (value, unit)."""
    table = self_times(spans)
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = (sum(table[n]["self_s"] for n in names if n in table), "s")
    for metric, names in CALL_METRICS.items():
        out[metric] = (sum(table[n]["calls"] for n in names if n in table), "count")
    for metric, unit in COMPUTED_METRICS.items():
        out[metric] = (counters.get(metric, 0), unit)
    for module in RSS_MODULES:
        out[f"{module}.rss_hwm_mb"] = (rss_hwm_mb.get(module, 0.0), "MB")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.uncovered_s"] = (uncovered_time(spans, wall_s), "s")
    return out
