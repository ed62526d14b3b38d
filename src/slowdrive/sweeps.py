"""Sweep orchestration: evolve each requested tau, evaluate the requested
metrics, fit decay rates, check bounds, and emit per-metric CSV files plus a
JSON summary.

Each metric kind is one entry of ``_METRICS``: the metric_params keys it
accepts, a binder that checks the metric against the config and the scenario
before any tau runs and returns its per-tau evaluation, the checks that turn
the per-tau values into a verdict, and the slope window of a norm metric with
a 1/tau law.

Verdict policy (documented contract):

* a metric whose values all stay below 1e-9 passes trivially ("quiet");
* norm-topology metrics with an expected 1/tau law (``resolvent``,
  ``offdiag_*``) must fit a log-log slope inside their window when the tau
  grid spans at least a decade with >= 3 points; ``resolvent`` additionally
  respects the bound extrapolated with the constant fitted on the smallest
  decade (5% headroom) and its explicit per-run constant when available;
* SOT metrics never assert a rate; they check only the optional
  ``decay_factor`` / ``ceiling`` requests from ``metric_params``;
* ``schrodinger_limit`` always checks that the limit evolution commutes with
  H_o to 1e-9 * ||H_o||.

Sweeps parallelize over tau with threads (the linear algebra releases the
GIL); rows are merged in a deterministic final pass, so CSV output is
byte-identical for a fixed config and seed regardless of thread count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from .diagnostics import (
    ReportRow,
    conjugation_distance_norm,
    conjugation_distance_sot,
    embedded_offblock_profile,
    heisenberg_distance_norm,
    heisenberg_distance_sot,
    offdiagonal_block_decay,
    rate_fit,
    resolvent_distance,
    schrodinger_limit_profile,
    write_metric_csv,
)
from .operators import HermitianOperator, operator_norm
from .propagation import PropagatorResult, comparison_family, evolve, omega_infinity
from .scenarios import (
    ConfigError,
    ScenarioConfig,
    ScenarioInstance,
    _check_number,
    build_scenario,
)
from .spectral import projection_eq

__all__ = ["MetricOutcome", "SweepResult", "SweepExecutionError", "run_sweep"]

QUIET_LEVEL = 1e-9
DECADE_MARGIN = 1.05

class SweepExecutionError(RuntimeError):
    """A (scenario, tau) job failed; partial results were flushed first."""


@dataclass(frozen=True)
class MetricOutcome:
    """One metric's result: its rows in CSV order, the verdict, the checks
    recorded on it (with ``failures``), and the log-log fit of a metric with a
    rate law (None elsewhere)."""

    metric: str
    rows: tuple[ReportRow, ...]
    verdict: str  # PASS | FAIL
    checks: dict
    slope: float | None = None
    constant: float | None = None
    residual: float | None = None


@dataclass(frozen=True)
class SweepResult:
    scenario: str
    outcomes: tuple[MetricOutcome, ...]
    csv_paths: tuple[str, ...]
    summary_path: str | None

    @property
    def all_pass(self) -> bool:
        return all(o.verdict == "PASS" for o in self.outcomes)


def _metric_kind(metric: str) -> tuple[str, str | None]:
    kind, _, obs = metric.partition(":")
    return kind, (obs or None)


@dataclass
class _TauData:
    """One metric's rows, per-vector sups and extras at one tau."""

    rows: list[ReportRow]
    per_vector_sup: dict  # row label -> sup over the s points
    extra: dict


def _tau_data(tau: float, s_points, labels, values: np.ndarray, extra: dict) -> _TauData:
    """Gather one evaluation, whose values are shaped (len(labels), len(s_points))
    and are distances, so never negative."""
    if np.any(values < 0):
        raise ValueError("metric values must be >= 0")
    rows = [
        ReportRow(tau, float(s), label, float(v))
        for label, line in zip(labels, values)
        for s, v in zip(s_points, line)
    ]
    return _TauData(rows, dict(zip(labels, map(float, values.max(axis=1)))), extra)


# --- metric evaluations -------------------------------------------------------
#
# A binder runs once per sweep, before any tau: it resolves the metric's
# observable and parameters against the scenario (raising ConfigError) and
# returns the per-tau evaluation, which maps the tau's PropagatorResult (the
# static family's unitary for a static kind) to
# (s points, row labels, values[len(labels), len(s points)], extra).
# Evaluations look the diagnostics and comparison_family up as this module's
# globals when they run, so rebinding one of those names (a tracer, a test
# double) reaches every call. Every evaluation reads the result's frames
# U = V† W V in the eigenbasis of H_o, where it stored them, and never forms
# W. Only schrodinger_limit forms Omega_tau: the other metrics take norms
# after spectral projections of H_o, which do not see its phase.

_NORM = ("",)  # the single, empty row label of a norm metric


def _observable(inst: ScenarioInstance, obs: str | None) -> HermitianOperator:
    return inst.observable(obs) if obs else inst.observables[0][1]


def _bind_heisenberg_norm(inst, config, obs, params):
    a = _observable(inst, obs)

    def evaluate(result: PropagatorResult):
        values, _ = heisenberg_distance_norm(inst.h_o, result, a)
        return result.s_grid, _NORM, values[None, :], {}

    return evaluate


def _bind_heisenberg_sot(inst, config, obs, params):
    a = _observable(inst, obs)

    def evaluate(result: PropagatorResult):
        values, _ = heisenberg_distance_sot(inst.h_o, result, a, inst.vectors)
        return result.s_grid, inst.vectors.labels, values, {}

    return evaluate


def _bind_resolvent(inst, config, obs, params):
    z = complex(params.get("z_real", 0.0), params.get("z_imag", 1.0))
    if z.imag == 0:
        raise ConfigError("resolvent needs a nonzero z_imag")

    def evaluate(result: PropagatorResult):
        rec = resolvent_distance(inst.h_o, result, z, inst.path)
        return result.s_grid, _NORM, rec.values[None, :], {"theory_bound_ok": rec.bound_ok}

    return evaluate


def _bind_offdiag(field_name: str):
    def bind(inst, config, obs, params):
        gap = inst.gap_pair or (None, None)
        e1, e2 = params.get("e1", gap[0]), params.get("e2", gap[1])
        if e1 is None or e2 is None or e2 <= e1:
            raise ConfigError("off-diagonal metrics need e1 < e2 (or a scenario with a gap)")
        e1, e2 = float(e1), float(e2)
        t, s = float(params.get("t", config.s_grid[-1])), float(params.get("s", 0.0))

        def evaluate(result: PropagatorResult):
            rec = offdiagonal_block_decay(inst.h_o, result, e1, e2, t, s)
            return (t,), _NORM, np.array([[getattr(rec, field_name)]]), {}

        return evaluate

    return bind


def _bind_embedded_offblock(inst, config, obs, params):
    if inst.embedded_level is None:
        raise ConfigError("scenario has no embedded level for embedded_offblock")
    p_e = projection_eq(inst.h_o.decomposition, inst.embedded_level).matrix

    def evaluate(result: PropagatorResult):
        values = embedded_offblock_profile(inst.h_o, result, p_e, inst.vectors)
        return result.s_grid, inst.vectors.labels, values, {}

    return evaluate


def _bind_schrodinger_limit(inst, config, obs, params):
    omega_inf = omega_infinity(inst.h_o.decomposition, inst.path, config.s_grid, step=config.step)
    h = inst.h_o.matrix
    defect = max(operator_norm(u @ h - h @ u) for u in omega_inf.unitaries)
    defect /= max(inst.h_o.norm(), 1e-300)

    def evaluate(result: PropagatorResult):
        omegas = comparison_family(inst.h_o, result)
        values = schrodinger_limit_profile(inst.h_o, omegas, omega_inf, inst.vectors)
        return result.s_grid, inst.vectors.labels, values, {"commutant_defect": defect}

    return evaluate


def _bind_swap_norm_shift(inst, config, obs, params):
    def evaluate(u: np.ndarray):
        value = conjugation_distance_norm(u, inst.h_o.matrix)
        return (0.0,), _NORM, np.array([[value]]), {}

    return evaluate


def _bind_swap_sot_projection(inst, config, obs, params):
    a = _observable(inst, obs).matrix

    def evaluate(u: np.ndarray):
        values = conjugation_distance_sot(u, a, inst.vectors.vectors.T)
        return (0.0,), inst.vectors.labels, values[:, None], {}

    return evaluate


# --- checks ---------------------------------------------------------------------


def _not_evaluated(tau: float) -> str:
    return f"tau={tau:g} was not evaluated in this run"


@dataclass
class _Verdict:
    """One metric's per-tau data, and the checks and failures recorded on it."""

    params: dict
    taus: tuple[float, ...]
    per_tau: dict[float, _TauData]
    sups: list[tuple[float, float]]
    quiet: bool
    span_ok: bool  # >= 3 taus spanning at least a decade
    checks: dict
    failures: list[str] = field(default_factory=list)

    def record(self, key: str, bad, message: str) -> None:
        self.checks[key] = not bad
        if bad:
            self.failures.append(message)


def _check_decade_bound(v: _Verdict) -> None:
    # Bound with the constant fitted on the smallest decade, applied to
    # every larger tau (5% headroom on the constant).
    if v.quiet or not v.span_ok:
        return
    weight = float(v.params.get("z_imag", 1.0)) ** 2
    edge = 10 * min(v.taus) * (1 + 1e-9)
    v.checks["decade_constant"] = c_fit = max(x * weight * t for t, x in v.sups if t <= edge)
    bad = [t for t, x in v.sups if t > edge and x > DECADE_MARGIN * c_fit / (weight * t)]
    v.record("decade_bound_ok", bad, f"decade-fitted bound violated at tau={bad}")


def _check_theory_bound(v: _Verdict) -> None:
    known = [v.per_tau[t].extra["theory_bound_ok"] for t in v.taus]
    known = [ok for ok in known if ok is not None]
    if known and not v.quiet:
        v.record("theory_bound_ok", not all(known), "explicit resolvent bound violated")


def _check_decay_factor(v: _Verdict) -> None:
    factor = v.params.get("decay_factor")
    if factor is None or v.quiet or len(v.taus) < 2:
        return
    first, last = (v.per_tau[t].per_vector_sup for t in (v.taus[0], v.taus[-1]))
    v.checks["decay_factor"] = float(factor)
    bad = {k: (first[k], last[k]) for k in first if last[k] > factor * first[k] + QUIET_LEVEL}
    v.record("decay_factor_ok", bad, f"per-vector decay factor {factor} violated: {sorted(bad)}")


def _check_ceiling(v: _Verdict) -> None:
    ceiling = v.params.get("ceiling")
    if ceiling is None:
        return
    want_tau, limit = float(ceiling["tau"]), float(ceiling["max_value"])
    if want_tau not in v.taus:
        v.checks["ceiling_skipped"] = _not_evaluated(want_tau)
        return
    sup_map = v.per_tau[want_tau].per_vector_sup
    bad = {k: sup_map[k] for k in ceiling.get("vectors") or sup_map if sup_map[k] > limit}
    v.record("ceiling_ok", bad, f"ceiling {limit} exceeded: {bad}")


def _check_floor(v: _Verdict) -> None:
    floor = v.params.get("floor")
    if floor is None:
        return
    s_at, want = float(floor["s"]), float(floor["min_value"])
    which = [float(t) for t in floor.get("taus", v.taus)]
    skipped = {t: _not_evaluated(t) for t in which if t not in v.taus}
    if skipped:
        v.checks["floor_skipped"] = skipped
    at_s = {
        t: next(r.value for r in v.per_tau[t].rows if abs(r.s - s_at) <= 1e-12)
        for t in which
        if t not in skipped
    }
    bad = {t: x for t, x in at_s.items() if x < want}
    v.record("floor_ok", bad, f"norm floor {want} at s={s_at} violated: {bad}")


def _check_exact_inverse_n(v: _Verdict) -> None:
    tol = v.params.get("exact_inverse_n_tol")
    if tol is not None:
        bad = {t: x for t, x in v.sups if abs(x - 1.0 / t) > tol}
        v.record("exact_inverse_n_ok", bad, f"|value - 1/n| > {tol} at n={sorted(bad)}")


def _check_constant_vector(v: _Verdict) -> None:
    cvec = v.params.get("constant_vector")
    if cvec is None:
        return
    cval = float(v.params.get("constant_value", 1.0))
    ctol = float(v.params.get("constant_tol", 1e-12))
    values = {t: v.per_tau[t].per_vector_sup[cvec] for t in v.taus}
    bad = {t: x for t, x in values.items() if abs(x - cval) > ctol}
    v.record("constant_vector_ok", bad, f"vector {cvec} strays from {cval}: {bad}")


def _check_commutant(v: _Verdict) -> None:
    v.checks["commutant_defect"] = comm = v.per_tau[v.taus[0]].extra["commutant_defect"]
    if comm > 1e-9:
        v.failures.append(f"limit evolution fails to commute with H_o: {comm:.3e}")


# --- the metric table -----------------------------------------------------------


@dataclass(frozen=True)
class _MetricKind:
    params: frozenset[str]  # the metric_params keys it accepts
    bind: Callable  # (inst, config, obs, params) -> per-tau evaluation
    checks: tuple[Callable[[_Verdict], None], ...]
    slope_window: tuple[float, float] | None = None  # norm metrics with a 1/tau law
    static: bool = False  # evaluated on a static unitary family, not a propagator


_DECAY = frozenset({"decay_factor"})
_GAP = frozenset({"e1", "e2", "t", "s"})

_METRICS: dict[str, _MetricKind] = {
    "resolvent": _MetricKind(
        frozenset({"z_real", "z_imag"}),
        _bind_resolvent,
        (_check_decade_bound, _check_theory_bound),
        (-1.1, -0.9),
    ),
    "offdiag_low_high": _MetricKind(_GAP, _bind_offdiag("value_low_high"), (), (-1.15, -0.85)),
    "offdiag_high_low": _MetricKind(_GAP, _bind_offdiag("value_high_low"), (), (-1.15, -0.85)),
    "heisenberg_norm": _MetricKind(frozenset({"floor"}), _bind_heisenberg_norm, (_check_floor,)),
    "heisenberg_sot": _MetricKind(
        frozenset({"decay_factor", "ceiling"}),
        _bind_heisenberg_sot,
        (_check_decay_factor, _check_ceiling),
    ),
    "embedded_offblock": _MetricKind(_DECAY, _bind_embedded_offblock, (_check_decay_factor,)),
    "schrodinger_limit": _MetricKind(
        _DECAY, _bind_schrodinger_limit, (_check_decay_factor, _check_commutant)
    ),
    "swap_norm_shift": _MetricKind(
        frozenset({"exact_inverse_n_tol"}),
        _bind_swap_norm_shift,
        (_check_exact_inverse_n,),
        static=True,
    ),
    "swap_sot_projection": _MetricKind(
        frozenset({"constant_vector", "constant_value", "constant_tol"}),
        _bind_swap_sot_projection,
        (_check_constant_vector,),
        static=True,
    ),
}


# --- config checks ----------------------------------------------------------------

# Parameters holding an object: (required fields, optional fields).
_NESTED = {
    "ceiling": ({"tau", "max_value"}, {"vectors"}),
    "floor": ({"s", "min_value"}, {"taus"}),
}


def _check_metric_params(
    metric: str, params: dict, config: ScenarioConfig, inst: ScenarioInstance
) -> None:
    """The fields of ``params`` are well-formed, and every tau, s and probe
    vector they name is in the config or the scenario."""
    fields = {}
    for key, value in params.items():
        if key not in _NESTED:
            fields[key] = value
            continue
        required, optional = _NESTED[key]
        if not isinstance(value, dict) or not required <= set(value) <= required | optional:
            raise ConfigError(
                f"{metric}: {key} takes {sorted(required)}, optionally {sorted(optional)}"
            )
        fields.update({f"{key}.{k}": v for k, v in value.items()})
    vectors, floor_taus = fields.pop("ceiling.vectors", []), fields.pop("floor.taus", [])
    labels = [fields.pop("constant_vector")] if "constant_vector" in fields else []
    if not isinstance(vectors, list) or not isinstance(floor_taus, list):
        raise ConfigError(f"{metric}: ceiling.vectors and floor.taus take lists")
    for key, value in [*fields.items(), *(("floor.taus", t) for t in floor_taus)]:
        _check_number(f"{metric}: {key}", value)
    taus = [fields["ceiling.tau"]] if "ceiling.tau" in fields else []
    s_points = [fields[k] for k in ("floor.s", "t", "s") if k in fields]
    unknown = {
        "tau": [t for t in taus + floor_taus if float(t) not in config.taus],
        "s": [x for x in s_points if not any(abs(x - g) <= 1e-12 for g in config.s_grid)],
        "probe vector": [v for v in vectors + labels if v not in inst.vectors.labels],
    }
    for what, missing in unknown.items():
        if missing:
            raise ConfigError(f"{metric}: no {what} {missing} in this config and scenario")


def _bind_metrics(config: ScenarioConfig, inst: ScenarioInstance) -> dict[str, Callable]:
    """Check every metric against the table, the config and the scenario,
    and return each metric's per-tau evaluation."""
    stray = set(config.metric_params) - set(config.metrics)
    if stray:
        raise ConfigError(f"metric_params for metrics not in the metrics list: {sorted(stray)}")
    evaluations = {}
    for metric in config.metrics:
        kind, obs = _metric_kind(metric)
        spec = _METRICS.get(kind)
        if spec is None:
            raise ConfigError(f"unknown metric {metric!r}")
        params = config.metric_params.get(metric, {})
        extra = set(params) - spec.params
        if extra:
            raise ConfigError(f"unknown metric_params for {metric}: {sorted(extra)}")
        if spec.static != (inst.static_family is not None):
            needs = "a static" if spec.static else "a time-dependent"
            raise ConfigError(f"metric {metric!r} needs {needs} scenario")
        _check_metric_params(metric, params, config, inst)
        evaluations[metric] = spec.bind(inst, config, obs, params)
    return evaluations


def _fit_and_verdict(
    metric: str, config: ScenarioConfig, per_tau: dict[float, _TauData]
) -> MetricOutcome:
    spec = _METRICS[_metric_kind(metric)[0]]
    taus = tuple(per_tau)
    sups = [(t, max(per_tau[t].per_vector_sup.values())) for t in taus]
    quiet = all(x <= QUIET_LEVEL for _, x in sups)
    span_ok = len(taus) >= 3 and max(taus) >= 10 * min(taus)
    params = config.metric_params.get(metric, {})
    v = _Verdict(params, taus, per_tau, sups, quiet, span_ok, checks={"quiet": quiet})
    fit = None
    if spec.slope_window and not quiet and span_ok:
        fit = rate_fit(sups)
        lo, hi = spec.slope_window
        v.checks["slope_window"] = [lo, hi]
        if not (lo <= fit.slope <= hi):
            v.failures.append(f"slope {fit.slope:.3f} outside [{lo}, {hi}]")
    for check in spec.checks:
        check(v)
    # CSV order: by tau, then s, then vector label.
    rows = sorted(
        (r for t in taus for r in per_tau[t].rows), key=lambda r: (r.tau, r.s, r.vector_id)
    )
    return MetricOutcome(
        metric=metric,
        rows=tuple(rows),
        verdict="FAIL" if v.failures else "PASS",
        checks={**v.checks, "failures": v.failures},
        slope=None if fit is None else fit.slope,
        constant=None if fit is None else fit.constant,
        residual=None if fit is None else fit.residual,
    )


def run_sweep(config: ScenarioConfig, single: bool = False) -> SweepResult:
    """Execute a sweep: one job per tau, metric evaluation, fits, verdicts,
    CSV + summary emission. ``single`` truncates to the first tau (the CLI
    ``run`` subcommand). Every metric is checked against the config and the
    scenario before the first tau runs. Deterministic for a fixed config and
    seed."""
    listed = {"tau values": config.taus, "s_grid points": config.s_grid, "metrics": config.metrics}
    for what, values in listed.items():
        if not values:
            raise ConfigError(f"config lists no {what}")
    inst = build_scenario(config)
    evaluations = _bind_metrics(config, inst)
    taus = config.taus[:1] if single else config.taus
    out_dir = config.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def job(tau: float) -> tuple[dict | None, dict[str, _TauData]]:
        record = None
        if inst.static_family is not None:
            if tau != int(tau):
                raise ConfigError("static sweeps use integer indices in the tau list")
            inputs = inst.static_family(int(tau))
        else:
            inputs = result = evolve(inst.h_o, inst.path, tau, config.s_grid, step=config.step)
            if config.save_propagators and out_dir:
                result.save(os.path.join(out_dir, f"run_{inst.name}_{tau:g}.prop"))
            record = {
                "tau": tau,
                "scheme": result.scheme,
                "steps": result.steps,
                "step": result.step,
                "max_drift": result.max_drift,
            }
        return record, {m: _tau_data(tau, *evaluate(inputs)) for m, evaluate in evaluations.items()}

    propagation: list[dict] = []
    done: dict[float, dict[str, _TauData]] = {}
    failure: Exception | None = None
    failed_tau: float | None = None
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        jobs = pool.map(job, taus) if config.threads > 1 else map(job, taus)
        for tau in taus:
            try:
                record, done[tau] = next(jobs)
            except Exception as exc:  # noqa: BLE001 - reported with context below
                failure, failed_tau = exc, tau
                break
            if record is not None:
                propagation.append(record)
    completed = tuple(done)
    outcomes = [
        _fit_and_verdict(m, config, {t: done[t][m] for t in completed})
        for m in config.metrics
        if completed
    ]

    csv_paths = []
    summary_path = None
    if out_dir:
        for outcome in outcomes:
            fname = f"{inst.name}_{outcome.metric.replace(':', '-')}.csv"
            path = os.path.join(out_dir, fname)
            write_metric_csv(path, inst.name, outcome.metric, outcome.rows)
            csv_paths.append(path)
        summary_path = os.path.join(out_dir, "summary.json")
        summary = {
            "scenario": inst.name,
            "seed": config.seed,
            "taus": list(completed),
            "propagation": propagation,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "results": [
                {
                    "scenario": inst.name,
                    "metric": o.metric,
                    "slope": o.slope,
                    "constant": o.constant,
                    "verdict": o.verdict,
                    "residual": o.residual,
                    "checks": _jsonable(o.checks),
                }
                for o in outcomes
            ],
        }
        if failure is not None:
            summary["error"] = f"tau={failed_tau}: {failure}"
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)

    if failure is not None:
        raise SweepExecutionError(
            f"scenario {inst.name!r} failed at tau={failed_tau}: {failure}"
        ) from failure

    return SweepResult(
        scenario=inst.name,
        outcomes=tuple(outcomes),
        csv_paths=tuple(csv_paths),
        summary_path=summary_path,
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return str(obj)
    return obj
