"""Sweep orchestration: evolve each requested tau, evaluate the requested
metrics, fit decay rates, check bounds, and emit per-metric CSV files plus a
JSON summary.

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

import numpy as np

from .diagnostics import (
    ConvergenceReport,
    ReportRow,
    conjugation_distance_norm,
    conjugation_distance_sot,
    heisenberg_distance_norm,
    heisenberg_distance_sot,
    offdiagonal_block_decay,
    rate_fit,
    resolvent_distance,
    write_metric_csv,
)
from .operators import operator_norm
from .propagation import PropagatorResult, comparison_family, evolve, omega_infinity
from .scenarios import ConfigError, ScenarioConfig, ScenarioInstance, build_scenario
from .spectral import projection_eq

__all__ = ["MetricOutcome", "SweepResult", "SweepExecutionError", "run_sweep"]

QUIET_LEVEL = 1e-9
DECADE_MARGIN = 1.05

_METRIC_PARAM_KEYS = {
    "resolvent": {"z_real", "z_imag"},
    "offdiag_low_high": {"e1", "e2", "t", "s"},
    "offdiag_high_low": {"e1", "e2", "t", "s"},
    "heisenberg_norm": {"floor"},
    "heisenberg_sot": {"decay_factor", "ceiling"},
    "embedded_offblock": {"decay_factor"},
    "schrodinger_limit": {"decay_factor"},
    "swap_norm_shift": {"exact_inverse_n_tol"},
    "swap_sot_projection": {"constant_vector", "constant_value", "constant_tol"},
}

SLOPE_WINDOWS = {
    "resolvent": (-1.1, -0.9),
    "offdiag_low_high": (-1.15, -0.85),
    "offdiag_high_low": (-1.15, -0.85),
}


class SweepExecutionError(RuntimeError):
    """A (scenario, tau) job failed; partial results were flushed first."""


@dataclass(frozen=True)
class MetricOutcome:
    report: ConvergenceReport
    verdict: str  # PASS | FAIL
    checks: dict = field(default_factory=dict)

    @property
    def metric(self) -> str:
        return self.report.metric

    @property
    def rows(self) -> tuple[ReportRow, ...]:
        return self.report.rows

    @property
    def slope(self) -> float | None:
        return self.report.fitted_slope

    @property
    def constant(self) -> float | None:
        return self.report.fitted_constant

    @property
    def residual(self) -> float | None:
        return self.report.tolerances.get("residual")


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


def _metric_config(config: ScenarioConfig, metric: str) -> dict:
    params = config.metric_params.get(metric, {})
    kind, _ = _metric_kind(metric)
    allowed = _METRIC_PARAM_KEYS.get(kind)
    if allowed is None:
        raise ConfigError(f"unknown metric {metric!r}")
    extra = set(params) - allowed
    if extra:
        raise ConfigError(f"unknown metric_params for {metric}: {sorted(extra)}")
    return params


@dataclass
class _TauData:
    """Per-(metric, tau) rows and scalar aggregates gathered by one job."""

    rows: list[ReportRow] = field(default_factory=list)
    sup: float | None = None
    per_vector_sup: dict | None = None
    extra: dict = field(default_factory=dict)


def _lazy_omegas(cache: dict, inst: ScenarioInstance, result: PropagatorResult) -> np.ndarray:
    if "omegas" not in cache:
        cache["omegas"] = comparison_family(inst.h_o, result)
    return cache["omegas"]


def _evaluate_dynamic_metric(
    metric: str,
    inst: ScenarioInstance,
    config: ScenarioConfig,
    tau: float,
    result: PropagatorResult,
    omega_inf: PropagatorResult | None,
    cache: dict,
) -> _TauData:
    kind, obs = _metric_kind(metric)
    params = _metric_config(config, metric)
    data = _TauData()
    grid = result.s_grid

    if kind == "heisenberg_norm":
        a = inst.observable(obs) if obs else inst.observables[0][1]
        values, sup = heisenberg_distance_norm(result, a)
        data.rows = [ReportRow(tau, float(s), "", float(v)) for s, v in zip(grid, values)]
        data.sup = sup

    elif kind == "heisenberg_sot":
        a = inst.observable(obs) if obs else inst.observables[0][1]
        values, sups = heisenberg_distance_sot(result, a, inst.vectors)
        data.rows = [
            ReportRow(tau, float(s), label, float(values[i, j]))
            for i, label in enumerate(inst.vectors.labels)
            for j, s in enumerate(grid)
        ]
        data.per_vector_sup = dict(zip(inst.vectors.labels, map(float, sups)))
        data.sup = float(sups.max())

    elif kind == "resolvent":
        z = complex(float(params.get("z_real", 0.0)), float(params.get("z_imag", 1.0)))
        rec = resolvent_distance(inst.h_o, result, z, inst.path)
        data.rows = [ReportRow(tau, float(s), "", float(v)) for s, v in zip(grid, rec.values)]
        data.sup = rec.sup
        data.extra = {"z_imag": z.imag, "theory_bound_ok": rec.bound_ok}

    elif kind in ("offdiag_low_high", "offdiag_high_low"):
        gap = inst.gap_pair or (None, None)
        e1 = float(params.get("e1", gap[0])) if params.get("e1", gap[0]) is not None else None
        e2 = float(params.get("e2", gap[1])) if params.get("e2", gap[1]) is not None else None
        if e1 is None or e2 is None:
            raise ConfigError(f"{metric} needs e1/e2 (scenario has no default gap)")
        t = float(params.get("t", grid[-1]))
        s = float(params.get("s", 0.0))
        rec = offdiagonal_block_decay(
            inst.h_o, result, e1, e2, t, s, decomposition=inst.decomposition
        )
        value = rec.value_low_high if kind == "offdiag_low_high" else rec.value_high_low
        data.rows = [ReportRow(tau, t, "", float(value))]
        data.sup = float(value)
        data.extra = {"delta": e2 - e1}

    elif kind == "embedded_offblock":
        if inst.embedded_level is None:
            raise ConfigError("scenario has no embedded level for embedded_offblock")
        omegas = _lazy_omegas(cache, inst, result)
        p_e = projection_eq(inst.decomposition, inst.embedded_level).matrix
        comp = np.eye(inst.h_o.dim) - p_e
        sups = {}
        for label, psi in zip(inst.vectors.labels, inst.vectors.vectors):
            pe_psi = p_e @ psi
            vals = [float(np.linalg.norm(comp @ (om @ pe_psi))) for om in omegas]
            data.rows.extend(
                ReportRow(tau, float(s), label, v) for s, v in zip(grid, vals)
            )
            sups[label] = max(vals)
        data.per_vector_sup = sups
        data.sup = max(sups.values())

    elif kind == "schrodinger_limit":
        if omega_inf is None:
            raise ConfigError("schrodinger_limit requires a C1 drive path")
        omegas = _lazy_omegas(cache, inst, result)
        sups = {}
        for label, psi in zip(inst.vectors.labels, inst.vectors.vectors):
            vals = [
                float(np.linalg.norm((om - oi) @ psi))
                for om, oi in zip(omegas, omega_inf.unitaries)
            ]
            data.rows.extend(
                ReportRow(tau, float(s), label, v) for s, v in zip(grid, vals)
            )
            sups[label] = max(vals)
        data.per_vector_sup = sups
        data.sup = max(sups.values())

    else:
        raise ConfigError(f"metric {metric!r} is not available for dynamic scenarios")
    return data


def _evaluate_static_metric(
    metric: str, inst: ScenarioInstance, config: ScenarioConfig, n: float
) -> _TauData:
    kind, obs = _metric_kind(metric)
    _metric_config(config, metric)
    if inst.static_family is None:
        raise ConfigError(f"metric {metric!r} needs a static scenario")
    if n != int(n):
        raise ConfigError("static sweeps use integer indices in the tau list")
    v = inst.static_family(int(n))
    data = _TauData()
    if kind == "swap_norm_shift":
        value = conjugation_distance_norm(v, inst.h_o.matrix)
        data.rows = [ReportRow(n, 0.0, "", float(value))]
        data.sup = float(value)
    elif kind == "swap_sot_projection":
        a = inst.observable(obs) if obs else inst.observables[0][1]
        sups = {}
        for label, psi in zip(inst.vectors.labels, inst.vectors.vectors):
            value = conjugation_distance_sot(v, a.matrix, psi)
            data.rows.append(ReportRow(n, 0.0, label, float(value)))
            sups[label] = float(value)
        data.per_vector_sup = sups
        data.sup = max(sups.values())
    else:
        raise ConfigError(f"metric {metric!r} is not available for static scenarios")
    return data


def _not_evaluated(tau: float) -> str:
    return f"tau={tau:g} was not evaluated in this run"


def _fit_and_verdict(
    scenario: str,
    metric: str,
    config: ScenarioConfig,
    taus: tuple[float, ...],
    per_tau: dict[float, _TauData],
) -> MetricOutcome:
    kind, _ = _metric_kind(metric)
    params = _metric_config(config, metric)
    rows: list[ReportRow] = []
    for tau in taus:
        rows.extend(per_tau[tau].rows)
    rows.sort(key=lambda r: (r.tau, r.s, r.vector_id))
    sups = [(tau, per_tau[tau].sup) for tau in taus if per_tau[tau].sup is not None]
    checks: dict = {}
    failures: list[str] = []
    slope = constant = residual = None

    quiet = all(v <= QUIET_LEVEL for _, v in sups)
    checks["quiet"] = quiet
    span_ok = len({t for t, _ in sups}) >= 3 and max(t for t, _ in sups) >= 10 * min(
        t for t, _ in sups
    )

    if kind in SLOPE_WINDOWS and not quiet:
        if span_ok:
            fit = rate_fit(sups)
            slope, constant, residual = fit.slope, fit.constant, fit.residual
            lo, hi = SLOPE_WINDOWS[kind]
            checks["slope_window"] = [lo, hi]
            if not (lo <= fit.slope <= hi):
                failures.append(f"slope {fit.slope:.3f} outside [{lo}, {hi}]")
            if kind == "resolvent":
                # Bound with the constant fitted on the smallest decade,
                # applied to every larger tau (5% headroom on the constant).
                tmin = min(t for t, _ in sups)
                weight = per_tau[taus[0]].extra.get("z_imag", 1.0) ** 2
                decade = [(t, v) for t, v in sups if t <= 10 * tmin * (1 + 1e-9)]
                beyond = [(t, v) for t, v in sups if t > 10 * tmin * (1 + 1e-9)]
                c_fit = max(v * weight * t for t, v in decade)
                checks["decade_constant"] = c_fit
                bad = [
                    (t, v)
                    for t, v in beyond
                    if v > DECADE_MARGIN * c_fit / (weight * t)
                ]
                checks["decade_bound_ok"] = not bad
                if bad:
                    failures.append(
                        f"decade-fitted bound violated at tau={[t for t, _ in bad]}"
                    )
        if kind == "resolvent":
            flags = [per_tau[t].extra.get("theory_bound_ok") for t in taus]
            known = [f for f in flags if f is not None]
            if known:
                checks["theory_bound_ok"] = all(known)
                if not all(known):
                    failures.append("explicit resolvent bound violated")

    if kind in ("heisenberg_sot", "embedded_offblock", "schrodinger_limit", "swap_sot_projection"):
        factor = params.get("decay_factor")
        if factor is not None and not quiet and len(taus) >= 2:
            first, last = per_tau[taus[0]].per_vector_sup, per_tau[taus[-1]].per_vector_sup
            bad = {
                label: (first[label], last[label])
                for label in first
                if last[label] > float(factor) * first[label] + QUIET_LEVEL
            }
            checks["decay_factor"] = float(factor)
            checks["decay_factor_ok"] = not bad
            if bad:
                failures.append(f"per-vector decay factor {factor} violated: {sorted(bad)}")
        ceiling = params.get("ceiling")
        if ceiling is not None:
            want_tau = float(ceiling["tau"])
            vec_names = ceiling.get("vectors")
            limit = float(ceiling["max_value"])
            if want_tau not in taus:
                checks["ceiling_skipped"] = _not_evaluated(want_tau)
            else:
                sup_map = per_tau[want_tau].per_vector_sup
                targets = vec_names or list(sup_map)
                bad = {v: sup_map[v] for v in targets if sup_map[v] > limit}
                checks["ceiling_ok"] = not bad
                if bad:
                    failures.append(f"ceiling {limit} exceeded: {bad}")

    if kind == "heisenberg_norm":
        floor = params.get("floor")
        if floor is not None:
            s_at = float(floor["s"])
            want = float(floor["min_value"])
            which = [float(t) for t in floor.get("taus", taus)]
            skipped = {t: _not_evaluated(t) for t in which if t not in taus}
            if skipped:
                checks["floor_skipped"] = skipped
            bad = {}
            for t in which:
                if t in skipped:
                    continue
                row = [r for r in per_tau[t].rows if abs(r.s - s_at) <= 1e-12]
                if not row or row[0].value < want:
                    bad[t] = row[0].value if row else None
            checks["floor_ok"] = not bad
            if bad:
                failures.append(f"norm floor {want} at s={s_at} violated: {bad}")

    if kind == "swap_norm_shift":
        tol = params.get("exact_inverse_n_tol")
        if tol is not None:
            bad = {
                t: v for t, v in sups if abs(v - 1.0 / t) > float(tol)
            }
            checks["exact_inverse_n_ok"] = not bad
            if bad:
                failures.append(f"|value - 1/n| > {tol} at n={sorted(bad)}")
    if kind == "swap_sot_projection":
        cvec = params.get("constant_vector")
        if cvec is not None:
            cval = float(params.get("constant_value", 1.0))
            ctol = float(params.get("constant_tol", 1e-12))
            bad = {
                t: per_tau[t].per_vector_sup[cvec]
                for t in taus
                if abs(per_tau[t].per_vector_sup[cvec] - cval) > ctol
            }
            checks["constant_vector_ok"] = not bad
            if bad:
                failures.append(f"vector {cvec} strays from {cval}: {bad}")

    if kind == "schrodinger_limit":
        comm = per_tau[taus[0]].extra.get("commutant_defect")
        if comm is not None:
            checks["commutant_defect"] = comm
            if comm > 1e-9:
                failures.append(f"limit evolution fails to commute with H_o: {comm:.3e}")

    verdict = "PASS" if not failures else "FAIL"
    checks["failures"] = failures
    report = ConvergenceReport(
        scenario=scenario,
        metric=metric,
        rows=tuple(rows),
        fitted_slope=slope,
        fitted_constant=constant,
        tolerances={"residual": residual, **{k: v for k, v in checks.items() if k != "failures"}},
    )
    return MetricOutcome(report=report, verdict=verdict, checks=checks)


def _needs_omega_inf(config: ScenarioConfig) -> bool:
    return any(_metric_kind(m)[0] == "schrodinger_limit" for m in config.metrics)


def run_sweep(config: ScenarioConfig, single: bool = False) -> SweepResult:
    """Execute a sweep: one job per tau, metric evaluation, fits, verdicts,
    CSV + summary emission. ``single`` truncates to the first tau (the CLI
    ``run`` subcommand). Deterministic for a fixed config and seed."""
    if not config.taus:
        raise ConfigError("config lists no tau values")
    if not config.metrics:
        raise ConfigError("config lists no metrics")
    for metric in config.metrics:
        _metric_config(config, metric)
    inst = build_scenario(config)
    taus = config.taus[:1] if single else config.taus
    grid = np.asarray(config.s_grid, dtype=float)

    omega_inf = None
    commutant_defect = None
    if inst.static_family is None and _needs_omega_inf(config):
        omega_inf = omega_infinity(inst.decomposition, inst.path, grid, step=config.step)
        h_norm = inst.h_o.norm()
        commutant_defect = max(
            operator_norm(u @ inst.h_o.matrix - inst.h_o.matrix @ u)
            for u in omega_inf.unitaries
        ) / max(h_norm, 1e-300)

    out_dir = config.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def job(tau: float) -> dict[str, _TauData]:
        cache: dict = {}
        out: dict[str, _TauData] = {}
        if inst.static_family is not None:
            for metric in config.metrics:
                out[metric] = _evaluate_static_metric(metric, inst, config, tau)
            return out
        result = evolve(inst.h_o, inst.path, tau, grid, step=config.step)
        if config.save_propagators and out_dir:
            result.save(os.path.join(out_dir, f"run_{inst.name}_{tau:g}.prop"))
        for metric in config.metrics:
            data = _evaluate_dynamic_metric(
                metric, inst, config, tau, result, omega_inf, cache
            )
            if _metric_kind(metric)[0] == "schrodinger_limit":
                data.extra["commutant_defect"] = commutant_defect
            out[metric] = data
        return out

    per_metric: dict[str, dict[float, _TauData]] = {m: {} for m in config.metrics}
    failure: Exception | None = None
    failed_tau: float | None = None
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            futures = {tau: pool.submit(job, tau) for tau in taus}
        for tau in taus:
            try:
                result = futures[tau].result()
            except Exception as exc:  # noqa: BLE001 - reported with context below
                failure, failed_tau = exc, tau
                break
            for metric, data in result.items():
                per_metric[metric][tau] = data
    else:
        for tau in taus:
            try:
                result = job(tau)
            except Exception as exc:  # noqa: BLE001
                failure, failed_tau = exc, tau
                break
            for metric, data in result.items():
                per_metric[metric][tau] = data

    completed = [t for t in taus if all(t in per_metric[m] for m in config.metrics)]
    outcomes = []
    if completed:
        for metric in config.metrics:
            outcomes.append(
                _fit_and_verdict(inst.name, metric, config, tuple(completed), per_metric[metric])
            )

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
