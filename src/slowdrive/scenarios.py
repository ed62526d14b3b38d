"""Scenario catalog and configuration ingestion.

Each scenario packages a concrete (H_o, Lambda path, observables, probe
vectors) instance of the driven problem H_o + Lambda(t/tau)/tau:

* ``two_level_rotating``    — a rotating-field two-level demonstrator recast
  into additive-perturbation form through the interaction frame (the twisted
  generator is constant, so the propagator has a closed form).
* ``direct_sum_counterexample`` — non-interacting two-level blocks with
  shrinking splittings 1/k and a common sigma_x drive; the norm metric stays
  bounded below at resonant tau while fixed-vector (SOT) metrics decay.
* ``swap_sequence``         — the static unitary family swapping levels 0 and
  n of a dense diagonal spectrum: conjugated H_o converges in norm while the
  conjugated rank-one projection does not converge strongly to itself.
* ``embedded_eigenvalue``   — a degenerate level at 0 embedded in a dense grid
  on [-1, 1] with a smooth seeded drive.
* ``pure_point_omega``      — a nondegenerate (or block-degenerate) spectrum
  for the limit-evolution comparison.
* ``fermi_observable``      — the embedded scenario with occupation-function
  observables at chemical potential mu = 0 (an eigenvalue).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diagnostics import TestVectorSet
from .operators import (
    EigensolverError,
    HermitianOperator,
    direct_sum,
    hermitian_eigendecomposition,
    hermitian_norm,
    pauli,
    unitary_exponential,
)
from .propagation import GeneratorPath
from .spectral import calculus_continuous, fermi_dirac, projection_eq, projection_leq

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "ScenarioInstance",
    "build_scenario",
    "list_scenarios",
    "seeded_pair_path",
    "step_path",
]


class ConfigError(ValueError):
    """Malformed scenario configuration."""


# Every config key, with the JSON types it accepts.
_CONFIG_TYPES = {
    "scenario": str,
    "params": dict,
    "taus": list,
    "s_grid": (dict, list),
    "step": (int, float, type(None)),
    "metrics": list,
    "metric_params": dict,
    "out_dir": (str, type(None)),
    "seed": int,
    "threads": int,
    "save_propagators": bool,
}
_MAX_GRID_POINTS = 100_000
# A sweep starts one thread per pending tau, up to this many.
_MAX_THREADS = 64
# Integer scenario params are sizes (levels, blocks, pairs); each scenario's
# dimension is at most 2 * _MAX_SIZE_PARAM + 1.
_MAX_SIZE_PARAM = 4096


@dataclass(frozen=True)
class ScenarioConfig:
    """A single sweep request: scenario, dimensions, drive, tau list, s-grid,
    metrics, and output/seeding controls. Unknown keys are rejected."""

    scenario: str
    params: dict = field(default_factory=dict)
    taus: tuple[float, ...] = ()
    s_grid: tuple[float, ...] = ()
    step: float | None = None
    metrics: tuple[str, ...] = ()
    metric_params: dict = field(default_factory=dict)
    out_dir: str | None = None
    seed: int = 0
    threads: int = 1
    save_propagators: bool = False

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; known: {sorted(SCENARIOS)}"
            )
        taus = tuple(float(t) for t in self.taus)
        if not all(0 < t < math.inf for t in taus):
            raise ConfigError("tau values must be finite and positive")
        if len(set(taus)) != len(taus):
            raise ConfigError("tau values must be distinct")
        grid = tuple(float(s) for s in self.s_grid)
        # Chained comparisons are False on NaN, so a NaN point is rejected too.
        if grid and (grid[0] != 0.0 or not all(a < b <= 1.0 for a, b in zip(grid, grid[1:]))):
            raise ConfigError("s_grid must increase within [0, 1] and include 0")
        if self.step is not None and not 0 < self.step < math.inf:
            raise ConfigError("step must be finite and positive")
        if not 1 <= self.threads <= _MAX_THREADS:
            raise ConfigError(f"threads must lie in [1, {_MAX_THREADS}], got {self.threads!r}")
        # The number rule on the values as given: float() above takes True and "5".
        step = () if self.step is None else (self.step,)
        for what, values in {"taus": self.taus, "s_grid": self.s_grid, "step": step}.items():
            for value in values:
                _check_number(what, value)
        _check_number("seed", self.seed, whole=True)
        if not 0 <= self.seed < 2**64:  # --seed is a u64
            raise ConfigError(f"seed must lie in [0, 2**64 - 1], got {self.seed!r}")
        _check_number("threads", self.threads, whole=True)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "s_grid", grid)
        if self.step is not None:
            object.__setattr__(self, "step", float(self.step))

    @staticmethod
    def from_mapping(doc: dict) -> "ScenarioConfig":
        """Parse a decoded JSON config; anything malformed raises ConfigError."""
        if not isinstance(doc, dict):
            raise ConfigError("a config must be a JSON object")
        extra = set(doc) - set(_CONFIG_TYPES)
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        if "scenario" not in doc:
            raise ConfigError("config requires a scenario name")
        wrong = sorted(k for k, v in doc.items() if not isinstance(v, _CONFIG_TYPES[k]))
        if wrong:
            raise ConfigError(f"config keys of the wrong JSON type: {wrong}")
        metrics, metric_params = doc.get("metrics", []), doc.get("metric_params", {})
        if not all(isinstance(m, str) for m in metrics):
            raise ConfigError("metrics must be a list of metric names")
        if not all(isinstance(p, dict) for p in metric_params.values()):
            raise ConfigError("each metric_params entry must be an object")
        try:
            return ScenarioConfig(
                scenario=doc["scenario"],
                params=dict(doc.get("params", {})),
                taus=tuple(doc.get("taus", ())),
                s_grid=_parse_grid(doc.get("s_grid", {"points": 21})),
                step=doc.get("step"),
                metrics=tuple(metrics),
                metric_params=dict(metric_params),
                out_dir=doc.get("out_dir"),
                seed=doc.get("seed", 0),
                threads=doc.get("threads", 1),
                save_propagators=doc.get("save_propagators", False),
            )
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed config: {exc}") from None

    @staticmethod
    def from_file(path) -> "ScenarioConfig":
        """Parse a JSON config file; NaN and infinite numbers, which Python's
        json accepts, raise ConfigError."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_finite_number, parse_float=_finite_number)
        return ScenarioConfig.from_mapping(doc)


def _finite_number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"config holds a non-finite number: {token}")
    return value


def _check_number(what: str, value, whole: bool = False):
    """The rule for every number a config holds: a number, not a bool, within
    +-float max, and a whole number where ``whole``. Returns ``value``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    # Comparisons are False on NaN, and exact for integers past the float range.
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{what} must be finite")
    if whole and value != int(value):
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    return value


def _parse_grid(s_grid) -> tuple[float, ...]:
    if isinstance(s_grid, list):
        s_grid = {"values": s_grid}
    extra = set(s_grid) - {"points", "values"}
    if extra:
        raise ConfigError(f"unknown s_grid keys: {sorted(extra)}")
    if "values" in s_grid:
        if len(s_grid["values"]) > _MAX_GRID_POINTS:
            raise ConfigError(f"s_grid.values holds more than {_MAX_GRID_POINTS} points")
        return tuple(s_grid["values"])
    n = int(_check_number("s_grid.points", s_grid.get("points", 21), whole=True))
    if not 2 <= n <= _MAX_GRID_POINTS:
        raise ConfigError(f"s_grid.points must lie in [2, {_MAX_GRID_POINTS}]")
    return tuple(np.linspace(0.0, 1.0, n))


@dataclass(frozen=True)
class ScenarioInstance:
    """A concrete system: H_o, drive path, named observables, probe vectors,
    and optional closed-form references for oracle checks."""

    name: str
    h_o: HermitianOperator
    path: GeneratorPath | None
    observables: tuple[tuple[str, HermitianOperator], ...]
    vectors: TestVectorSet
    embedded_level: float | None = None
    gap_pair: tuple[float, float] | None = None
    static_family: Callable[[int], np.ndarray] | None = None
    reference: dict = field(default_factory=dict)

    def observable(self, label: str) -> HermitianOperator:
        for name, op in self.observables:
            if name == label:
                return op
        raise ConfigError(f"no observable {label!r}; have {[n for n, _ in self.observables]}")


def _check_params(params: dict, allowed: dict) -> dict:
    """Merge ``params`` over the defaults in ``allowed``. Each value must be a
    finite number, and a whole number up to _MAX_SIZE_PARAM where the default
    is an integer; the drive strength ``kappa`` must be >= 0."""
    extra = set(params) - set(allowed)
    if extra:
        raise ConfigError(f"unknown scenario params: {sorted(extra)}")
    for key, value in params.items():
        _check_number(f"scenario param {key}", value)
        if key == "kappa" and value < 0:
            raise ConfigError("scenario param kappa must be >= 0")
        if isinstance(allowed[key], int) and not (
            value == int(value) and value <= _MAX_SIZE_PARAM
        ):
            raise ConfigError(
                f"scenario param {key} must be a whole number <= {_MAX_SIZE_PARAM}"
            )
    merged = dict(allowed)
    merged.update(params)
    return merged


def _seeded_hermitian(rng: np.random.Generator, dim: int, real: bool = False) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    if not real:
        g = g + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / max(hermitian_norm(h), 1e-300)


def seeded_pair_path(dim: int, kappa: float, seed: int, real: bool = False) -> GeneratorPath:
    """Smooth seeded drive Lambda(s) = A + s*B with sup_s ||Lambda|| = kappa.

    A and B are independent normalized seeded Hermitian matrices, so the
    endpoints differ in every matrix entry (generic, no accidental symmetry).
    ``real`` draws real symmetric matrices, which halves the eigensolver cost
    of long sweeps without changing any of the statements under test.
    """
    if not kappa >= 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    rng = np.random.default_rng(seed)
    a = _seeded_hermitian(rng, dim, real)
    b = _seeded_hermitian(rng, dim, real)
    if kappa == 0.0:
        return GeneratorPath.zero(dim)
    # The unscaled drive's kappa, from its two endpoint samples as
    # GeneratorPath.drive takes them (complex, one batched eigvalsh).
    ends = np.array([a + 0.0 * b, a + 1.0 * b], dtype=complex)
    scale = kappa / float(hermitian_norm(ends).max())
    return GeneratorPath.drive(a * scale, b * scale, None, None)


def step_path(before, after, at: float = 0.5) -> GeneratorPath:
    """An L1-in-norm step drive: Lambda(s) = before for s < at, after for
    s >= at, as the form before + p(s) (after - before) with the unit step
    p at 0 < at < 1."""
    before, after = np.asarray(before), np.asarray(after)
    if before.shape != after.shape:
        raise ValueError("step halves must share a dimension")
    return GeneratorPath.drive(before, after - before, at, None)


# --- builders ---------------------------------------------------------------


def _build_two_level_rotating(params: dict, seed: int) -> ScenarioInstance:
    p = _check_params(params, {"amplitude": 1.0, "tilt": math.pi / 3})
    b = float(p["amplitude"])
    tilt = float(p["tilt"])
    h_o = HermitianOperator(b * (math.sin(tilt) * pauli("x") + math.cos(tilt) * pauli("z")))
    # Rotation about z at unit winding: V(s) = exp(-i pi s sigma_z) carries
    # H_o around the axis; in the rotating frame the drive becomes the
    # constant twisted generator -pi sigma_z.
    lam = -math.pi * pauli("z")
    path = GeneratorPath.constant(lam)
    d = hermitian_eigendecomposition(h_o)
    lower = projection_leq(d, -abs(b))

    def reference_propagator(tau: float, s: float) -> np.ndarray:
        return unitary_exponential(HermitianOperator(tau * h_o.matrix + lam), s).matrix

    eigvecs = TestVectorSet.from_columns(
        [d.vectors[:, i] for i in range(2)],
        labels=("lower", "upper"),
        provenance=("eigenvector", "eigenvector"),
    )
    vectors = eigvecs.extended_with(TestVectorSet.seeded_gaussian(2, 2, seed + 1))
    return ScenarioInstance(
        name="two_level_rotating",
        h_o=h_o,
        path=path,
        observables=(("lower_level", lower),),
        vectors=vectors,
        gap_pair=(-abs(b), abs(b)),
        reference={"propagator": reference_propagator},
    )


def _build_direct_sum(params: dict, seed: int) -> ScenarioInstance:
    p = _check_params(params, {"blocks": 64})
    n_blocks = int(p["blocks"])
    if n_blocks < 1:
        raise ConfigError("blocks must be >= 1")
    sz, sx = pauli("z"), pauli("x")
    h_o = HermitianOperator(direct_sum([sz / k for k in range(1, n_blocks + 1)]))
    path = GeneratorPath.constant(direct_sum([sx] * n_blocks))
    d = hermitian_eigendecomposition(h_o)
    negative = HermitianOperator(
        projection_leq(d, 0.0).matrix - projection_eq(d, 0.0).matrix
    )

    dim = 2 * n_blocks
    e_up = np.zeros(dim, dtype=complex)
    e_up[0] = 1.0
    e_dn = np.zeros(dim, dtype=complex)
    e_dn[1] = 1.0
    block1 = TestVectorSet.from_columns(
        [e_up, e_dn],
        labels=("block1_up", "block1_dn"),
        provenance=("finite_support", "finite_support"),
    )
    vectors = block1.extended_with(TestVectorSet.seeded_gaussian(dim, 4, seed + 1))
    return ScenarioInstance(
        name="direct_sum_counterexample",
        h_o=h_o,
        path=path,
        observables=(("negative_energies", negative),),
        vectors=vectors,
    )


def _build_swap_sequence(params: dict, seed: int) -> ScenarioInstance:
    p = _check_params(params, {"half_width": 32})
    m_half = int(p["half_width"])
    if m_half < 1:
        raise ConfigError("half_width must be >= 1")
    dim = 2 * m_half + 1
    site = lambda m: m + m_half  # noqa: E731  (index of basis level m)
    diag = np.zeros(dim)
    for m in range(-m_half, m_half + 1):
        if m != 0:
            diag[site(m)] = 1.0 / m
    h_o = HermitianOperator(np.diag(diag))
    d = hermitian_eigendecomposition(h_o)

    def swap_unitary(n: int) -> np.ndarray:
        if not (1 <= n <= m_half):
            raise ValueError(f"swap index must lie in [1, {m_half}]")
        v = np.eye(dim, dtype=complex)
        i, j = site(0), site(n)
        v[[i, j]] = v[[j, i]]
        return v

    p_zero = projection_eq(d, 0.0)
    e0 = np.zeros(dim, dtype=complex)
    e0[site(0)] = 1.0
    fs = np.zeros(dim, dtype=complex)
    fs[site(1)] = fs[site(-1)] = 1.0 / math.sqrt(2.0)
    vectors = TestVectorSet.from_columns(
        [e0, fs],
        labels=("e0", "fs_pm1"),
        provenance=("eigenvector", "finite_support"),
    )
    return ScenarioInstance(
        name="swap_sequence",
        h_o=h_o,
        path=None,
        observables=(("p_zero", p_zero),),
        vectors=vectors,
        embedded_level=0.0,
        static_family=swap_unitary,
    )


def _embedded_grid(grid_points: int) -> np.ndarray:
    """grid_points values densely filling [-1, 1] with no point at 0:
    linspace(-1, 1, grid_points + 1) minus its entry nearest to zero."""
    base = np.linspace(-1.0, 1.0, grid_points + 1)
    drop = int(np.argmin(np.abs(base)))
    return np.delete(base, drop)


def _build_embedded(params: dict, seed: int, name: str = "embedded_eigenvalue"):
    defaults = {"grid_points": 63, "multiplicity": 1, "kappa": 1.0}
    if name == "fermi_observable":
        defaults["beta"] = 10.0
    p = _check_params(params, defaults)
    grid_points = int(p["grid_points"])
    mult = int(p["multiplicity"])
    if grid_points < 2 or mult < 1:
        raise ConfigError("grid_points must be >= 2 and multiplicity >= 1")
    levels = np.concatenate([_embedded_grid(grid_points), np.zeros(mult)])
    dim = levels.size
    h_o = HermitianOperator(np.diag(levels))
    d = hermitian_eigendecomposition(h_o)
    path = seeded_pair_path(dim, float(p["kappa"]), seed, real=True)
    p_embedded = projection_eq(d, 0.0)
    observables = [("p_embedded", p_embedded)]
    if name == "fermi_observable":
        beta = float(p["beta"])
        observables.append(
            ("fermi", calculus_continuous(d, fermi_dirac(0.0, beta)))
        )
        observables.append(("filled_below_mu", projection_leq(d, 0.0)))
    vectors = TestVectorSet.seeded_gaussian(dim, 8, seed + 1)
    return ScenarioInstance(
        name=name,
        h_o=h_o,
        path=path,
        observables=tuple(observables),
        vectors=vectors,
        embedded_level=0.0,
        gap_pair=(-0.25, 0.25),
    )


def _build_fermi(params: dict, seed: int) -> ScenarioInstance:
    return _build_embedded(params, seed, name="fermi_observable")


def _build_pure_point(params: dict, seed: int) -> ScenarioInstance:
    p = _check_params(params, {"dim": 16, "degenerate_pairs": 0, "kappa": 1.0})
    dim = int(p["dim"])
    pairs = int(p["degenerate_pairs"])
    if dim < 2 or pairs < 0 or 2 * pairs > dim:
        raise ConfigError("need dim >= 2 and 0 <= 2*degenerate_pairs <= dim")
    rng = np.random.default_rng(seed)
    n_distinct = dim - pairs
    # Jittered uniform levels on [-1, 1]: distinct with a guaranteed gap.
    base = np.linspace(-1.0, 1.0, n_distinct)
    gap = base[1] - base[0]
    base = base + 0.25 * gap * rng.uniform(-1.0, 1.0, n_distinct)
    levels = np.concatenate([base, base[:pairs]])  # duplicate the lowest `pairs`
    h_o = HermitianOperator(np.diag(levels))
    d = hermitian_eigendecomposition(h_o)
    path = seeded_pair_path(dim, float(p["kappa"]), seed + 2)
    vectors = TestVectorSet.seeded_gaussian(dim, 8, seed + 3)
    p_low = projection_leq(d, float(np.median(levels)))
    return ScenarioInstance(
        name="pure_point_omega",
        h_o=h_o,
        path=path,
        observables=(("lower_half", p_low),),
        vectors=vectors,
    )


SCENARIOS: dict[str, tuple[Callable[[dict, int], ScenarioInstance], str, str]] = {
    "two_level_rotating": (
        _build_two_level_rotating,
        "Rotating-field two-level demonstrator recast to an additive constant drive",
        "demo:rotating-frame-two-level",
    ),
    "direct_sum_counterexample": (
        _build_direct_sum,
        "Direct sum of two-level blocks with splittings 1/k under a common sigma_x drive",
        "counterexample:direct-sum-resonance",
    ),
    "swap_sequence": (
        _build_swap_sequence,
        "Static level-swap unitaries: norm convergence of H_o without SOT convergence of P_0",
        "counterexample:level-swap",
    ),
    "embedded_eigenvalue": (
        _build_embedded,
        "Degenerate eigenvalue at 0 embedded in a dense grid on [-1, 1], smooth seeded drive",
        "target:embedded-eigenprojection",
    ),
    "pure_point_omega": (
        _build_pure_point,
        "Pure-point spectrum for the limit-evolution comparison",
        "target:limit-evolution",
    ),
    "fermi_observable": (
        _build_fermi,
        "Embedded scenario with occupation-function observables at mu = 0",
        "target:occupation-at-eigenvalue",
    ),
}


def build_scenario(config: ScenarioConfig) -> ScenarioInstance:
    """The scenario of ``config``; params whose operators cannot be
    diagonalised (say, entries that overflow) raise :class:`ConfigError`."""
    builder, _, _ = SCENARIOS[config.scenario]
    try:
        return builder(config.params, config.seed)
    except EigensolverError as exc:
        raise ConfigError(f"scenario {config.scenario} cannot be built: {exc}") from None


def list_scenarios() -> list[tuple[str, str, str]]:
    """(name, one-line description, anchor slug) for every scenario."""
    return [(name, desc, anchor) for name, (_, desc, anchor) in SCENARIOS.items()]
