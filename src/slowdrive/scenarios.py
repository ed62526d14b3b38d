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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diagnostics import TestVectorSet
from .operators import (
    HermitianOperator,
    SpectralDecomposition,
    direct_sum,
    hermitian_eigendecomposition,
    pauli,
)
from .propagation import GeneratorPath, SMOOTH_L1
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


_CONFIG_KEYS = {
    "scenario",
    "params",
    "taus",
    "s_grid",
    "step",
    "metrics",
    "metric_params",
    "out_dir",
    "seed",
    "threads",
    "save_propagators",
}


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
        if any(t <= 0 for t in taus):
            raise ConfigError("tau values must be positive")
        if len(set(taus)) != len(taus):
            raise ConfigError("tau values must be distinct")
        object.__setattr__(self, "taus", taus)
        grid = tuple(float(s) for s in self.s_grid)
        if grid:
            if grid[0] != 0.0 or grid[-1] > 1.0 or any(
                b <= a for a, b in zip(grid, grid[1:])
            ):
                raise ConfigError("s_grid must increase within [0, 1] and include 0")
        object.__setattr__(self, "s_grid", grid)
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")

    @staticmethod
    def from_mapping(doc: dict) -> "ScenarioConfig":
        extra = set(doc) - _CONFIG_KEYS
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        if "scenario" not in doc:
            raise ConfigError("config requires a scenario name")
        s_grid = doc.get("s_grid", {"points": 21})
        if isinstance(s_grid, dict):
            extra = set(s_grid) - {"points", "values"}
            if extra:
                raise ConfigError(f"unknown s_grid keys: {sorted(extra)}")
            if "values" in s_grid:
                grid = tuple(float(v) for v in s_grid["values"])
            else:
                n = int(s_grid.get("points", 21))
                if n < 2:
                    raise ConfigError("s_grid.points must be >= 2")
                grid = tuple(np.linspace(0.0, 1.0, n))
        else:
            grid = tuple(float(v) for v in s_grid)
        return ScenarioConfig(
            scenario=str(doc["scenario"]),
            params=dict(doc.get("params", {})),
            taus=tuple(doc.get("taus", ())),
            s_grid=grid,
            step=None if doc.get("step") is None else float(doc["step"]),
            metrics=tuple(doc.get("metrics", ())),
            metric_params=dict(doc.get("metric_params", {})),
            out_dir=doc.get("out_dir"),
            seed=int(doc.get("seed", 0)),
            threads=int(doc.get("threads", 1)),
            save_propagators=bool(doc.get("save_propagators", False)),
        )

    @staticmethod
    def from_json(text: str) -> "ScenarioConfig":
        return ScenarioConfig.from_mapping(json.loads(text))

    @staticmethod
    def from_file(path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ScenarioConfig.from_json(fh.read())


@dataclass(frozen=True)
class ScenarioInstance:
    """A concrete system: H_o, drive path, named observables, probe vectors,
    and optional closed-form references for oracle checks."""

    name: str
    h_o: HermitianOperator
    decomposition: SpectralDecomposition
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
        raise KeyError(f"no observable {label!r}; have {[n for n, _ in self.observables]}")


def _check_params(params: dict, allowed: dict) -> dict:
    extra = set(params) - set(allowed)
    if extra:
        raise ConfigError(f"unknown scenario params: {sorted(extra)}")
    merged = dict(allowed)
    merged.update(params)
    return merged


def _seeded_hermitian(rng: np.random.Generator, dim: int, real: bool = False) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    if not real:
        g = g + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / max(np.abs(np.linalg.eigvalsh(h)).max(), 1e-300)


def seeded_pair_path(dim: int, kappa: float, seed: int, real: bool = False) -> GeneratorPath:
    """Smooth seeded drive Lambda(s) = A + s*B with sup_s ||Lambda|| = kappa.

    A and B are independent normalized seeded Hermitian matrices, so the
    endpoints differ in every matrix entry (generic, no accidental symmetry).
    ``real`` draws real symmetric matrices, which halves the eigensolver cost
    of long sweeps without changing any of the statements under test.
    """
    rng = np.random.default_rng(seed)
    a = _seeded_hermitian(rng, dim, real)
    b = _seeded_hermitian(rng, dim, real)
    if kappa == 0.0:
        return GeneratorPath.zero(dim)

    def raw(s: float) -> np.ndarray:
        return a + s * b

    probe = GeneratorPath.from_sampler(dim, raw, probe_points=201)
    scale = kappa / probe.kappa
    a = a * scale
    b = b * scale

    def sampler(s: float) -> np.ndarray:
        return a + s * b

    return GeneratorPath.from_sampler(dim, sampler, probe_points=201)


def step_path(before, after, at: float = 0.5) -> GeneratorPath:
    """An L1-in-norm step drive: Lambda(s) = before for s < at, after for
    s >= at. The kink location is declared for exact mollifier splitting."""
    b = HermitianOperator(np.asarray(before, dtype=complex)).matrix
    a = HermitianOperator(np.asarray(after, dtype=complex)).matrix
    if a.shape != b.shape:
        raise ValueError("step halves must share a dimension")

    def sampler(s: float) -> np.ndarray:
        return b if s < at else a

    kappa = max(
        float(np.abs(np.linalg.eigvalsh(b)).max()),
        float(np.abs(np.linalg.eigvalsh(a)).max()),
    )
    return GeneratorPath(
        dim=b.shape[0],
        sampler=sampler,
        smoothness=SMOOTH_L1,
        kappa=kappa,
        kappa_dot=None,
        l1_norm=None,
        kinks=(at,),
    )


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
        gen = tau * h_o.matrix + lam
        vals, vecs = np.linalg.eigh(gen)
        return vecs @ (np.exp(-1j * s * vals)[:, None] * vecs.conj().T)

    eigvecs = TestVectorSet.from_columns(
        [h_o.spectrum[1][:, i] for i in range(2)],
        labels=("lower", "upper"),
        provenance=("eigenvector", "eigenvector"),
    )
    vectors = eigvecs.extended_with(TestVectorSet.seeded_gaussian(2, 2, seed + 1))
    return ScenarioInstance(
        name="two_level_rotating",
        h_o=h_o,
        decomposition=d,
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

    def block_evolution(tau: float, s: float, k: int) -> np.ndarray:
        gen = (tau / k) * sz + sx
        vals, vecs = np.linalg.eigh(gen)
        return vecs @ (np.exp(-1j * s * vals)[:, None] * vecs.conj().T)

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
        decomposition=d,
        path=path,
        observables=(("negative_energies", negative),),
        vectors=vectors,
        reference={"block_evolution": block_evolution},
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
        decomposition=d,
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
    p = _check_params(
        params, {"grid_points": 63, "multiplicity": 1, "kappa": 1.0, "beta": 10.0}
    )
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
        decomposition=d,
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
        decomposition=d,
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
    builder, _, _ = SCENARIOS[config.scenario]
    return builder(config.params, config.seed)


def list_scenarios() -> list[tuple[str, str, str]]:
    """(name, one-line description, anchor slug) for every scenario."""
    return [(name, desc, anchor) for name, (_, desc, anchor) in SCENARIOS.items()]
