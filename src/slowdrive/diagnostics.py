"""Convergence measurements: Heisenberg-picture distances in norm and in the
strong operator topology (SOT), resolvent convergence with its 1/tau bound,
off-diagonal block decay across a spectral gap, the pure-point limit-evolution
comparison, and log-log rate fitting.

Norm-topology quantities carry bound checks and decay-rate fits; SOT
quantities report per-vector trends and ratios only (no uniform rate exists).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .operators import (
    HermitianOperator,
    SpectralDecomposition,
    hermitian_eigendecomposition,
    operator_norm,
)
from .propagation import GeneratorPath, PropagatorResult, comparison_family
from .spectral import band_projection, projection_eq, projection_geq, projection_leq

__all__ = [
    "TestVectorSet",
    "ConvergenceReport",
    "ReportRow",
    "RateFit",
    "ResolventRecord",
    "OffDiagonalRecord",
    "EmbeddedDecayRecord",
    "SchrodingerLimitRecord",
    "conjugation_distance_norm",
    "conjugation_distance_sot",
    "heisenberg_distance_norm",
    "heisenberg_distance_sot",
    "resolvent_distance",
    "offdiagonal_block_decay",
    "embedded_eigenprojection_decay",
    "schrodinger_limit_distance",
    "rate_fit",
    "write_metric_csv",
    "CSV_HEADER",
]

CSV_HEADER = ("scenario", "metric", "tau", "s", "vector_id", "value")


@dataclass(frozen=True)
class TestVectorSet:
    """Unit-norm probe vectors for SOT metrics, with provenance labels."""

    __test__ = False  # not a pytest item, despite the name

    vectors: np.ndarray  # shape (count, dim)
    labels: tuple[str, ...]
    provenance: tuple[str, ...]  # per vector: seeded_random | eigenvector | finite_support

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2:
            raise ValueError("vectors must be a (count, dim) array")
        norms = np.linalg.norm(v, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("every test vector must have unit norm to 1e-12")
        if not (len(self.labels) == len(self.provenance) == v.shape[0]):
            raise ValueError("labels/provenance must match the vector count")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def seeded_gaussian(cls, dim: int, count: int = 8, seed: int = 0) -> "TestVectorSet":
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        return cls(
            vectors=raw,
            labels=tuple(f"g{i}" for i in range(count)),
            provenance=("seeded_random",) * count,
        )

    @classmethod
    def from_columns(
        cls, columns: Sequence[np.ndarray], labels: Sequence[str], provenance: Sequence[str]
    ) -> "TestVectorSet":
        mat = np.stack([np.asarray(c, dtype=complex) for c in columns])
        mat = mat / np.linalg.norm(mat, axis=1)[:, None]
        return cls(vectors=mat, labels=tuple(labels), provenance=tuple(provenance))

    def extended_with(self, other: "TestVectorSet") -> "TestVectorSet":
        return TestVectorSet(
            vectors=np.vstack([self.vectors, other.vectors]),
            labels=self.labels + other.labels,
            provenance=self.provenance + other.provenance,
        )


@dataclass(frozen=True)
class ReportRow:
    tau: float
    s: float
    vector_id: str  # empty for norm metrics
    value: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Rows of (tau, s, value) for one metric of one scenario, with the
    fitted log-log slope/constant when a fit is meaningful."""

    scenario: str
    metric: str
    rows: tuple[ReportRow, ...]
    fitted_slope: float | None = None
    fitted_constant: float | None = None
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        rows = tuple(self.rows)
        if any(r.value < 0 for r in rows):
            raise ValueError("distance values must be >= 0")
        keys = [(r.tau, r.s) for r in rows]
        if keys != sorted(keys):
            rows = tuple(sorted(rows, key=lambda r: (r.tau, r.s, r.vector_id)))
        object.__setattr__(self, "rows", rows)


# --- Heisenberg distances ---------------------------------------------------


def conjugation_distance_norm(w: np.ndarray, a: np.ndarray) -> float:
    """||W A W^+ - A||."""
    return operator_norm(w @ a @ w.conj().T - a)


def conjugation_distance_sot(w: np.ndarray, a: np.ndarray, psi: np.ndarray) -> float:
    """||(W A W^+ - A) psi||."""
    return float(np.linalg.norm(w @ (a @ (w.conj().T @ psi)) - a @ psi))


def heisenberg_distance_norm(
    result: PropagatorResult, a: HermitianOperator
) -> tuple[np.ndarray, float]:
    """||W(s) A W(s)^+ - A|| per grid point, and its sup over the grid."""
    mat = a.matrix
    values = np.array(
        [conjugation_distance_norm(w, mat) for w in result.unitaries]
    )
    return values, float(values.max())


def heisenberg_distance_sot(
    result: PropagatorResult, a: HermitianOperator, vectors: TestVectorSet
) -> tuple[np.ndarray, np.ndarray]:
    """For each probe vector psi: ||(W(s) A W(s)^+ - A) psi|| per grid point.

    Returns (values, sups) with values shaped (len(vectors), len(s_grid))."""
    mat = a.matrix
    psis = vectors.vectors
    out = np.empty((len(vectors), result.s_grid.size))
    base = mat @ psis.T  # (dim, count)
    for j, w in enumerate(result.unitaries):
        moved = w @ (mat @ (w.conj().T @ psis.T))
        out[:, j] = np.linalg.norm(moved - base, axis=0)
    return out, out.max(axis=1)


# --- resolvent convergence ---------------------------------------------------


@dataclass(frozen=True)
class ResolventRecord:
    z: complex
    values: np.ndarray  # per grid point
    sup: float
    bound_constant: float | None  # C with value <= C / ((Im z)^2 tau)
    bound_value: float | None
    bound_ok: bool | None
    # sup / median over the grid; flagged (never asserted) when the profile
    # looks far from uniform in s
    uniformity_ratio: float = 1.0


def resolvent_distance(
    h_o: HermitianOperator,
    result: PropagatorResult,
    z: complex,
    path: GeneratorPath | None = None,
) -> ResolventRecord:
    """||W(s) (H_o - z)^-1 W(s)^+ - (H_o - z)^-1|| per grid point.

    With the path's kappa/kappa_dot available, also checks the explicit
    decay bound value <= C / ((Im z)^2 tau) with the conservative constant
    C = kappa_dot + 2 kappa (kappa + |Im z|) (implementation-specific; it
    dominates the sharp three-term constant whenever kappa + |Im z| >= 1).
    """
    z = complex(z)
    if z.imag == 0:
        raise ValueError("z must have a nonzero imaginary part")
    dim = h_o.dim
    r = np.linalg.inv(h_o.matrix - z * np.eye(dim))
    values = np.array(
        [operator_norm(w @ r @ w.conj().T - r) for w in result.unitaries]
    )
    sup = float(values.max())
    constant = bound = ok = None
    if path is not None and path.kappa_dot is not None:
        constant = path.kappa_dot + 2.0 * path.kappa * (path.kappa + abs(z.imag))
        bound = constant / (z.imag**2 * result.tau)
        ok = bool(sup <= bound)
    median = float(np.median(values))
    return ResolventRecord(
        z=z,
        values=values,
        sup=sup,
        bound_constant=constant,
        bound_value=bound,
        bound_ok=ok,
        uniformity_ratio=sup / median if median > 0 else 1.0,
    )


# --- off-diagonal block decay ------------------------------------------------


@dataclass(frozen=True)
class OffDiagonalRecord:
    e1: float
    e2: float
    t: float
    s: float
    value_low_high: float  # ||P1 Omega P2||
    value_high_low: float  # ||P2 Omega P1||


def offdiagonal_block_decay(
    h_o: HermitianOperator,
    result: PropagatorResult,
    e1: float,
    e2: float,
    t: float,
    s: float,
    decomposition: SpectralDecomposition | None = None,
) -> OffDiagonalRecord:
    """||P1 Omega_tau(t,s) P2|| and its interchange, where P1 = chi(H_o <= e1)
    and P2 = chi(H_o >= e2) straddle the gap (e1, e2)."""
    if e2 <= e1:
        raise ValueError("requires e2 > e1")
    d = decomposition or hermitian_eigendecomposition(h_o)
    p1 = projection_leq(d, e1).matrix
    p2 = projection_geq(d, e2).matrix
    wt = result.at(t)
    ws = result.at(s)
    vals, vecs = h_o.spectrum
    omega = vecs @ (
        np.exp(1j * result.tau * (t - s) * vals)[:, None] * (vecs.conj().T @ (wt @ ws.conj().T))
    )
    return OffDiagonalRecord(
        e1=e1,
        e2=e2,
        t=t,
        s=s,
        value_low_high=operator_norm(p1 @ omega @ p2),
        value_high_low=operator_norm(p2 @ omega @ p1),
    )


# --- embedded eigenprojection decay ------------------------------------------


@dataclass(frozen=True)
class EmbeddedDecayRecord:
    vector_id: str
    offblock_sup: float  # sup_s ||(1 - P_E) Omega(s,0) P_E psi||
    projection_sup: float  # sup_s ||(W P_E W^+ - P_E) psi||
    band_mass_above: float  # ||chi(E < H < E + delta) psi||, delta = 1/sqrt(tau)
    band_mass_below: float  # ||chi(E - delta < H < E) psi||


def embedded_eigenprojection_decay(
    h_o: HermitianOperator,
    result: PropagatorResult,
    e: float,
    vectors: TestVectorSet,
    decomposition: SpectralDecomposition | None = None,
) -> list[EmbeddedDecayRecord]:
    """Per-vector SOT decay data for the spectral projection at eigenvalue e,
    with the 1/sqrt(tau) band split recorded alongside."""
    d = decomposition or hermitian_eigendecomposition(h_o)
    p_e = projection_eq(d, e).matrix
    if operator_norm(p_e) == 0.0:
        raise ValueError(f"{e} is not an eigenvalue of H_o (no level within cluster_tol)")
    eye = np.eye(d.dim)
    omegas = comparison_family(h_o, result)
    delta = 1.0 / math.sqrt(result.tau)
    band_up = band_projection(d, e, e + delta).matrix
    band_dn = band_projection(d, e - delta, e).matrix
    records = []
    for label, psi in zip(vectors.labels, vectors.vectors):
        pe_psi = p_e @ psi
        off = max(
            float(np.linalg.norm((eye - p_e) @ (om @ pe_psi))) for om in omegas
        )
        proj = max(
            conjugation_distance_sot(w, p_e, psi) for w in result.unitaries
        )
        records.append(
            EmbeddedDecayRecord(
                vector_id=label,
                offblock_sup=off,
                projection_sup=proj,
                band_mass_above=float(np.linalg.norm(band_up @ psi)),
                band_mass_below=float(np.linalg.norm(band_dn @ psi)),
            )
        )
    return records


# --- pure-point limit comparison ----------------------------------------------


@dataclass(frozen=True)
class SchrodingerLimitRecord:
    vector_id: str
    distance_sup: float  # sup_s ||(Omega_tau(s) - Omega_inf(s)) psi||
    block_distance_sup: float  # same with Omega_tau block-compressed
    gronwall_envelope: float  # sup_s ||R_tau(s) psi|| * exp(int ||Lambda||)


def schrodinger_limit_distance(
    d: SpectralDecomposition,
    result: PropagatorResult,
    omega_inf: PropagatorResult,
    vectors: TestVectorSet,
    path: GeneratorPath,
) -> list[SchrodingerLimitRecord]:
    """Per-vector distance between the comparison evolution Omega_tau(s) =
    exp(i tau s H_o) W_tau(s) and the limit evolution Omega_inf(s), plus the
    Gronwall envelope sup_s ||R_tau(s) psi|| * exp(int_0^1 ||Lambda||) built
    from the off-block-diagonal Volterra remainder (grid trapezoid).

    H_o is taken pure point, which is automatic in finite dimension; the
    hypothesis is recorded here for fidelity to the limit statement.
    """
    if result.s_grid.shape != omega_inf.s_grid.shape or np.any(
        result.s_grid != omega_inf.s_grid
    ):
        raise ValueError("result and omega_inf must share the same s-grid")
    h_o = HermitianOperator(d.operator)
    omegas = comparison_family(h_o, result)

    # Level-block mask in the eigenbasis: same-level index pairs.
    vals, vecs = h_o.spectrum
    vh = vecs.conj().T
    mask = d.block_mask().astype(float)

    grid = result.s_grid
    n = grid.size
    l1 = path.l1_norm if path.l1_norm is not None else path.kappa
    psis = vectors.vectors

    # Remainder integrand D(s) psi = B[K(s) (Omega(s) - B[Omega(s)])] psi,
    # assembled in the eigenbasis where B[.] is the Schur mask.
    integrand = np.empty((n, d.dim, len(vectors)), dtype=complex)
    for j, s in enumerate(grid):
        om_eig = vh @ omegas[j] @ vecs
        off = om_eig - mask * om_eig
        lam = vh @ np.asarray(path.sampler(float(s)), dtype=complex) @ vecs
        phase = np.exp(1j * result.tau * s * vals)
        kern = -1j * (phase[:, None] * phase.conj()[None, :]) * lam
        dmat = mask * (kern @ off)
        integrand[j] = dmat @ (vh @ psis.T)

    # Cumulative trapezoid of -i * integrand along the grid.
    r_norm_sup = np.zeros(len(vectors))
    acc = np.zeros((d.dim, len(vectors)), dtype=complex)
    for j in range(1, n):
        h = grid[j] - grid[j - 1]
        acc = acc + (-1j) * 0.5 * h * (integrand[j - 1] + integrand[j])
        r_norm_sup = np.maximum(r_norm_sup, np.linalg.norm(acc, axis=0))

    records = []
    for i, (label, psi) in enumerate(zip(vectors.labels, psis)):
        dist = max(
            float(np.linalg.norm((om - oi) @ psi))
            for om, oi in zip(omegas, omega_inf.unitaries)
        )
        block_dist = max(
            float(
                np.linalg.norm(
                    vecs @ ((mask * (vh @ om @ vecs)) @ (vh @ psi)) - oi @ psi
                )
            )
            for om, oi in zip(omegas, omega_inf.unitaries)
        )
        records.append(
            SchrodingerLimitRecord(
                vector_id=label,
                distance_sup=dist,
                block_distance_sup=block_dist,
                gronwall_envelope=float(r_norm_sup[i] * math.exp(l1)),
            )
        )
    return records


# --- rate fitting and CSV -----------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    slope: float
    constant: float  # value ~ constant * tau^slope
    residual: float  # RMS residual in log-log space
    n_used: int
    n_excluded: int


def rate_fit(rows: Iterable[tuple[float, float]]) -> RateFit:
    """Least-squares line through (log tau, log value).

    Nonpositive values are excluded (their count is reported); fewer than
    three surviving distinct tau values is an error.
    """
    taus, values, excluded = [], [], 0
    for tau, value in rows:
        if value > 0:
            taus.append(float(tau))
            values.append(float(value))
        else:
            excluded += 1
    if len(set(taus)) < 3:
        raise ValueError(
            f"rate_fit needs >= 3 distinct tau values with positive data "
            f"(got {len(set(taus))}, excluded {excluded})"
        )
    lt = np.log(np.asarray(taus))
    lv = np.log(np.asarray(values))
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = float(np.sqrt(np.mean((lv - (slope * lt + intercept)) ** 2)))
    return RateFit(
        slope=float(slope),
        constant=float(np.exp(intercept)),
        residual=resid,
        n_used=len(taus),
        n_excluded=excluded,
    )


def write_metric_csv(path, scenario: str, metric: str, rows: Iterable[ReportRow]) -> None:
    """Diagnostics CSV: header scenario,metric,tau,s,vector_id,value with
    floats at 17 significant digits; vector_id empty for norm metrics."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                (
                    scenario,
                    metric,
                    f"{r.tau:.17g}",
                    f"{r.s:.17g}",
                    r.vector_id,
                    f"{r.value:.17g}",
                )
            )
