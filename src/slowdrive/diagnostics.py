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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .operators import (
    FUNCTION_RTOL,
    HermitianOperator,
    SpectralDecomposition,
    gram_norm,
    hermitian_norm,
    operator_norm,
)
from .propagation import GeneratorPath, PropagatorResult, comparison_family
from .spectral import band_projection, gap_columns, projection_eq

__all__ = [
    "TestVectorSet",
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
    "two_valued_blocks",
    "resolvent_distance",
    "offdiagonal_block_decay",
    "embedded_offblock_profile",
    "embedded_eigenprojection_decay",
    "schrodinger_limit_profile",
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
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
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


# --- Heisenberg distances ---------------------------------------------------


def conjugation_distance_norm(w: np.ndarray, a: np.ndarray) -> float:
    """||W A W^+ - A|| for any square A, by its Gram matrix (no SVD)."""
    return gram_norm(w @ a @ w.conj().T - a)


def conjugation_distance_sot(
    w: np.ndarray, a: np.ndarray, psi: np.ndarray
) -> float | np.ndarray:
    """||(W A W^+ - A) psi||; for psi a (dim, count) block, one value per column."""
    return np.linalg.norm(w @ (a @ (w.conj().T @ psi)) - a @ psi, axis=0)


def _eigen_form(d: SpectralDecomposition, a: np.ndarray) -> np.ndarray:
    """``a`` in the eigenbasis V of H: its per-column values f (a 1-D array,
    V† a V = diag f) when it is a function of H, which every observable of
    the catalog is; else the matrix V† a V, formed once."""
    c = d.coefficients(a)
    if c is not None:
        return np.repeat(c, d.multiplicities)
    return d.vectors.conj().T @ a @ d.vectors


def _times(a_e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a_e @ x for an eigenbasis form of :func:`_eigen_form`."""
    return a_e[:, None] * x if a_e.ndim == 1 else a_e @ x


def two_valued_blocks(f: np.ndarray) -> tuple[float, np.ndarray] | None:
    """For A = alpha P + beta (1 - P), P a spectral projection of H, given as
    its per-column values ``f`` in the eigenbasis of H (A = V diag(f) V†):
    (|alpha - beta|, inner), where the boolean column mask ``inner`` selects
    the rarer value. None for any other f. A single value gives
    |alpha - beta| = 0 and an empty ``inner``.

    Then ||W A W^+ - A|| = |alpha - beta| ||U[~inner, inner]|| for the frame
    U = V† W V: W P W^+ and P are orthogonal projections of equal rank, for
    which ||Q - P|| = ||(1 - P) Q|| (Kato, Perturbation Theory, I 6.8), and
    ||(1 - P) W P W^+|| = ||V_out^+ W V_in|| for unitary W."""
    lo, hi = f.min(), f.max()
    tol = FUNCTION_RTOL * max(abs(lo), abs(hi))
    if hi - lo <= 2 * tol:
        return 0.0, np.zeros(f.size, dtype=bool)
    upper = hi - f <= tol
    if not np.all(upper | (f - lo <= tol)):
        return None
    gap = float(f[upper].mean() - f[~upper].mean())
    return gap, upper if 2 * np.count_nonzero(upper) <= f.size else ~upper


def heisenberg_distance_norm(
    h_o: HermitianOperator, result: PropagatorResult, a: HermitianOperator
) -> tuple[np.ndarray, float]:
    """||W(s) A W(s)^+ - A|| per grid point, and its sup over the grid, from
    the frames U = V† W V in the eigenbasis V of H_o.

    A two-valued function of H_o (every spectral projection) takes the norm
    of one index block of U (``two_valued_blocks``); any other A the largest
    |eigenvalue| of the Hermitian difference U A_e U† - A_e, where A_e is
    diag(f) for a function f of H_o (one product per point) and V† A V
    otherwise."""
    d = h_o.decomposition
    frames = result.frames_in(d)
    a_e = _eigen_form(d, a.matrix)
    blocks = two_valued_blocks(a_e) if a_e.ndim == 1 else None
    if blocks is not None:
        gap, inner = blocks
        block = np.ix_(~inner, inner)
        values = [gap * gram_norm(u[block]) for u in frames]
    else:
        full = np.diag(a_e) if a_e.ndim == 1 else a_e
        values = [hermitian_norm(u @ _times(a_e, u.conj().T) - full) for u in frames]
    values = np.array(values)
    return values, float(values.max())


def heisenberg_distance_sot(
    h_o: HermitianOperator,
    result: PropagatorResult,
    a: HermitianOperator,
    vectors: TestVectorSet,
) -> tuple[np.ndarray, np.ndarray]:
    """For each probe vector psi: ||(W(s) A W(s)^+ - A) psi|| per grid point,
    as ||(U A_e U† - A_e) psi_e|| in the eigenbasis V of H_o, with
    psi_e = V† psi and A_e = V† A V formed once per call (diagonal for a
    function of H_o).

    Returns (values, sups) with values shaped (len(vectors), len(s_grid))."""
    d = h_o.decomposition
    a_e = _eigen_form(d, a.matrix)
    psis = d.vectors.conj().T @ vectors.vectors.T
    a_psis = _times(a_e, psis)
    values = [
        np.linalg.norm(u @ _times(a_e, u.conj().T @ psis) - a_psis, axis=0)
        for u in result.frames_in(d)
    ]
    out = np.stack(values, axis=1)
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


def resolvent_distance(
    h_o: HermitianOperator,
    result: PropagatorResult,
    z: complex,
    path: GeneratorPath | None = None,
) -> ResolventRecord:
    """||W(s) (H_o - z)^-1 W(s)^+ - (H_o - z)^-1|| per grid point. In the
    eigenbasis V of H_o the resolvent is diag(rho), rho = 1/(w - z), and the
    difference times the unitary frame U = V† W V is U diag(rho) -
    diag(rho) U = U ∘ (rho_k - rho_j), so each value is the Gram-matrix norm
    of that elementwise product: no inverse and no conjugation product.

    With the path's kappa/kappa_dot available, also checks the explicit
    decay bound value <= C / ((Im z)^2 tau) with the conservative constant
    C = kappa_dot + 2 kappa (kappa + |Im z|) (implementation-specific; it
    dominates the sharp three-term constant whenever kappa + |Im z| >= 1).
    """
    z = complex(z)
    # the bound divides by (Im z)^2, which must neither underflow nor overflow
    if not 0.0 < z.imag * z.imag < math.inf:
        raise ValueError(f"z needs an imaginary part with 0 < (Im z)^2 < inf, got {z}")
    d = h_o.decomposition
    rho = 1.0 / (d.column_values - z)
    spread = rho[None, :] - rho[:, None]
    values = np.array([gram_norm(u * spread) for u in result.frames_in(d)])
    sup = float(values.max())
    constant = bound = ok = None
    if path is not None and path.kappa_dot is not None:
        constant = path.kappa_dot + 2.0 * path.kappa * (path.kappa + abs(z.imag))
        bound = constant / (z.imag**2 * result.tau)
        ok = bool(sup <= bound)
    return ResolventRecord(
        z=z, values=values, sup=sup, bound_constant=constant, bound_value=bound, bound_ok=ok
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
) -> OffDiagonalRecord:
    """||P1 Omega_tau(t,s) P2|| and its interchange, where P1 = chi(H_o <= e1)
    and P2 = chi(H_o >= e2) straddle the gap (e1, e2).

    Omega_tau(t,s) = exp(i tau (t-s) H_o) W(t) W(s)^+, and the spectral
    projections commute with the unitary phase exp(i tau (t-s) H_o), so the
    norms are those of P1 W(t) W(s)^+ P2 and P2 W(t) W(s)^+ P1: the phase is
    never formed. With the eigenvector columns of P1 and P2 as index
    ranges, they are the norms of two index blocks of M = U(t) U(s)^+, the
    frames U = V† W V in the eigenbasis V of H_o; no projection is formed
    either."""
    if e2 <= e1:
        raise ValueError("requires e2 > e1")
    d = h_o.decomposition
    lower, upper = gap_columns(d, e1, e2)
    u_t, u_s = result.frames_in(d)[[result.index_of(t), result.index_of(s)]]
    m = u_t @ u_s.conj().T
    return OffDiagonalRecord(
        e1=e1,
        e2=e2,
        t=t,
        s=s,
        value_low_high=gram_norm(m[lower, upper]),
        value_high_low=gram_norm(m[upper, lower]),
    )


# --- embedded eigenprojection decay ------------------------------------------


@dataclass(frozen=True)
class EmbeddedDecayRecord:
    vector_id: str
    offblock_sup: float  # sup_s ||(1 - P_E) Omega(s,0) P_E psi||
    projection_sup: float  # sup_s ||(W P_E W^+ - P_E) psi||
    band_mass_above: float  # ||chi(E < H < E + delta) psi||, delta = 1/sqrt(tau)
    band_mass_below: float  # ||chi(E - delta < H < E) psi||


def embedded_offblock_profile(
    h_o: HermitianOperator, result: PropagatorResult, p_e: np.ndarray, vectors: TestVectorSet
) -> np.ndarray:
    """||(1 - P_E) Omega(s_j, 0) P_E psi|| for every probe vector and grid
    point, shaped (len(vectors), len(s_grid)): 1 - P_E commutes with the
    phase of Omega(s, 0) = exp(i tau s H_o) W(s), so the value is
    ||(1 - P_E) W(s_j) P_E psi||, taken in the eigenbasis V of H_o from the
    frame U = V† W V, P_E in that basis and psi_e = V† psi (formed once per
    call). One product of U with the probes per grid point."""
    d = h_o.decomposition
    p = _eigen_form(d, p_e)
    pe_psis = _times(p, d.vectors.conj().T @ vectors.vectors.T)
    values = []
    for u in result.frames_in(d):
        moved = u @ pe_psis
        values.append(np.linalg.norm(moved - _times(p, moved), axis=0))
    return np.stack(values, axis=1)


def embedded_eigenprojection_decay(
    h_o: HermitianOperator,
    result: PropagatorResult,
    e: float,
    vectors: TestVectorSet,
) -> list[EmbeddedDecayRecord]:
    """Per-vector SOT decay data for the spectral projection at eigenvalue e,
    with the 1/sqrt(tau) band split recorded alongside."""
    d = h_o.decomposition
    p_e = projection_eq(d, e)
    if operator_norm(p_e.matrix) == 0.0:
        raise ValueError(f"{e} is not an eigenvalue of H_o (no level within cluster_tol)")
    off = embedded_offblock_profile(h_o, result, p_e.matrix, vectors)
    _, proj = heisenberg_distance_sot(h_o, result, p_e, vectors)
    delta = 1.0 / math.sqrt(result.tau)
    band_up = band_projection(d, e, e + delta).matrix
    band_dn = band_projection(d, e - delta, e).matrix
    return [
        EmbeddedDecayRecord(
            vector_id=label,
            offblock_sup=float(off[i].max()),
            projection_sup=float(proj[i]),
            band_mass_above=float(np.linalg.norm(band_up @ psi)),
            band_mass_below=float(np.linalg.norm(band_dn @ psi)),
        )
        for i, (label, psi) in enumerate(zip(vectors.labels, vectors.vectors))
    ]


# --- pure-point limit comparison ----------------------------------------------


@dataclass(frozen=True)
class SchrodingerLimitRecord:
    vector_id: str
    distance_sup: float  # sup_s ||(Omega_tau(s) - Omega_inf(s)) psi||
    block_distance_sup: float  # same with Omega_tau block-compressed
    gronwall_envelope: float  # sup_s ||R_tau(s) psi|| * exp(path.l1_norm())


def schrodinger_limit_profile(
    h_o: HermitianOperator,
    omegas: np.ndarray,
    omega_inf: PropagatorResult,
    vectors: TestVectorSet,
) -> np.ndarray:
    """||(Omega_tau(s_j) - Omega_inf(s_j)) psi|| for every probe vector and
    grid point, shaped (len(vectors), len(omegas)), from ``omegas`` in the
    eigenbasis V of H_o (:func:`comparison_family`): the norm of
    V† Omega_tau psi - V† Omega_inf psi, with psi_e = V† psi formed once
    and V† Omega_inf psi read from the frames V† Omega_inf V that
    :func:`omega_infinity` stores in the same basis. Each grid point takes
    thin products with the probes only."""
    d = h_o.decomposition
    eig_psis = d.vectors.conj().T @ vectors.vectors.T
    limits = omega_inf.frames_in(d) @ eig_psis
    return np.stack(
        [np.linalg.norm(om @ eig_psis - li, axis=0) for om, li in zip(omegas, limits)], axis=1
    )


def schrodinger_limit_distance(
    h_o: HermitianOperator,
    result: PropagatorResult,
    omega_inf: PropagatorResult,
    vectors: TestVectorSet,
    path: GeneratorPath,
) -> list[SchrodingerLimitRecord]:
    """Per-vector distance between the comparison evolution Omega_tau(s) =
    exp(i tau s H_o) W_tau(s) and the limit evolution Omega_inf(s), plus the
    Gronwall envelope sup_s ||R_tau(s) psi|| * exp(int_0^1 ||Lambda||) built
    from the off-block-diagonal Volterra remainder (grid trapezoid). The
    integral is formed here, on request, by ``path.l1_norm()``.

    H_o is taken pure point, which is automatic in finite dimension; the
    hypothesis is recorded here for fidelity to the limit statement.
    """
    if result.s_grid.shape != omega_inf.s_grid.shape or np.any(
        result.s_grid != omega_inf.s_grid
    ):
        raise ValueError("result and omega_inf must share the same s-grid")
    d = h_o.decomposition
    omegas = comparison_family(h_o, result)  # in the eigenbasis of H_o

    # Level-block mask in the eigenbasis: same-level index pairs.
    mask = d.block_mask().astype(float)

    grid = result.s_grid
    n = grid.size
    l1 = path.l1_norm()
    eig_psis = d.vectors.conj().T @ vectors.vectors.T
    limits = omega_inf.frames_in(d) @ eig_psis

    # Remainder integrand D(s) psi = B[K(s) (Omega(s) - B[Omega(s)])] psi,
    # assembled in the eigenbasis where B[.] is the Schur mask; the
    # block-compressed distance is read off the same B[Omega(s)].
    integrand = np.empty((n, d.dim, len(vectors)), dtype=complex)
    block_dist = np.empty((len(vectors), n))
    for j, s in enumerate(grid):
        om_eig = omegas[j]
        block = mask * om_eig
        kern = d.interaction_kernel(result.tau * s, path(float(s)))
        integrand[j] = (mask * (kern @ (om_eig - block))) @ eig_psis
        block_dist[:, j] = np.linalg.norm(block @ eig_psis - limits[j], axis=0)

    # Cumulative trapezoid of -i * integrand along the grid.
    r_norm_sup = np.zeros(len(vectors))
    acc = np.zeros((d.dim, len(vectors)), dtype=complex)
    for j in range(1, n):
        h = grid[j] - grid[j - 1]
        acc = acc + (-1j) * 0.5 * h * (integrand[j - 1] + integrand[j])
        r_norm_sup = np.maximum(r_norm_sup, np.linalg.norm(acc, axis=0))

    dist = schrodinger_limit_profile(h_o, omegas, omega_inf, vectors)
    return [
        SchrodingerLimitRecord(
            vector_id=label,
            distance_sup=float(dist[i].max()),
            block_distance_sup=float(block_dist[i].max()),
            gronwall_envelope=float(r_norm_sup[i] * math.exp(l1)),
        )
        for i, label in enumerate(vectors.labels)
    ]


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
