"""Time evolutions for the driven problem i dW/ds = (tau*H_o + Lambda(s)) W.

Provides:

* ``evolve`` — the scaled-time propagator W_tau(s): exact for a constant
  drive; for a ramp drive, a Magnus-Filon scheme in the eigenbasis of H_o
  whose step does not depend on tau; for a step or mollified drive, or with
  an explicit step, a second-order exponential midpoint scheme. Each step's
  exponential is applied to W by a Taylor series truncated below unit
  roundoff (the action of the exponential). The returned
  ``PropagatorResult`` checks the unitarity drift at every grid point.
* ``comparison_operator`` — Omega_tau(t,s) = exp(i tau (t-s) H_o) W(t) W(s)^+,
  the unperturbed-frame comparison evolution.
* ``dyson_term`` / ``dyson_series`` — the time-ordered Volterra iterates of
  Omega_tau, used as an independent oracle for moderate tau.
* ``GeneratorPath`` — the one drive type, Lambda(s) = A + p(s) B (fixed
  Hermitian A, B; a ramp, step or mollified-step profile p, or no B for a
  constant drive), built by ``GeneratorPath.drive``, whose metadata follow
  from the form.
* ``mollify`` — convolution smoothing of a step drive into a C1 drive by
  convolving its profile, with the propagator deviation controlled by
  int ||Lambda_eps - Lambda||.
* ``interaction_frame`` — V(s) with i dV/ds = Lambda(s) V.
* ``omega_infinity`` — the limit evolution generated by the block-diagonal
  part of Lambda(s) (pure-point H_o).
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .operators import (
    DEFAULT_DRIFT_TOL,
    HermitianOperator,
    UnitaryOperator,
    format_matrix,
    hermitian_norm,
    operator_norm,
    parse_matrix,
    unitarity_drift,
)
from .spectral import SpectralDecomposition, block_compress

__all__ = [
    "PropagationError",
    "GridError",
    "DysonResolutionWarning",
    "GeneratorPath",
    "MollifierSpec",
    "PropagatorResult",
    "DysonExpansion",
    "default_step",
    "magnus_step",
    "evolve",
    "richardson_error",
    "comparison_operator",
    "comparison_family",
    "dyson_term",
    "dyson_series",
    "dyson_remainder_bound",
    "mollify",
    "interaction_frame",
    "frame_reconstruction_residual",
    "block_diagonal_path",
    "omega_infinity",
]

SMOOTH_C1 = "norm_C1"
SMOOTH_L1 = "norm_L1"


class PropagationError(RuntimeError):
    """Integration failed its unitarity/accuracy contract."""


class GridError(KeyError):
    """Requested time is not a stored grid point (interpolation is refused)."""


class DysonResolutionWarning(UserWarning):
    """quad_points is below the resolution needed for the oscillatory kernel."""


@dataclass(frozen=True, eq=False)
class GeneratorPath:
    """The perturbation path Lambda(s) = a + p(s) * b on [0, 1]: fixed
    Hermitian ``a`` and ``b`` and a nondecreasing scalar profile p with
    values in [0, 1]; ``b`` is None for the constant drive ``a``. p is the
    ramp p(s) = s when ``at`` is None, the unit step at 0 < ``at`` < 1 (0
    before it, 1 from it on), or that step convolved with the bump of
    ``mollifier``, which is the bump's distribution function at
    (s - at) / epsilon. Called with s, the path returns Lambda(s).

    ``kappa`` = sup_s ||Lambda(s)||, ``kappa_dot`` = sup_s ||dLambda/ds||
    (None for a path that is not C1), ``l1_norm`` = int_0^1 ||Lambda(s)|| ds;
    :meth:`drive` derives all three from the form.
    """

    a: np.ndarray
    b: np.ndarray | None
    at: float | None
    mollifier: MollifierSpec | None
    kappa: float
    kappa_dot: float | None = None
    l1_norm: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.kappa) or self.kappa < 0:
            raise ValueError("kappa must be finite and >= 0")
        if self.at is not None and not 0.0 < self.at < 1.0:
            raise ValueError("a step profile needs 0 < at < 1")
        if self.at is None and self.mollifier is not None:
            raise ValueError("only a step profile is mollified")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def smoothness(self) -> str:
        """``norm_C1`` when the path carries kappa_dot, else ``norm_L1``."""
        return SMOOTH_L1 if self.kappa_dot is None else SMOOTH_C1

    def __call__(self, s: float) -> np.ndarray:
        return self.a if self.b is None else self.a + self.profile(s) * self.b

    def profile(self, s: float) -> float:
        """p(s)."""
        if self.at is None:
            return s
        if self.mollifier is None:
            return 0.0 if s < self.at else 1.0
        return _bump_cdf((s - self.at) / self.mollifier.epsilon)

    def slope_and_breaks(self) -> tuple[float | None, list[float]]:
        """sup p' on [0, 1] (None for the step, which is not C1) and the points
        in (0, 1) where p is not smooth: the step, or the ends of the
        mollified rise."""
        if self.at is None:
            return 1.0, []
        if self.mollifier is None:
            return None, [self.at]
        eps = self.mollifier.epsilon
        breaks = [x for x in (self.at - eps, self.at + eps) if 0.0 < x < 1.0]
        return float(default_bump(0.0)) / eps, breaks

    @classmethod
    def drive(cls, a, b, at: float | None, mollifier: "MollifierSpec | None") -> "GeneratorPath":
        """The drive Lambda(s) = a + p(s) * b, or the constant drive a when
        ``b`` is None (``at`` and ``mollifier`` are then ignored).

        ``a`` and ``b`` are checked to be Hermitian once. ||a + p b|| is convex
        in p and p is nondecreasing, so kappa is the larger of the two
        endpoint norms; kappa_dot = ||b|| sup p' (C1 profiles only); l1_norm
        is a 16-node Gauss rule on each panel between the profile's breaks.
        Every norm comes from one batched eigvalsh.
        """
        a = HermitianOperator(a).matrix
        if b is None:
            kappa = hermitian_norm(a)
            return cls(a, None, None, None, kappa, 0.0, kappa)
        b = HermitianOperator(b).matrix
        if b.shape != a.shape:
            raise ValueError(f"drive matrices differ in shape: {a.shape} and {b.shape}")
        path = cls(a, b, at, mollifier, 0.0)  # the metadata follow from its samples
        slope, breaks = path.slope_and_breaks()
        nodes, weights = _gauss_panels([0.0, *breaks, 1.0], _GL16)
        samples = [path(0.0), path(1.0), b, *(path(float(x)) for x in nodes)]
        norms = hermitian_norm(np.array(samples))
        return replace(
            path,
            kappa=float(max(norms[0], norms[1])),
            kappa_dot=None if slope is None else float(norms[2]) * slope,
            l1_norm=float(weights @ norms[3:]),
        )

    @classmethod
    def constant(cls, matrix) -> "GeneratorPath":
        return cls.drive(matrix, None, None, None)

    @classmethod
    def zero(cls, dim: int) -> "GeneratorPath":
        return cls.constant(np.zeros((dim, dim)))


# --- mollifier ------------------------------------------------------------


def _default_bump_raw(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=float)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    return out


def _bump_normalization() -> float:
    # The bump is C^inf with all derivatives vanishing at +-1, so the
    # trapezoid rule converges superalgebraically.
    xs = np.linspace(-1.0, 1.0, 8193)
    return float(np.trapezoid(_default_bump_raw(xs), xs))


_BUMP_NORM = _bump_normalization()


def default_bump(x) -> np.ndarray:
    """Normalized exp(-1/(1-x^2)) bump supported on [-1, 1]."""
    return _default_bump_raw(np.asarray(x, dtype=float)) / _BUMP_NORM


@dataclass(frozen=True)
class MollifierSpec:
    """:func:`default_bump` scaled to width ``epsilon`` when convolved against
    a generator path."""

    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError("epsilon must lie in (0, 1/2)")


_GL16 = np.polynomial.legendre.leggauss(16)
_GL32 = np.polynomial.legendre.leggauss(32)


def _gauss_panels(edges, rule) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre ``rule`` mapped onto each
    panel between consecutive ``edges``, panel by panel."""
    lo = np.asarray(edges[:-1], dtype=float)[:, None]
    half = 0.5 * (np.asarray(edges[1:], dtype=float)[:, None] - lo)
    return (lo + half * (rule[0] + 1.0)).ravel(), (half * rule[1]).ravel()


def _bump_cdf(u: float) -> float:
    """The mass of :func:`default_bump` on [-1, u] over its mass on [-1, 1],
    each part by a 32-node Gauss-Legendre rule (the bump is smooth on both
    panels), so the value is exactly 0 below -1 and exactly 1 above 1."""
    u = min(max(u, -1.0), 1.0)
    nodes, weights = _gauss_panels([-1.0, u, 1.0], _GL32)
    mass = (weights * default_bump(nodes)).reshape(2, -1).sum(axis=1)
    return float(mass[0] / mass.sum())


def mollify(path: GeneratorPath, spec: MollifierSpec) -> GeneratorPath:
    """Convolve the drive with the scaled bump: Lambda_eps(s) =
    int phi_eps(s - s') Lambda(s') ds', Lambda extended constantly outside
    [0, 1]. Returns a norm_C1 path.

    The convolution acts on the scalar profile of the drive alone. A
    constant drive is returned as it is. A step A + H(s - at) B becomes
    A + p_eps(s) B, where p_eps(s) is the bump's distribution function at
    (s - at) / eps (:meth:`GeneratorPath.profile`); since 0 < at < 1, the
    constant extension outside [0, 1] leaves the step as it is. Any other
    drive is refused: a ramp is C1 already, and a mollified step is smooth.
    """
    if path.b is None:
        return path
    if path.at is None or path.mollifier is not None:
        raise ValueError("mollify takes a constant drive or a step drive")
    return GeneratorPath.drive(path.a, path.b, path.at, spec)


# --- the propagator -------------------------------------------------------


@dataclass(frozen=True)
class PropagatorResult:
    """W_tau(s) sampled on an s-grid, with step-size and drift metadata.

    ``steps`` counts the step exponentials applied (0 for ``exact-constant``)
    and ``step`` is the largest sub-step. The result owns the unitarity
    contract: construction measures the drift of every stored unitary
    (:func:`unitarity_drift`, the Frobenius norm of W†W - 1), refuses the
    first grid point whose drift is not within ``drift_tol`` (so a NaN or
    infinite drift fails), and keeps the largest as ``max_drift``.
    """

    tau: float
    s_grid: np.ndarray
    unitaries: np.ndarray  # shape (len(s_grid), dim, dim)
    step: float
    max_drift: float = field(init=False)
    scheme: str
    drift_tol: float = DEFAULT_DRIFT_TOL
    steps: int = 0

    def __post_init__(self):
        grid = np.asarray(self.s_grid, dtype=float)
        object.__setattr__(self, "s_grid", grid)
        us = np.asarray(self.unitaries, dtype=complex)
        object.__setattr__(self, "unitaries", us)
        grid.flags.writeable = False
        us.flags.writeable = False
        if grid.ndim != 1 or us.shape[0] != grid.size:
            raise ValueError("s_grid and unitaries are inconsistent")
        if grid[0] != 0.0:
            raise ValueError("the s-grid must start at 0")
        if not np.linalg.norm(us[0] - np.eye(us.shape[1])) <= 1e-10:
            raise ValueError("W(0) must be the identity")
        max_drift = 0.0
        for s, u in zip(grid, us):
            drift = unitarity_drift(u)
            if not drift <= self.drift_tol:
                raise PropagationError(
                    f"unitarity drift {drift:.3e} exceeds {self.drift_tol:.0e} at s={s} "
                    f"({self.scheme}, largest sub-step {self.step:.3e})"
                )
            max_drift = max(max_drift, drift)
        object.__setattr__(self, "max_drift", max_drift)

    @property
    def dim(self) -> int:
        return self.unitaries.shape[1]

    def index_of(self, s: float) -> int:
        hits = np.nonzero(np.abs(self.s_grid - s) <= 1e-12)[0]
        if hits.size != 1:
            raise GridError(
                f"s={s} is not on the stored grid; interpolation of unitaries is refused"
            )
        return int(hits[0])

    def at(self, s: float) -> np.ndarray:
        return self.unitaries[self.index_of(s)]

    # -- one-file-per-run serialization: a JSON metadata line followed by
    #    "s <value>" + matrix text blocks, one per grid point. Loading
    #    re-measures the matrices; the stored max_drift is informational.

    def save(self, path) -> None:
        meta = {
            "tau": self.tau,
            "step": self.step,
            "steps": self.steps,
            "max_drift": self.max_drift,
            "scheme": self.scheme,
            "dim": self.dim,
            "s_grid": [float(s) for s in self.s_grid],
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for s, u in zip(self.s_grid, self.unitaries):
                fh.write(f"s {s:.17g}\n")
                fh.write(format_matrix(u))

    @staticmethod
    def load(path) -> "PropagatorResult":
        with open(path, "r", encoding="utf-8") as fh:
            meta = json.loads(fh.readline())
            blocks = fh.read().split("s ")
        unitaries = []
        s_vals = []
        for block in blocks:
            if not block.strip():
                continue
            lines = block.splitlines()
            s_vals.append(float(lines[0]))
            unitaries.append(parse_matrix("\n".join(lines[1:])))
        if [round(v, 12) for v in s_vals] != [round(v, 12) for v in meta["s_grid"]]:
            raise ValueError("serialized grid disagrees with metadata")
        return PropagatorResult(
            tau=float(meta["tau"]),
            s_grid=np.array(meta["s_grid"], dtype=float),
            unitaries=np.stack(unitaries),
            step=float(meta["step"]),
            scheme=str(meta["scheme"]),
            steps=int(meta.get("steps", 0)),
        )


def default_step(tau: float, h_norm: float, kappa: float) -> float:
    """Fixed-step rule of the midpoint scheme: resolves the total phase
    tau*||H_o|| + kappa to ~0.1 radian per step, capped at 1e-3."""
    return min(1e-3, 0.1 / max(tau * h_norm + kappa, 1e-12))


# Magnus-Filon steps resolve the drive alone: 1/200 of its time scale
# 1/max(kappa, kappa_dot), and at most 1/200 of [0, 1].
MAGNUS_STEP = 1.0 / 200.0


def magnus_step(kappa: float, kappa_dot: float | None) -> float:
    """The tau-independent Magnus-Filon step h_MF = 0.005 / max(kappa,
    kappa_dot, 1)."""
    return MAGNUS_STEP / max(kappa, kappa_dot or 0.0, 1.0)


# No evolve takes more steps than this (the largest use is about 8e5).
_MAX_STEPS = 10**7


def _fits(grid: np.ndarray, step: float) -> bool:
    """Whether steps of ``step`` cover the grid within _MAX_STEPS, compared as
    floats: the count of a tiny step overflows an integer ceiling."""
    return grid[-1] - grid[0] <= _MAX_STEPS * step


def _substeps(spans: np.ndarray, step: float, slack: float = 0.0) -> list[int]:
    """Equal sub-steps of at most ``step`` per grid interval; ``slack`` lets a
    sub-step exceed ``step`` by that fraction."""
    return [max(1, math.ceil(span / step - slack)) for span in spans]


def evolve(
    h_o: HermitianOperator,
    path: GeneratorPath,
    tau: float,
    s_grid,
    step: float | None = None,
    drift_tol: float = DEFAULT_DRIFT_TOL,
) -> PropagatorResult:
    """Integrate i dW/ds = (tau*H_o + Lambda(s)) W over the s-grid.

    A constant drive (no B, :meth:`GeneratorPath.constant`) is solved
    exactly:
    W(s) = V exp(-i s w) V† from one eigendecomposition V diag(w) V† of
    tau*H_o + Lambda; ``step`` has no effect, the result's ``step`` is the
    largest grid interval and its ``steps`` is 0.

    A ramp drive A + s B with ``step`` None runs the Magnus-Filon scheme
    (:func:`_magnus_filon_states`, scheme ``magnus-filon``) at the
    tau-independent step :func:`magnus_step`, whenever that covers the grid
    within ``_MAX_STEPS``; an interval shorter than the step is one step.
    It diagonalises H_o once (its own ``decomposition``), and once per
    sub-step length (to 11 significant digits) derives the Magnus terms
    (:func:`_magnus_generator`) and tabulates the step's exponential as a
    Chebyshev polynomial in the step start (:func:`_step_polynomial`, one
    exponential per coefficient kept, 4-5 on the catalog scenarios). The
    steps then go in blocks of up to ``_STEP_BLOCK``: one real product
    evaluates a block's step matrices from the coefficients, each interval
    applies its own exact frame phase, and each step costs one complex
    matrix product. A build costs about 4-7.5 ms at dim 66, so a grid with
    many distinct interval lengths runs faster with an explicit ``step``.

    A step or mollified drive, every explicit ``step``, and a ramp that
    would need more than ``_MAX_STEPS`` Magnus-Filon steps use the
    exponential midpoint scheme
    W_{k+1} = exp(-i h (tau*H_o + Lambda(s_mid))) W_k, where the exponential
    is applied to W_k by a Taylor series whose truncation error is below
    unit roundoff (:func:`_exp_step`); no eigendecomposition is formed.
    Local error is O(h^3); with ``step`` None the step comes from
    :func:`default_step`. L1 paths are integrated
    directly from midpoint samples and flagged lower-accuracy in the scheme
    descriptor (prefer :func:`mollify` first). A step that would need more
    than ``_MAX_STEPS`` steps over the grid raises ValueError before any step
    is taken.

    Every scheme fills the whole grid and hands it to
    :class:`PropagatorResult`, which measures the unitarity drift at every
    grid point and raises :class:`PropagationError` at the first one whose
    drift is not within ``drift_tol``.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if path.dim != h_o.dim:
        raise ValueError(f"path dimension {path.dim} != operator dimension {h_o.dim}")
    grid = np.asarray(s_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("s_grid must be strictly increasing")
    if grid[0] != 0.0 or grid[-1] > 1.0:
        raise ValueError("s_grid must start at 0 and stay within [0, 1]")
    if step is not None and step <= 0:
        raise ValueError("step must be positive")
    spans = np.diff(grid)

    if path.b is None:
        scheme = "exact-constant"
        taken = float(spans.max(initial=0.0))
        steps = 0
        # an overflowed generator gives a NaN propagator, which PropagatorResult refuses
        with np.errstate(over="ignore"):
            gen = tau * h_o.matrix + path.a
        states = _exact_states(gen, grid)
    else:
        mf_step = magnus_step(path.kappa, path.kappa_dot)
        if step is None and path.at is None and _fits(grid, mf_step):
            scheme = "magnus-filon"
            # spans like 0.1 / 0.005 round up past 20 without the slack
            nsubs = _substeps(spans, mf_step, 1e-9)
            states = _magnus_filon_states(h_o.decomposition, path, tau, grid, nsubs)
        else:
            scheme = "midpoint-exponential"
            if path.smoothness == SMOOTH_L1:
                scheme += "/L1-direct"
            if step is None:
                step = default_step(tau, h_o.norm(), path.kappa)
            if not _fits(grid, step):
                raise ValueError(f"step {step:.3e} needs more than {_MAX_STEPS} steps over the grid")
            nsubs = _substeps(spans, step)
            states = _midpoint_states(h_o.matrix, path, tau, grid, nsubs)
        taken = max((span / n for span, n in zip(spans, nsubs)), default=0.0)
        steps = sum(nsubs)

    unitaries = np.empty((grid.size, h_o.dim, h_o.dim), dtype=complex)
    unitaries[0] = np.eye(h_o.dim)
    for j, w in enumerate(states, start=1):
        unitaries[j] = w
    return PropagatorResult(
        tau=tau,
        s_grid=grid,
        unitaries=unitaries,
        step=taken,
        scheme=scheme,
        drift_tol=drift_tol,
        steps=steps,
    )


def _exact_states(gen: np.ndarray, grid: np.ndarray) -> Iterator[np.ndarray]:
    """exp(-i s gen) at every grid point after the first, from one eigh."""
    vals, vecs = np.linalg.eigh(gen)
    vh = vecs.conj().T
    for s in grid[1:]:
        yield vecs @ (np.exp(-1j * s * vals)[:, None] * vh)


# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53
# Largest h*||G||_1 one Taylor application covers; a longer step is split
# into equal sub-applications. Up to 1 the term norms theta^k/k! only
# decrease, so no cancellation amplifies rounding, and the series costs 18
# products per unit of theta (a 0.1-rad step takes 9).
_THETA_MAX = 1.0


def _taylor_degree(theta: float) -> int:
    """Smallest m whose bound on the Taylor remainder sum_{k>m} theta^k/k!
    is below unit roundoff, for any theta >= 0. Each term after the first
    omitted one, theta^(m+1)/(m+1)!, is at most theta/(m+2) times the one
    before, so once m + 2 > theta the remainder is at most that term over
    1 - theta/(m+2); until then the bound does not hold and m grows."""
    m, term = 0, theta  # term = theta^(m+1) / (m+1)!
    while term * (m + 2) > _UNIT_ROUNDOFF * (m + 2 - theta):
        m += 1
        term *= theta / (m + 1)
    return m


def _exp_step(gen: np.ndarray, h: float, w: np.ndarray) -> np.ndarray:
    """exp(-i h gen) @ w for a Hermitian ``gen``, without forming the
    exponential: the action of the exponential by a truncated Taylor series
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011).

    With theta = h ||gen||_1 (which bounds h ||gen||_2 for Hermitian gen), the
    step is split into q = ceil(theta / _THETA_MAX) equal sub-applications,
    each summed to the degree m at which the remainder bound falls below unit
    roundoff. A real generator multiplies the (dim, 2*dim) real view of W in
    one real product per term.
    """
    w = np.ascontiguousarray(w, dtype=complex)
    real = not gen.imag.any()
    g = np.ascontiguousarray(gen.real) if real else gen
    theta = h * float(np.abs(g).sum(axis=0).max())
    q = max(1, math.ceil(theta / _THETA_MAX))
    m = _taylor_degree(theta / q)
    dt = h / q
    for _ in range(q):
        term = w
        acc = w.copy()
        for k in range(1, m + 1):
            term = (g @ term.view(np.float64)).view(complex) if real else g @ term
            term *= -1j * dt / k
            acc += term
        w = acc
    return w


def _midpoint_states(
    h_mat: np.ndarray, path: GeneratorPath, tau: float, grid: np.ndarray, nsubs: list[int]
) -> Iterator[np.ndarray]:
    """W at every grid point after the first, stepping each interval in
    ``nsubs`` equal exponential-midpoint steps."""
    scaled = tau * h_mat
    w_cur = np.eye(h_mat.shape[0], dtype=complex)
    for s0, s1, nsub in zip(grid, grid[1:], nsubs):
        h = (s1 - s0) / nsub
        for k in range(nsub):
            mid = s0 + (k + 0.5) * h
            w_cur = _exp_step(scaled + path(mid), h, w_cur)
        yield w_cur


# Below this |alpha| (a frame pair's phase over one step) the inner integral
# of Omega_2 is a Taylor series in alpha instead of a division by it.
_FILON_NEAR = 2e-3
# Moments up to this |alpha| are summed as power series; beyond it the
# forward recurrence amplifies rounding by at most n!/|alpha|^n < 1.4 for
# the orders used (n <= 8).
_SERIES_RADIUS = 4.0


def _filon_moments(alpha: np.ndarray, top: int) -> np.ndarray:
    """m_n(alpha) = int_0^1 x^n exp(i alpha x) dx for n = 0..top, elementwise:
    sum_k (i alpha)^k / (k! (n+k+1)) for |alpha| <= _SERIES_RADIUS, else
    m_0 = (e - 1)/(i alpha) and m_n = (e - n m_{n-1})/(i alpha) with
    e = exp(i alpha). Term k of the series is at most |alpha|^k / k!, so it
    is summed to the :func:`_taylor_degree` of the largest such |alpha|.

    Each distinct |alpha| is summed once, and a negative alpha takes the
    conjugate, m_n(-alpha) = conj m_n(alpha): the phases alpha_jk of a
    spectrum come in pairs +-alpha, and uniformly spaced levels repeat
    them."""
    magnitude, inverse = np.unique(np.abs(alpha).ravel(), return_inverse=True)
    sums = np.empty((top + 1, magnitude.size), dtype=complex)
    small = magnitude <= _SERIES_RADIUS
    ia = 1j * magnitude[small]
    order = np.arange(1, top + 2)[:, None]
    term = np.ones_like(ia)
    acc = np.zeros((top + 1, ia.size), dtype=complex)
    for k in range(_taylor_degree(float(np.abs(ia).max(initial=0.0))) + 1):
        acc += term / (order + k)
        term = term * ia / (k + 1)
    sums[:, small] = acc
    ia = 1j * magnitude[~small]
    e = np.exp(ia)
    m = (e - 1.0) / ia
    sums[0, ~small] = m
    for n in range(1, top + 1):
        m = (e - n * m) / ia
        sums[n, ~small] = m
    out = sums[:, inverse]
    np.conjugate(out, out=out, where=alpha.ravel() < 0)
    return out.reshape(top + 1, *alpha.shape)


def _magnus_terms(
    w: np.ndarray, b: np.ndarray, tau: float, h: float, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Omega_1, Omega_2) of one Magnus-Filon step of length h at tau that
    starts where the drive in the eigenbasis is ``p``; ``p`` may be a stack of
    such matrices, which gives a stack of terms.

    In the eigenbasis frame W = V exp(-i tau s w) U V†, U solves i U' = K U
    with K_jk(s0 + h x) = exp(i alpha_jk x) L_jk(x), alpha_jk = tau h (w_j -
    w_k) and L(x) = p + x q over the step (p = A~ + s0 B~, q = h B~, both in
    the eigenbasis). With M1 = int_0^1 K = p∘m_0 + q∘m_1 and S = the
    integral of K(x1) K(x2) over x2 < x1, the first two Magnus terms are
    exact: Omega_1 = h M1 and Omega_2 = h^2 (2S - M1^2), the integral of
    [K(x1), K(x2)] over x2 < x1 in s.

    S sums L_jk(x1) L_kl(x2) times the double integrals of x1^p x2^q
    exp(i(alpha_jk x1 + alpha_kl x2)), which separate into products because
    alpha_jk + alpha_kl = alpha_jl. Where |alpha_kl| >= _FILON_NEAR the inner
    integral is divided out by r = 1/(i alpha_kl); below it is the Taylor
    series in alpha_kl to the :func:`_taylor_degree` of the largest such
    |alpha_kl| (one term on exact degeneracies).
    """
    alpha = (tau * h) * (w[:, None] - w[None, :])
    near = np.abs(alpha) < _FILON_NEAR
    terms = _taylor_degree(float(np.abs(alpha[near]).max())) + 1
    m = _filon_moments(alpha, terms + 2)
    q = h * b
    m1 = p * m[0] + q * m[1]
    r = np.divide(1.0, 1j * alpha, out=np.zeros_like(m[0]), where=~near)
    x = p * r - q * r * r
    s = m[0] * (p @ x) + m[1] * (q @ x + p @ (q * r)) + m[2] * (q @ (q * r)) - m1 @ x
    # Taylor term n of the near pairs: (i alpha)^n / n! times the moments
    # m_{n+1..n+3}, over n + 1 and n + 2.
    for n in range(terms):
        powers = near * (1j * alpha) ** n / math.factorial(n)
        lo, mid, hi = m[n + 1 : n + 4]
        s += (p * lo + q * mid) @ (p * powers) / (n + 1)
        s += (p * mid + q * hi) @ (q * powers) / (n + 2)
    return h * m1, (h * h) * (2.0 * s - m1 @ m1)


def _magnus_generator(
    w: np.ndarray, a: np.ndarray, b: np.ndarray, tau: float, h: float
) -> np.ndarray:
    """The Magnus-Filon step of length h at tau for the ramp a + s b in the
    eigenbasis, without its frame phase exp(-i tau h w): g = (g_0, g_1, g_2)
    with g_0 + s0 (g_1 + s0 g_2) the Hermitian part of the step's generator
    Omega_1 - (i/2) Omega_2 at the step start s0.

    Only p = a + s0 b changes with s0, so Omega_1 is affine and Omega_2
    quadratic in s0: the Lagrange interpolant through s0 = 0, 1/2, 1 (one
    batched :func:`_magnus_terms`) is exact up to rounding.
    """
    omega1, omega2 = _magnus_terms(w, b, tau, h, np.stack([a, a + 0.5 * b, a + b]))
    f = omega1 - 0.5j * omega2
    f0, f_half, f1 = 0.5 * (f + f.conj().swapaxes(1, 2))
    return np.stack([f0, 4.0 * f_half - 3.0 * f0 - f1, 2.0 * (f0 + f1) - 4.0 * f_half])


def _chebyshev_length(g1: float, g2: float) -> int:
    """How many leading Chebyshev coefficients in u = 2 s0 - 1 of
    exp(-i G(s0)), G(s0) = g_0 + s0 (g_1 + s0 g_2) with Hermitian g_i and
    ||g_1|| <= g1, ||g_2|| <= g2, are needed for a remainder below unit
    roundoff on s0 in [0, 1].

    On the Bernstein ellipse E_rho (Trefethen, Approximation Theory and
    Approximation Practice, SIAM 2013, Thm 8.1), with a, b = (rho +- 1/rho)/2,
    s0 = (1 + u)/2 has |Re s0| <= (1 + a)/2 and |Im s0| <= b/2, so the
    anti-Hermitian part of G is at most log M = b/2 (g1 + (1 + a) g2), and
    ||exp(-i G)|| <= M. Then ||c_j|| <= 2 M rho^-j, and the coefficients from
    N on sum to at most 2 M rho^-N / (rho - 1): the least N over a grid of
    rho is returned.
    """
    rho = np.geomspace(1.25, 1e8, 128)
    a, b = 0.5 * (rho + 1.0 / rho), 0.5 * (rho - 1.0 / rho)
    log_m = 0.5 * b * (g1 + (1.0 + a) * g2)
    log_tail = math.log(2.0 / _UNIT_ROUNDOFF) + log_m - np.log(rho - 1.0)
    return int(np.ceil(log_tail / np.log(rho)).min())


def _step_polynomial(g: np.ndarray) -> np.ndarray:
    """E(s0) = exp(-i G(s0)) with G(s0) = g_0 + s0 (g_1 + s0 g_2) from
    :func:`_magnus_generator`, the Magnus-Filon step without its frame
    phase, as the stack of its Chebyshev coefficients in u = 2 s0 - 1 on s0
    in [0, 1].

    E is interpolated at the n = :func:`_chebyshev_length` Chebyshev points
    u_k (the roots of T_n), with the node values from :func:`_exp_step`, and
    all n coefficients c_j = (2 - [j = 0]) / n sum_k T_j(u_k) E(s_k) are
    kept, summed node by node. They differ from E's own first n
    coefficients only by the aliased tail from n on: at the roots of T_n,
    T_{2ln +- j} equals +-T_j (Trefethen, ATAP, Thm 4.2 for these points),
    and that length bounds the tail below unit roundoff.
    """
    n = _chebyshev_length(*(float(np.abs(x).sum(axis=0).max()) for x in g[1:]))
    orders = np.arange(n)
    eye = np.eye(g.shape[1], dtype=complex)
    coef = np.zeros((n, *eye.shape), dtype=complex)
    for k in range(n):
        angle = math.pi * (k + 0.5) / n
        s0 = 0.5 * (math.cos(angle) + 1.0)
        node = _exp_step(g[0] + s0 * (g[1] + s0 * g[2]), 1.0, eye)
        weights = np.cos(orders * angle) * (2.0 / n)
        weights[0] *= 0.5
        for c, t in zip(coef, weights):
            c += t * node
    return coef


# Consecutive Magnus-Filon steps of one interval are formed and multiplied
# this many at a time: the coefficient stack is read once per block, and the
# Python calls per block grow as log2 of its length, while the temporaries
# stay near two blocks of step matrices however many sub-steps an interval
# has (1.1 MB at dim 66).
_STEP_BLOCK = 16


def _ordered_product(stack: np.ndarray) -> np.ndarray:
    """stack[-1] @ ... @ stack[0], by a balanced tree of stacked products:
    each level multiplies neighbouring pairs, later on the left, and carries
    an odd last matrix up unchanged. Takes len(stack) - 1 products."""
    while stack.shape[0] > 1:
        pairs = stack.shape[0] // 2
        level = np.empty_like(stack[: stack.shape[0] - pairs])
        np.matmul(stack[1::2], stack[:-1:2], out=level[:pairs])
        if stack.shape[0] % 2:
            level[pairs] = stack[-1]
        stack = level
    return stack[0]


def _magnus_filon_states(
    basis: SpectralDecomposition,
    path: GeneratorPath,
    tau: float,
    grid: np.ndarray,
    nsubs: list[int],
) -> Iterator[np.ndarray]:
    """W at every grid point after the first, stepping the ramp A + s B in
    ``nsubs`` equal Magnus-Filon steps per interval in the eigenbasis of H_o.
    Each step of length h applies E(s0) = exp(-i tau h w) exp(-i G(s0)) with
    G from :func:`_magnus_generator`, evaluated from the Chebyshev
    coefficients of :func:`_step_polynomial`.

    Builds are keyed by h to 11 significant digits, and each build takes the
    first exact h of its key: the sub-steps of a uniform grid differ in their
    last bits, and G depends smoothly on h, so sharing it between lengths
    that agree to about 5e-12 costs only rounding. The frame phase, which
    tau multiplies, is not shared: every interval takes its own exact
    h = span / nsub for it and for its step starts. A grid with many
    distinct lengths pays one build for each.

    An interval's steps go in blocks of at most ``_STEP_BLOCK``: one real
    product of the rows T_j(2 s0 - 1) with the coefficients' real view gives
    the block's step matrices, which the interval's phase column scales,
    :func:`_ordered_product` multiplies them in order, and one complex
    product applies that to the state, so each step still costs one complex
    matrix product."""
    v, w = basis.vectors, basis.column_values
    vh = v.conj().T
    a, b = vh @ path.a @ v, vh @ path.b @ v
    polynomials = {}
    y = np.eye(w.size, dtype=complex)
    for s0, s1, nsub in zip(grid, grid[1:], nsubs):
        h = (s1 - s0) / nsub
        key = f"{h:.11g}"
        if key not in polynomials:
            coef = _step_polynomial(_magnus_generator(w, a, b, tau, h))
            n = coef.shape[0]
            polynomials[key] = np.arange(n), coef.view(np.float64).reshape(n, -1)
        orders, coef = polynomials[key]
        phase = np.exp(-1j * tau * h * w)[:, None]
        for first in range(0, nsub, _STEP_BLOCK):
            starts = s0 + np.arange(first, min(first + _STEP_BLOCK, nsub)) * h
            rows = np.cos(np.arccos(2.0 * starts - 1.0)[:, None] * orders)
            steps = (rows @ coef).view(complex).reshape(starts.size, *y.shape)
            steps *= phase
            y = _ordered_product(steps) @ y
        yield v @ y @ vh


def richardson_error(
    h_o: HermitianOperator,
    path: GeneratorPath,
    tau: float,
    s_grid,
    step: float | None = None,
) -> tuple[PropagatorResult, float]:
    """Evolve at ``step`` and ``step/2`` and return the coarse result with a
    Richardson error estimate (4/3 of the max grid-point deviation, the
    extrapolation constant of a second-order scheme).

    Both runs pass an explicit step, so this measures the midpoint rule (the
    default ``step`` is :func:`default_step`), never the Magnus-Filon
    scheme a ramp drive gets from ``evolve`` without a step."""
    if step is None:
        step = default_step(tau, h_o.norm(), path.kappa)
    coarse = evolve(h_o, path, tau, s_grid, step=step)
    fine = evolve(h_o, path, tau, s_grid, step=step / 2)
    diff = max(
        operator_norm(a - b) for a, b in zip(coarse.unitaries, fine.unitaries)
    )
    return coarse, (4.0 / 3.0) * diff


# --- comparison evolution and Dyson expansion ------------------------------


def comparison_operator(
    h_o: HermitianOperator, result: PropagatorResult, t: float, s: float
) -> UnitaryOperator:
    """Omega_tau(t,s) = exp(i tau (t-s) H_o) W_tau(t) W_tau(s)^+ for grid t, s."""
    m = result.at(t) @ result.at(s).conj().T
    return UnitaryOperator(
        h_o.decomposition.exp_times(result.tau * (t - s), m),
        drift_tol=max(DEFAULT_DRIFT_TOL, 3 * result.max_drift + 1e-12),
    )


def comparison_family(h_o: HermitianOperator, result: PropagatorResult) -> np.ndarray:
    """Omega_tau(s_j, 0) for every grid point, as an (n, dim, dim) array."""
    d = h_o.decomposition
    out = np.empty_like(result.unitaries)
    for j, (s, w) in enumerate(zip(result.s_grid, result.unitaries)):
        out[j] = d.exp_times(result.tau * s, w)
    return out


def _dyson_levels(
    h_o: HermitianOperator,
    path: GeneratorPath,
    tau: float,
    t: float,
    s: float,
    order: int,
    quad_points: int,
) -> tuple[list[np.ndarray], tuple[str, ...]]:
    """A^0 .. A^order of the Volterra iteration, via the recursive form
    A^n(r) = int_s^r K(u) A^{n-1}(u) du marched on a shared grid (kernel at
    panel midpoints, previous order averaged across the panel), and the
    messages of the warnings issued.

    Checks 0 <= order <= 8 (a cost guard) and s <= t, and warns with
    :class:`DysonResolutionWarning` when ``quad_points`` is below 10 points
    per oscillation of the kernel's fastest phase tau (t - s) ||H_o||."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > 8:
        raise ValueError("order > 8 is rejected (cost guard)")
    if s > t:
        raise ValueError("requires s <= t")
    warned = ()
    needed = math.ceil(10.0 * tau * (t - s) * h_o.norm() / (2.0 * math.pi))
    if quad_points < needed:
        warned = (
            f"quad_points={quad_points} is below the oscillatory-kernel "
            f"resolution {needed} for tau={tau}, t-s={t - s}",
        )
        warnings.warn(warned[0], DysonResolutionWarning, stacklevel=3)
    dim = h_o.dim
    eye = np.eye(dim, dtype=complex)
    if t == s or order == 0:
        return [eye] + [np.zeros((dim, dim), dtype=complex) for _ in range(order)], warned
    d = h_o.decomposition
    q = quad_points
    h = (t - s) / q
    cur = [eye] + [np.zeros((dim, dim), dtype=complex) for _ in range(order)]
    for j in range(q):
        mid = s + (j + 0.5) * h
        kernel = d.interaction_kernel(tau * (mid - s), path(mid))
        prev_old = cur[0]
        for n in range(1, order + 1):
            old_n = cur[n]
            cur[n] = old_n + h * (kernel @ (0.5 * (prev_old + cur[n - 1])))
            prev_old = old_n
    return [d.vectors @ m @ d.vectors.conj().T for m in cur], warned


def dyson_term(
    h_o: HermitianOperator,
    path: GeneratorPath,
    tau: float,
    n: int,
    t: float,
    s: float,
    quad_points: int = 4096,
) -> np.ndarray:
    """The n-th time-ordered iterate A_tau^n(t, s); n=0 is the identity.

    Each term obeys ||A^n|| <= kappa^n (t-s)^n / n! up to quadrature error.
    """
    return _dyson_levels(h_o, path, tau, t, s, n, quad_points)[0][n]


def dyson_remainder_bound(order: int, kappa: float, dt: float) -> float:
    """sum_{n > order} (kappa*dt)^n / n!, summed directly (scalar tail)."""
    x = kappa * dt
    term = x ** (order + 1) / math.factorial(order + 1)
    total = 0.0
    n = order + 1
    while term > 1e-300 and (total == 0.0 or term > 1e-20 * total):
        total += term
        n += 1
        term *= x / n
    return total


@dataclass(frozen=True)
class DysonExpansion:
    """Partial sum of the comparison-evolution series with its tail bound."""

    approx: UnitaryOperator
    order: int
    remainder_bound: float
    quad_points: int
    warnings: tuple[str, ...] = field(default=())


def dyson_series(
    h_o: HermitianOperator,
    path: GeneratorPath,
    tau: float,
    t: float,
    s: float,
    order: int = 8,
    quad_points: int = 4096,
) -> DysonExpansion:
    """sum_{n <= order} A_tau^n(t, s) with the closed-form tail bound
    sum_{n > order} kappa^n (t-s)^n / n!."""
    terms, warn = _dyson_levels(h_o, path, tau, t, s, order, quad_points)
    partial = np.zeros((h_o.dim, h_o.dim), dtype=complex)
    for m in terms:
        partial += m
    remainder = dyson_remainder_bound(order, path.kappa, t - s)
    # The truncation makes the partial sum unitary only up to the tail, so the
    # wrapper's drift tolerance is widened accordingly.
    tol = max(DEFAULT_DRIFT_TOL, 3.0 * remainder + 1e-5)
    return DysonExpansion(
        approx=UnitaryOperator(partial, drift_tol=tol),
        order=order,
        remainder_bound=remainder,
        quad_points=quad_points,
        warnings=warn,
    )


# --- interaction frame and the limit evolution -----------------------------


@functools.cache
def _zero_operator(dim: int) -> HermitianOperator:
    """The zero H_o of a drive-only evolution, one per dim: the operator is
    frozen, so its identity decomposition is built once and shared."""
    return HermitianOperator(np.zeros((dim, dim)))


def _drive_only_evolution(
    path: GeneratorPath, s_grid, step: float | None, caller: str, prefix: str
) -> PropagatorResult:
    """i dV/ds = Lambda(s) V, V(0) = 1: a tau=1, H_o=0 evolution whose scheme
    is tagged with ``prefix``."""
    if path.smoothness != SMOOTH_C1:
        raise ValueError(f"{caller} requires a norm_C1 path; mollify first")
    res = evolve(_zero_operator(path.dim), path, tau=1.0, s_grid=s_grid, step=step)
    return replace(res, scheme=prefix + res.scheme)


def interaction_frame(
    path: GeneratorPath, s_grid, step: float | None = None
) -> PropagatorResult:
    """V(s) with i dV/ds = Lambda(s) V, V(0) = 1 (a tau=1, H_o=0 evolution)."""
    return _drive_only_evolution(path, s_grid, step, "interaction_frame", "frame-")


def frame_reconstruction_residual(
    h_o: HermitianOperator,
    path: GeneratorPath,
    tau: float,
    n_steps: int = 2000,
) -> float:
    """Equivalence check between the additive and conjugated pictures.

    With V(s) generated by the drive (i dV/ds = Lambda(s) V) and the twisted
    drive Lambda~(s) = -V(s)^+ Lambda(s) V(s), the additive-problem solution Y
    for Lambda~ satisfies V(s) Y(s) = G(s), where G solves the conjugated
    problem i dG/ds = tau V(s) H_o V(s)^+ G. Marches all three evolutions on
    one uniform lattice (midpoint exponential, V advanced in half-steps so its
    midpoint values are second-order accurate) and returns the largest
    deviation max_s ||V(s) Y(s) - G(s)||, which is O(1/n_steps^2).
    """
    if path.smoothness != SMOOTH_C1:
        raise ValueError("the equivalence check needs a norm_C1 path")
    dim = path.dim
    h = 1.0 / n_steps
    hm = h_o.matrix
    v = np.eye(dim, dtype=complex)
    y = np.eye(dim, dtype=complex)
    g = np.eye(dim, dtype=complex)
    worst = 0.0
    for k in range(n_steps):
        s0 = k * h
        v_mid = _exp_step(path(s0 + 0.25 * h), 0.5 * h, v)
        lam_mid = path(s0 + 0.5 * h)
        y = _exp_step(tau * hm - v_mid.conj().T @ lam_mid @ v_mid, h, y)
        g = _exp_step(tau * (v_mid @ hm @ v_mid.conj().T), h, g)
        v = _exp_step(path(s0 + 0.75 * h), 0.5 * h, v_mid)
        worst = max(worst, operator_norm(v @ y - g))
    return worst


def block_diagonal_path(d: SpectralDecomposition, path: GeneratorPath) -> GeneratorPath:
    """The drive s -> sum_E P_E Lambda(s) P_E, with A and B compressed once.
    Compression is a pinching, so the parent's kappa/kappa_dot/l1 bounds
    carry over."""
    b = None if path.b is None else block_compress(d, path.b)
    return replace(path, a=block_compress(d, path.a), b=b)


def omega_infinity(
    d: SpectralDecomposition,
    path: GeneratorPath,
    s_grid,
    step: float | None = None,
) -> PropagatorResult:
    """The limit evolution: i dOmega/ds = (sum_E P_E Lambda(s) P_E) Omega.

    Block-diagonal in the eigenbasis of H_o, hence commutes with H_o."""
    bpath = block_diagonal_path(d, path)
    return _drive_only_evolution(bpath, s_grid, step, "omega_infinity", "limit-")
