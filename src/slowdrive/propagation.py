"""Time evolutions for the driven problem i dW/ds = (tau*H_o + Lambda(s)) W.

Provides:

* ``evolve`` — the scaled-time propagator W_tau(s), integrated with a
  second-order exponential midpoint scheme whose per-step exponential is taken
  via eigendecomposition (exactly unitary per step, stable for large tau*s
  phases).
* ``comparison_operator`` — Omega_tau(t,s) = exp(i tau (t-s) H_o) W(t) W(s)^+,
  the unperturbed-frame comparison evolution.
* ``dyson_term`` / ``dyson_series`` — the time-ordered Volterra iterates of
  Omega_tau, used as an independent oracle for moderate tau.
* ``mollify`` — convolution smoothing of an L1-in-norm generator path into a
  C1 path with the propagator deviation controlled by int ||Lambda_eps - Lambda||.
* ``interaction_frame`` — V(s) with i dV/ds = Lambda(s) V.
* ``omega_infinity`` — the limit evolution generated by the block-diagonal
  part of Lambda(s) (pure-point H_o).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .operators import (
    HermitianOperator,
    UnitaryOperator,
    format_matrix,
    operator_norm,
    parse_matrix,
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

DRIFT_TOL = 1e-8
SMOOTH_C1 = "norm_C1"
SMOOTH_L1 = "norm_L1"


class PropagationError(RuntimeError):
    """Integration failed its unitarity/accuracy contract."""


class GridError(KeyError):
    """Requested time is not a stored grid point (interpolation is refused)."""


class DysonResolutionWarning(UserWarning):
    """quad_points is below the resolution needed for the oscillatory kernel."""


def _hermitian_sample(sampler, s: float, dim: int) -> np.ndarray:
    m = np.asarray(sampler(s), dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"sampler returned shape {m.shape}, expected ({dim}, {dim})")
    return m


@dataclass(frozen=True)
class GeneratorPath:
    """The perturbation path s -> Lambda(s) on [0,1] with smoothness metadata.

    ``kappa`` = sup_s ||Lambda(s)||, ``kappa_dot`` = sup_s ||dLambda/ds||
    (C1 paths only), ``l1_norm`` = int_0^1 ||Lambda(s)|| ds; all measured on a
    probe grid by :meth:`from_sampler`. ``kinks`` lists known discontinuity or
    kink locations of L1 paths, used by :func:`mollify` for exact splitting.
    """

    dim: int
    sampler: Callable[[float], np.ndarray]
    smoothness: str
    kappa: float
    kappa_dot: float | None = None
    l1_norm: float | None = None
    kinks: tuple[float, ...] = ()
    # Set only by :meth:`constant`; evolve then exponentiates the generator
    # exactly instead of stepping.
    constant_matrix: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.smoothness not in (SMOOTH_C1, SMOOTH_L1):
            raise ValueError(f"smoothness must be {SMOOTH_C1} or {SMOOTH_L1}")
        if not math.isfinite(self.kappa) or self.kappa < 0:
            raise ValueError("kappa must be finite and >= 0")
        if self.smoothness == SMOOTH_C1 and self.kappa_dot is None:
            raise ValueError("norm_C1 paths must carry kappa_dot")

    @classmethod
    def from_sampler(
        cls,
        dim: int,
        sampler: Callable[[float], np.ndarray],
        smoothness: str = SMOOTH_C1,
        probe_points: int = 1001,
        kinks: Sequence[float] = (),
    ) -> "GeneratorPath":
        """Measure kappa, kappa_dot and the L1 norm on a uniform probe grid,
        validating Hermiticity of every probed sample."""
        if probe_points < 3:
            raise ValueError("probe_points must be >= 3")
        grid = np.linspace(0.0, 1.0, probe_points)
        h = grid[1] - grid[0]
        norms = np.empty(probe_points)
        fd_max = 0.0
        prev: np.ndarray | None = None
        for i, s in enumerate(grid):
            m = _hermitian_sample(sampler, float(s), dim)
            defect = np.abs(m - m.conj().T).max()
            if defect > 1e-10 * max(1.0, np.abs(m).max()):
                raise ValueError(f"sampler is not Hermitian at s={s}: defect {defect:.3e}")
            norms[i] = np.abs(np.linalg.eigvalsh(m)).max()
            if prev is not None:
                fd_max = max(fd_max, float(np.abs(np.linalg.eigvalsh((m - prev) / h)).max()))
            prev = m
        kappa = float(norms.max())
        l1 = float(np.trapezoid(norms, grid))
        kappa_dot = fd_max if smoothness == SMOOTH_C1 else None
        return cls(
            dim=dim,
            sampler=sampler,
            smoothness=smoothness,
            kappa=kappa,
            kappa_dot=kappa_dot,
            l1_norm=l1,
            kinks=tuple(sorted(kinks)),
        )

    @classmethod
    def constant(cls, matrix) -> "GeneratorPath":
        h = HermitianOperator(np.asarray(matrix, dtype=complex))  # validates
        kappa = h.norm()
        mat = h.matrix

        def sampler(_s: float) -> np.ndarray:
            return mat

        path = cls(
            dim=h.dim,
            sampler=sampler,
            smoothness=SMOOTH_C1,
            kappa=kappa,
            kappa_dot=0.0,
            l1_norm=kappa,
        )
        object.__setattr__(path, "constant_matrix", mat)
        return path

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
    """A nonnegative unit-mass bump supported in [-1, 1], scaled to width
    ``epsilon`` when convolved against a generator path."""

    epsilon: float
    bump: Callable[[np.ndarray], np.ndarray] = default_bump

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError("epsilon must lie in (0, 1/2)")
        xs = np.linspace(-1.0, 1.0, 8193)
        vals = np.asarray(self.bump(xs), dtype=float)
        if vals.min() < 0:
            raise ValueError("bump must be nonnegative")
        mass = float(np.trapezoid(vals, xs))
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"bump integral {mass!r} is not 1 within 1e-8")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def mollify(path: GeneratorPath, spec: MollifierSpec, probe_points: int = 1001) -> GeneratorPath:
    """Convolve the path with the scaled bump: Lambda_eps(s) =
    int phi_eps(s - s') Lambda(s') ds', Lambda extended constantly outside
    [0, 1]. Returns a norm_C1 path.

    The u-integral over the bump support is split at the images of the path's
    declared kinks and of the clamp boundaries 0 and 1, so each panel has a
    smooth integrand and fixed Gauss-Legendre nodes converge fast. The node
    weights are renormalized to unit total mass, making the effective kernel
    an exact discrete mollifier: convolving a constant path returns it to
    round-off, and the deviation bound int ||Lambda_eps - Lambda|| applies
    to the sampled path as-is.
    """
    eps = spec.epsilon
    bump = spec.bump
    raw = path.sampler
    dim = path.dim
    special = tuple(sorted(set(path.kinks) | {0.0, 1.0}))

    def sampler_eps(s: float) -> np.ndarray:
        cuts = {-1.0, 1.0}
        for q in special:
            u = (s - q) / eps
            if -1.0 < u < 1.0:
                cuts.add(u)
        edges = sorted(cuts)
        acc = np.zeros((dim, dim), dtype=complex)
        mass = 0.0
        for a, b in zip(edges, edges[1:]):
            half = 0.5 * (b - a)
            mid = 0.5 * (b + a)
            us = mid + half * _GL_NODES
            ws = half * _GL_WEIGHTS * bump(us)
            mass += float(ws.sum())
            for u, w in zip(us, ws):
                sp = min(max(s - eps * u, 0.0), 1.0)
                acc += w * raw(sp)
        return acc / mass

    return GeneratorPath.from_sampler(
        dim, sampler_eps, SMOOTH_C1, probe_points=probe_points
    )


# --- the propagator -------------------------------------------------------


@dataclass(frozen=True)
class PropagatorResult:
    """W_tau(s) sampled on an s-grid, with step-size and drift metadata."""

    tau: float
    s_grid: np.ndarray
    unitaries: np.ndarray  # shape (len(s_grid), dim, dim)
    step: float
    max_drift: float
    scheme: str
    drift_tol: float = DRIFT_TOL

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
        if operator_norm(us[0] - np.eye(us.shape[1])) > 1e-10:
            raise ValueError("W(0) must be the identity")
        if self.max_drift > self.drift_tol:
            raise PropagationError(
                f"max unitarity drift {self.max_drift:.3e} exceeds {self.drift_tol:.0e}; "
                f"retry with step <= {self.step / 2:.3e}"
            )

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
    #    "s <value>" + matrix text blocks, one per grid point.

    def save(self, path) -> None:
        meta = {
            "tau": self.tau,
            "step": self.step,
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
            max_drift=float(meta["max_drift"]),
            scheme=str(meta["scheme"]),
        )


def default_step(tau: float, h_norm: float, kappa: float) -> float:
    """Fixed-step rule: resolves the total phase tau*||H_o|| + kappa to ~0.1
    radian per step, capped at 1e-3."""
    return min(1e-3, 0.1 / max(tau * h_norm + kappa, 1e-12))


def evolve(
    h_o: HermitianOperator,
    path: GeneratorPath,
    tau: float,
    s_grid,
    step: float | None = None,
    drift_tol: float = DRIFT_TOL,
) -> PropagatorResult:
    """Integrate i dW/ds = (tau*H_o + Lambda(s)) W over the s-grid.

    A constant path (:meth:`GeneratorPath.constant`) is solved exactly:
    W(s) = V exp(-i s w) V† from one eigendecomposition V diag(w) V† of
    tau*H_o + Lambda; ``step`` has no effect and the result's ``step`` is the
    largest grid interval. Any other path uses the
    exponential midpoint scheme W_{k+1} = exp(-i h (tau*H_o + Lambda(s_mid))) W_k
    with the exponential via eigendecomposition, so every step is exactly
    unitary up to eigensolver error. Local error is O(h^3); the default step
    comes from :func:`default_step`. L1 paths are integrated directly from
    midpoint samples and flagged lower-accuracy in the scheme descriptor
    (prefer :func:`mollify` first). Either way the unitarity drift is
    measured at every grid point.
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

    if path.constant_matrix is not None:
        scheme = "exact-constant"
        taken = float(spans.max(initial=0.0))
        remedy = "the eigendecomposition of the constant generator is inaccurate"
        states = _exact_states(tau * h_o.matrix + path.constant_matrix, grid)
    else:
        scheme = "midpoint-exponential"
        if path.smoothness == SMOOTH_L1:
            scheme += "/L1-direct"
        if step is None:
            step = default_step(tau, h_o.norm(), path.kappa)
        nsubs = [max(1, math.ceil(span / step)) for span in spans]
        taken = max((span / n for span, n in zip(spans, nsubs)), default=0.0)
        remedy = f"retry with step <= {step / 2:.3e}"
        states = _midpoint_states(h_o.matrix, path, tau, grid, nsubs)

    eye = np.eye(h_o.dim)
    unitaries = [np.eye(h_o.dim, dtype=complex)]
    max_drift = 0.0
    for s1, w in zip(grid[1:], states):
        drift = operator_norm(w.conj().T @ w - eye)
        max_drift = max(max_drift, drift)
        if drift > drift_tol:
            raise PropagationError(
                f"unitarity drift {drift:.3e} exceeded {drift_tol:.0e} at s={s1}; {remedy}"
            )
        unitaries.append(w)
    return PropagatorResult(
        tau=tau,
        s_grid=grid,
        unitaries=np.stack(unitaries),
        step=taken,
        max_drift=max_drift,
        scheme=scheme,
        drift_tol=drift_tol,
    )


def _exact_states(gen: np.ndarray, grid: np.ndarray) -> Iterator[np.ndarray]:
    """exp(-i s gen) at every grid point after the first, from one eigh."""
    vals, vecs = np.linalg.eigh(gen)
    vh = vecs.conj().T
    for s in grid[1:]:
        yield vecs @ (np.exp(-1j * s * vals)[:, None] * vh)


def _midpoint_states(
    h_mat: np.ndarray, path: GeneratorPath, tau: float, grid: np.ndarray, nsubs: list[int]
) -> Iterator[np.ndarray]:
    """W at every grid point after the first, stepping each interval in
    ``nsubs`` equal exponential-midpoint steps."""
    dim = h_mat.shape[0]
    w_cur = np.eye(dim, dtype=complex)
    for s0, s1, nsub in zip(grid, grid[1:], nsubs):
        h = (s1 - s0) / nsub
        for k in range(nsub):
            mid = s0 + (k + 0.5) * h
            gen = tau * h_mat + _hermitian_sample(path.sampler, mid, dim)
            # A generator with no imaginary part admits the cheaper real
            # symmetric eigensolver; the result is identical.
            if gen.imag.any():
                vals, vecs = np.linalg.eigh(gen)
                w_cur = vecs @ (np.exp(-1j * h * vals)[:, None] * (vecs.conj().T @ w_cur))
            else:
                vals, vecs = np.linalg.eigh(gen.real)
                w_cur = vecs @ (np.exp(-1j * h * vals)[:, None] * (vecs.T @ w_cur))
        yield w_cur


def richardson_error(
    h_o: HermitianOperator,
    path: GeneratorPath,
    tau: float,
    s_grid,
    step: float | None = None,
) -> tuple[PropagatorResult, float]:
    """Evolve at ``step`` and ``step/2`` and return the coarse result with a
    Richardson error estimate (4/3 of the max grid-point deviation, the
    second-order extrapolation constant)."""
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
    wt = result.at(t)
    ws = result.at(s)
    vals, vecs = h_o.spectrum
    phase = vecs @ (np.exp(1j * result.tau * (t - s) * vals)[:, None] * vecs.conj().T)
    return UnitaryOperator(phase @ wt @ ws.conj().T, drift_tol=max(DRIFT_TOL, 3 * result.max_drift + 1e-12))


def comparison_family(h_o: HermitianOperator, result: PropagatorResult) -> np.ndarray:
    """Omega_tau(s_j, 0) for every grid point, as an (n, dim, dim) array."""
    vals, vecs = h_o.spectrum
    vh = vecs.conj().T
    out = np.empty_like(result.unitaries)
    for j, (s, w) in enumerate(zip(result.s_grid, result.unitaries)):
        out[j] = vecs @ (np.exp(1j * result.tau * s * vals)[:, None] * (vh @ w))
    return out


def _dyson_resolution_warnings(
    tau: float, dt: float, h_norm: float, quad_points: int
) -> tuple[str, ...]:
    needed = math.ceil(10.0 * tau * dt * h_norm / (2.0 * math.pi))
    if quad_points < needed:
        msg = (
            f"quad_points={quad_points} is below the oscillatory-kernel "
            f"resolution {needed} for tau={tau}, t-s={dt}"
        )
        warnings.warn(msg, DysonResolutionWarning, stacklevel=3)
        return (msg,)
    return ()


def _dyson_levels(
    h_o: HermitianOperator,
    path: GeneratorPath,
    tau: float,
    t: float,
    s: float,
    order: int,
    quad_points: int,
) -> list[np.ndarray]:
    """A^0 .. A^order of the Volterra iteration, via the recursive form
    A^n(r) = int_s^r K(u) A^{n-1}(u) du marched on a shared grid (kernel at
    panel midpoints, previous order averaged across the panel)."""
    dim = h_o.dim
    eye = np.eye(dim, dtype=complex)
    if t == s or order == 0:
        return [eye] + [np.zeros((dim, dim), dtype=complex) for _ in range(order)]
    vals, vecs = h_o.spectrum
    vh = vecs.conj().T
    q = quad_points
    h = (t - s) / q
    cur = [eye] + [np.zeros((dim, dim), dtype=complex) for _ in range(order)]
    for j in range(q):
        mid = s + (j + 0.5) * h
        lam = vh @ _hermitian_sample(path.sampler, mid, dim) @ vecs
        phase = np.exp(1j * tau * (mid - s) * vals)
        kernel = -1j * (phase[:, None] * phase.conj()[None, :]) * lam
        prev_old = cur[0]
        for n in range(1, order + 1):
            old_n = cur[n]
            cur[n] = old_n + h * (kernel @ (0.5 * (prev_old + cur[n - 1])))
            prev_old = old_n
    return [vecs @ m @ vh for m in cur]


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
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 8:
        raise ValueError("n > 8 is rejected (cost guard)")
    if s > t:
        raise ValueError("requires s <= t")
    _dyson_resolution_warnings(tau, t - s, h_o.norm(), quad_points)
    return _dyson_levels(h_o, path, tau, t, s, n, quad_points)[n]


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
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > 8:
        raise ValueError("order > 8 is rejected (cost guard)")
    if s > t:
        raise ValueError("requires s <= t")
    warn = _dyson_resolution_warnings(tau, t - s, h_o.norm(), quad_points)
    terms = _dyson_levels(h_o, path, tau, t, s, order, quad_points)
    partial = np.zeros((h_o.dim, h_o.dim), dtype=complex)
    for m in terms:
        partial += m
    remainder = dyson_remainder_bound(order, path.kappa, t - s)
    # The truncation makes the partial sum unitary only up to the tail, so the
    # wrapper's drift tolerance is widened accordingly.
    tol = max(DRIFT_TOL, 3.0 * remainder + 1e-5)
    return DysonExpansion(
        approx=UnitaryOperator(partial, drift_tol=tol),
        order=order,
        remainder_bound=remainder,
        quad_points=quad_points,
        warnings=warn,
    )


# --- interaction frame and the limit evolution -----------------------------


def interaction_frame(
    path: GeneratorPath, s_grid, step: float | None = None
) -> PropagatorResult:
    """V(s) with i dV/ds = Lambda(s) V, V(0) = 1 (a tau=1, H_o=0 evolution)."""
    if path.smoothness != SMOOTH_C1:
        raise ValueError("interaction_frame requires a norm_C1 path; mollify first")
    h0 = HermitianOperator(np.zeros((path.dim, path.dim)))
    res = evolve(h0, path, tau=1.0, s_grid=s_grid, step=step)
    return PropagatorResult(
        tau=res.tau,
        s_grid=res.s_grid,
        unitaries=res.unitaries,
        step=res.step,
        max_drift=res.max_drift,
        scheme="frame-" + res.scheme,
    )


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

    def expstep(gen: np.ndarray, dt: float, state: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(gen)
        return vecs @ (np.exp(-1j * dt * vals)[:, None] * (vecs.conj().T @ state))

    v = np.eye(dim, dtype=complex)
    y = np.eye(dim, dtype=complex)
    g = np.eye(dim, dtype=complex)
    worst = 0.0
    for k in range(n_steps):
        s0 = k * h
        v_mid = expstep(_hermitian_sample(path.sampler, s0 + 0.25 * h, dim), 0.5 * h, v)
        lam_mid = _hermitian_sample(path.sampler, s0 + 0.5 * h, dim)
        y = expstep(tau * hm - v_mid.conj().T @ lam_mid @ v_mid, h, y)
        g = expstep(tau * (v_mid @ hm @ v_mid.conj().T), h, g)
        v = expstep(_hermitian_sample(path.sampler, s0 + 0.75 * h, dim), 0.5 * h, v_mid)
        worst = max(worst, operator_norm(v @ y - g))
    return worst


def block_diagonal_path(d: SpectralDecomposition, path: GeneratorPath) -> GeneratorPath:
    """The path s -> sum_E P_E Lambda(s) P_E. Compression is a pinching, so
    the parent's kappa/kappa_dot/l1 bounds carry over."""
    raw = path.sampler

    def sampler(s: float) -> np.ndarray:
        return block_compress(d, np.asarray(raw(s), dtype=complex))

    return GeneratorPath(
        dim=path.dim,
        sampler=sampler,
        smoothness=path.smoothness,
        kappa=path.kappa,
        kappa_dot=path.kappa_dot,
        l1_norm=path.l1_norm,
        kinks=path.kinks,
    )


def omega_infinity(
    d: SpectralDecomposition,
    path: GeneratorPath,
    s_grid,
    step: float | None = None,
) -> PropagatorResult:
    """The limit evolution: i dOmega/ds = (sum_E P_E Lambda(s) P_E) Omega.

    Block-diagonal in the eigenbasis of H_o, hence commutes with H_o."""
    if path.smoothness != SMOOTH_C1:
        raise ValueError("omega_infinity requires a norm_C1 path; mollify first")
    bpath = block_diagonal_path(d, path)
    h0 = HermitianOperator(np.zeros((path.dim, path.dim)))
    res = evolve(h0, bpath, tau=1.0, s_grid=s_grid, step=step)
    return PropagatorResult(
        tau=res.tau,
        s_grid=res.s_grid,
        unitaries=res.unitaries,
        step=res.step,
        max_drift=res.max_drift,
        scheme="limit-" + res.scheme,
    )
