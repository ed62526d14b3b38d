"""Time evolutions for the driven problem i dW/ds = (tau*H_o + Lambda(s)) W.

Provides:

* ``evolve`` — the scaled-time propagator W_tau(s): exact for a constant
  drive; for a ramp drive, a Magnus-Filon scheme in the eigenbasis of H_o
  whose step does not depend on tau; for a step or mollified drive, or with
  an explicit step, a second-order exponential midpoint scheme. Each step's
  exponential is applied to W by a Taylor series truncated below unit
  roundoff (the action of the exponential). The returned
  ``PropagatorResult`` holds W in the eigenbasis of H_o, as the frames
  V† W V, and checks the unitarity drift at every grid point.
* ``comparison_operator`` — Omega_tau(t,s) = exp(i tau (t-s) H_o) W(t) W(s)^+,
  the unperturbed-frame comparison evolution; ``comparison_family`` forms
  Omega_tau(s, 0) on the grid in the eigenbasis of H_o.
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
    SpectralDecomposition,
    UnitaryOperator,
    format_matrix,
    hermitian_norm,
    operator_norm,
    parse_matrix,
    unitarity_drift,
)

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

    ``kappa`` = sup_s ||Lambda(s)|| and ``kappa_dot`` = sup_s ||dLambda/ds||
    (None for a path that is not C1), which :meth:`drive` derives from the
    form. int_0^1 ||Lambda(s)|| ds is formed on request by :meth:`l1_norm`,
    whose one reader is the Gronwall envelope of
    :func:`slowdrive.diagnostics.schrodinger_limit_distance`.
    """

    a: np.ndarray
    b: np.ndarray | None
    at: float | None
    mollifier: MollifierSpec | None
    kappa: float
    kappa_dot: float | None = None

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

    def l1_norm(self) -> float:
        """int_0^1 ||Lambda(s)|| ds: a 16-node Gauss rule on each panel between
        the profile's breaks, the node norms from one batched eigvalsh; kappa
        for a constant drive."""
        if self.b is None:
            return self.kappa
        _, breaks = self.slope_and_breaks()
        nodes, weights = _gauss_panels([0.0, *breaks, 1.0], _GL16)
        return float(weights @ hermitian_norm(np.array([self(float(x)) for x in nodes])))

    @classmethod
    def drive(cls, a, b, at: float | None, mollifier: "MollifierSpec | None") -> "GeneratorPath":
        """The drive Lambda(s) = a + p(s) * b, or the constant drive a when
        ``b`` is None (``at`` and ``mollifier`` are then ignored).

        ``a`` and ``b`` are checked to be Hermitian once. ||a + p b|| is convex
        in p and p is nondecreasing, so kappa is the larger of the two
        endpoint norms; kappa_dot = ||b|| sup p' (C1 profiles only). Both come
        from one batched eigvalsh of Lambda(0), Lambda(1) and b; no quadrature
        is run here, since :meth:`l1_norm` forms int ||Lambda|| when read.
        """
        a = HermitianOperator(a).matrix
        if b is None:
            return cls(a, None, None, None, hermitian_norm(a), 0.0)
        b = HermitianOperator(b).matrix
        if b.shape != a.shape:
            raise ValueError(f"drive matrices differ in shape: {a.shape} and {b.shape}")
        path = cls(a, b, at, mollifier, 0.0)  # the metadata follow from its samples
        slope, _ = path.slope_and_breaks()
        norms = hermitian_norm(np.array([path(0.0), path(1.0), b]))
        return replace(
            path,
            kappa=float(max(norms[0], norms[1])),
            kappa_dot=None if slope is None else float(norms[2]) * slope,
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


def _basis_change(frames: np.ndarray, source, target) -> np.ndarray:
    """The frames X U X† in the eigenbasis of ``target`` of frames U in that
    of ``source``, with X = V_target† V_source (a None decomposition is the
    standard basis, V = 1): X is formed once, and a shared basis returns the
    frames as they are. The first frame is W(0) = 1, which every basis
    leaves as it is, so it is copied rather than rotated and stays exact."""
    if source is target:
        return frames
    if target is None:
        x = source.vectors
    else:
        x = target.vectors.conj().T
        if source is not None:
            x = x @ source.vectors
    rotated = x @ frames @ x.conj().T
    rotated[0] = frames[0]
    return rotated


@dataclass(frozen=True)
class PropagatorResult:
    """W_tau(s) sampled on an s-grid, with step-size and drift metadata.

    The result stores frames U(s_j) = V† W(s_j) V in the eigenbasis V of
    ``basis``: the decomposition of H_o that :func:`evolve` used, or None for
    the standard basis (V = 1, as for a loaded ``.prop`` file). Every metric
    of H_o is diagonal in that basis, so a sweep reads the frames as they
    are (:meth:`frames_in`) and never forms W; ``unitaries`` forms
    W = V U V† for the callers that want it.

    ``steps`` counts the step exponentials applied (0 for ``exact-constant``)
    and ``step`` is the largest sub-step. The result owns the unitarity
    contract: construction measures the drift of every stored frame
    (:func:`unitarity_drift`, the Frobenius norm of U†U - 1, which equals
    that of W†W - 1 up to rounding), refuses the first grid point whose drift
    is not within ``drift_tol`` (so a NaN or infinite drift fails), and keeps
    the largest as ``max_drift``.
    """

    tau: float
    s_grid: np.ndarray
    frames: np.ndarray  # shape (len(s_grid), dim, dim), in the eigenbasis of basis
    step: float
    max_drift: float = field(init=False)
    scheme: str
    drift_tol: float = DEFAULT_DRIFT_TOL
    steps: int = 0
    basis: SpectralDecomposition | None = None

    def __post_init__(self):
        grid = np.asarray(self.s_grid, dtype=float)
        object.__setattr__(self, "s_grid", grid)
        us = np.asarray(self.frames, dtype=complex)
        object.__setattr__(self, "frames", us)
        grid.flags.writeable = False
        us.flags.writeable = False
        if grid.ndim != 1 or us.shape[0] != grid.size:
            raise ValueError("s_grid and frames are inconsistent")
        if self.basis is not None and self.basis.dim != us.shape[1]:
            raise ValueError("basis and frames differ in dimension")
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
        return self.frames.shape[1]

    def frames_in(self, d: SpectralDecomposition | None) -> np.ndarray:
        """The frames V_d† W(s_j) V_d at every grid point in the eigenbasis
        of ``d`` (None: W itself): the stored frames when ``d`` is
        ``basis``, else rotated once."""
        return _basis_change(self.frames, self.basis, d)

    @functools.cached_property
    def unitaries(self) -> np.ndarray:
        """W(s_j) = V U(s_j) V† at every grid point, formed on first use."""
        w = self.frames_in(None)
        w.flags.writeable = False
        return w

    def index_of(self, s: float) -> int:
        hits = np.nonzero(np.abs(self.s_grid - s) <= 1e-12)[0]
        if hits.size != 1:
            raise GridError(
                f"s={s} is not on the stored grid; interpolation of unitaries is refused"
            )
        return int(hits[0])

    def at(self, s: float) -> np.ndarray:
        """W(s) at one grid point."""
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
            # W is rotated here and freed on return, never cached on the result
            for s, u in zip(self.s_grid, self.frames_in(None)):
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
            frames=np.stack(unitaries),
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


def _check_dims(path: GeneratorPath, h_o: HermitianOperator) -> None:
    if path.dim != h_o.dim:
        raise ValueError(f"path dimension {path.dim} != operator dimension {h_o.dim}")


def evolve(
    h_o: HermitianOperator,
    path: GeneratorPath,
    tau: float,
    s_grid,
    step: float | None = None,
    drift_tol: float = DEFAULT_DRIFT_TOL,
) -> PropagatorResult:
    """Integrate i dW/ds = (tau*H_o + Lambda(s)) W over the s-grid.

    Every scheme runs in the eigenbasis V of H_o (``h_o.decomposition``):
    the drive is rotated there once, to A~ + p(s) B~ with A~ = V† A V and
    B~ = V† B V (:func:`_eigenbasis_drive`), H_o is diag(w) there, and the
    result holds the frames V† W(s) V with ``basis`` that decomposition.

    A constant drive (no B, :meth:`GeneratorPath.constant`) is solved
    exactly: the frame exp(-i s G) of G = diag(tau w) + A~ from one
    eigendecomposition of G (:func:`_exact_states`); ``step`` has no
    effect, the result's ``step`` is the largest grid interval and its
    ``steps`` is 0.

    A ramp drive A + s B with ``step`` None runs the Magnus-Filon scheme
    (:func:`_magnus_filon_states`, scheme ``magnus-filon``) at the
    tau-independent step :func:`magnus_step`, whenever that covers the grid
    within ``_MAX_STEPS``; an interval shorter than the step is one step.
    Once per sub-step length (to 11 significant digits) it derives the
    Magnus terms (:func:`_magnus_generator`), tabulates the step's
    exponential as a Chebyshev polynomial in the step start
    (:func:`_step_polynomial`, one exponential per coefficient kept, 5-6 on
    the catalog scenarios), and
    tabulates the products of 2, 4, 8, ... consecutive steps, frame phases
    included, the same way (:func:`_step_levels`), each only while it saves
    the grid's intervals more products than its nodes cost. An interval of
    nsub steps then costs one complex matrix product per table it reads,
    about log2(nsub), and one for its last step, which takes the
    interval's own exact frame phase (:func:`_magnus_filon_states`). A
    build costs about 4.5-5.5 ms at dim 66, so a grid with many distinct
    interval lengths runs faster with an explicit ``step``.

    A step or mollified drive, every explicit ``step``, and a ramp that
    would need more than ``_MAX_STEPS`` Magnus-Filon steps use the
    exponential midpoint scheme on the frames,
    U_{k+1} = exp(-i h (diag(tau w) + A~ + p(s_mid) B~)) U_k, where the
    exponential is applied to U_k by a Taylor series whose truncation error
    is below unit roundoff (:func:`_exp_step`); no eigendecomposition is
    formed (:func:`_midpoint_states`).
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
    _check_dims(path, h_o)
    grid = np.asarray(s_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("s_grid must be strictly increasing")
    if grid[0] != 0.0 or grid[-1] > 1.0:
        raise ValueError("s_grid must start at 0 and stay within [0, 1]")
    if step is not None and step <= 0:
        raise ValueError("step must be positive")
    spans = np.diff(grid)
    d = h_o.decomposition
    drive = _eigenbasis_drive(d, path)
    # an overflowed generator gives a NaN propagator, which PropagatorResult refuses
    with np.errstate(over="ignore"):
        fixed = np.diag(tau * d.column_values) + drive.a

    if drive.b is None:
        scheme = "exact-constant"
        taken = float(spans.max(initial=0.0))
        steps = 0
        states = _exact_states(fixed, grid)
    else:
        mf_step = magnus_step(path.kappa, path.kappa_dot)
        if step is None and path.at is None and _fits(grid, mf_step):
            scheme = "magnus-filon"
            # spans like 0.1 / 0.005 round up past 20 without the slack
            nsubs = _substeps(spans, mf_step, 1e-9)
            states = _magnus_filon_states(d.column_values, drive, tau, grid, nsubs)
        else:
            scheme = "midpoint-exponential"
            if path.smoothness == SMOOTH_L1:
                scheme += "/L1-direct"
            if step is None:
                step = default_step(tau, h_o.norm(), path.kappa)
            if not _fits(grid, step):
                raise ValueError(f"step {step:.3e} needs more than {_MAX_STEPS} steps over the grid")
            nsubs = _substeps(spans, step)
            states = _midpoint_states(fixed, drive, grid, nsubs)
        taken = max((span / n for span, n in zip(spans, nsubs)), default=0.0)
        steps = sum(nsubs)

    frames = np.empty((grid.size, h_o.dim, h_o.dim), dtype=complex)
    frames[0] = np.eye(h_o.dim)
    for j, u in enumerate(states, start=1):
        frames[j] = u
    return PropagatorResult(
        tau=tau,
        s_grid=grid,
        frames=frames,
        step=taken,
        scheme=scheme,
        drift_tol=drift_tol,
        steps=steps,
        basis=d,
    )


def _eigenbasis_drive(d: SpectralDecomposition, path: GeneratorPath) -> GeneratorPath:
    """The drive in the eigenbasis V of ``d``, V† A V + p(s) V† B V: the one
    place where a scheme's drive is rotated. The profile, kappa and kappa_dot
    are the parent's, which a unitary change of basis leaves as they are."""
    v, vh = d.vectors, d.vectors.conj().T
    b = None if path.b is None else vh @ path.b @ v
    return replace(path, a=vh @ path.a @ v, b=b)


def _exact_states(gen: np.ndarray, grid: np.ndarray) -> Iterator[np.ndarray]:
    """exp(-i s gen) at every grid point after the first, from one eigh
    gen = X diag(l) X†: X exp(-i s l) X†, one product per point."""
    vals, x = np.linalg.eigh(gen)
    xh = x.conj().T
    for s in grid[1:]:
        yield x @ (np.exp(-1j * s * vals)[:, None] * xh)


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


def _taylor_exponential(gen: np.ndarray) -> np.ndarray:
    """exp(-i gen) for a Hermitian ``gen``, formed as a matrix: the Taylor
    series of :func:`_exp_step` with h = 1, split into the same q equal parts
    and summed to the same degree m, evaluated by the Paterson-Stockmeyer
    scheme (Higham, Functions of Matrices, SIAM 2008, Sec. 4.2). With the
    powers of X = -i gen / q up to X^s, s = ceil(sqrt(m)), Horner's rule in
    X^s over blocks of s terms takes about 2 sqrt(m) products instead of the
    m that the action on the identity takes; the part is then raised to the
    q-th power."""
    theta = float(np.abs(gen).sum(axis=0).max())
    q = max(1, math.ceil(theta / _THETA_MAX))
    m = _taylor_degree(theta / q)
    s = math.isqrt(max(m - 1, 0)) + 1
    powers = [np.eye(gen.shape[0], dtype=complex), (-1j / q) * gen]
    while len(powers) <= s:
        powers.append(powers[-1] @ powers[1])

    def add_block(j: int, part: np.ndarray) -> np.ndarray:
        """part plus sum_i X^i / (j s + i)! over i < s and j s + i <= m, in
        place; X^0 is added on the diagonal."""
        part.flat[:: part.shape[0] + 1] += 1.0 / math.factorial(j * s)
        for i in range(1, min(s, m + 1 - j * s)):
            part += powers[i] / math.factorial(j * s + i)
        return part

    r, rest = divmod(m, s)
    if rest == 0 and r > 0:  # the top block is X^(r s) / m! alone: no product
        part = add_block(r - 1, powers[s] / math.factorial(m))
        r -= 1
    else:
        part = add_block(r, np.zeros_like(powers[0]))
    for j in range(r - 1, -1, -1):
        part = add_block(j, part @ powers[s])
    out = part
    for _ in range(q - 1):
        out = out @ part
    return out


def _midpoint_states(
    fixed: np.ndarray, drive: GeneratorPath, grid: np.ndarray, nsubs: list[int]
) -> Iterator[np.ndarray]:
    """The frame at every grid point after the first, stepping each interval
    in ``nsubs`` equal exponential-midpoint steps of the generator
    ``fixed`` + p(s_mid) B~ in the eigenbasis, where ``fixed`` =
    diag(tau w) + A~ and ``drive`` is the drive in that basis."""
    w_cur = np.eye(fixed.shape[0], dtype=complex)
    for s0, s1, nsub in zip(grid, grid[1:], nsubs):
        h = (s1 - s0) / nsub
        for k in range(nsub):
            mid = s0 + (k + 0.5) * h
            w_cur = _exp_step(fixed + drive.profile(mid) * drive.b, h, w_cur)
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
    """How many Chebyshev points in u = 2 s0 - 1 the interpolant of
    exp(-i G(s0)), G(s0) = g_0 + s0 (g_1 + s0 g_2) with Hermitian g_i and
    ||g_1|| <= g1, ||g_2|| <= g2, needs for an error below unit roundoff on
    s0 in [0, 1].

    On the Bernstein ellipse E_rho (Trefethen, Approximation Theory and
    Approximation Practice, SIAM 2013, Thm 8.1), with a, b = (rho +- 1/rho)/2,
    s0 = (1 + u)/2 has |Re s0| <= (1 + a)/2 and |Im s0| <= b/2, so the
    anti-Hermitian part of G is at most log M = b/2 (g1 + (1 + a) g2), and
    ||exp(-i G)|| <= M. The interpolant of degree N, in N + 1 points, then
    errs by at most 4 M rho^-N / (rho - 1) (Thm 8.2: the coefficients it
    drops, and the tail it aliases onto those it keeps), so N + 1 is
    returned for the least N over a grid of rho with 2 M rho^-N / (rho - 1)
    below unit roundoff, an error within twice that. With N points instead,
    c_N is dropped unbounded, and a step of a weak drive on a small spectrum
    (1-norms near 4.6e-4 at dim 6) errs by 1.7e-13.
    """
    a, b, log_gap, log_rho = _bernstein_ellipses()
    log_m = 0.5 * b * (g1 + (1.0 + a) * g2)
    log_tail = math.log(2.0 / _UNIT_ROUNDOFF) + log_m - log_gap
    return int(np.ceil(log_tail / log_rho).min()) + 1


@functools.cache
def _bernstein_ellipses() -> tuple[np.ndarray, ...]:
    """The grid of rho from 1.25 to 1e8 that :func:`_chebyshev_length`
    searches, as the semi-axes a, b of E_rho, log(rho - 1) and log(rho),
    formed once."""
    rho = np.geomspace(1.25, 1e8, 128)
    return 0.5 * (rho + 1.0 / rho), 0.5 * (rho - 1.0 / rho), np.log(rho - 1.0), np.log(rho)


def _chebyshev_interpolant(node_value, n: int, length: float, shape) -> np.ndarray:
    """The n Chebyshev coefficients in u = 2 x / length - 1 of the matrix
    function ``node_value`` on x in [0, length], interpolated at the roots
    u_k of T_n: c_j = (2 - [j = 0]) / n sum_k T_j(u_k) f(x_k). They differ
    from f's own first n coefficients only by the aliased tail from n on: at
    the roots of T_n, T_{2ln +- j} equals +-T_j (Trefethen, ATAP, Thm 4.2
    for these points).

    The node values are formed one at a time into the array that returns the
    coefficients, which one real product by the n x n matrix T_j(u_k) then
    turns into coefficients in place, a block of about 1/n of the columns at
    a time, so the work space stays near one matrix of ``shape``."""
    angles = math.pi * (np.arange(n) + 0.5) / n
    coef = np.empty((n, *shape), dtype=complex)
    for k, angle in enumerate(angles):
        coef[k] = node_value(0.5 * length * (math.cos(angle) + 1.0))
    transform = np.cos(np.arange(n)[:, None] * angles) * (2.0 / n)
    transform[0] *= 0.5
    flat = coef.view(np.float64).reshape(n, -1)
    block = -(-flat.shape[1] // n)
    for first in range(0, flat.shape[1], block):
        flat[:, first : first + block] = transform @ flat[:, first : first + block]
    return coef


def _generator_norms(g: np.ndarray) -> tuple[float, float]:
    """Upper bounds on the 2-norms of the Hermitian g_1 and g_2 for the step
    tables of :func:`_step_levels`, one product each:
    ||x||_2 = ||x^2||_2^(1/2) <= ||x^2||_1^(1/2). On the catalog ramps that
    is 2.5 (dim 66) to 4 (dim 512) times tighter than ||x||_1, so a table
    takes fewer nodes and less memory."""
    return tuple(math.sqrt(float(np.abs(x @ x).sum(axis=0).max())) for x in g[1:])


def _step_polynomial(g: np.ndarray) -> np.ndarray:
    """E(s0) = exp(-i G(s0)) with G(s0) = g_0 + s0 (g_1 + s0 g_2) from
    :func:`_magnus_generator`, the Magnus-Filon step without its frame
    phase, as the stack of its Chebyshev coefficients in u = 2 s0 - 1 on s0
    in [0, 1]: E is interpolated (:func:`_chebyshev_interpolant`) at the
    n = :func:`_chebyshev_length` Chebyshev points for the 1-norms of g_1
    and g_2, with the node values from :func:`_taylor_exponential`.
    """
    return _chebyshev_interpolant(
        lambda s0: _taylor_exponential(g[0] + s0 * (g[1] + s0 * g[2])),
        _chebyshev_length(*(float(np.abs(x).sum(axis=0).max()) for x in g[1:])),
        1.0,
        g.shape[1:],
    )


def _chebyshev_values(level: tuple[float, np.ndarray], xs) -> np.ndarray:
    """The matrix polynomial ``level`` = (length, its Chebyshev coefficients
    on [0, length]) at each point of ``xs``, stacked: one real product of
    the rows T_j(u), u = 2 x / length - 1, with the coefficients' real view.
    The rows come from T_(j+1) = 2 u T_j - T_(j-1) in floats, which for the
    few points and coefficients of a step costs less than numpy calls."""
    length, coef = level
    n = coef.shape[0]
    rows = []
    for x in xs:
        u = 2.0 * x / length - 1.0
        row = [1.0, u]
        while len(row) < n:
            row.append(2.0 * u * row[-1] - row[-2])
        rows.append(row[:n])
    values = np.array(rows) @ coef.view(np.float64).reshape(n, -1)
    return values.view(complex).reshape(len(rows), *coef.shape[1:])


def _step_levels(
    w: np.ndarray, a: np.ndarray, b: np.ndarray, tau: float, h: float, counts: list[int]
) -> dict[int, tuple[float, np.ndarray]]:
    """The step tables of the ramp a + s b in the eigenbasis at tau for one
    sub-step length h, for intervals that take ``counts`` steps of length h
    before their last.

    Level 1 is E(s0) of :func:`_step_polynomial`, without its frame phase
    exp(-i tau h w): it serves every interval's last step, whose phase is
    its own. Level 2k is the product of 2k consecutive steps of length h
    from x, frame phases included, as Chebyshev coefficients on
    [0, 1 - (2k - 1) h], from level k at its own nodes:
    P_2k(x) = P_k(x + k h) P_k(x), one product per node, where P_1 is level 1
    times the phase. The domains are nested, so no level is evaluated
    outside the one it comes from, and on the Bernstein ellipse of that
    domain each of the 2k factors keeps the bound that
    :func:`_chebyshev_length` takes for one step: 2k steps take the length
    for 2k times the bounds of :func:`_generator_norms`.

    A level costs one product per node and saves, in an interval of m
    steps, m // 2k products over the levels below it, so it is built only
    while that saving over ``counts`` exceeds its node count. A level that
    no interval uses is dropped once the next is built. Each level is
    (length, its coefficients) for :func:`_chebyshev_values`.
    """
    g = _magnus_generator(w, a, b, tau, h)
    norms = _generator_norms(g)
    levels = {1: (1.0, _step_polynomial(g))}
    del g  # the levels hold all that the steps need
    phase = np.exp(-1j * tau * h * w)[:, None]
    k = 1
    while True:
        n = _chebyshev_length(2 * k * norms[0], 2 * k * norms[1])
        if sum(m // (2 * k) for m in counts) <= n:
            return levels

        def node(x: float, k: int = k) -> np.ndarray:
            pair = _chebyshev_values(levels[k], [x + k * h, x])
            if k == 1:
                pair *= phase
            return pair[0] @ pair[1]

        length = 1.0 - (2 * k - 1) * h
        coef = _chebyshev_interpolant(node, n, length, (w.size, w.size))
        if k > 1 and not any(m % (2 * k) >= k for m in counts):
            del levels[k]
        k *= 2
        levels[k] = (length, coef)


def _magnus_filon_states(
    w: np.ndarray, drive: GeneratorPath, tau: float, grid: np.ndarray, nsubs: list[int]
) -> Iterator[np.ndarray]:
    """The frame V† W V at every grid point after the first, stepping the
    ramp A~ + s B~ of ``drive``, the drive in the eigenbasis V of H_o whose
    eigenvalues are ``w``, in ``nsubs`` Magnus-Filon steps per interval:
    W itself is never formed.
    A step of length h from s0 applies exp(-i tau h w) exp(-i G(s0)) with G
    from :func:`_magnus_generator`.

    Step lengths are keyed to 11 significant digits, and each key builds its
    tables once (:func:`_step_levels`) at its first exact length h_k: the
    sub-steps of a uniform grid differ in their last bits, and G depends
    smoothly on h, so sharing it between lengths that agree to about 5e-12
    costs only rounding. An interval of span = nsub h takes m = nsub - 1
    steps of length h_k from its start, frame phases included: the largest
    level at most m as often as it fits, then one level per set bit of the
    rest, each one product applied to the state. Its last step, of length
    h + m (h - h_k) from s0 + m h_k, takes its own exact frame phase, so
    the interval's phase is that of its span, and an interval of one step
    (m = 0) is exactly that step. A key's tables are freed after its last
    interval."""
    spans = np.diff(grid)
    keys = [f"{span / nsub:.11g}" for span, nsub in zip(spans, nsubs)]
    counts, last = {}, {}
    for j, (key, nsub) in enumerate(zip(keys, nsubs)):
        counts.setdefault(key, []).append(nsub - 1)
        last[key] = j
    tables = {}
    y = np.eye(w.size, dtype=complex)
    for j, (s0, span, nsub, key) in enumerate(zip(grid, spans, nsubs, keys)):
        h = span / nsub
        if key not in tables:
            phase = np.exp(-1j * tau * h * w)[:, None]
            tables[key] = h, phase, _step_levels(w, drive.a, drive.b, tau, h, counts[key])
        h_k, phase, levels = tables[key]
        top = max(levels)
        m, done = nsub - 1, 0
        while done < m:
            k = top if m - done >= top else 1 << ((m - done).bit_length() - 1)
            (value,) = _chebyshev_values(levels[k], [s0 + done * h_k])
            if k == 1:
                value *= phase
            y = value @ y
            done += k
        (value,) = _chebyshev_values(levels[1], [s0 + m * h_k])
        value *= np.exp(-1j * tau * (h + m * (h - h_k)) * w)[:, None]
        y = value @ y
        if last[key] == j:
            del tables[key]
        yield y


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
    # both runs hold their frames in the one eigenbasis, where norms are W's
    diff = max(
        operator_norm(a - b) for a, b in zip(coarse.frames, fine.frames_in(coarse.basis))
    )
    return coarse, (4.0 / 3.0) * diff


# --- comparison evolution and Dyson expansion ------------------------------


def comparison_operator(
    h_o: HermitianOperator, result: PropagatorResult, t: float, s: float
) -> UnitaryOperator:
    """Omega_tau(t,s) = exp(i tau (t-s) H_o) W_tau(t) W_tau(s)^+ for grid t, s,
    formed in the eigenbasis V of H_o as V (exp(i tau (t-s) w) ∘ U(t) U(s)†) V†
    from the frames U = V† W V."""
    d = h_o.decomposition
    u_t, u_s = result.frames_in(d)[[result.index_of(t), result.index_of(s)]]
    phase = np.exp(1j * (result.tau * (t - s)) * d.column_values)[:, None]
    return UnitaryOperator(
        d.vectors @ (phase * (u_t @ u_s.conj().T)) @ d.vectors.conj().T,
        drift_tol=max(DEFAULT_DRIFT_TOL, 3 * result.max_drift + 1e-12),
    )


def comparison_family(h_o: HermitianOperator, result: PropagatorResult) -> np.ndarray:
    """Omega_tau(s_j, 0) for every grid point in the eigenbasis V of H_o, as an
    (n, dim, dim) array: V† Omega_tau(s_j, 0) V = exp(i tau s_j w) ∘ U(s_j),
    the frame U = V† W V with its rows scaled by the phases (no product)."""
    d = h_o.decomposition
    times = result.tau * result.s_grid
    return np.exp(1j * times[:, None] * d.column_values)[:, :, None] * result.frames_in(d)


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
    _check_dims(path, h_o)
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
    path: GeneratorPath, s_grid, step: float | None, caller: str, prefix: str, basis=None
) -> PropagatorResult:
    """i dV/ds = Lambda(s) V, V(0) = 1: a tau=1, H_o=0 evolution whose scheme
    is tagged with ``prefix``. H_o = 0 decomposes to V = 1, so the frames are
    the solution itself, returned as frames in the eigenbasis of ``basis``:
    the basis ``path`` is written in (None: the standard basis)."""
    if path.smoothness != SMOOTH_C1:
        raise ValueError(f"{caller} requires a norm_C1 path; mollify first")
    res = evolve(_zero_operator(path.dim), path, tau=1.0, s_grid=s_grid, step=step)
    return replace(res, scheme=prefix + res.scheme, basis=basis)


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
    _check_dims(path, h_o)
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


def omega_infinity(
    d: SpectralDecomposition,
    path: GeneratorPath,
    s_grid,
    step: float | None = None,
) -> PropagatorResult:
    """The limit evolution: i dOmega/ds = (sum_E P_E Lambda(s) P_E) Omega.

    In the eigenbasis V of H_o (``d``) the generator is the same-level mask
    of the drive V† Lambda(s) V, applied to A~ and B~ once. That drive is
    evolved under H_o = 0, and the result holds the frames V† Omega V with
    ``basis`` ``d``; they are block-diagonal by level, so Omega commutes with
    H_o. Masking is a pinching, so the parent's kappa and kappa_dot bound the
    masked drive and set its step."""
    drive = _eigenbasis_drive(d, path)
    mask = d.block_mask()
    limit = replace(drive, a=mask * drive.a, b=None if drive.b is None else mask * drive.b)
    return _drive_only_evolution(limit, s_grid, step, "omega_infinity", "limit-", basis=d)
