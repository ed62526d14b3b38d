"""Functions of a Hermitian operator: spectral projections, continuous and
bounded-variation functional calculus, block-diagonal compression, and the
commutator equation [H, X] = P1 A P2 across a spectral gap.

The bounded-variation calculus evaluates the integration-by-parts form

    f(H) = f(inf)*1 - int df(E) chi(H <= E) + sum_E (f(E) - f(E+0)) chi(H = E)

where the Stieltjes measure df carries full-jump atoms f(E+0) - f(E-0) whose
integrand is taken at its left limit chi(H < E); this is the unique convention
under which the formula reproduces f(H) pointwise on the spectrum (checked in
the tests for steps, point masses, Fermi functions, and sums).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable

import numpy as np

from .operators import HermitianOperator, SpectralDecomposition

__all__ = [
    "Jump",
    "BVFunction",
    "MalformedBVFunctionError",
    "AmbiguousLevelError",
    "projection_leq",
    "projection_geq",
    "projection_eq",
    "band_projection",
    "gap_columns",
    "calculus_continuous",
    "calculus_bv",
    "total_variation",
    "block_diagonal_part",
    "block_compress",
    "kato_commutator_solution",
    "step_function",
    "kronecker_delta",
    "fermi_dirac",
]


class MalformedBVFunctionError(ValueError):
    """Declared BV data is inconsistent (variation exceeded, bad jump list)."""


class AmbiguousLevelError(ValueError):
    """Two spectral levels lie within cluster tolerance of the requested energy."""


@dataclass(frozen=True)
class Jump:
    """A discontinuity of a BV function at ``at``.

    Stores the three values the integration-by-parts formula needs:
    ``left`` = f(at-0), ``value`` = f(at), ``right`` = f(at+0). ``value``
    defaults to ``left`` (left-continuous convention), which reproduces the
    step functions chi(x <= E); a point mass sets ``value`` explicitly.
    """

    at: float
    left: float
    right: float
    value: float | None = None

    def __post_init__(self):
        if self.value is None:
            object.__setattr__(self, "value", self.left)

    @property
    def atom_weight(self) -> float:
        """Mass of df at this location: f(at+0) - f(at-0)."""
        return self.right - self.left

    @property
    def point_correction(self) -> float:
        """The f(E) - f(E+0) term of the integration-by-parts formula."""
        return self.value - self.right


def _zero(_x: float) -> float:
    return 0.0


@dataclass(frozen=True)
class BVFunction:
    """A bounded-variation function split into a continuous part plus jumps.

    Away from jumps, f(x) = continuous(x) + c where the constant c is fixed
    per segment by matching the stored one-sided limits at the jump locations;
    at a jump, f takes the stored ``value``. ``at_infinity`` is the declared
    limit f(+inf) and ``variation`` the declared total variation Var(f).
    """

    continuous: Callable[[float], float] = _zero
    jumps: tuple[Jump, ...] = ()
    at_infinity: float = 0.0
    variation: float = 0.0
    _offsets: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        jumps = tuple(self.jumps)
        object.__setattr__(self, "jumps", jumps)
        ats = [j.at for j in jumps]
        if any(b <= a for a, b in zip(ats, ats[1:])):
            raise MalformedBVFunctionError("jump locations must be strictly increasing")
        if not math.isfinite(self.variation) or self.variation < 0:
            raise MalformedBVFunctionError("declared variation must be finite and >= 0")
        point_var = sum(abs(j.point_correction) for j in jumps)
        if point_var > self.variation * (1 + 1e-9) + 1e-12:
            raise MalformedBVFunctionError(
                f"sum of |f(E) - f(E+0)| = {point_var:.6g} exceeds declared "
                f"variation {self.variation:.6g}"
            )
        # Segment constants: region k sits left of jump k (anchored by its
        # left limit), the last region sits right of the final jump.
        offsets = []
        for j in jumps:
            offsets.append(j.left - self.continuous(j.at))
        offsets.append(jumps[-1].right - self.continuous(jumps[-1].at) if jumps else 0.0)
        # Stored left limits must agree with the segment reached from the
        # previous jump, else the data does not describe a single function.
        for k in range(1, len(jumps)):
            reached = self.continuous(jumps[k].at) + (
                jumps[k - 1].right - self.continuous(jumps[k - 1].at)
            )
            if abs(reached - jumps[k].left) > 1e-9 * max(1.0, abs(jumps[k].left)):
                raise MalformedBVFunctionError(
                    f"left limit at jump {k} ({jumps[k].left!r}) is inconsistent "
                    f"with the segment value {reached!r} carried from jump {k - 1}"
                )
        object.__setattr__(self, "_offsets", tuple(offsets))

    def _limits(self, x: float) -> tuple[float, float, float]:
        """(f(x-0), f(x), f(x+0)): the stored jump at x, else the segment value."""
        k = bisect.bisect_left(self.jumps, x, key=attrgetter("at"))
        if k < len(self.jumps) and self.jumps[k].at == x:
            j = self.jumps[k]
            return j.left, j.value, j.right
        v = self.continuous(x) + self._offsets[k]
        return v, v, v

    def __call__(self, x: float) -> float:
        return self._limits(x)[1]

    def left_limit(self, x: float) -> float:
        return self._limits(x)[0]

    def right_limit(self, x: float) -> float:
        return self._limits(x)[2]

    def continuous_at_infinity(self) -> float:
        """Limit of the continuous part at +inf, implied by f(+inf)."""
        return self.at_infinity - self._offsets[-1]

    def __add__(self, other: "BVFunction") -> "BVFunction":
        if not isinstance(other, BVFunction):
            return NotImplemented
        merged = []
        for at in sorted({j.at for j in self.jumps} | {j.at for j in other.jumps}):
            (la, va, ra), (lb, vb, rb) = self._limits(at), other._limits(at)
            merged.append(Jump(at, la + lb, ra + rb, value=va + vb))
        f, g = self.continuous, other.continuous
        # A zero side keeps the other side's part as it is.
        summed = g if f is _zero else f if g is _zero else lambda x: f(x) + g(x)
        return BVFunction(
            continuous=summed,
            jumps=tuple(merged),
            at_infinity=self.at_infinity + other.at_infinity,
            variation=self.variation + other.variation,
        )


def _fermi_callable(mu: float, beta: float) -> Callable[[float], float]:
    def f(x: float) -> float:
        # Stable logistic: never evaluates exp of a large positive argument.
        t = beta * (x - mu)
        if t >= 0:
            return math.exp(-t) / (1.0 + math.exp(-t))
        return 1.0 / (1.0 + math.exp(t))

    return f


def step_function(e0: float) -> BVFunction:
    """chi(x <= e0) as a BV function: one unit jump, no continuous part."""
    return BVFunction(jumps=(Jump(e0, left=1.0, right=0.0),), at_infinity=0.0, variation=1.0)


def kronecker_delta(e0: float) -> BVFunction:
    """delta_{e0}(x): 1 at e0, 0 elsewhere (both one-sided jumps at e0)."""
    return BVFunction(
        jumps=(Jump(e0, left=0.0, right=0.0, value=1.0),), at_infinity=0.0, variation=2.0
    )


def fermi_dirac(mu: float, beta: float) -> BVFunction:
    """The occupation function 1/(1 + exp(beta*(x - mu))); total variation 1."""
    return BVFunction(continuous=_fermi_callable(mu, beta), at_infinity=0.0, variation=1.0)


# --- spectral projections ------------------------------------------------


def _levels_within(d: SpectralDecomposition, e: float) -> np.ndarray:
    """Indices of the levels within cluster_tol of e (at most one is allowed)."""
    hits = np.flatnonzero(np.abs(d.eigenvalues - e) <= d.cluster_tol)
    if hits.size > 1:
        raise AmbiguousLevelError(
            f"{hits.size} levels lie within cluster_tol of {e}: "
            f"{d.eigenvalues[hits].tolist()}"
        )
    return hits


def projection_leq(d: SpectralDecomposition, e: float) -> HermitianOperator:
    """chi(H <= e); membership decided with cluster_tol slack toward inclusion."""
    return HermitianOperator(d.compose(d.eigenvalues <= e + d.cluster_tol))


def projection_geq(d: SpectralDecomposition, e: float) -> HermitianOperator:
    """chi(H >= e); membership decided with cluster_tol slack toward inclusion."""
    return HermitianOperator(d.compose(d.eigenvalues >= e - d.cluster_tol))


def projection_eq(d: SpectralDecomposition, e: float) -> HermitianOperator:
    """chi(H = e): the projection of the unique level within cluster_tol of e,
    or zero if no level matches."""
    hit = np.zeros(len(d.levels), dtype=bool)
    hit[_levels_within(d, e)] = True
    return HermitianOperator(d.compose(hit))


def band_projection(
    d: SpectralDecomposition,
    a: float,
    b: float,
    closed_left: bool = False,
    closed_right: bool = False,
) -> HermitianOperator:
    """Sum of level projections with eigenvalue in the interval (a, b),
    with either end optionally closed."""
    if a > b:
        raise ValueError(f"band requires a <= b, got ({a}, {b})")
    e = d.eigenvalues
    lo = e >= a if closed_left else e > a
    hi = e <= b if closed_right else e < b
    return HermitianOperator(d.compose(lo & hi))


def gap_columns(d: SpectralDecomposition, e1: float, e2: float) -> tuple[slice, slice]:
    """The column slices of V that span chi(H <= e1) and chi(H >= e2), with
    the cluster_tol slack of projection_leq and projection_geq. Levels
    increase, so the first is a prefix of the columns and the second a
    suffix; they overlap when the bands do."""
    n_lower = int(np.count_nonzero(d.eigenvalues <= e1 + d.cluster_tol))
    n_upper = int(np.count_nonzero(d.eigenvalues >= e2 - d.cluster_tol))
    return slice(0, d.offsets[n_lower]), slice(d.offsets[len(d.levels) - n_upper], d.dim)


# --- functional calculus --------------------------------------------------


def calculus_continuous(d: SpectralDecomposition, f: Callable[[float], float]) -> HermitianOperator:
    """f(H) = sum_E f(E) P_E for a pointwise-finite f."""
    values = []
    for e in d.eigenvalues:
        val = float(f(float(e)))
        if not math.isfinite(val):
            raise ValueError(f"f is not finite at eigenvalue {float(e)}")
        values.append(val)
    return HermitianOperator(d.compose(values))


# Grid size of calculus_bv's check of the declared variation.
_VARIATION_POINTS = 10_000


def calculus_bv(d: SpectralDecomposition, f: BVFunction) -> HermitianOperator:
    """f(H) via integration by parts against E -> chi(H <= E).

    The projection-valued integrand is piecewise constant with steps only at
    eigenvalues, so the continuous part of the Stieltjes integral reduces to
    exact endpoint differences of the continuous component on the partition
    induced by the spectrum; jump atoms and at-point corrections are added
    exactly. Every term is a combination of level projections, so the result
    is assembled as one coefficient per level. The declared variation is
    checked on ``_VARIATION_POINTS`` points across the spectral window.
    """
    eigs = d.eigenvalues
    span = float(eigs[-1] - eigs[0])
    pad = 0.05 * max(1.0, span)
    window = np.linspace(eigs[0] - pad, eigs[-1] + pad, _VARIATION_POINTS)
    measured = total_variation(f, window)
    if measured > f.variation * (1 + 1e-9) + 1e-12:
        raise MalformedBVFunctionError(
            f"variation measured on the spectral window ({measured:.6g}) exceeds "
            f"the declared variation ({f.variation:.6g})"
        )

    # f(inf)*1 on every level. Continuous part of -int df(E) chi(H <= E):
    # between consecutive eigenvalues chi is constant, so segment j
    # contributes (g(next) - g(this)) * chi(H <= this), which telescopes to
    # (g(+inf) - g(E)) on level E.
    g = f.continuous
    g_inf = f.continuous_at_infinity()
    coef = np.array([f.at_infinity - (g_inf - g(float(e))) for e in eigs])

    for j in f.jumps:
        w = j.atom_weight
        if w != 0.0:
            # chi(H < at) = chi(H <= at) - chi(H = at), with the same tol slack
            below = eigs <= j.at + d.cluster_tol
            below[_levels_within(d, j.at)] = False
            coef[below] -= w
        c = j.point_correction
        if c != 0.0:
            coef[_levels_within(d, j.at)] += c

    return HermitianOperator(d.compose(coef))


def total_variation(f: BVFunction, grid) -> float:
    """Variation of f along a sorted grid, with the three-point excursion
    (left limit, value, right limit) inserted at every jump inside the grid
    range. Nondecreasing under grid refinement."""
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if np.any(np.diff(xs) < 0):
        raise ValueError("grid must be sorted")
    jump_ats = {j.at for j in f.jumps if xs[0] <= j.at <= xs[-1]}
    points = sorted(set(xs.tolist()) | jump_ats)
    values = [v for x in points for v in f._limits(x)]
    return float(sum(abs(b - a) for a, b in zip(values, values[1:])))


# --- block compression and the gap commutator -----------------------------


def block_compress(d: SpectralDecomposition, a: np.ndarray) -> np.ndarray:
    """sum_E P_E a P_E on raw matrices, as the same-level mask applied in the
    eigenbasis: V (mask * V† a V) V†."""
    if a.shape != (d.dim, d.dim):
        raise ValueError(f"dimension mismatch: {a.shape} vs {d.dim}")
    v = d.vectors
    return v @ (d.block_mask() * (v.conj().T @ a @ v)) @ v.conj().T


def block_diagonal_part(d: SpectralDecomposition, a: HermitianOperator) -> HermitianOperator:
    """The part of ``a`` commuting with H: sum_E P_E a P_E."""
    return HermitianOperator(block_compress(d, a.matrix))


def kato_commutator_solution(
    d: SpectralDecomposition, lam: HermitianOperator, e1: float, e2: float
) -> np.ndarray:
    """Solve [H, X] = P1 lam P2 across the gap (e1, e2), where
    P1 = chi(H <= e1) and P2 = chi(H >= e2).

    In the eigenbasis, X_ij = (P1 lam P2)_ij / (E_i - E_j) on the P1 x P2
    block and zero elsewhere. Satisfies ||X|| <= ||lam|| / (e2 - e1): via
    1/(b - a) = int_0^inf exp(-t(b - a)) dt the division is a contraction
    divided by the gap (implementation-specific sharp constant; the bound is
    asserted by the tests, not here).
    """
    delta = e2 - e1
    if delta <= 0:
        raise ValueError(f"requires e2 > e1, got gap {delta}")
    if delta <= d.cluster_tol:
        raise ValueError(f"gap {delta} must exceed cluster_tol {d.cluster_tol}")
    lower, upper = gap_columns(d, e1, e2)
    if lower.stop > upper.start:
        raise ValueError("bands overlap within cluster tolerance; enlarge the gap")
    w = np.repeat(d.eigenvalues, d.multiplicities)
    v_lo = d.vectors[:, lower]
    v_up = d.vectors[:, upper]
    block = (v_lo.conj().T @ lam.matrix @ v_up) / (w[lower, None] - w[None, upper])
    return v_lo @ block @ v_up.conj().T
