"""Dense complex operator primitives: Hermitian matrices, spectral decompositions,
unitary exponentials, and the operator (largest-singular-value) norm.

Everything is finite-dimensional and dense. All types are immutable after
construction and all functions are pure, so values are safe to share across
threads.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "OperatorError",
    "EigensolverError",
    "HermitianOperator",
    "UnitaryOperator",
    "SpectralLevel",
    "SpectralDecomposition",
    "operator_norm",
    "hermitian_norm",
    "gram_norm",
    "unitarity_drift",
    "hermitian_eigendecomposition",
    "unitary_exponential",
    "format_matrix",
    "parse_matrix",
    "write_matrix",
    "read_matrix",
    "pauli",
    "direct_sum",
]

HERMITICITY_RTOL = 1e-12
DECOMPOSITION_TOL = 1e-10
DEFAULT_DRIFT_TOL = 1e-8
# A matrix is a function of H when its eigenbasis form strays from one value
# per level by at most this, relative to its largest coefficient.
FUNCTION_RTOL = 1e-12


class OperatorError(ValueError):
    """Invalid operator data (non-square, non-finite, non-Hermitian, ...)."""


class EigensolverError(RuntimeError):
    """Eigendecomposition failed or did not meet its residual contract."""


def _as_square_complex(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise OperatorError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise OperatorError("dimension must be >= 1")
    if not np.all(np.isfinite(a.view(float))):
        raise OperatorError("matrix entries must be finite")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix, exactly symmetrized at construction.

    Construction rejects input whose anti-Hermitian part exceeds
    ``HERMITICITY_RTOL`` relative to the max-entry scale.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = _as_square_complex(self.matrix)
        scale = np.abs(a).max()
        defect = np.abs(a - a.conj().T).max()
        if scale > 0 and defect > HERMITICITY_RTOL * scale:
            raise OperatorError(
                f"matrix is not Hermitian: max|A - A†| = {defect:.3e} "
                f"exceeds {HERMITICITY_RTOL:.0e} * max|A| = {HERMITICITY_RTOL * scale:.3e}"
            )
        object.__setattr__(self, "matrix", _freeze(0.5 * a + 0.5 * a.conj().T))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        # (w, V) from the one eigh of the matrix, shared by norm() and the
        # decomposition. A zero matrix gives what eigh returns for it, w = 0
        # and V = 1, without the LAPACK call.
        if not self.matrix.any():
            return _freeze(np.zeros(self.dim)), _freeze(np.eye(self.dim, dtype=complex))
        try:
            w, v = np.linalg.eigh(self.matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
            raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
        return _freeze(w), _freeze(v)

    @cached_property
    def decomposition(self) -> SpectralDecomposition:
        """The validated spectral decomposition at the default cluster_tol
        1e-9 * ||H||, built on first use and shared by every later caller."""
        return hermitian_eigendecomposition(self, 1e-9 * self.norm())

    def norm(self) -> float:
        """Spectral norm, computed from the (real) eigenvalues."""
        return float(np.abs(self._eigh[0]).max())


@dataclass(frozen=True)
class UnitaryOperator:
    """A matrix together with its measured unitarity drift, the Frobenius
    norm of U†U - 1 (:func:`unitarity_drift`)."""

    matrix: np.ndarray
    drift: float = field(init=False)
    drift_tol: float = DEFAULT_DRIFT_TOL

    def __post_init__(self):
        a = _as_square_complex(self.matrix)
        drift = unitarity_drift(a)
        if not drift <= self.drift_tol:
            raise OperatorError(
                f"unitarity drift {drift:.3e} exceeds tolerance {self.drift_tol:.3e}"
            )
        object.__setattr__(self, "matrix", _freeze(a))
        object.__setattr__(self, "drift", drift)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralLevel:
    eigenvalue: float
    multiplicity: int
    vectors: np.ndarray  # (dim, multiplicity) orthonormal columns spanning the level

    @cached_property
    def projection(self) -> np.ndarray:
        """The rank-``multiplicity`` orthogonal projection, formed on first use."""
        proj = self.vectors @ self.vectors.conj().T
        return _freeze(0.5 * (proj + proj.conj().T))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvectors grouped into distinct levels: H = V diag(w) V†, where w
    holds the per-column eigenvalues of one ``eigh`` (increasing) and the
    columns ``offsets[k]:offsets[k+1]`` of V span level k, whose eigenvalue
    :func:`hermitian_eigendecomposition` takes as the mean of w over them.

    Invariants (validated at construction, all at 1e-10, in O(dim^3)):
    ||V†V - 1|| is small, V is square and the level slices partition its
    columns, so the level projections are idempotent, mutually orthogonal and
    sum to the identity; sum_E E P_E reconstructs the operator; every w lies
    within the tolerance of its level's eigenvalue; level eigenvalues are
    strictly increasing with gaps > cluster_tol.

    Functions of H (projections, calculus) use the level eigenvalues; phases
    exp(itH) use w, so a merged cluster does not shift them by its width.
    """

    vectors: np.ndarray  # V, (dim, dim)
    column_values: np.ndarray  # w, one per column of V
    eigenvalues: np.ndarray  # one per level, increasing
    offsets: tuple[int, ...]  # level k owns columns offsets[k]:offsets[k+1]
    cluster_tol: float
    operator: np.ndarray  # the decomposed matrix, kept for residual checks
    levels: tuple[SpectralLevel, ...] = field(init=False)

    def __post_init__(self):
        dim = self.operator.shape[0]
        v = _freeze(np.array(self.vectors, dtype=complex))
        w = _freeze(np.array(self.column_values, dtype=float))
        values = _freeze(np.array(self.eigenvalues, dtype=float))
        offsets = tuple(int(o) for o in self.offsets)
        if (
            v.shape != (dim, dim)
            or w.shape != (dim,)
            or len(offsets) != values.size + 1
            or offsets[0] != 0
            or offsets[-1] != dim
            or any(b <= a for a, b in zip(offsets, offsets[1:]))
        ):
            raise EigensolverError("level slices do not partition the eigenvector columns")
        # Frobenius norms bound the 2-norms and cost O(dim^2) after the
        # products. The scale max(||Lambda||, 1) is at most (1 + 1e-10) times
        # max(||H||, 1) whenever the residual check passes. The residual is
        # taken of the scaled operator, so its squares cannot overflow, and a
        # NaN residual (an operator whose entries overflowed) is refused.
        if np.linalg.norm(v.conj().T @ v - np.eye(dim)) > DECOMPOSITION_TOL:
            raise EigensolverError("eigenvectors are not orthonormal")
        scale = max(float(np.abs(values).max()), 1.0)
        level_values = np.repeat(values, np.diff(offsets))
        inv = 1.0 / scale  # a complex array times a float is faster than divided by it
        residual = np.linalg.norm((v * (level_values * inv)) @ v.conj().T - self.operator * inv)
        if not residual <= DECOMPOSITION_TOL:
            raise EigensolverError(
                f"spectral reconstruction residual {residual:.3e} exceeds "
                f"{DECOMPOSITION_TOL:.0e} relative tolerance"
            )
        if np.abs(w - level_values).max() > DECOMPOSITION_TOL * scale:
            raise EigensolverError("column eigenvalues stray from their level's eigenvalue")
        gaps = np.diff(values)
        if len(gaps) and gaps.min() <= self.cluster_tol:
            raise EigensolverError("level eigenvalues are not separated by > cluster_tol")
        levels = tuple(
            SpectralLevel(eigenvalue=float(e), multiplicity=b - a, vectors=v[:, a:b])
            for e, a, b in zip(values, offsets, offsets[1:])
        )
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "column_values", w)
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "levels", levels)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    @property
    def multiplicities(self) -> np.ndarray:
        return np.diff(self.offsets)

    def block_mask(self) -> np.ndarray:
        """(dim, dim) boolean mask of the column pairs that share a level."""
        labels = np.repeat(np.arange(len(self.levels)), self.multiplicities)
        return labels[:, None] == labels[None, :]

    def compose(self, coefficients) -> np.ndarray:
        """sum_E c_E P_E for one coefficient per level, formed as V diag(c) V†
        over the columns whose coefficient is nonzero."""
        c = np.repeat(np.asarray(coefficients), self.multiplicities)
        keep = c != 0
        v = self.vectors[:, keep]
        return (v * c[keep]) @ v.conj().T

    def coefficients(self, a: np.ndarray) -> np.ndarray | None:
        """The inverse of compose for a Hermitian ``a``: one coefficient per
        level, or None when ``a`` is not a function of H. In the eigenbasis
        b = V† a V, level k's coefficient is the mean of b's diagonal over the
        level's columns; they reconstruct ``a`` when b differs from their
        diagonal by at most FUNCTION_RTOL * max|c| in Frobenius norm, which
        bounds the operator norm of ``a - compose(c)`` (an O(dim^3) check)."""
        b = self.vectors.conj().T @ a @ self.vectors
        c = np.add.reduceat(np.diagonal(b).real, self.offsets[:-1]) / self.multiplicities
        b.flat[:: self.dim + 1] -= np.repeat(c, self.multiplicities)
        if np.linalg.norm(b) > FUNCTION_RTOL * np.abs(c).max():
            return None
        return c

    def exp_times(self, t: float, m: np.ndarray) -> np.ndarray:
        """exp(i t H) m, formed as V diag(exp(i t w)) V† m."""
        v = self.vectors
        return v @ (np.exp(1j * t * self.column_values)[:, None] * (v.conj().T @ m))

    def interaction_kernel(self, t: float, lam: np.ndarray) -> np.ndarray:
        """V† K V for the interaction-frame kernel K = -i exp(i t H) lam
        exp(-i t H), the integrand of the Dyson (Volterra) iteration."""
        v = self.vectors
        phase = np.exp(1j * t * self.column_values)
        return -1j * (phase[:, None] * phase.conj()[None, :]) * (v.conj().T @ lam @ v)


def operator_norm(a) -> float:
    """Largest singular value of a (not necessarily square) complex matrix."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def hermitian_norm(a: np.ndarray) -> float | np.ndarray:
    """||a|| for a Hermitian a: its largest |eigenvalue| (``eigvalsh``, which
    reads the lower triangle), the same 2-norm an SVD gives at lower cost. A
    stack of matrices gives one norm per matrix, from one ``eigvalsh``."""
    norms = np.abs(np.linalg.eigvalsh(a)).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def gram_norm(a: np.ndarray) -> float:
    """||a|| for any matrix: the square root of the largest eigenvalue of the
    smaller of a†a and aa† (``eigvalsh``, no SVD; the largest eigenvalue of a
    Gram matrix is accurate relative to itself). 0 for an empty matrix."""
    if a.size == 0:
        return 0.0
    gram = a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def unitarity_drift(a: np.ndarray) -> float:
    """The Frobenius norm of a†a - 1: one product and no eigensolver. It
    bounds the 2-norm ||a†a - 1|| from above and is at most sqrt(dim) times
    it, so a tolerance on it is never looser than the same one on the 2-norm."""
    gram = a.conj().T @ a
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    return float(np.linalg.norm(gram))


def hermitian_eigendecomposition(
    h: HermitianOperator, cluster_tol: float | None = None
) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator, clustered into levels.

    Eigenvalues closer than ``cluster_tol`` (chained) merge into a single
    level whose projection spans the joint eigenspace; its eigenvalue is the
    mean of the merged ones. The default tolerance, 1e-9 * ||H||, returns
    the operator's own ``h.decomposition``, so exactly degenerate levels
    always merge; another tolerance re-clusters the operator's one eigh.
    """
    if cluster_tol is None:
        return h.decomposition
    if cluster_tol < 0:
        raise ValueError("cluster_tol must be >= 0")
    w, v = h._eigh
    splits = np.flatnonzero(np.diff(w) > cluster_tol) + 1
    offsets = (0, *splits.tolist(), len(w))
    return SpectralDecomposition(
        vectors=v,
        column_values=w,
        eigenvalues=np.add.reduceat(w, offsets[:-1]) / np.diff(offsets),
        offsets=offsets,
        cluster_tol=cluster_tol,
        operator=h.matrix,
    )


def unitary_exponential(h: HermitianOperator, t: float) -> UnitaryOperator:
    """exp(-i t H), assembled from the eigendecomposition of H, with its
    unitarity drift held to 1e-10.

    The eigendecomposition route keeps the result exactly unitary up to
    eigensolver error even for large phases t*||H||; a series would not.
    """
    return UnitaryOperator(h.decomposition.exp_times(-t, np.eye(h.dim)), drift_tol=1e-10)


# --- matrix text format -------------------------------------------------
#
# Fixture format: first line "dim N", then N lines of N entries "re+imj"
# separated by single spaces. Tokens parse with Python's complex().


def _format_entry(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def format_matrix(a) -> str:
    a = _as_square_complex(a)
    lines = [f"dim {a.shape[0]}"]
    for row in a:
        lines.append(" ".join(_format_entry(z) for z in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str | io.TextIOBase) -> np.ndarray:
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = text.read().splitlines()
    lines = [ln for ln in lines if ln.strip()]
    if not lines or not lines[0].startswith("dim "):
        raise OperatorError('matrix text must start with a "dim N" line')
    n = int(lines[0].split()[1])
    if len(lines) < n + 1:
        raise OperatorError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1 : n + 1]:
        tokens = ln.split()
        if len(tokens) != n:
            raise OperatorError(f"expected {n} entries per row, found {len(tokens)}")
        rows.append([complex(tok) for tok in tokens])
    return np.array(rows, dtype=complex)


def write_matrix(path, a) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(a))


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def pauli(which: str) -> np.ndarray:
    """The 2x2 Pauli matrices, keyed 'x', 'y', 'z', and 'i' for the identity."""
    mats = {
        "i": np.eye(2, dtype=complex),
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    return mats[which].copy()


def direct_sum(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Block-diagonal direct sum of square complex matrices."""
    dims = [b.shape[0] for b in blocks]
    out = np.zeros((sum(dims), sum(dims)), dtype=complex)
    pos = 0
    for b, d in zip(blocks, dims):
        out[pos : pos + d, pos : pos + d] = b
        pos += d
    return out
