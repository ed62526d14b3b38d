"""slowdrive: a finite-dimensional laboratory for slowly driven quantum dynamics.

Propagates i dW/ds = (tau*H_o + Lambda(s)) W on [0,1], evaluates functions of
H_o (including bounded-variation functions), and measures norm- versus
strong-operator-topology convergence of Heisenberg-evolved observables as the
drive slows down (tau -> infinity).
"""

from .operators import (
    HermitianOperator,
    UnitaryOperator,
    SpectralDecomposition,
    hermitian_eigendecomposition,
    operator_norm,
    unitary_exponential,
)
from .spectral import (
    BVFunction,
    Jump,
    band_projection,
    block_diagonal_part,
    calculus_bv,
    calculus_continuous,
    kato_commutator_solution,
    projection_eq,
    projection_leq,
    total_variation,
)
from .propagation import (
    GeneratorPath,
    MollifierSpec,
    PropagatorResult,
    comparison_operator,
    dyson_series,
    dyson_term,
    evolve,
    interaction_frame,
    mollify,
    omega_infinity,
)
from .diagnostics import (
    TestVectorSet,
    heisenberg_distance_norm,
    heisenberg_distance_sot,
    rate_fit,
    resolvent_distance,
)

__version__ = "0.1.0"

__all__ = [
    "HermitianOperator",
    "UnitaryOperator",
    "SpectralDecomposition",
    "hermitian_eigendecomposition",
    "operator_norm",
    "unitary_exponential",
    "BVFunction",
    "Jump",
    "band_projection",
    "block_diagonal_part",
    "calculus_bv",
    "calculus_continuous",
    "kato_commutator_solution",
    "projection_eq",
    "projection_leq",
    "total_variation",
    "GeneratorPath",
    "MollifierSpec",
    "PropagatorResult",
    "comparison_operator",
    "dyson_series",
    "dyson_term",
    "evolve",
    "interaction_frame",
    "mollify",
    "omega_infinity",
    "TestVectorSet",
    "heisenberg_distance_norm",
    "heisenberg_distance_sot",
    "rate_fit",
    "resolvent_distance",
    "__version__",
]
