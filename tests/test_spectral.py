import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowdrive.operators import (
    HermitianOperator,
    hermitian_eigendecomposition,
    operator_norm,
    pauli,
)
from slowdrive.spectral import (
    AmbiguousLevelError,
    BVFunction,
    Jump,
    MalformedBVFunctionError,
    band_projection,
    block_diagonal_part,
    calculus_bv,
    calculus_continuous,
    fermi_dirac,
    kato_commutator_solution,
    kronecker_delta,
    projection_eq,
    projection_geq,
    projection_leq,
    step_function,
    total_variation,
)

from test_operators import random_hermitian


def decomp(mat, tol=None):
    return hermitian_eigendecomposition(HermitianOperator(mat), cluster_tol=tol)


def seeded_decomposition(dim, seed):
    return hermitian_eigendecomposition(random_hermitian(dim, seed))


class TestProjections:
    def test_leq_pauli_z(self):
        d = decomp(pauli("z"))
        assert np.allclose(projection_leq(d, 0.0).matrix, (np.eye(2) - pauli("z")) / 2, atol=1e-14)

    def test_leq_dense_reciprocal_spectrum(self):
        # 1/m levels for m = 1..M plus 0 and the negatives: chi(H <= 0)
        # grabs the zero level and every negative one.
        m_max = 6
        diag = [1.0 / m for m in range(1, m_max + 1)] + [0.0] + [-1.0 / m for m in range(1, m_max + 1)]
        d = decomp(np.diag(diag))
        got = projection_leq(d, 0.0).matrix
        want = np.diag([0.0] * m_max + [1.0] * (m_max + 1))
        assert np.allclose(got, want, atol=1e-12)

    def test_leq_below_spectrum_is_zero(self):
        d = decomp(pauli("z"))
        assert not projection_leq(d, -2.0).matrix.any()

    def test_geq_mirrors_leq(self):
        d = decomp(np.diag([-1.0, 0.0, 2.0]))
        assert np.allclose(
            projection_geq(d, 0.0).matrix + projection_leq(d, 0.0).matrix - projection_eq(d, 0.0).matrix,
            np.eye(3),
            atol=1e-13,
        )

    def test_eq_degenerate(self):
        d = decomp(np.diag([0.0, 0.0, 1.0]))
        assert np.allclose(projection_eq(d, 0.0).matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-14)

    def test_eq_missing_level_is_zero(self):
        d = decomp(pauli("z"))
        assert not projection_eq(d, 0.5).matrix.any()

    def test_eq_swap_model_zero_level(self):
        diag = [1.0, 0.5, 0.0, -1.0, -0.5]
        d = decomp(np.diag(diag))
        assert np.allclose(projection_eq(d, 0.0).matrix, np.diag([0, 0, 1.0, 0, 0]), atol=1e-14)

    def test_eq_ambiguous(self):
        d = decomp(np.diag([0.0, 0.5, 2.0]), tol=0.3)
        with pytest.raises(AmbiguousLevelError):
            projection_eq(d, 0.25)

    def test_point_identity(self):
        # chi(H = E) = chi(H <= E) + chi(H >= E) - 1, exactly
        d = decomp(np.diag([-0.5, 0.0, 0.0, 1.0]))
        for e in (-0.5, 0.0, 1.0, 0.3):
            lhs = projection_eq(d, e).matrix
            rhs = projection_leq(d, e).matrix + projection_geq(d, e).matrix - np.eye(4)
            assert operator_norm(lhs - rhs) <= 1e-14


class TestBandProjection:
    def test_full_interval_is_identity(self):
        d = seeded_decomposition(6, 0)
        lo, hi = d.eigenvalues[0] - 1, d.eigenvalues[-1] + 1
        assert np.allclose(band_projection(d, lo, hi).matrix, np.eye(6), atol=1e-12)

    def test_empty_interval(self):
        d = decomp(pauli("z"))
        assert not band_projection(d, -0.5, 0.5).matrix.any()

    def test_three_way_partition(self):
        # P + P_band + (1 - P - P_band) = 1 on a seeded 16-dim spectrum
        d = seeded_decomposition(16, 3)
        e, delta = 0.0, 0.3
        p = projection_leq(d, e).matrix
        p_band = band_projection(d, e, e + delta).matrix
        rest = np.eye(16) - p - p_band
        assert operator_norm(p + p_band + rest - np.eye(16)) <= 1e-13
        # the three are mutually orthogonal projections
        assert operator_norm(p @ p_band) <= 1e-12
        assert operator_norm(p @ rest) <= 1e-12

    def test_closed_flags(self):
        d = decomp(np.diag([0.0, 1.0]))
        assert not band_projection(d, 0.0, 1.0).matrix.any()
        assert np.trace(band_projection(d, 0.0, 1.0, closed_left=True).matrix).real == pytest.approx(1)
        assert np.trace(
            band_projection(d, 0.0, 1.0, closed_left=True, closed_right=True).matrix
        ).real == pytest.approx(2)

    def test_rejects_inverted_interval(self):
        d = decomp(pauli("z"))
        with pytest.raises(ValueError):
            band_projection(d, 1.0, -1.0)


class TestContinuousCalculus:
    def test_identity_function_reconstructs(self):
        h = random_hermitian(7, 5)
        d = hermitian_eigendecomposition(h)
        assert operator_norm(calculus_continuous(d, lambda x: x).matrix - h.matrix) <= 1e-10

    def test_fermi_on_pauli_z(self):
        # values by direct scalar evaluation: f(E) on each eigenprojection
        beta, mu = 10.0, 0.0
        f = fermi_dirac(mu, beta)
        d = decomp(pauli("z"))
        got = calculus_continuous(d, f).matrix
        want = f(1.0) * (np.eye(2) + pauli("z")) / 2 + f(-1.0) * (np.eye(2) - pauli("z")) / 2
        assert np.allclose(got, want, atol=1e-14)
        assert f(1.0) == pytest.approx(1 / (1 + math.exp(10.0)), rel=1e-12)
        assert f(-1.0) == pytest.approx(1 / (1 + math.exp(-10.0)), rel=1e-12)

    def test_constant(self):
        d = seeded_decomposition(5, 9)
        assert np.allclose(calculus_continuous(d, lambda x: 3.25).matrix, 3.25 * np.eye(5), atol=1e-12)

    def test_non_finite_error_names_eigenvalue(self):
        d = decomp(np.diag([0.0, 2.0]))
        with pytest.raises(ValueError, match="2.0"):
            calculus_continuous(d, lambda x: 1.0 / (x - 2.0) if x != 2.0 else math.inf)


class TestBVFunction:
    def test_step_pointwise(self):
        f = step_function(0.5)
        assert (f(0.0), f(0.5), f(1.0)) == (1.0, 1.0, 0.0)
        assert f.left_limit(0.5) == 1.0 and f.right_limit(0.5) == 0.0

    def test_delta_pointwise(self):
        f = kronecker_delta(0.0)
        assert (f(-1.0), f(0.0), f(1.0)) == (0.0, 1.0, 0.0)

    def test_jump_locations_must_increase(self):
        with pytest.raises(MalformedBVFunctionError):
            BVFunction(jumps=(Jump(1.0, 1.0, 0.0), Jump(0.0, 1.0, 0.0)), variation=2.0)

    def test_declared_variation_must_cover_points(self):
        with pytest.raises(MalformedBVFunctionError, match="variation"):
            BVFunction(jumps=(Jump(0.0, 0.0, 0.0, value=1.0),), variation=0.5)

    def test_inconsistent_left_limits_rejected(self):
        # second jump's left limit must match the segment carried from the first
        with pytest.raises(MalformedBVFunctionError, match="inconsistent"):
            BVFunction(
                jumps=(Jump(0.0, 1.0, 0.0), Jump(1.0, 0.7, 0.0)),
                variation=3.0,
            )

    def test_sum_of_step_and_fermi(self):
        f = step_function(0.0) + fermi_dirac(0.0, 1.0)
        g = fermi_dirac(0.0, 1.0)
        assert f(-2.0) == pytest.approx(1.0 + g(-2.0))
        assert f(2.0) == pytest.approx(g(2.0))
        assert f(0.0) == pytest.approx(1.0 + 0.5)
        assert f.variation == pytest.approx(2.0)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        levels=st.lists(st.integers(-8, 8), min_size=1, max_size=7, unique=True),
        steps=st.lists(st.integers(-9, 9), max_size=3, unique=True),
        deltas=st.lists(st.integers(-9, 9), max_size=2, unique=True),
        fermis=st.lists(st.tuples(st.integers(-9, 9), st.floats(0.5, 20.0)), max_size=2),
    )
    def test_bv_calculus_is_pointwise_on_random_sums(self, levels, steps, deltas, fermis):
        # jumps sit on the same quarter grid as the eigenvalues, so they
        # both hit and miss the spectrum; the expected values come straight
        # from the definitions of the summands, not from the BVFunction
        fermis = fermis or [(0, 1.0)]
        eigs = np.array(sorted(levels), dtype=float) / 4
        parts = [step_function(k / 4) for k in steps] + [kronecker_delta(k / 4) for k in deltas]
        parts += [fermi_dirac(mu / 4, beta) for mu, beta in fermis]
        f = functools.reduce(operator.add, parts)

        def direct(x):
            value = sum(x <= k / 4 for k in steps) + sum(x == k / 4 for k in deltas)
            return value + sum(1.0 / (1.0 + math.exp(beta * (x - mu / 4))) for mu, beta in fermis)

        got = calculus_bv(decomp(np.diag(eigs)), f).matrix
        assert np.allclose(got, np.diag([direct(e) for e in eigs]), atol=1e-12)
        assert all(f(e) == pytest.approx(direct(e), abs=1e-12) for e in eigs)


class TestBVCalculus:
    def test_step_equals_projection_leq(self):
        d = seeded_decomposition(8, 21)
        e0 = float(np.median(d.eigenvalues))
        got = calculus_bv(d, step_function(e0))
        want = projection_leq(d, e0)
        assert operator_norm(got.matrix - want.matrix) <= 1e-13

    def test_step_at_eigenvalue(self):
        d = decomp(np.diag([0.0, 0.0, 1.0]))
        got = calculus_bv(d, step_function(0.0))
        assert np.allclose(got.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-13)

    def test_delta_equals_projection_eq(self):
        d = decomp(np.diag([-0.3, 0.0, 0.0, 0.8]))
        got = calculus_bv(d, kronecker_delta(0.0))
        assert operator_norm(got.matrix - projection_eq(d, 0.0).matrix) <= 1e-13

    def test_delta_off_spectrum_is_zero(self):
        d = decomp(pauli("z"))
        assert not calculus_bv(d, kronecker_delta(0.1)).matrix.any()

    def test_fermi_matches_continuous(self):
        for seed in (0, 1):
            d = seeded_decomposition(16, seed)
            f = fermi_dirac(0.0, 10.0)
            got = calculus_bv(d, f)
            want = calculus_continuous(d, f)
            assert operator_norm(got.matrix - want.matrix) <= 1e-8

    def test_variation_overflow_detected(self):
        d = decomp(pauli("z"))
        bad = BVFunction(continuous=lambda x: math.sin(40 * x), variation=0.5)
        with pytest.raises(MalformedBVFunctionError, match="variation"):
            calculus_bv(d, bad)

    @pytest.mark.parametrize("seed", range(4))
    def test_bv_continuous_agreement_on_sums(self, seed):
        # any f presentable both ways gives the same operator
        d = seeded_decomposition(12, 100 + seed)
        e0 = float(d.eigenvalues[3])
        f = step_function(e0) + fermi_dirac(0.0, 1.0)
        got = calculus_bv(d, f)
        want = calculus_continuous(d, f)
        assert operator_norm(got.matrix - want.matrix) <= 1e-8


class TestTotalVariation:
    def test_constant_is_zero(self):
        f = BVFunction(continuous=lambda x: 2.0, variation=0.0)
        assert total_variation(f, np.linspace(-1, 1, 7)) == 0.0

    def test_unit_step_is_one_on_any_straddling_grid(self):
        f = step_function(0.2)
        for grid in (np.array([0.0, 1.0]), np.linspace(-3, 3, 91), np.array([0.15, 0.25])):
            assert total_variation(f, grid) == pytest.approx(1.0, abs=1e-15)

    def test_fermi_endpoint_difference(self):
        beta = 1.0
        f = fermi_dirac(0.0, beta)
        want = 1.0 - 2.0 / (1.0 + math.exp(10.0 * beta))
        assert total_variation(f, np.linspace(-10, 10, 4001)) == pytest.approx(want, abs=1e-6)

    def test_monotone_under_refinement(self):
        f = BVFunction(continuous=lambda x: math.sin(3 * x), variation=10.0)
        coarse = total_variation(f, np.linspace(0, 3, 11))
        fine = total_variation(f, np.linspace(0, 3, 101))
        finer = total_variation(f, np.linspace(0, 3, 1001))
        assert coarse <= fine <= finer

    def test_delta_counts_both_sides(self):
        assert total_variation(kronecker_delta(0.0), np.array([-1.0, 1.0])) == pytest.approx(2.0)


class TestBlockDiagonalPart:
    def test_commuting_operator_unchanged(self):
        d = decomp(np.diag([0.0, 1.0, 2.0]))
        a = HermitianOperator(np.diag([5.0, 6.0, 7.0]))
        assert operator_norm(block_diagonal_part(d, a).matrix - a.matrix) <= 1e-13

    def test_sigma_x_against_sigma_z_vanishes(self):
        d = decomp(pauli("z"))
        assert operator_norm(block_diagonal_part(d, HermitianOperator(pauli("x"))).matrix) <= 1e-14

    def test_degenerate_block_structure(self):
        d = decomp(np.diag([0.0, 0.0, 1.0]))
        a = random_hermitian(3, 17)
        got = block_diagonal_part(d, a).matrix
        want = a.matrix.copy()
        want[:2, 2] = 0
        want[2, :2] = 0
        assert operator_norm(got - want) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_idempotent_and_commutes(self, seed):
        h = random_hermitian(10, 200 + seed)
        d = hermitian_eigendecomposition(h)
        a = random_hermitian(10, 300 + seed)
        b1 = block_diagonal_part(d, a)
        b2 = block_diagonal_part(d, b1)
        assert operator_norm(b1.matrix - b2.matrix) <= 1e-10
        assert operator_norm(h.matrix @ b1.matrix - b1.matrix @ h.matrix) <= 1e-10


class TestKatoCommutator:
    def test_two_level_hand_computation(self):
        d = decomp(np.diag([0.0, 1.0]))
        x = kato_commutator_solution(d, HermitianOperator(pauli("x")), 0.0, 1.0)
        assert np.allclose(x, np.array([[0, -1.0], [0, 0]]), atol=1e-14)
        h = np.diag([0.0, 1.0])
        p1lp2 = np.array([[0, 1.0], [0, 0]])
        assert operator_norm(h @ x - x @ h - p1lp2) <= 1e-14

    def test_commuting_drive_gives_zero(self):
        d = decomp(np.diag([0.0, 1.0, 3.0]))
        lam = HermitianOperator(np.diag([1.0, 2.0, 3.0]))
        assert not kato_commutator_solution(d, lam, 0.5, 2.0).any()

    def test_seeded_residual_and_norm_bound(self):
        h = random_hermitian(16, 77)
        d = hermitian_eigendecomposition(h)
        lam = random_hermitian(16, 78)
        eigs = d.eigenvalues
        e1 = float(eigs[5] + 1e-6)
        e2 = float(e1 + 0.5)
        x = kato_commutator_solution(d, lam, e1, e2)
        p1 = projection_leq(d, e1).matrix
        p2 = projection_geq(d, e2).matrix
        target = p1 @ lam.matrix @ p2
        assert operator_norm(h.matrix @ x - x @ h.matrix - target) <= 1e-9 * lam.norm()
        assert operator_norm(x) <= lam.norm() / 0.5 + 1e-12

    def test_interior_spectrum_rows_are_zero(self):
        d = decomp(np.diag([0.0, 0.5, 1.0]))
        lam = random_hermitian(3, 5)
        x = kato_commutator_solution(d, lam, 0.0, 1.0)
        assert abs(x[1, :]).max() <= 1e-14 and abs(x[:, 1]).max() <= 1e-14

    def test_rejects_bad_gap(self):
        d = decomp(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError):
            kato_commutator_solution(d, HermitianOperator(pauli("x")), 1.0, 0.5)
