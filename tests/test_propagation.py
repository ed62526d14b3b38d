import math

import numpy as np
import pytest

from slowdrive.operators import (
    HermitianOperator,
    hermitian_eigendecomposition,
    operator_norm,
    pauli,
    unitary_exponential,
)
from slowdrive.propagation import (
    DysonResolutionWarning,
    GeneratorPath,
    GridError,
    MollifierSpec,
    PropagationError,
    PropagatorResult,
    comparison_operator,
    default_bump,
    default_step,
    dyson_remainder_bound,
    dyson_series,
    dyson_term,
    evolve,
    frame_reconstruction_residual,
    interaction_frame,
    mollify,
    omega_infinity,
    richardson_error,
)
from slowdrive.scenarios import ScenarioConfig, build_scenario, seeded_pair_path, step_path

from test_operators import random_hermitian

GRID = np.linspace(0.0, 1.0, 9)


class TestGeneratorPath:
    def test_constant_path_metadata(self):
        p = GeneratorPath.constant(0.7 * pauli("x"))
        assert p.kappa == pytest.approx(0.7)
        assert p.kappa_dot == 0.0
        assert p.l1_norm == pytest.approx(0.7)

    def test_from_sampler_measures(self):
        mat = pauli("z")
        p = GeneratorPath.from_sampler(2, lambda s: math.sin(math.pi * s) * mat, probe_points=401)
        assert p.kappa == pytest.approx(1.0, abs=1e-4)
        assert p.l1_norm == pytest.approx(2 / math.pi, abs=1e-4)
        assert p.kappa_dot == pytest.approx(math.pi, rel=1e-3)

    def test_fd_derivative_within_declared_bound(self):
        # C1 invariant: finite differences on a 1e3 grid <= 1.1 * kappa_dot
        p = seeded_pair_path(4, 1.0, seed=5)
        grid = np.linspace(0, 1, 1001)
        h = grid[1] - grid[0]
        fd = max(
            operator_norm(p.sampler(b) - p.sampler(a)) / h
            for a, b in zip(grid, grid[1:])
        )
        assert fd <= 1.1 * p.kappa_dot + 1e-12

    def test_rejects_non_hermitian_sampler(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            GeneratorPath.from_sampler(2, lambda s: bad, probe_points=11)

    def test_c1_requires_kappa_dot(self):
        with pytest.raises(ValueError, match="kappa_dot"):
            GeneratorPath(dim=2, sampler=lambda s: np.eye(2), smoothness="norm_C1", kappa=1.0)


class TestEvolve:
    def test_free_evolution_matches_exponential(self):
        # Lambda == 0: W_tau(s) = exp(-i tau s H_o) to 1e-9
        for dim, tau, seed in ((8, 1000.0, 0), (64, 100.0, 1)):
            h = random_hermitian(dim, seed)
            res = evolve(h, GeneratorPath.zero(dim), tau, GRID)
            for s in (0.5, 1.0):
                ref = unitary_exponential(h, tau * s).matrix
                assert operator_norm(res.at(s) - ref) <= 1e-9

    def test_resonant_block_closed_form(self):
        # H_o = (1/n) sz, Lambda = sx, tau = n: W(s) = exp(-i s (sz + sx))
        n = 7
        h = HermitianOperator(pauli("z") / n)
        res = evolve(h, GeneratorPath.constant(pauli("x")), float(n), GRID)
        gen = pauli("z") + pauli("x")
        for s in GRID:
            ref = unitary_exponential(HermitianOperator(gen), s).matrix
            assert operator_norm(res.at(s) - ref) <= 1e-8

    def test_self_convergence_second_order(self):
        # halving the step cuts the error against a fine reference ~4x
        h = random_hermitian(8, 11)
        path = seeded_pair_path(8, 1.0, seed=12)
        tau = 100.0
        grid = np.array([0.0, 1.0])
        ref = evolve(h, path, tau, grid, step=2e-5).at(1.0)
        e1 = operator_norm(evolve(h, path, tau, grid, step=8e-4).at(1.0) - ref)
        e2 = operator_norm(evolve(h, path, tau, grid, step=4e-4).at(1.0) - ref)
        assert 2.8 <= e1 / e2 <= 5.5

    def test_drift_capped_and_identity_start(self):
        h = random_hermitian(6, 2)
        res = evolve(h, seeded_pair_path(6, 1.0, 3), 50.0, GRID)
        assert res.max_drift <= 1e-8
        assert operator_norm(res.at(0.0) - np.eye(6)) == 0.0

    def test_grid_validation(self):
        h = random_hermitian(2, 0)
        p = GeneratorPath.zero(2)
        with pytest.raises(ValueError):
            evolve(h, p, 1.0, np.array([0.1, 0.5]))
        with pytest.raises(ValueError):
            evolve(h, p, 1.0, np.array([0.0, 0.5, 0.4]))
        with pytest.raises(ValueError):
            evolve(h, p, -1.0, GRID)

    def test_l1_path_flagged(self):
        p = step_path(pauli("z"), pauli("x"))
        res = evolve(random_hermitian(2, 1), p, 5.0, GRID)
        assert "L1-direct" in res.scheme

    def test_off_grid_lookup_refused(self):
        res = evolve(random_hermitian(2, 1), GeneratorPath.zero(2), 1.0, GRID)
        with pytest.raises(GridError, match="refused"):
            res.at(0.3141)

    def test_default_step_rule(self):
        assert default_step(1e4, 1.0, 1.0) == pytest.approx(0.1 / (1e4 + 1.0))
        assert default_step(1.0, 0.01, 0.0) == pytest.approx(1e-3)


class TestExactConstantDrive:
    @staticmethod
    def direct_sum_instance():
        # the criterion-4 counterexample: 64 blocks, constant sigma_x drive
        cfg = ScenarioConfig(
            scenario="direct_sum_counterexample", params={"blocks": 64},
            taus=(8.0, 16.0, 32.0, 64.0), s_grid=(0.0, 0.5, 1.0), metrics=(), seed=1,
        )
        return build_scenario(cfg)

    def test_one_eigh_per_tau(self, monkeypatch):
        inst = self.direct_sum_instance()
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        for tau in (8.0, 16.0, 32.0, 64.0):
            res = evolve(inst.h_o, inst.path, tau, np.array([0.0, 0.5, 1.0]))
            assert res.scheme == "exact-constant"
        assert len(calls) == 4

    def test_matches_midpoint_stepper(self):
        # the same drive behind a plain sampler is not marked constant, so it
        # takes the midpoint loop; both must agree at every grid point
        inst = self.direct_sum_instance()
        grid = np.array([0.0, 0.5, 1.0])
        stepped = GeneratorPath.from_sampler(
            inst.path.dim, lambda s: inst.path.sampler(s), probe_points=3
        )
        for tau in (8.0, 64.0):
            exact = evolve(inst.h_o, inst.path, tau, grid)
            mid = evolve(inst.h_o, stepped, tau, grid)
            assert mid.scheme == "midpoint-exponential"
            for a, b in zip(exact.unitaries, mid.unitaries):
                assert operator_norm(a - b) <= 1e-10

    def test_step_has_no_effect(self):
        h = random_hermitian(4, 30)
        path = GeneratorPath.constant(random_hermitian(4, 31).matrix)
        a = evolve(h, path, 40.0, GRID)
        b = evolve(h, path, 40.0, GRID, step=0.3)
        assert np.array_equal(a.unitaries, b.unitaries)
        assert a.step == b.step == GRID[1]

    def test_drift_still_enforced(self):
        h = random_hermitian(4, 32)
        path = GeneratorPath.constant(random_hermitian(4, 33).matrix)
        with pytest.raises(PropagationError, match="drift"):
            evolve(h, path, 10.0, GRID, drift_tol=1e-18)


class TestPropagatorResult:
    def test_save_load_roundtrip(self, tmp_path):
        h = random_hermitian(3, 4)
        res = evolve(h, seeded_pair_path(3, 0.5, 6), 10.0, np.linspace(0, 1, 5))
        p = tmp_path / "run_test_10.prop"
        res.save(p)
        back = PropagatorResult.load(p)
        assert back.tau == res.tau
        assert np.array_equal(back.s_grid, res.s_grid)
        for a, b in zip(back.unitaries, res.unitaries):
            assert np.array_equal(a, b)
        assert back.scheme == res.scheme

    def test_drift_invariant_enforced(self):
        bad = np.stack([np.eye(2), np.eye(2) * 1.1]).astype(complex)
        with pytest.raises(PropagationError):
            PropagatorResult(
                tau=1.0, s_grid=np.array([0.0, 1.0]), unitaries=bad,
                step=0.1, max_drift=0.21, scheme="x",
            )

    def test_must_start_at_identity(self):
        stack = np.stack([1j * np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="identity"):
            PropagatorResult(
                tau=1.0, s_grid=np.array([0.0, 1.0]), unitaries=stack,
                step=0.1, max_drift=0.0, scheme="x",
            )


class TestComparisonOperator:
    def test_equal_times_identity(self):
        h = random_hermitian(4, 8)
        res = evolve(h, seeded_pair_path(4, 1.0, 9), 20.0, GRID)
        om = comparison_operator(h, res, 0.5, 0.5)
        assert operator_norm(om.matrix - np.eye(4)) <= 1e-12

    def test_free_case_is_identity_everywhere(self):
        h = random_hermitian(4, 8)
        res = evolve(h, GeneratorPath.zero(4), 200.0, GRID)
        for t, s in ((1.0, 0.0), (0.75, 0.25)):
            om = comparison_operator(h, res, t, s)
            assert operator_norm(om.matrix - np.eye(4)) <= 1e-9

    def test_commuting_constant_drive_closed_form(self):
        # [Lambda, H_o] = 0: Omega(t,s) = exp(-i (t-s) Lambda), independent of tau
        h = HermitianOperator(np.diag([0.0, 1.0, 3.0]))
        lam = np.diag([1.0, -1.0, 0.5])
        path = GeneratorPath.constant(lam)
        for tau in (7.0, 140.0):
            res = evolve(h, path, tau, GRID)
            om = comparison_operator(h, res, 0.875, 0.125)
            ref = unitary_exponential(HermitianOperator(lam), 0.75).matrix
            assert operator_norm(om.matrix - ref) <= 1e-9

    def test_off_grid_refused(self):
        h = random_hermitian(2, 0)
        res = evolve(h, GeneratorPath.zero(2), 1.0, GRID)
        with pytest.raises(GridError):
            comparison_operator(h, res, 0.33, 0.0)


class TestDyson:
    def test_order_zero_is_identity(self):
        h = random_hermitian(3, 1)
        p = seeded_pair_path(3, 1.0, 2)
        assert np.array_equal(dyson_term(h, p, 5.0, 0, 1.0, 0.0, 64), np.eye(3))

    def test_first_order_constant_free(self):
        # H_o = 0, constant Lambda: A^1 = -i (t-s) Lambda
        lam = pauli("x") + 0.5 * pauli("z")
        h0 = HermitianOperator(np.zeros((2, 2)))
        a1 = dyson_term(h0, GeneratorPath.constant(lam), 3.0, 1, 0.9, 0.1, 4096)
        assert operator_norm(a1 - (-1j * 0.8 * lam)) <= 1e-8

    def test_second_order_commuting_square(self):
        # constant kernel: A^2 = (1/2) (-i (t-s) Lambda)^2
        lam = pauli("x")
        h0 = HermitianOperator(np.zeros((2, 2)))
        a2 = dyson_term(h0, GeneratorPath.constant(lam), 3.0, 2, 1.0, 0.0, 4096)
        want = 0.5 * (-1j * lam) @ (-1j * lam)
        assert operator_norm(a2 - want) <= 1e-7

    def test_second_order_against_fine_reference(self):
        h = random_hermitian(4, 30)
        p = seeded_pair_path(4, 1.0, 31)
        coarse = dyson_term(h, p, 10.0, 2, 1.0, 0.0, 2048)
        fine = dyson_term(h, p, 10.0, 2, 1.0, 0.0, 8192)
        assert operator_norm(coarse - fine) <= 1e-6

    def test_term_norm_bound(self):
        # ||A^n|| <= kappa^n (t-s)^n / n! + quadrature error
        h = random_hermitian(4, 32)
        p = seeded_pair_path(4, 1.0, 33)
        for n in range(5):
            a = dyson_term(h, p, 5.0, n, 1.0, 0.0, 4096)
            assert operator_norm(a) <= p.kappa**n / math.factorial(n) + 1e-6

    def test_series_order_zero(self):
        h = random_hermitian(3, 1)
        p = seeded_pair_path(3, 1.0, 2)
        exp = dyson_series(h, p, 5.0, 1.0, 0.0, order=0, quad_points=256)
        assert operator_norm(exp.approx.matrix - np.eye(3)) == 0.0
        assert exp.remainder_bound == pytest.approx(math.exp(p.kappa) - 1.0, rel=1e-9)

    def test_remainder_tail_oracle(self):
        # scalar tail sum: sum_{n>8} 1/n! == e - sum_{n<=8} 1/n!
        direct = math.e - sum(1.0 / math.factorial(n) for n in range(9))
        assert dyson_remainder_bound(8, 1.0, 1.0) == pytest.approx(direct, rel=1e-9)

    def test_series_matches_ode_within_remainder(self):
        h = random_hermitian(4, 40)
        h = HermitianOperator(h.matrix / h.norm())
        p = seeded_pair_path(4, 1.0, 41)
        tau = 20.0
        exp = dyson_series(h, p, tau, 1.0, 0.0, order=8, quad_points=16384)
        res = evolve(h, p, tau, np.array([0.0, 1.0]), step=5e-4)
        om = comparison_operator(h, res, 1.0, 0.0)
        assert operator_norm(exp.approx.matrix - om.matrix) <= exp.remainder_bound + 1e-5

    def test_low_resolution_warns(self):
        h = random_hermitian(2, 3)
        p = GeneratorPath.constant(pauli("x"))
        with pytest.warns(DysonResolutionWarning):
            exp = dyson_series(h, p, 200.0, 1.0, 0.0, order=2, quad_points=32)
        assert exp.warnings

    def test_cost_guard(self):
        h = random_hermitian(2, 3)
        p = GeneratorPath.constant(pauli("x"))
        with pytest.raises(ValueError, match="cost guard"):
            dyson_term(h, p, 1.0, 9, 1.0, 0.0, 64)


class TestMollifier:
    def test_bump_unit_mass(self):
        xs = np.linspace(-1, 1, 20001)
        assert np.trapezoid(default_bump(xs), xs) == pytest.approx(1.0, abs=1e-10)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            MollifierSpec(0.7)
        with pytest.raises(ValueError):
            MollifierSpec(0.0)

    def test_constant_path_convolves_exactly(self):
        p = GeneratorPath.constant(0.3 * pauli("y"))
        m = mollify(p, MollifierSpec(0.05), probe_points=31)
        for s in (0.0, 0.31, 0.5, 1.0):
            assert operator_norm(m.sampler(s) - 0.3 * pauli("y")) <= 1e-15

    def test_step_l1_deviation_bounded(self):
        # int ||L_eps - L|| <= eps * ||jump|| * c_phi with c_phi <= 1
        eps = 0.02
        p = step_path(pauli("z"), pauli("x"), at=0.5)
        m = mollify(p, MollifierSpec(eps), probe_points=201)
        fine = np.linspace(0, 1, 2001)
        vals = [operator_norm(m.sampler(s) - p.sampler(s)) for s in fine]
        l1 = float(np.trapezoid(vals, fine))
        jump = operator_norm(pauli("x") - pauli("z"))
        assert l1 <= eps * jump
        assert l1 > 0.1 * eps * jump  # the smoothing is real, not degenerate

    def test_propagator_deviation_bound(self):
        # sup_{s, tau} ||W_eps - W|| <= int ||L_eps - L|| + 2 * step budget
        h = random_hermitian(4, 50)
        p = step_path(np.kron(np.eye(2), pauli("z")), np.kron(np.eye(2), pauli("x")))
        m = mollify(p, MollifierSpec(0.05), probe_points=201)
        fine = np.linspace(0, 1, 1001)
        l1 = float(np.trapezoid([operator_norm(m.sampler(s) - p.sampler(s)) for s in fine], fine))
        grid = np.linspace(0, 1, 11)
        budget = 0.0
        worst = 0.0
        for tau in (10.0, 100.0):
            raw, err_raw = richardson_error(h, p, tau, grid)
            mol, err_mol = richardson_error(h, m, tau, grid)
            budget = max(budget, err_raw, err_mol)
            worst = max(
                worst,
                max(operator_norm(a - b) for a, b in zip(raw.unitaries, mol.unitaries)),
            )
        assert worst <= l1 + 2 * budget

    def test_mollified_path_is_c1(self):
        m = mollify(step_path(pauli("z"), pauli("x")), MollifierSpec(0.1), probe_points=101)
        assert m.smoothness == "norm_C1"
        assert m.kappa_dot is not None and m.kappa_dot < 40.0  # ~ ||jump|| / eps scale


class TestInteractionFrame:
    def test_zero_drive_identity(self):
        res = interaction_frame(GeneratorPath.zero(3), GRID)
        for u in res.unitaries:
            assert operator_norm(u - np.eye(3)) <= 1e-12

    def test_constant_drive_exponential(self):
        res = interaction_frame(GeneratorPath.constant(pauli("x")), GRID)
        for s in GRID:
            ref = unitary_exponential(HermitianOperator(pauli("x")), s).matrix
            assert operator_norm(res.at(s) - ref) <= 1e-9

    def test_commuting_family_scalar_quadrature(self):
        # Lambda(s) = a(s) sz: V(s) = exp(-i (int_0^s a) sz)
        a = lambda s: math.cos(math.pi * s)  # noqa: E731
        path = GeneratorPath.from_sampler(2, lambda s: a(s) * pauli("z"), probe_points=101)
        res = interaction_frame(path, GRID, step=1e-4)
        for s in GRID:
            integral = math.sin(math.pi * s) / math.pi
            ref = unitary_exponential(HermitianOperator(pauli("z")), integral).matrix
            assert operator_norm(res.at(s) - ref) <= 1e-7

    def test_requires_c1(self):
        with pytest.raises(ValueError, match="C1"):
            interaction_frame(step_path(pauli("z"), pauli("x")), GRID)

    def test_frame_reconstruction_equivalence(self):
        h = random_hermitian(3, 60)
        path = seeded_pair_path(3, 0.8, 61)
        residual = frame_reconstruction_residual(h, path, tau=4.0, n_steps=3000)
        assert residual <= 5e-6


class TestOmegaInfinity:
    def test_vanishing_block_part_gives_identity(self):
        d = hermitian_eigendecomposition(HermitianOperator(pauli("z")))
        res = omega_infinity(d, GeneratorPath.constant(pauli("x")), GRID)
        for u in res.unitaries:
            assert operator_norm(u - np.eye(2)) <= 1e-12

    def test_commuting_drive_equals_frame(self):
        h = HermitianOperator(np.diag([0.0, 1.0, 2.5]))
        d = hermitian_eigendecomposition(h)
        lam = np.diag([0.3, -0.2, 0.9])
        path = GeneratorPath.constant(lam)
        oi = omega_infinity(d, path, GRID)
        v = interaction_frame(path, GRID)
        for a, b in zip(oi.unitaries, v.unitaries):
            assert operator_norm(a - b) <= 1e-10

    def test_degenerate_block_against_standalone(self):
        # a 2-fold level evolves by the 2x2 sub-problem of the compressed drive
        h = HermitianOperator(np.diag([0.0, 0.0, 1.0]))
        d = hermitian_eigendecomposition(h)
        path = seeded_pair_path(3, 1.0, 70)
        oi = omega_infinity(d, path, GRID, step=1e-4)

        def sub(s):
            return path.sampler(s)[:2, :2]

        sub_path = GeneratorPath.from_sampler(2, sub, probe_points=201)
        sub_v = interaction_frame(sub_path, GRID, step=1e-4)
        for a, b in zip(oi.unitaries, sub_v.unitaries):
            assert operator_norm(a[:2, :2] - b) <= 1e-8

    def test_commutes_with_h(self):
        h = random_hermitian(6, 80)
        d = hermitian_eigendecomposition(h)
        path = seeded_pair_path(6, 1.0, 81)
        oi = omega_infinity(d, path, GRID)
        for u in oi.unitaries:
            assert operator_norm(u @ h.matrix - h.matrix @ u) <= 1e-9 * h.norm()
