import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slowdrive.diagnostics import (
    CSV_HEADER,
    ReportRow,
    TestVectorSet,
    conjugation_distance_norm,
    conjugation_distance_sot,
    embedded_eigenprojection_decay,
    embedded_offblock_profile,
    heisenberg_distance_norm,
    heisenberg_distance_sot,
    offdiagonal_block_decay,
    rate_fit,
    resolvent_distance,
    schrodinger_limit_distance,
    two_valued_blocks,
    write_metric_csv,
)
from slowdrive.operators import (
    HermitianOperator,
    direct_sum,
    hermitian_eigendecomposition,
    operator_norm,
    pauli,
)
from slowdrive.propagation import (
    GeneratorPath,
    PropagatorResult,
    comparison_operator,
    evolve,
    omega_infinity,
)
from slowdrive.scenarios import ScenarioConfig, build_scenario, seeded_pair_path
from slowdrive.spectral import (
    calculus_continuous,
    fermi_dirac,
    projection_eq,
    projection_geq,
    projection_leq,
)

from test_operators import random_hermitian, random_unitary

GRID = np.linspace(0.0, 1.0, 9)


def scenario_instance(name):
    """The embedded scenario, or its Fermi variant, at dim 18 (multiplicity 3)."""
    cfg = ScenarioConfig(
        scenario=name, params={"grid_points": 15, "multiplicity": 3}, taus=(1.0,), metrics=(),
        seed=0,
    )
    return build_scenario(cfg)


class TestVectors:
    def test_seeded_gaussian_unit_norm(self):
        vs = TestVectorSet.seeded_gaussian(16, 8, seed=0)
        assert len(vs) == 8
        assert np.allclose(np.linalg.norm(vs.vectors, axis=1), 1.0, atol=1e-12)
        assert set(vs.provenance) == {"seeded_random"}

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="unit norm"):
            TestVectorSet(vectors=np.array([[2.0, 0.0]]), labels=("a",), provenance=("eigenvector",))

    def test_rejects_a_zero_column(self):
        # normalising a zero column gives NaN, which must not pass as unit norm
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unit norm"):
            TestVectorSet.from_columns(
                [np.zeros(3), np.ones(3)], ("zero", "ones"), ("finite_support",) * 2
            )

    def test_determinism(self):
        a = TestVectorSet.seeded_gaussian(5, 3, seed=9)
        b = TestVectorSet.seeded_gaussian(5, 3, seed=9)
        assert np.array_equal(a.vectors, b.vectors)


class TestHeisenbergDistances:
    def test_conserved_observable_is_zero(self):
        # [A, H_tau(s)] = 0 for all s: distance vanishes identically
        h = HermitianOperator(np.diag([0.0, 1.0, 2.0]))
        lam = np.diag([0.5, -0.5, 1.0])
        res = evolve(h, GeneratorPath.constant(lam), 30.0, GRID)
        a = HermitianOperator(np.diag([1.0, 2.0, 3.0]))
        values, sup = heisenberg_distance_norm(h, res, a)
        assert sup <= 1e-11

    def test_free_evolution_commuting_observable(self):
        h = random_hermitian(5, 1)
        res = evolve(h, GeneratorPath.zero(5), 100.0, GRID)
        values, sup = heisenberg_distance_norm(h, res, HermitianOperator(h.matrix * 2.0))
        assert sup <= 1e-10

    def test_resonant_direct_sum_lower_bound(self):
        # the resonant block evolves by exp(-i s (sz + sx)); the norm metric
        # matches the exact max over block-local two-level solutions
        n_blocks, tau = 6, 6.0
        h = HermitianOperator(direct_sum([pauli("z") / k for k in range(1, n_blocks + 1)]))
        path = GeneratorPath.constant(direct_sum([pauli("x")] * n_blocks))
        res = evolve(h, path, tau, GRID)
        d = hermitian_eigendecomposition(h)
        p_neg = HermitianOperator(
            projection_leq(d, 0.0).matrix - projection_eq(d, 0.0).matrix
        )
        values, sup = heisenberg_distance_norm(h, res, p_neg)
        s = 0.5
        j = res.index_of(s)
        block_dist = []
        p = np.diag([0.0, 1.0])
        for k in range(1, n_blocks + 1):
            gen = (tau / k) * pauli("z") + pauli("x")
            w, v = np.linalg.eigh(gen)
            u = v @ (np.exp(-1j * s * w)[:, None] * v.conj().T)
            block_dist.append(operator_norm(u @ p @ u.conj().T - p))
        assert values[j] == pytest.approx(max(block_dist), abs=1e-7)
        alpha_half = (1 / math.sqrt(2)) * abs(math.sin(math.sqrt(2) * 0.5))
        assert values[j] >= alpha_half - 1e-7

    def test_sot_eigenvector_of_everything_is_zero(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        res = evolve(h, GeneratorPath.constant(np.diag([1.0, -1.0])), 10.0, GRID)
        a = HermitianOperator(np.diag([2.0, 3.0]))
        e0 = np.array([1.0, 0.0], dtype=complex)
        vs = TestVectorSet(vectors=e0[None, :], labels=("e0",), provenance=("eigenvector",))
        _, sups = heisenberg_distance_sot(h, res, a, vs)
        assert sups[0] <= 1e-12

    def test_sot_below_norm(self):
        h = random_hermitian(6, 2)
        path = seeded_pair_path(6, 1.0, 3)
        res = evolve(h, path, 15.0, GRID)
        a = random_hermitian(6, 4)
        values, sup = heisenberg_distance_norm(h, res, a)
        svalues, ssups = heisenberg_distance_sot(h, res, a, TestVectorSet.seeded_gaussian(6, 4, 5))
        assert np.all(svalues <= values[None, :] + 1e-12)
        assert ssups.max() <= sup + 1e-12

    def test_phase_invariance(self):
        w = random_unitary(4, 6)
        a = random_hermitian(4, 7).matrix
        psi = TestVectorSet.seeded_gaussian(4, 1, 8).vectors[0]
        for theta in (0.3, 1.7):
            assert conjugation_distance_norm(np.exp(1j * theta) * w, a) == pytest.approx(
                conjugation_distance_norm(w, a), abs=1e-13
            )
            assert conjugation_distance_sot(np.exp(1j * theta) * w, a, psi) == pytest.approx(
                conjugation_distance_sot(w, a, psi), abs=1e-13
            )

    def test_swap_family_static_sot(self):
        # conjugating P_0 by the swap leaves exactly the two swapped levels
        dim, n = 9, 3
        p0 = np.zeros((dim, dim))
        p0[4, 4] = 1.0  # level 0 sits mid-array
        v = np.eye(dim)
        v[[4, 4 + n]] = v[[4 + n, 4]]
        psi = np.zeros(dim, dtype=complex)
        psi[4] = 1.0
        assert conjugation_distance_sot(v, p0, psi) == pytest.approx(1.0, abs=1e-14)
        far = np.zeros(dim, dtype=complex)
        far[0] = 1.0  # support away from both swapped levels
        assert conjugation_distance_sot(v, p0, far) == 0.0


def level_system(mults, seed):
    """H_o with one level per entry of ``mults`` (that multiplicity), evenly
    spaced on [-1, 1], in a seeded random eigenbasis; and a result holding
    W(0) = 1 and three seeded random unitaries, which commute with neither
    H_o nor its spectral projections."""
    levels = np.repeat(np.linspace(-1.0, 1.0, len(mults)), mults)
    q = random_unitary(levels.size, seed)
    h = HermitianOperator((q * levels) @ q.conj().T)
    ws = [np.eye(levels.size)] + [random_unitary(levels.size, seed + k) for k in (1, 2, 3)]
    res = PropagatorResult(
        tau=1.0, s_grid=np.linspace(0.0, 1.0, 4), frames=np.array(ws), step=1.0,
        scheme="test",
    )
    return h, res


def columns(d, a):
    """The per-column values in the eigenbasis of d of a function ``a`` of H."""
    return np.repeat(d.coefficients(a), d.multiplicities)


def svd_distances(res, a):
    """The reference: ||W A W^+ - A|| by a full SVD at every grid point."""
    return np.array([operator_norm(w @ a @ w.conj().T - a) for w in res.unitaries])


def assert_matches_svd(got, want):
    # W(0) = 1 gives rounding on both sides; elsewhere 1e-12 relative
    assert got[0] <= 1e-14 and want[0] <= 1e-14
    assert np.all(np.abs(got[1:] - want[1:]) <= 1e-12 * want[1:])


class TestNormRoutes:
    """Each norm route against the SVD of the full difference (operator_norm)."""

    MULTS = (1, 2, 1, 3, 1)  # dim 8; the lowest 1, 3, 4, 7 columns are whole levels

    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (1.0, 0.0), (-2.5, 0.75), (-1.0, -3.0)])
    @pytest.mark.parametrize("levels, rank", [(1, 1), (3, 4), (4, 7)])
    def test_two_valued_function_of_h_o(self, alpha, beta, levels, rank):
        # ranks 1, n/2 and n - 1 on a degenerate H_o
        h, res = level_system(self.MULTS, 60)
        d = h.decomposition
        p = d.compose(np.arange(len(self.MULTS)) < levels)
        a = HermitianOperator(alpha * p + beta * (np.eye(8) - p))
        blocks = two_valued_blocks(columns(d, a.matrix))
        assert blocks is not None
        gap, inner = blocks
        assert gap == pytest.approx(abs(alpha - beta), rel=1e-13)
        assert np.count_nonzero(inner) == min(rank, 8 - rank)
        values, sup = heisenberg_distance_norm(h, res, a)
        assert_matches_svd(values, svd_distances(res, a.matrix))
        assert sup == values.max()

    @pytest.mark.parametrize("rank", [1, 2, 5, 6])
    def test_projection_on_part_of_a_level(self, rank):
        # columns 1:3 and 4:7 of V span the 2- and 3-fold levels: ranks 2, 5
        # and 6 cut one, and rank 1 in the eigenbasis of another H_o is no
        # function of this one; none is a function of H_o, so all take the
        # eigvalsh route
        h, res = level_system(self.MULTS, 61)
        v = h.decomposition.vectors if rank != 1 else random_unitary(8, 62)
        p = v[:, :rank] @ v[:, :rank].conj().T
        a = HermitianOperator(-0.5 * p + 2.0 * (np.eye(8) - p))
        assert h.decomposition.coefficients(a.matrix) is None
        values, _ = heisenberg_distance_norm(h, res, a)
        assert_matches_svd(values, svd_distances(res, a.matrix))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        mults=st.lists(st.integers(1, 3), min_size=2, max_size=6),
        seed=st.integers(0, 10_000),
        alpha=st.floats(-4.0, 4.0),
        beta=st.floats(-4.0, 4.0),
        data=st.data(),
    )
    def test_two_valued_drawn(self, mults, seed, alpha, beta, data):
        assume(abs(alpha - beta) >= 1e-3)
        chosen = data.draw(st.lists(st.booleans(), min_size=len(mults), max_size=len(mults)))
        assume(any(chosen) and not all(chosen))
        h, res = level_system(mults, seed)
        p = h.decomposition.compose(chosen)
        a = HermitianOperator(alpha * p + beta * (np.eye(h.dim) - p))
        assert two_valued_blocks(columns(h.decomposition, a.matrix)) is not None
        values, _ = heisenberg_distance_norm(h, res, a)
        assert_matches_svd(values, svd_distances(res, a.matrix))

    @pytest.mark.parametrize("alpha", [0.0, -1.7, 3.0])
    def test_one_value_gives_zero(self, alpha):
        h, res = level_system(self.MULTS, 63)
        a = HermitianOperator(h.decomposition.compose(np.full(len(self.MULTS), alpha)))
        gap, inner = two_valued_blocks(columns(h.decomposition, a.matrix))
        assert gap == 0.0 and not inner.any()
        values, sup = heisenberg_distance_norm(h, res, a)
        assert sup == 0.0
        assert svd_distances(res, a.matrix).max() <= 1e-14

    @pytest.mark.parametrize("seed", [64, 65])
    def test_fermi_observable(self, seed):
        h, res = level_system(self.MULTS, seed)
        d = h.decomposition
        a = calculus_continuous(d, fermi_dirac(0.1, 10.0))
        assert d.coefficients(a.matrix) is not None
        assert two_valued_blocks(columns(d, a.matrix)) is None
        values, _ = heisenberg_distance_norm(h, res, a)
        assert_matches_svd(values, svd_distances(res, a.matrix))

    @pytest.mark.parametrize("z", [1j, 0.5 + 0.3j, -0.2 - 2.0j])
    def test_resolvent(self, z):
        h, res = level_system(self.MULTS, 66)
        r = np.linalg.inv(h.matrix - z * np.eye(8))
        assert_matches_svd(resolvent_distance(h, res, z).values, svd_distances(res, r))

    @pytest.mark.parametrize("e1, e2", [(-0.6, 0.4), (-0.1, 0.9), (-1.0, 1.0)])
    def test_offdiagonal_blocks(self, e1, e2):
        # the dense form ||P1 W(t) W(s)^+ P2|| and its interchange
        h, res = level_system(self.MULTS, 67)
        p1 = projection_leq(h.decomposition, e1).matrix
        p2 = projection_geq(h.decomposition, e2).matrix
        for t, s in [(1.0, 0.0), (2 / 3, 1 / 3), (1 / 3, 1.0)]:
            m = res.at(t) @ res.at(s).conj().T
            rec = offdiagonal_block_decay(h, res, e1, e2, t, s)
            dense = (operator_norm(p1 @ m @ p2), operator_norm(p2 @ m @ p1))
            assert rec.value_low_high == pytest.approx(dense[0], rel=1e-12)
            assert rec.value_high_low == pytest.approx(dense[1], rel=1e-12)


class TestResolventDistance:
    def test_zero_drive(self):
        h = random_hermitian(4, 1)
        res = evolve(h, GeneratorPath.zero(4), 100.0, GRID)
        rec = resolvent_distance(h, res, 1j)
        assert rec.sup <= 1e-10

    def test_real_z_rejected(self):
        h = random_hermitian(2, 1)
        res = evolve(h, GeneratorPath.zero(2), 1.0, GRID)
        with pytest.raises(ValueError, match="imaginary"):
            resolvent_distance(h, res, 2.0)

    @pytest.mark.parametrize("imag", [1e-170, 1e160])
    def test_z_whose_imaginary_square_leaves_the_floats_rejected(self, imag):
        # the bound divides by (Im z)^2, which underflows to 0 or overflows
        h = random_hermitian(2, 1)
        res = evolve(h, GeneratorPath.zero(2), 1.0, GRID)
        with pytest.raises(ValueError, match="imaginary"):
            resolvent_distance(h, res, complex(0.0, imag), seeded_pair_path(2, 1.0, 2))

    def test_tau_doubling_halves(self):
        h = random_hermitian(8, 10)
        h = HermitianOperator(h.matrix / h.norm())
        path = seeded_pair_path(8, 1.0, 11)
        sups = []
        for tau in (200.0, 400.0):
            res = evolve(h, path, tau, GRID)
            sups.append(resolvent_distance(h, res, 1j, path).sup)
        ratio = sups[0] / sups[1]
        assert 2.0 * 0.85 <= ratio <= 2.0 * 1.15

    def test_theory_bound_holds(self):
        h = random_hermitian(6, 12)
        h = HermitianOperator(h.matrix / h.norm())
        path = seeded_pair_path(6, 1.0, 13)
        res = evolve(h, path, 50.0, GRID)
        rec = resolvent_distance(h, res, 0.5 + 1j, path)
        assert rec.bound_ok is True
        assert rec.bound_constant == pytest.approx(
            path.kappa_dot + 2 * path.kappa * (path.kappa + 1.0)
        )

    def test_ftc_identity_reconstruction(self):
        # (H_tau(s)-z)^-1 - W (H_tau(0)-z)^-1 W^+ equals the integrated
        # conjugated derivative -(1/tau) (H-z)^-1 dLambda (H-z)^-1
        h = random_hermitian(5, 14)
        rng = np.random.default_rng(15)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a_mat = (g + g.conj().T) / 4
        g2 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b_mat = (g2 + g2.conj().T) / 4

        path = GeneratorPath.drive(a_mat, b_mat, None, None)
        tau, z = 40.0, 1j
        fine = np.linspace(0.0, 1.0, 801)
        res = evolve(h, path, tau, fine, step=2e-4)
        eye = np.eye(5)

        def resolvent_at(s):
            return np.linalg.inv(h.matrix + path(s) / tau - z * eye)

        s_idx = -1
        w_s = res.unitaries[s_idx]
        lhs = resolvent_at(1.0) - w_s @ resolvent_at(0.0) @ w_s.conj().T
        integrand = []
        for j, s in enumerate(fine):
            w_t = res.unitaries[j]
            r = resolvent_at(s)
            integrand.append(w_t.conj().T @ (-(r @ b_mat @ r) / tau) @ w_t)
        acc = np.zeros((5, 5), dtype=complex)
        for j in range(1, len(fine)):
            acc += 0.5 * (fine[j] - fine[j - 1]) * (integrand[j - 1] + integrand[j])
        rhs = w_s @ acc @ w_s.conj().T
        assert operator_norm(lhs - rhs) <= 1e-6


class TestOffDiagonalDecay:
    def test_block_diagonal_drive_vanishes(self):
        h = HermitianOperator(np.diag([-1.0, -0.5, 0.5, 1.0]))
        lam = direct_sum([pauli("x"), pauli("x")])  # acts within each band
        res = evolve(h, GeneratorPath.constant(lam), 25.0, GRID)
        rec = offdiagonal_block_decay(h, res, -0.25, 0.25, 1.0, 0.0)
        assert rec.value_low_high <= 1e-12
        assert rec.value_high_low <= 1e-12

    def test_interchange_symmetry_bound(self):
        h = random_hermitian(10, 20)
        path = seeded_pair_path(10, 1.0, 21)
        res = evolve(h, path, 300.0, GRID)
        eigs = hermitian_eigendecomposition(h).eigenvalues
        e1 = float(np.quantile(eigs, 0.4))
        e2 = e1 + 0.5
        rec = offdiagonal_block_decay(h, res, e1, e2, 1.0, 0.0)
        # both orders obey the same 1/(delta tau) scale
        scale = path.kappa / (0.5 * 300.0)
        assert rec.value_low_high <= 20 * scale
        assert rec.value_high_low <= 20 * scale

    def test_delta_sweep_product_bounded(self):
        h = random_hermitian(12, 22)
        h = HermitianOperator(h.matrix / h.norm())
        path = seeded_pair_path(12, 1.0, 23)
        tau = 500.0
        res = evolve(h, path, tau, GRID)
        products = []
        for delta in (0.25, 0.5, 1.0):
            rec = offdiagonal_block_decay(h, res, -delta / 2, delta / 2, 1.0, 0.0)
            products.append(rec.value_low_high * delta * tau)
        assert max(products) <= 10.0 * path.kappa

    def test_rejects_bad_gap(self):
        h = random_hermitian(4, 24)
        res = evolve(h, GeneratorPath.zero(4), 1.0, GRID)
        with pytest.raises(ValueError):
            offdiagonal_block_decay(h, res, 1.0, 0.5, 1.0, 0.0)


class TestPhaseFreeForms:
    """Metrics built from spectral projections of H_o do not see the phase
    exp(i tau s H_o) of Omega_tau, so their values from W equal the Omega_tau
    forms."""

    GRID11 = np.linspace(0.0, 1.0, 11)

    @staticmethod
    def run(name, params, tau):
        cfg = ScenarioConfig(scenario=name, params=params, taus=(tau,), metrics=(), seed=0)
        inst = build_scenario(cfg)
        return inst, evolve(inst.h_o, inst.path, tau, TestPhaseFreeForms.GRID11)

    @pytest.mark.parametrize("tau", [100.0, 1000.0])
    def test_embedded_offblock_profile(self, tau):
        inst, res = self.run("embedded_eigenvalue", {"grid_points": 63, "multiplicity": 3}, tau)
        assert inst.h_o.dim == 66
        p_e = projection_eq(inst.h_o.decomposition, inst.embedded_level).matrix
        comp = np.eye(66) - p_e
        pe_psis = p_e @ inst.vectors.vectors.T
        omegas = [comparison_operator(inst.h_o, res, s, 0.0).matrix for s in self.GRID11]
        from_omega = np.stack([np.linalg.norm(comp @ (om @ pe_psis), axis=0) for om in omegas], 1)
        from_frames = embedded_offblock_profile(inst.h_o, res, p_e, inst.vectors)
        assert from_frames.shape == from_omega.shape
        assert np.abs(from_frames - from_omega).max() <= 1e-12

    @pytest.mark.parametrize("tau", [100.0, 1000.0])
    @pytest.mark.parametrize(
        "name, params",
        [("embedded_eigenvalue", {"grid_points": 63, "multiplicity": 3}),
         ("pure_point_omega", {"dim": 16, "degenerate_pairs": 4})],
    )
    def test_offdiagonal_norms(self, name, params, tau):
        inst, res = self.run(name, params, tau)
        d = inst.h_o.decomposition
        p1 = projection_leq(d, -0.25).matrix
        p2 = projection_geq(d, 0.25).matrix
        for t, s in [(1.0, 0.0), (0.7, 0.3), (0.4, 0.4)]:
            om = comparison_operator(inst.h_o, res, t, s).matrix
            rec = offdiagonal_block_decay(inst.h_o, res, -0.25, 0.25, t, s)
            assert abs(rec.value_low_high - operator_norm(p1 @ om @ p2)) <= 1e-12
            assert abs(rec.value_high_low - operator_norm(p2 @ om @ p1)) <= 1e-12


def standard_basis(res):
    """The same propagator held as W in the standard basis, as a loaded
    ``.prop`` file holds it, so every metric rotates it on entry."""
    return PropagatorResult(
        tau=res.tau, s_grid=res.s_grid, frames=res.unitaries, step=res.step, scheme=res.scheme
    )


class TestMetricIdentities:
    """Every metric value is a property of the problem, not of its basis:
    the rotated problem (U H_o U†, U A U†, U B U†) with observables U O U†
    and probes U psi, and the shifted problem H_o + c 1 with every energy
    moved by c, give the values of the original. The catalog's H_o is
    diagonal, so its eigenbasis is a permutation; the complex rotation makes
    it dense, so a basis fault in a metric route, or in the rotation of a
    result held in another basis, shows."""

    GRID11 = np.linspace(0.0, 1.0, 11)
    TIMES = ((1.0, 0.0), (0.7, 0.3))

    @staticmethod
    def values(inst, h_o, path, u=None, shift=0.0, held=lambda res: res):
        """Every metric's values for the problem (h_o, path), with the
        scenario's observables and probes rotated by ``u`` and its energies
        moved by ``shift``; ``held`` re-holds each evolved result."""
        u = np.eye(inst.h_o.dim) if u is None else u
        rotate = lambda m: u @ m @ u.conj().T
        vecs = TestVectorSet(
            vectors=inst.vectors.vectors @ u.T, labels=inst.vectors.labels,
            provenance=inst.vectors.provenance,
        )
        p_e = rotate(projection_eq(inst.h_o.decomposition, inst.embedded_level).matrix)
        e1, e2 = (e + shift for e in inst.gap_pair)
        out = {}
        for tau in (10.0, 100.0):
            res = held(evolve(h_o, path, tau, TestMetricIdentities.GRID11))
            for name, a in inst.observables:
                obs = HermitianOperator(rotate(a.matrix))
                out["norm", name, tau] = heisenberg_distance_norm(h_o, res, obs)[0]
                out["sot", name, tau] = heisenberg_distance_sot(h_o, res, obs, vecs)[0]
            out["resolvent", tau] = resolvent_distance(h_o, res, 0.1 + 1j + shift).values
            out["offblock", tau] = embedded_offblock_profile(h_o, res, p_e, vecs)
            recs = [offdiagonal_block_decay(h_o, res, e1, e2, t, s) for t, s in
                    TestMetricIdentities.TIMES]
            out["offdiag", tau] = np.array([(r.value_low_high, r.value_high_low) for r in recs])
        return out

    @staticmethod
    def assert_same(got, want):
        assert got.keys() == want.keys()
        for key, w in want.items():
            assert np.all(np.abs(got[key] - w) <= 1e-12 * np.abs(w) + 1e-14), key

    @pytest.mark.parametrize("held", [lambda res: res, standard_basis], ids=["frames", "W"])
    @pytest.mark.parametrize("name", ["embedded_eigenvalue", "fermi_observable"])
    def test_rotated_problem_gives_the_same_values(self, name, held):
        inst = scenario_instance(name)
        u = random_unitary(inst.h_o.dim, 96)
        rotate = lambda m: u @ m @ u.conj().T
        h_o = HermitianOperator(rotate(inst.h_o.matrix))
        path = GeneratorPath.drive(rotate(inst.path.a), rotate(inst.path.b), None, None)
        want = self.values(inst, inst.h_o, inst.path)
        self.assert_same(self.values(inst, h_o, path, u, held=held), want)

    @pytest.mark.parametrize("c", [0.37, -1.3])
    @pytest.mark.parametrize("name", ["embedded_eigenvalue", "fermi_observable"])
    def test_scalar_shift_gives_the_same_values(self, name, c):
        inst = scenario_instance(name)
        h_o = HermitianOperator(inst.h_o.matrix + c * np.eye(inst.h_o.dim))
        want = self.values(inst, inst.h_o, inst.path)
        self.assert_same(self.values(inst, h_o, inst.path, shift=c), want)


class TestEmbeddedDecay:
    def test_commuting_drive_zero(self):
        h = HermitianOperator(np.diag([-0.5, 0.0, 0.0, 0.7]))
        lam = np.diag([1.0, 2.0, 2.0, 3.0])
        res = evolve(h, GeneratorPath.constant(lam), 10.0, GRID)
        recs = embedded_eigenprojection_decay(
            h, res, 0.0, TestVectorSet.seeded_gaussian(4, 3, 30)
        )
        assert all(r.offblock_sup <= 1e-10 and r.projection_sup <= 1e-10 for r in recs)

    def test_tau_sweep_decays(self):
        diag = np.concatenate([np.linspace(-1, 1, 13), [0.0]])
        diag = diag[np.abs(diag) > 1e-12]
        h = HermitianOperator(np.diag(np.concatenate([diag, [0.0]])))
        dim = h.dim
        path = seeded_pair_path(dim, 1.0, 31)
        vs = TestVectorSet.seeded_gaussian(dim, 4, 32)
        sups = {}
        for tau in (10.0, 1000.0):
            res = evolve(h, path, tau, GRID)
            recs = embedded_eigenprojection_decay(h, res, 0.0, vs)
            sups[tau] = [r.projection_sup for r in recs]
        assert all(b <= 0.5 * a for a, b in zip(sups[10.0], sups[1000.0]))

    def test_band_masses_with_sqrt_tau_window(self):
        h = HermitianOperator(np.diag([-0.4, -0.01, 0.0, 0.02, 0.5]))
        psi = np.zeros(5, dtype=complex)
        psi[1] = psi[3] = 1 / math.sqrt(2)  # weight only in the near bands
        vs = TestVectorSet(vectors=psi[None, :], labels=("near",), provenance=("finite_support",))
        res = evolve(h, GeneratorPath.zero(5), 100.0, GRID)
        recs = embedded_eigenprojection_decay(h, res, 0.0, vs)
        # delta = 1/sqrt(100) = 0.1 captures both neighbours
        assert recs[0].band_mass_above == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert recs[0].band_mass_below == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        # with a constant generator the stepper is exact at any step, so a
        # huge tau is cheap: the 1/sqrt(tau) band empties out
        res_big = evolve(h, GeneratorPath.zero(5), 1e6, GRID, step=0.5)
        recs_big = embedded_eigenprojection_decay(h, res_big, 0.0, vs)
        assert recs_big[0].band_mass_above == 0.0
        assert recs_big[0].band_mass_below == 0.0

    def test_commutator_split_inequality(self):
        # ||[P, Omega] psi|| <= ||P Omega (1-P) psi|| + ||(1-P) Omega P psi||
        h = random_hermitian(8, 33)
        d = hermitian_eigendecomposition(h)
        e = float(d.eigenvalues[3])
        p = projection_eq(d, e).matrix
        path = seeded_pair_path(8, 1.0, 34)
        res = evolve(h, path, 20.0, GRID)
        omegas = [comparison_operator(h, res, s, 0.0).matrix for s in GRID]
        psi = TestVectorSet.seeded_gaussian(8, 1, 35).vectors[0]
        eye = np.eye(8)
        for om in omegas:
            lhs = np.linalg.norm((p @ om - om @ p) @ psi)
            rhs = np.linalg.norm(p @ om @ (eye - p) @ psi) + np.linalg.norm(
                (eye - p) @ om @ p @ psi
            )
            assert lhs <= rhs + 1e-12

    def test_rejects_non_eigenvalue(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        res = evolve(h, GeneratorPath.zero(2), 1.0, GRID)
        with pytest.raises(ValueError, match="not an eigenvalue"):
            embedded_eigenprojection_decay(h, res, 0.37, TestVectorSet.seeded_gaussian(2, 1, 0))


class TestSchrodingerLimit:
    def test_commuting_drive_matches_exactly(self):
        h = HermitianOperator(np.diag([0.0, 1.0, 2.5]))
        d = hermitian_eigendecomposition(h)
        path = GeneratorPath.constant(np.diag([0.4, -0.3, 0.2]))
        res = evolve(h, path, 50.0, GRID)
        oi = omega_infinity(d, path, GRID)
        recs = schrodinger_limit_distance(h, res, oi, TestVectorSet.seeded_gaussian(3, 2, 40), path)
        assert all(r.distance_sup <= 1e-8 for r in recs)

    def test_two_level_identity_limit(self):
        # H_o = sz, Lambda = sx: the block-diagonal part vanishes, Omega_inf = 1
        h = HermitianOperator(pauli("z"))
        d = hermitian_eigendecomposition(h)
        path = GeneratorPath.constant(pauli("x"))
        oi = omega_infinity(d, path, GRID)
        assert all(operator_norm(u - np.eye(2)) <= 1e-12 for u in oi.unitaries)
        sups = []
        vs = TestVectorSet.seeded_gaussian(2, 2, 41)
        for tau in (10.0, 1000.0):
            res = evolve(h, path, tau, GRID)
            recs = schrodinger_limit_distance(h, res, oi, vs, path)
            sups.append(max(r.distance_sup for r in recs))
        assert sups[1] <= 0.1 * sups[0]

    def test_gronwall_envelope_dominates_block_distance(self):
        h = random_hermitian(6, 42)
        d = hermitian_eigendecomposition(h)
        path = seeded_pair_path(6, 0.8, 43)
        fine = np.linspace(0, 1, 81)
        res = evolve(h, path, 60.0, fine)
        oi = omega_infinity(d, path, fine)
        recs = schrodinger_limit_distance(h, res, oi, TestVectorSet.seeded_gaussian(6, 4, 44), path)
        for r in recs:
            assert r.block_distance_sup <= r.gronwall_envelope + 5e-3

    def test_grid_mismatch_rejected(self):
        h = HermitianOperator(pauli("z"))
        d = hermitian_eigendecomposition(h)
        path = GeneratorPath.constant(pauli("x"))
        res = evolve(h, path, 10.0, GRID)
        oi = omega_infinity(d, path, np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="grid"):
            schrodinger_limit_distance(h, res, oi, TestVectorSet.seeded_gaussian(2, 1, 0), path)


class TestRateFit:
    def test_exact_inverse_law(self):
        rows = [(t, 1.0 / t) for t in (10.0, 100.0, 1000.0, 10000.0)]
        fit = rate_fit(rows)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.constant == pytest.approx(1.0, rel=1e-10)
        assert fit.residual <= 1e-12

    def test_constant_data(self):
        fit = rate_fit([(t, 2.5) for t in (1.0, 10.0, 100.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_inverse_law(self):
        rng = np.random.default_rng(50)
        rows = [(t, 3.0 / t * (1 + 0.01 * rng.standard_normal())) for t in np.logspace(1, 4, 12)]
        fit = rate_fit(rows)
        assert -1.05 <= fit.slope <= -0.95

    def test_exclusions_counted_and_minimum_enforced(self):
        fit = rate_fit([(1.0, 1.0), (10.0, 0.0), (100.0, 0.1), (1000.0, 0.01)])
        assert fit.n_excluded == 1 and fit.n_used == 3
        with pytest.raises(ValueError, match=">= 3"):
            rate_fit([(1.0, 1.0), (10.0, 0.0), (100.0, 0.0)])


class TestReportAndCsv:
    def test_csv_format(self, tmp_path):
        rows = [
            ReportRow(100.0, 0.5, "", 1.0 / 3.0),
            ReportRow(100.0, 1.0, "g0", 2e-17),
        ]
        p = tmp_path / "out.csv"
        write_metric_csv(p, "scn", "met", rows)
        lines = p.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1] == "scn,met,100,0.5,,0.33333333333333331"
        assert lines[2] == "scn,met,100,1,g0,2.0000000000000001e-17"
