import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import slowdrive.propagation
from slowdrive.operators import (
    HermitianOperator,
    format_matrix,
    hermitian_eigendecomposition,
    hermitian_norm,
    operator_norm,
    pauli,
    unitarity_drift,
    unitary_exponential,
)
from slowdrive.propagation import (
    DysonResolutionWarning,
    GeneratorPath,
    GridError,
    MAGNUS_STEP,
    MollifierSpec,
    PropagationError,
    PropagatorResult,
    _FILON_NEAR,
    _SERIES_RADIUS,
    _THETA_MAX,
    _chebyshev_interpolant,
    _chebyshev_length,
    _chebyshev_values,
    _eigenbasis_drive,
    _exp_step,
    _filon_moments,
    _magnus_filon_states,
    _magnus_generator,
    _magnus_terms,
    _step_levels,
    _step_polynomial,
    _taylor_degree,
    _taylor_exponential,
    comparison_family,
    comparison_operator,
    default_bump,
    default_step,
    dyson_remainder_bound,
    dyson_series,
    dyson_term,
    evolve,
    frame_reconstruction_residual,
    interaction_frame,
    magnus_step,
    mollify,
    omega_infinity,
    richardson_error,
)
from slowdrive.scenarios import ScenarioConfig, build_scenario, seeded_pair_path, step_path
from slowdrive.spectral import block_compress

from test_operators import random_hermitian, random_unitary

GRID = np.linspace(0.0, 1.0, 9)


def eigh_exp_step(gen, h, w):
    """Reference step: exp(-i h gen) @ w from the eigendecomposition of gen."""
    vals, vecs = np.linalg.eigh(gen)
    return vecs @ (np.exp(-1j * h * vals)[:, None] * (vecs.conj().T @ w))


def eigh_stepped(h_o, path, tau, grid, step=None):
    """Reference midpoint propagator: the same steps as ``evolve``, each
    exponentiated by eigendecomposition. Returns W at every grid point."""
    if step is None:
        step = default_step(tau, h_o.norm(), path.kappa)
    w = np.eye(h_o.dim, dtype=complex)
    out = [w]
    for s0, s1 in zip(grid, grid[1:]):
        nsub = max(1, math.ceil((s1 - s0) / step))
        h = (s1 - s0) / nsub
        for k in range(nsub):
            w = eigh_exp_step(tau * h_o.matrix + path(s0 + (k + 0.5) * h), h, w)
        out.append(w)
    return out


def scenario_instance(name, **params):
    cfg = ScenarioConfig(scenario=name, params=params, taus=(1.0,), metrics=(), seed=0)
    return build_scenario(cfg)


class TestGeneratorPath:
    def test_constant_path_metadata(self):
        p = GeneratorPath.constant(0.7 * pauli("x"))
        assert p.kappa == pytest.approx(0.7)
        assert p.kappa_dot == 0.0
        assert p.l1_norm() == pytest.approx(0.7)

    def test_fd_derivative_within_declared_bound(self):
        # C1 invariant: finite differences on a 1e3 grid <= 1.1 * kappa_dot
        p = seeded_pair_path(4, 1.0, seed=5)
        grid = np.linspace(0, 1, 1001)
        h = grid[1] - grid[0]
        fd = max(
            operator_norm(p(b) - p(a)) / h
            for a, b in zip(grid, grid[1:])
        )
        assert fd <= 1.1 * p.kappa_dot + 1e-12

    def test_rejects_non_hermitian_sampler(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            GeneratorPath.drive(pauli("z"), bad, None, None)

    @pytest.mark.parametrize(
        "dim, seed, real", [(4, 5, False), (6, 3, False), (16, 2, False), (66, 11, True)]
    )
    def test_form_metadata_matches_probe(self, dim, seed, real):
        # kappa from the endpoint norms equals the 201-point probe's bit for bit,
        # and kappa_dot its largest finite difference
        p = seeded_pair_path(dim, 1.0, seed, real=real)
        probe = np.linspace(0.0, 1.0, 201)
        samples = [p(float(s)) for s in probe]
        h = probe[1] - probe[0]
        assert p.kappa == max(hermitian_norm(m) for m in samples)
        slopes = [hermitian_norm((m - prev) / h) for prev, m in zip(samples, samples[1:])]
        assert p.kappa_dot == pytest.approx(max(slopes), rel=1e-12, abs=0.0)
        a, b = p.a, p.b
        for s in (0.0, 0.3, 0.625, 1.0):
            assert np.array_equal(p(s), a + s * b)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            seeded_pair_path(6, -1.0, 0)

    def test_embedded_build_eigvalsh_budget(self, monkeypatch):
        # matrices factored, a stacked call of k matrices counting k: the two
        # seeded draws, the unscaled endpoints, and Lambda(0), Lambda(1), B
        factored = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg,
            "eigvalsh",
            lambda a: factored.append(math.prod(np.shape(a)[:-2])) or eigvalsh(a),
        )
        scenario_instance("embedded_eigenvalue", grid_points=63, multiplicity=3)
        assert sum(factored) <= 7

    def test_mollified_step_l1_norm_matches_fine_trapezoid(self):
        # the Gauss panels meet the breaks at at -+ epsilon, so the smooth
        # rise between them is integrated to about 1e-6 relative
        p = mollify(step_path(pauli("z"), pauli("x"), at=0.3), MollifierSpec(0.1))
        fine = np.linspace(0.0, 1.0, 4001)
        norms = hermitian_norm(np.array([p(float(s)) for s in fine]))
        assert p.l1_norm() == pytest.approx(float(np.trapezoid(norms, fine)), rel=1e-6)

    def test_step_form(self):
        p = step_path(pauli("z"), pauli("x"), at=0.25)
        assert p.smoothness == "norm_L1" and p.kappa_dot is None
        assert np.array_equal(p.b, pauli("x") - pauli("z"))
        assert np.array_equal(p(0.2), pauli("z"))
        assert operator_norm(p(0.25) - pauli("x")) <= 1e-15
        assert p.l1_norm() == pytest.approx(1.0, rel=1e-14)
        with pytest.raises(ValueError, match="0 < at < 1"):
            step_path(pauli("z"), pauli("x"), at=1.0)


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
        assert np.array_equal(res.frames[0], np.eye(6))
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


class TestTaylorStep:
    """The step kernel applies exp(-i h G) to W to unit-roundoff accuracy."""

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("dim", [4, 16, 66])
    def test_matches_eigh_reference(self, real, dim):
        rng = np.random.default_rng(dim + 100 * real)
        g = rng.standard_normal((dim, dim))
        if not real:
            g = g + 1j * rng.standard_normal((dim, dim))
        gen = ((g + g.conj().T) / 2).astype(complex)
        w = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
        norm1 = np.abs(gen).sum(axis=0).max()
        for theta in (0.0, 1e-6, 0.1, 0.5, 2.0, 50.0):
            h = theta / norm1
            ref = eigh_exp_step(gen, h, w)
            assert operator_norm(_exp_step(gen, h, w) - ref) <= 1e-13
            assert operator_norm(_taylor_exponential(h * gen) @ w - ref) <= 1e-13

    @pytest.mark.parametrize("theta", [0.0, 1e-3, 1.0, 4.0])
    def test_taylor_degree_is_the_smallest_that_meets_the_bound(self, theta):
        def remainder_bound(m):
            # theta^(m+1)/(m+1)! over 1 - theta/(m+2), which holds once m + 2 > theta
            if m + 2 <= theta:
                return math.inf
            return theta ** (m + 1) / math.factorial(m + 1) / (1.0 - theta / (m + 2))

        m = _taylor_degree(theta)
        assert remainder_bound(m) <= 2.0**-53
        assert m == 0 or remainder_bound(m - 1) > 2.0**-53
        tail = math.fsum(theta**k / math.factorial(k) for k in range(m + 1, m + 80))
        assert tail <= 2.0**-53


class TestFilonMoments:
    """m_n(alpha) = int_0^1 x^n exp(i alpha x) dx on both sides of the series
    radius, against adaptive quadrature."""

    def test_against_quadrature(self):
        alpha = np.array([0.0, 1e-8, 2e-3, 0.3, 1.0, 3.99, _SERIES_RADIUS, 4.01, -3.7, 10.0])
        top = 8
        moments = _filon_moments(alpha, top)
        assert moments.shape == (top + 1, alpha.size)
        for j, a in enumerate(alpha):
            for n in range(top + 1):
                parts = [
                    quad(lambda x: x**n * f(a * x), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
                    for f in (math.cos, math.sin)
                ]
                assert abs(moments[n, j] - complex(*parts)) <= 1e-15

    def test_one_sum_per_distinct_magnitude(self):
        # the phases of uniformly spaced levels: antisymmetric, repeated along
        # each diagonal, zero on the main one, on both sides of the radius
        levels = 0.7 * np.arange(9)
        alpha = levels[:, None] - levels[None, :]
        top = 8
        moments = _filon_moments(alpha, top)
        assert moments.shape == (top + 1, *alpha.shape)
        for j, k in np.ndindex(alpha.shape):
            alone = _filon_moments(alpha[j : j + 1, k], top)[:, 0]
            # a lone series stops at its own degree, the batch at the largest
            assert np.abs(moments[:, j, k] - alone).max() <= 1e-16
        # m_n(-alpha) = conj m_n(alpha), exactly
        assert np.array_equal(moments, moments.swapaxes(1, 2).conj())


class TestAgainstEighStepper:
    """On ramp drives with an explicit step evolve agrees with the same
    midpoint steps exponentiated by eigh, counts its steps and still checks
    the drift."""

    @staticmethod
    def assert_close(inst, tau, step=None):
        grid = np.linspace(0.0, 1.0, 11)
        res = evolve(inst.h_o, inst.path, tau, grid, step=step)
        ref = eigh_stepped(inst.h_o, inst.path, tau, grid, step=step)
        for a, b in zip(res.unitaries, ref):
            assert operator_norm(a - b) <= 1e-10

    @staticmethod
    def midpoint_step(inst, tau):
        """The default step, passed explicitly so evolve keeps the midpoint rule."""
        return default_step(tau, inst.h_o.norm(), inst.path.kappa)

    @pytest.mark.parametrize("tau", [10.0, 100.0])
    def test_embedded(self, tau):
        inst = scenario_instance("embedded_eigenvalue", grid_points=63, multiplicity=3)
        self.assert_close(inst, tau, step=self.midpoint_step(inst, tau))

    @pytest.mark.parametrize("tau", [10.0, 100.0, 1000.0])
    def test_pure_point(self, tau):
        inst = scenario_instance("pure_point_omega", dim=16)
        self.assert_close(inst, tau, step=self.midpoint_step(inst, tau))

    def test_step_100x_default(self):
        inst = scenario_instance("pure_point_omega", dim=16)
        tau = 100.0
        step = 100 * default_step(tau, inst.h_o.norm(), inst.path.kappa)
        self.assert_close(inst, tau, step=step)

    def test_drift_still_enforced(self):
        inst = scenario_instance("pure_point_omega", dim=6)
        step = self.midpoint_step(inst, 10.0)
        with pytest.raises(PropagationError, match="drift"):
            evolve(inst.h_o, inst.path, 10.0, GRID, step=step, drift_tol=1e-18)

    def test_steps_counted(self, tmp_path):
        inst = scenario_instance("pure_point_omega", dim=6)
        step = default_step(20.0, inst.h_o.norm(), inst.path.kappa)
        res = evolve(inst.h_o, inst.path, 20.0, GRID, step=step)
        assert res.steps == 8 * math.ceil(0.125 / step)
        res.save(tmp_path / "run.prop")
        assert PropagatorResult.load(tmp_path / "run.prop").steps == res.steps
        constant = evolve(inst.h_o, GeneratorPath.constant(inst.path(0.5)), 20.0, GRID)
        assert constant.steps == 0


def extrapolated_midpoint(run, step):
    """(4 W(step/8) - W(step/4)) / 3 at every grid point, from the midpoint
    rule ``run(step)``: the Richardson extrapolation of its second-order
    error."""
    return (4.0 * run(step / 8).unitaries - run(step / 4).unitaries) / 3.0


def magnus_terms_by_quadrature(w, p, b, tau, h, nodes=64):
    """Omega_1 and Omega_2 of one Magnus-Filon step by a Gauss-Legendre rule
    in x1; the inner integral over [0, x1] takes the same rule, which is
    exact to rounding for these alpha."""
    alpha = tau * h * (w[:, None] - w[None, :])
    x, wt = np.polynomial.legendre.leggauss(nodes)
    x, wt = 0.5 * (x + 1.0), 0.5 * wt

    def kernel(t):
        return np.exp(1j * alpha * t) * (p + t * h * b)

    omega1 = h * sum(c * kernel(t) for t, c in zip(x, wt))
    omega2 = 0.0
    for x1, c1 in zip(x, wt):
        k1 = kernel(x1)
        inner = x1 * sum(c * kernel(x1 * t) for t, c in zip(x, wt))
        omega2 = omega2 + c1 * (k1 @ inner - inner @ k1)
    return omega1, h * h * omega2


def per_step_magnus_filon(basis, path, tau, grid, nsubs):
    """Reference Magnus-Filon propagator: the steps of ``evolve``, with a
    generator built for every interval at its exact sub-step length and each
    exponential summed by ``_exp_step`` at its step start instead of read from
    a step table. The steps are placed as ``evolve`` places them: sub-step
    lengths are keyed to 11 significant digits, and an interval of nsub steps
    of length h takes nsub - 1 steps of its key's first exact length h_k and
    a last step of length h + (nsub - 1)(h - h_k), each with the frame phase
    of its own length. Returns W at every grid point."""
    v, w = basis.vectors, basis.column_values
    vh = v.conj().T
    a, b = vh @ path.a @ v, vh @ path.b @ v
    y = np.eye(w.size, dtype=complex)
    out = [np.eye(w.size)]
    first = {}
    for s0, s1, nsub in zip(grid, grid[1:], nsubs):
        h = (s1 - s0) / nsub
        h_k = first.setdefault(f"{h:.11g}", h)
        g = _magnus_generator(w, a, b, tau, h)
        m = nsub - 1
        for k in range(nsub):
            start = s0 + k * h_k
            length = h_k if k < m else h + m * (h - h_k)
            phase = np.exp(-1j * tau * length * w)[:, None]
            y = phase * _exp_step(g[0] + start * (g[1] + start * g[2]), 1.0, y)
        out.append(v @ y @ vh)
    return out


# 301 points 9e-4 apart, each value rounded to 12 digits: every interval is
# shorter than h_MF
FINE_GRID = np.round(np.arange(301) * 9e-4, 12)


def jittered_grid(points=31, seed=95):
    """linspace(0, 1, points) with each inner point moved by up to 0.3 of
    the spacing and rounded to 3 decimals, so that some spans repeat."""
    base = np.linspace(0.0, 1.0, points)
    jitter = np.random.default_rng(seed).uniform(-0.3, 0.3, points - 2) * base[1]
    return np.concatenate([[0.0], np.round(base[1:-1] + jitter, 3), [1.0]])


def block_diagonal_reference(d, path):
    """The drive sum_E P_E Lambda(s) P_E in the standard basis, A and B
    compressed by ``block_compress``, with the parent's kappa and kappa_dot
    as ``omega_infinity`` takes them."""
    return dataclasses.replace(path, a=block_compress(d, path.a), b=block_compress(d, path.b))


def eigenbasis_ramp(inst):
    """The eigenvalues of H_o and the ramp's A, B in its eigenbasis."""
    d = inst.h_o.decomposition
    v, vh = d.vectors, d.vectors.conj().T
    return d.column_values, vh @ inst.path.a @ v, vh @ inst.path.b @ v


class TestMagnusFilon:
    """Ramp drives with no explicit step run the Magnus-Filon scheme at a
    tau-independent step."""

    GRID11 = np.linspace(0.0, 1.0, 11)

    def assert_near(self, res, ref):
        for a, b in zip(res.unitaries, ref):
            assert operator_norm(a - b) <= 1e-7

    @pytest.mark.parametrize("tau", [10.0, 100.0])
    @pytest.mark.parametrize(
        "name, params",
        [("embedded_eigenvalue", {"grid_points": 63, "multiplicity": 3}),
         ("pure_point_omega", {"dim": 16})],
    )
    def test_against_extrapolated_midpoint(self, name, params, tau):
        inst = scenario_instance(name, **params)
        res = evolve(inst.h_o, inst.path, tau, self.GRID11)
        assert res.scheme == "magnus-filon"
        step = default_step(tau, inst.h_o.norm(), inst.path.kappa)
        ref = extrapolated_midpoint(
            lambda h: evolve(inst.h_o, inst.path, tau, self.GRID11, step=h), step
        )
        self.assert_near(res, ref)

    @staticmethod
    def count_builds(patch):
        """The sub-step lengths of the ``_magnus_generator`` calls that follow,
        in a list that fills as they happen."""
        builds = []

        def counted(*args):
            builds.append(args[-1])
            return _magnus_generator(*args)

        patch.setattr(slowdrive.propagation, "_magnus_generator", counted)
        return builds

    @pytest.mark.parametrize("tau", [10.0, 1000.0])
    def test_one_stepper_per_uniform_grid(self, tau, monkeypatch):
        # the 10 intervals of linspace(0, 1, 11) differ in their last bits
        assert len(set(np.diff(self.GRID11))) > 1
        builds = self.count_builds(monkeypatch)
        inst = scenario_instance("embedded_eigenvalue", grid_points=63, multiplicity=3)
        res = evolve(inst.h_o, inst.path, tau, self.GRID11)
        assert res.scheme == "magnus-filon"
        assert len(builds) == 1

    @pytest.mark.parametrize("tau", [10.0, 1000.0])
    def test_magnus_terms_once_per_evolve(self, tau, monkeypatch):
        # the 200 steps reuse the terms of one sub-step length, never re-derive them
        calls = []

        def counted(*args):
            calls.append(args[3])
            return _magnus_terms(*args)

        monkeypatch.setattr(slowdrive.propagation, "_magnus_terms", counted)
        inst = scenario_instance("embedded_eigenvalue", grid_points=63, multiplicity=3)
        res = evolve(inst.h_o, inst.path, tau, self.GRID11)
        assert (res.scheme, res.steps) == ("magnus-filon", 200)
        assert len(calls) == 1

    def test_limit_and_frame_against_extrapolated_midpoint(self):
        # degenerate pairs give the limit drive 2x2 blocks that do not commute
        inst = scenario_instance("pure_point_omega", dim=16, degenerate_pairs=4)
        d, path = inst.h_o.decomposition, inst.path
        step = default_step(1.0, 0.0, path.kappa)
        limit = omega_infinity(d, path, self.GRID11)
        frame = interaction_frame(path, self.GRID11)
        assert (limit.scheme, frame.scheme) == ("limit-magnus-filon", "frame-magnus-filon")
        self.assert_near(
            limit, extrapolated_midpoint(lambda h: omega_infinity(d, path, self.GRID11, h), step)
        )
        self.assert_near(
            frame, extrapolated_midpoint(lambda h: interaction_frame(path, self.GRID11, h), step)
        )

    def test_steps_do_not_grow_with_tau(self):
        inst = scenario_instance("pure_point_omega", dim=16)
        low, high = (evolve(inst.h_o, inst.path, tau, self.GRID11) for tau in (1e2, 1e4))
        assert low.scheme == high.scheme == "magnus-filon"
        assert low.steps == high.steps
        # a tau whose midpoint rule would exceed the step cap still runs
        assert evolve(inst.h_o, inst.path, 1e8, self.GRID11).steps == low.steps
        # step is the largest sub-step, and the step count follows from it
        spans = np.diff(self.GRID11)
        assert high.step <= magnus_step(inst.path.kappa, inst.path.kappa_dot) * (1 + 1e-9)
        assert high.steps == sum(max(1, math.ceil(x / high.step - 1e-9)) for x in spans)

    @pytest.mark.parametrize("tau", [10.0, 1e4])
    def test_fine_grid_runs_one_build(self, tau, monkeypatch):
        # intervals below h_MF: one step each, and one build for the 300
        # spans, which differ in their last bits
        inst = scenario_instance("pure_point_omega", dim=6)
        with monkeypatch.context() as patch:
            builds = self.count_builds(patch)
            res = evolve(inst.h_o, inst.path, tau, FINE_GRID)
        assert len(set(np.diff(FINE_GRID))) > 1
        assert (res.scheme, res.steps, len(builds)) == ("magnus-filon", 300, 1)
        ref = per_step_magnus_filon(
            inst.h_o.decomposition, inst.path, tau, FINE_GRID, [1] * 300
        )
        for u, r in zip(res.unitaries, ref):
            assert operator_norm(u - r) <= 1e-13

    def test_explicit_step_keeps_midpoint(self):
        inst = scenario_instance("pure_point_omega", dim=6)
        step = default_step(10.0, inst.h_o.norm(), inst.path.kappa)
        assert evolve(inst.h_o, inst.path, 10.0, GRID, step=step).scheme == "midpoint-exponential"
        assert evolve(inst.h_o, inst.path, 10.0, FINE_GRID, step=step).scheme == (
            "midpoint-exponential"
        )
        assert evolve(inst.h_o, inst.path, 10.0, GRID).scheme == "magnus-filon"

    @pytest.mark.parametrize("tau", [10.0, 1e4])
    def test_non_uniform_grid_builds_per_length(self, tau, monkeypatch):
        # one build per sub-step length to 11 significant digits: the spans
        # of the jittered grid repeat as decimals but not as floats
        inst = scenario_instance("pure_point_omega", dim=6)
        grid = jittered_grid()
        nsubs = self.magnus_nsubs(inst.path, grid)
        lengths = {f"{x / n:.11g}" for x, n in zip(np.diff(grid), nsubs)}
        assert 1 < len(lengths) < len(set(np.diff(grid)))
        with monkeypatch.context() as patch:
            builds = self.count_builds(patch)
            res = evolve(inst.h_o, inst.path, tau, grid)
        assert (res.scheme, res.steps) == ("magnus-filon", sum(nsubs))
        assert len(builds) == len(lengths)
        ref = per_step_magnus_filon(inst.h_o.decomposition, inst.path, tau, grid, nsubs)
        for u, r in zip(res.unitaries, ref):
            assert operator_norm(u - r) <= 1e-13

    @pytest.mark.parametrize("tau", [10.0, 1e4])
    def test_omega2_closed_form_matches_gauss_rule(self, tau):
        # alpha = tau h (w_j - w_k): exact degeneracies, both sides of the
        # Taylor threshold, and the series and recurrence ranges of the moments
        h = 1.0 / 200.0
        levels = np.array([0.0, 0.0, 0.5 * _FILON_NEAR, 2.0 * _FILON_NEAR, 0.3, 3.0, 9.0])
        w = levels / (tau * h)
        a, b = (random_hermitian(7, seed).matrix for seed in (90, 91))
        a, b = a / operator_norm(a), b / operator_norm(b)
        p = a + 0.3 * b
        omega1, omega2 = _magnus_terms(w, b, tau, h, p)
        ref1, ref2 = magnus_terms_by_quadrature(w, p, b, tau, h)
        assert operator_norm(omega1 - ref1) <= 1e-13 * operator_norm(ref1)
        assert operator_norm(omega2 - ref2) <= 1e-12 * operator_norm(ref2)
        # the generator interpolated in the step start s0 is the Hermitian part
        # of Omega_1 - (i/2) Omega_2 at every s0
        g = _magnus_generator(w, a, b, tau, h)

        def generator(s0):
            return g[0] + s0 * (g[1] + s0 * g[2])

        def hermitian_part(m):
            return 0.5 * (m + m.conj().T)

        ref = hermitian_part(ref1 - 0.5j * ref2)
        assert operator_norm(generator(0.3) - ref) <= 1e-12 * operator_norm(ref)
        for s0 in (0.13, 0.77, 0.995):
            omega1, omega2 = _magnus_terms(w, b, tau, h, a + s0 * b)
            direct = hermitian_part(omega1 - 0.5j * omega2)
            assert operator_norm(generator(s0) - direct) <= 1e-13 * operator_norm(direct)

    @staticmethod
    def chebyshev_points(g):
        """n = _chebyshev_length(||g_1||_1, ||g_2||_1), one node per coefficient."""
        return _chebyshev_length(*(np.abs(x).sum(axis=0).max() for x in g[1:]))

    @staticmethod
    def norm_bounds(g):
        """||x^2||_1^(1/2) of x = g_1 and g_2, bounds on their 2-norms."""
        bounds = [np.sqrt(np.abs(x @ x).sum(axis=0).max()) for x in g[1:]]
        assert all(b >= operator_norm(x) for b, x in zip(bounds, g[1:]))
        return bounds

    @staticmethod
    def synthetic_generator():
        # a long step of a strong drive: theta_max > 1 splits the exponential
        w = np.linspace(-1.0, 1.0, 8)
        a, b = (2.0 * random_hermitian(8, seed).matrix for seed in (92, 93))
        return w, a, b, 3.0, 0.25

    @pytest.mark.parametrize("case", ["embedded-10", "embedded-1000", "synthetic"])
    def test_step_polynomial_matches_taylor_exponential(self, case, monkeypatch):
        if case == "synthetic":
            w, a, b, tau, h = self.synthetic_generator()
        else:
            inst = scenario_instance("embedded_eigenvalue", grid_points=63, multiplicity=3)
            tau = float(case.split("-")[1])
            h = magnus_step(inst.path.kappa, inst.path.kappa_dot)
            w, a, b = eigenbasis_ramp(inst)
        g = _magnus_generator(w, a, b, tau, h)
        nodes = []

        def counted(gen):
            nodes.append(gen)
            return _taylor_exponential(gen)

        with monkeypatch.context() as patch:
            patch.setattr(slowdrive.propagation, "_taylor_exponential", counted)
            coef = _step_polynomial(g)
        # one exponential per Chebyshev point, and one coefficient per point
        assert len(nodes) == self.chebyshev_points(g) == coef.shape[0]
        theta = sum(np.abs(x).sum(axis=0).max() for x in g)
        assert (theta > _THETA_MAX) == (case == "synthetic")
        eye = np.eye(w.size)
        for s0 in np.random.default_rng(94).uniform(0.0, 1.0, 50):
            direct = _exp_step(g[0] + s0 * (g[1] + s0 * g[2]), 1.0, eye)
            interpolated = np.polynomial.chebyshev.chebval(2.0 * s0 - 1.0, coef)
            assert operator_norm(interpolated - direct) <= 1e-14

    @pytest.mark.parametrize("case", ["embedded-10", "embedded-1000", "synthetic"])
    def test_step_levels_match_taylor_exponentials(self, case, monkeypatch):
        # every interval takes 31 steps before its last (3 for the synthetic
        # step of length 1/4), so every level up to 16 (2) is built and kept
        if case == "synthetic":
            w, a, b, tau, h = self.synthetic_generator()
            counts, top = [3] * 100, 2
        else:
            inst = scenario_instance("embedded_eigenvalue", grid_points=63, multiplicity=3)
            tau = float(case.split("-")[1])
            h = magnus_step(inst.path.kappa, inst.path.kappa_dot)
            w, a, b = eigenbasis_ramp(inst)
            counts, top = [31] * 20, 16
        g = _magnus_generator(w, a, b, tau, h)
        tables = []

        def counted(node_value, n, length, shape):
            nodes = []
            coef = _chebyshev_interpolant(
                lambda x: nodes.append(x) or node_value(x), n, length, shape
            )
            tables.append((len(nodes), coef.shape[0], length))
            return coef

        with monkeypatch.context() as patch:
            patch.setattr(slowdrive.propagation, "_chebyshev_interpolant", counted)
            levels = _step_levels(w, a, b, tau, h, counts)
        assert sorted(levels) == [2**j for j in range(top.bit_length())]
        # one node per coefficient, on the nested domain [0, 1 - (k - 1) h]:
        # level 1 at the length for the 1-norms, level k >= 2 at the length
        # for k times the tighter norm bounds
        g1, g2 = self.norm_bounds(g)
        for (nodes, kept, length), k in zip(tables, sorted(levels)):
            if k == 1:
                assert nodes == kept == self.chebyshev_points(g)
            else:
                assert nodes == kept == _chebyshev_length(k * g1, k * g2)
            assert length == 1.0 - (k - 1) * h
            assert levels[k][1].shape[0] == kept
        phase = np.exp(-1j * tau * h * w)[:, None]
        eye = np.eye(w.size)
        for x in np.random.default_rng(94).uniform(0.0, levels[top][0], 50):
            direct = eye
            for k in range(1, top + 1):
                start = x + (k - 1) * h
                direct = phase * _exp_step(g[0] + start * (g[1] + start * g[2]), 1.0, direct)
                if k in levels:
                    (table,) = _chebyshev_values(levels[k], [x])
                    if k == 1:
                        table = phase * table
                    assert operator_norm(table - direct) <= 1e-14 * k

    @pytest.mark.parametrize("tau", [10.0, 1000.0])
    def test_exponentials_only_at_build(self, tau, monkeypatch):
        # each build forms one exponential per Chebyshev point; the 200 steps
        # none, and none is applied by a Taylor action
        calls, builds = [], []

        def counted_exp(gen):
            calls.append(gen)
            return _taylor_exponential(gen)

        def counted_build(*args):
            g = _magnus_generator(*args)
            builds.append(self.chebyshev_points(g))
            return g

        monkeypatch.setattr(slowdrive.propagation, "_taylor_exponential", counted_exp)
        monkeypatch.setattr(slowdrive.propagation, "_exp_step", None)
        monkeypatch.setattr(slowdrive.propagation, "_magnus_generator", counted_build)
        inst = scenario_instance("embedded_eigenvalue", grid_points=63, multiplicity=3)
        res = evolve(inst.h_o, inst.path, tau, self.GRID11)
        assert (res.scheme, res.steps) == ("magnus-filon", 200)
        assert len(builds) == 1
        assert len(calls) == sum(builds) < res.steps

    def magnus_nsubs(self, path, grid=GRID11):
        h = magnus_step(path.kappa, path.kappa_dot)
        return [max(1, math.ceil(x / h - 1e-9)) for x in np.diff(grid)]

    def test_matches_per_step_exponentials(self):
        inst = scenario_instance("embedded_eigenvalue", grid_points=63, multiplicity=3)
        tau = 1000.0
        res = evolve(inst.h_o, inst.path, tau, self.GRID11)
        ref = per_step_magnus_filon(
            inst.h_o.decomposition, inst.path, tau, self.GRID11, self.magnus_nsubs(inst.path)
        )
        assert res.steps == 200
        for u, r in zip(res.unitaries, ref):
            assert operator_norm(u - r) <= 1e-13

    @pytest.mark.parametrize("nsub", [1, 2, 3, 16, 17, 20, 33, 200])
    def test_block_edges_match_per_step_exponentials(self, nsub):
        # one interval in nsub steps, so m = nsub - 1 steps before the last:
        # no step before it, one, two (no level), 15 and 16 steps (level 2
        # only), the 19 of the 11-point grid's intervals, 32 (levels up to 4,
        # each once) and the 199 of [0, 1] at h_MF (level 16 twelve times,
        # then levels 4, 2 and 1)
        inst = scenario_instance("embedded_eigenvalue", grid_points=63, multiplicity=3)
        d, path, grid = inst.h_o.decomposition, inst.path, np.array([0.0, 1.0])
        drive = _eigenbasis_drive(d, path)
        (frame,) = _magnus_filon_states(d.column_values, drive, 100.0, grid, [nsub])
        ref = per_step_magnus_filon(d, path, 100.0, grid, [nsub])[1]
        assert operator_norm(d.vectors @ frame @ d.vectors.conj().T - ref) <= 1e-13

    def test_memory_stays_near_two_blocks(self):
        # the 200 steps of [0, 1] are one interval; forming all their step
        # matrices at once would take 200 dim^2 complex numbers (13.9 MB),
        # while the step tables and their work space stay within 64, the
        # bound that two blocks of 16 step matrices and their products held
        inst = scenario_instance("embedded_eigenvalue", grid_points=63, multiplicity=3)
        inst.h_o.decomposition
        tracemalloc.start()
        try:
            res = evolve(inst.h_o, inst.path, 100.0, np.array([0.0, 1.0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.scheme, res.steps) == ("magnus-filon", 200)
        bound = 4 * 16 * inst.h_o.dim**2 * 16
        assert peak - res.frames.nbytes < bound < res.steps * inst.h_o.dim**2 * 16

    def test_limit_matches_per_step_exponentials(self):
        inst = scenario_instance("pure_point_omega", dim=16, degenerate_pairs=4)
        d = inst.h_o.decomposition
        res = omega_infinity(d, inst.path, self.GRID11)
        bpath = block_diagonal_reference(d, inst.path)
        zero = HermitianOperator(np.zeros((16, 16))).decomposition
        ref = per_step_magnus_filon(zero, bpath, 1.0, self.GRID11, self.magnus_nsubs(bpath))
        assert res.scheme == "limit-magnus-filon"
        for u, r in zip(res.unitaries, ref):
            assert operator_norm(u - r) <= 1e-13

    def test_drift_still_enforced(self):
        inst = scenario_instance("pure_point_omega", dim=6)
        assert evolve(inst.h_o, inst.path, 10.0, GRID).scheme == "magnus-filon"
        with pytest.raises(PropagationError, match="drift"):
            evolve(inst.h_o, inst.path, 10.0, GRID, drift_tol=1e-18)


class TestScalarShift:
    """H_o + c 1 gives exp(-i tau s c) W at every grid point. The check needs
    no reference, so it reaches any tau; the shifted operator's eigh may
    pick another basis of a degenerate level."""

    @pytest.mark.parametrize(
        "grid", [np.linspace(0.0, 1.0, 11), FINE_GRID, jittered_grid()],
        ids=["11-point", "301-point", "jittered"],
    )
    @pytest.mark.parametrize(
        "name, params",
        [("embedded_eigenvalue", {"grid_points": 15, "multiplicity": 3}),
         ("pure_point_omega", {"dim": 16, "degenerate_pairs": 2})],
    )
    def test_shift_is_a_phase(self, name, params, grid):
        inst = scenario_instance(name, **params)
        eye = np.eye(inst.h_o.dim)
        for tau in (10.0, 1e3, 1e4):
            base = evolve(inst.h_o, inst.path, tau, grid)
            assert base.scheme == "magnus-filon"
            for c in (0.37, -1.3, 5.0):
                shifted = evolve(HermitianOperator(inst.h_o.matrix + c * eye), inst.path, tau, grid)
                phase = np.exp(-1j * tau * c * grid)[:, None, None]
                deviation = np.linalg.norm(shifted.unitaries - phase * base.unitaries, 2, (1, 2))
                assert deviation.max() <= 1e-13 + 5e-15 * tau


class TestChangeOfBasis:
    """For a unitary U, (U H_o U†, U A U†, U B U†) gives U W U† at every grid
    point. The check needs no reference, so it reaches any tau. eigh may pick
    another basis of a degenerate level, and the 1-norms that size the Taylor
    and Chebyshev sums are not unitarily invariant, so the agreement is to
    rounding."""

    @pytest.mark.parametrize(
        "grid", [np.linspace(0.0, 1.0, 11), FINE_GRID], ids=["11-point", "301-point"]
    )
    @pytest.mark.parametrize(
        "name, params",
        [("embedded_eigenvalue", {"grid_points": 15, "multiplicity": 3}),
         ("pure_point_omega", {"dim": 16, "degenerate_pairs": 2})],
    )
    def test_rotated_problem_gives_rotated_propagator(self, name, params, grid):
        inst = scenario_instance(name, **params)
        u = random_unitary(inst.h_o.dim, 96)
        uh = u.conj().T
        h_o = HermitianOperator(u @ inst.h_o.matrix @ uh)
        path = GeneratorPath.drive(u @ inst.path.a @ uh, u @ inst.path.b @ uh, None, None)
        for tau in (10.0, 1e2, 1e3, 1e4):
            base = evolve(inst.h_o, inst.path, tau, grid)
            rotated = evolve(h_o, path, tau, grid)
            assert base.scheme == rotated.scheme == "magnus-filon"
            deviation = np.linalg.norm(rotated.unitaries - u @ base.unitaries @ uh, 2, (1, 2))
            assert deviation.max() <= 1e-13 + 5e-15 * tau


def rotated_ramp(dim, degenerate_pairs, seed):
    """A pure point ramp problem with kappa = 1/2 (so kappa_dot <= 1), H_o,
    A and B rotated by one seeded unitary."""
    params = {"dim": dim, "degenerate_pairs": degenerate_pairs, "kappa": 0.5}
    cfg = ScenarioConfig("pure_point_omega", params=params, taus=(1.0,), metrics=(), seed=seed)
    inst = build_scenario(cfg)
    u = random_unitary(dim, seed)
    uh = u.conj().T
    h_o = HermitianOperator(u @ inst.h_o.matrix @ uh)
    return h_o, GeneratorPath.drive(u @ inst.path.a @ uh, u @ inst.path.b @ uh, None, None)


def direct_sum(x, y):
    """x ⊕ y, for two stacks of matrices of equal length."""
    n, m = x.shape[-1], y.shape[-1]
    out = np.zeros((*x.shape[:-2], n + m, n + m), dtype=complex)
    out[..., :n, :n] = x
    out[..., n:, n:] = y
    return out


class TestDirectSum:
    """Two problems evolved as one, (H_1 ⊕ H_2, A_1 ⊕ A_2, B_1 ⊕ B_2), give
    W_1 ⊕ W_2, and their limit evolutions Omega_1 ⊕ Omega_2. The combined
    eigenbasis interleaves the two spectra, which the one rotation of the
    drive and the same-level mask must keep apart; one problem has a
    degenerate pair. Both have kappa, kappa_dot <= 1, so all three take the
    same Magnus-Filon step, and the identity holds to rounding."""

    @pytest.mark.parametrize(
        "grid", [np.linspace(0.0, 1.0, 11), FINE_GRID], ids=["11-point", "301-point"]
    )
    def test_combined_problem_gives_the_direct_sum(self, grid):
        (h1, p1), (h2, p2) = rotated_ramp(6, 1, 3), rotated_ramp(5, 0, 4)
        h_o = HermitianOperator(direct_sum(h1.matrix, h2.matrix))
        path = GeneratorPath.drive(direct_sum(p1.a, p2.a), direct_sum(p1.b, p2.b), None, None)
        assert {magnus_step(p.kappa, p.kappa_dot) for p in (p1, p2, path)} == {MAGNUS_STEP}
        assert 2 in h_o.decomposition.multiplicities
        for tau in (10.0, 1e2, 1e3, 1e4):
            parts = [evolve(h, p, tau, grid) for h, p in ((h1, p1), (h2, p2))]
            whole = evolve(h_o, path, tau, grid)
            assert whole.scheme == "magnus-filon" and whole.steps == parts[0].steps
            want = direct_sum(parts[0].unitaries, parts[1].unitaries)
            deviation = np.linalg.norm(whole.unitaries - want, 2, (1, 2))
            assert deviation.max() <= 1e-13 + 5e-15 * tau
        parts = [omega_infinity(h.decomposition, p, grid) for h, p in ((h1, p1), (h2, p2))]
        whole = omega_infinity(h_o.decomposition, path, grid)
        want = direct_sum(parts[0].unitaries, parts[1].unitaries)
        assert np.linalg.norm(whole.unitaries - want, 2, (1, 2)).max() <= 1e-13


class TestTimeReversal:
    """On a grid symmetric about S/2 (S its last point), the reversed and
    conjugated drive G~(sigma) = conj G(S - sigma), the ramp (conj H_o,
    conj A + S conj B, -conj B), gives W~(sigma) = (W(S) W(S - sigma)†)^T.
    It is checked as W~(S - s)^T W(s) = W(S), a product of the two computed
    propagators, so that neither one's unitarity drift enters as it would
    through an adjoint. A Magnus step cut after Omega_2 is symmetric, so the
    identity holds to rounding and needs no reference. Unlike a change of
    basis, it reaches a fault that depends on the spectrum alone, such as a
    conjugate dropped in the Filon moments. Both problems are rotated by a
    complex unitary, since a real eigenbasis makes the conjugation
    trivial."""

    @pytest.mark.parametrize(
        "grid", [np.linspace(0.0, 1.0, 11), FINE_GRID], ids=["11-point", "301-point"]
    )
    @pytest.mark.parametrize(
        "name, params",
        [("embedded_eigenvalue", {"grid_points": 15, "multiplicity": 3}),
         ("pure_point_omega", {"dim": 16, "degenerate_pairs": 2})],
    )
    def test_reversed_drive_gives_reversed_propagator(self, name, params, grid):
        inst = scenario_instance(name, **params)
        u = random_unitary(inst.h_o.dim, 96)
        uh = u.conj().T
        h_o = HermitianOperator(u @ inst.h_o.matrix @ uh)
        a, b = u @ inst.path.a @ uh, u @ inst.path.b @ uh
        path = GeneratorPath.drive(a, b, None, None)
        end = grid[-1]
        reversed_h_o = HermitianOperator(h_o.matrix.conj())
        reversed_path = GeneratorPath.drive(a.conj() + end * b.conj(), -b.conj(), None, None)
        mirror = end - grid[::-1]
        for tau in (10.0, 1e2, 1e3, 1e4):
            forward = evolve(h_o, path, tau, grid)
            backward = evolve(reversed_h_o, reversed_path, tau, mirror)
            assert forward.scheme == backward.scheme == "magnus-filon"
            assert forward.steps == backward.steps
            w = forward.unitaries
            product = backward.unitaries[::-1].transpose(0, 2, 1) @ w
            deviation = np.linalg.norm(product - w[-1], 2, (1, 2))
            assert deviation.max() <= 1e-13 + 5e-15 * tau


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
        # the same drive as a ramp with a zero B is not marked constant, so at
        # an explicit step it takes the midpoint loop; both must agree at
        # every grid point
        inst = self.direct_sum_instance()
        grid = np.array([0.0, 0.5, 1.0])
        stepped = GeneratorPath.drive(inst.path.a, np.zeros_like(inst.path.a), None, None)
        for tau in (8.0, 64.0):
            exact = evolve(inst.h_o, inst.path, tau, grid)
            step = default_step(tau, inst.h_o.norm(), stepped.kappa)
            mid = evolve(inst.h_o, stepped, tau, grid, step=step)
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

    def test_load_re_measures_the_matrices(self, tmp_path):
        # the stored max_drift is not trusted: a matrix scaled after save is
        # refused when the file loads
        res = evolve(random_hermitian(3, 4), seeded_pair_path(3, 0.5, 6), 10.0, GRID)
        p = tmp_path / "run_test_10.prop"
        res.save(p)
        text = p.read_text()
        assert json.loads(text.splitlines()[0])["max_drift"] <= 1e-12
        last = format_matrix(res.unitaries[-1])
        assert text.count(last) == 1
        p.write_text(text.replace(last, format_matrix(1.1 * res.unitaries[-1])))
        with pytest.raises(PropagationError, match="at s=1.0"):
            PropagatorResult.load(p)

    def test_nan_unitary_refused(self):
        nan = np.full((2, 2), np.nan, dtype=complex)
        eye = np.eye(2, dtype=complex)
        grid = np.array([0.0, 1.0])
        with pytest.raises(PropagationError, match=r"drift nan exceeds 1e-08 at s=1.0 \(x, "):
            PropagatorResult(tau=1.0, s_grid=grid, frames=[eye, nan], step=0.1, scheme="x")
        with pytest.raises(ValueError, match="identity"):
            PropagatorResult(tau=1.0, s_grid=grid, frames=[nan, eye], step=0.1, scheme="x")

    @pytest.mark.parametrize(
        "drive, step, scheme",
        [("ramp", None, "magnus-filon"), ("ramp", 1e-3, "midpoint-exponential"),
         ("constant", None, "exact-constant")],
    )
    def test_max_drift_is_the_largest_measured(self, drive, step, scheme):
        h = random_hermitian(6, 2)
        path = seeded_pair_path(6, 1.0, 3)
        if drive == "constant":
            path = GeneratorPath.constant(path.a)
        res = evolve(h, path, 50.0, GRID, step=step)
        assert res.scheme == scheme
        assert res.max_drift == max(unitarity_drift(u) for u in res.frames)

    def test_drift_invariant_enforced(self):
        bad = np.stack([np.eye(2), np.eye(2) * 1.1]).astype(complex)
        with pytest.raises(PropagationError):
            PropagatorResult(
                tau=1.0, s_grid=np.array([0.0, 1.0]), frames=bad,
                step=0.1, scheme="x",
            )

    def test_must_start_at_identity(self):
        stack = np.stack([1j * np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="identity"):
            PropagatorResult(
                tau=1.0, s_grid=np.array([0.0, 1.0]), frames=stack,
                step=0.1, scheme="x",
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

    @pytest.mark.parametrize("stored", ["evolved", "standard basis"])
    def test_family_is_omega_in_the_eigenbasis(self, stored):
        # comparison_family gives V† Omega(s, 0) V, whichever basis holds W
        h = random_hermitian(5, 12)
        res = evolve(h, seeded_pair_path(5, 1.0, 13), 30.0, GRID)
        if stored != "evolved":
            res = PropagatorResult(
                tau=res.tau, s_grid=res.s_grid, frames=res.unitaries, step=res.step,
                scheme=res.scheme,
            )
        v = h.decomposition.vectors
        for s, om in zip(GRID, comparison_family(h, res)):
            ref = comparison_operator(h, res, s, 0.0).matrix
            assert operator_norm(v @ om @ v.conj().T - ref) <= 1e-12


class TestDimensionCheck:
    """Every entry point that takes H_o and a drive refuses a drive of
    another dimension with one line, before any numpy product can fail."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda h, p: evolve(h, p, 1.0, GRID),
            lambda h, p: dyson_term(h, p, 1.0, 1, 1.0, 0.0, 64),
            lambda h, p: dyson_series(h, p, 1.0, 1.0, 0.0, order=2, quad_points=64),
            lambda h, p: frame_reconstruction_residual(h, p, 1.0, n_steps=8),
        ],
        ids=["evolve", "dyson_term", "dyson_series", "frame_reconstruction_residual"],
    )
    def test_mismatch_refused(self, call):
        path = GeneratorPath.drive(pauli("z"), pauli("x"), None, None)
        with pytest.raises(ValueError, match=r"^path dimension 2 != operator dimension 3$"):
            call(random_hermitian(3, 0), path)


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
        with pytest.warns(DysonResolutionWarning) as record:
            exp = dyson_series(h, p, 200.0, 1.0, 0.0, order=2, quad_points=32)
            dyson_term(h, p, 200.0, 2, 1.0, 0.0, 32)
        assert exp.warnings
        # both point at their caller
        assert [w.filename for w in record] == [__file__, __file__]

    @pytest.mark.parametrize(
        "order, t, s, message",
        [(9, 1.0, 0.0, "order > 8 is rejected (cost guard)"), (2, 0.0, 1.0, "requires s <= t")],
    )
    def test_term_and_series_share_their_checks(self, order, t, s, message):
        h = random_hermitian(2, 3)
        p = GeneratorPath.constant(pauli("x"))
        with pytest.raises(ValueError) as term:
            dyson_term(h, p, 1.0, order, t, s, 64)
        with pytest.raises(ValueError) as series:
            dyson_series(h, p, 1.0, t, s, order=order, quad_points=64)
        assert str(term.value) == str(series.value) == message

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
        m = mollify(p, MollifierSpec(0.05))
        for s in (0.0, 0.31, 0.5, 1.0):
            assert operator_norm(m(s) - 0.3 * pauli("y")) <= 1e-15

    def test_step_l1_deviation_bounded(self):
        # int ||L_eps - L|| <= eps * ||jump|| * c_phi with c_phi <= 1
        eps = 0.02
        p = step_path(pauli("z"), pauli("x"), at=0.5)
        m = mollify(p, MollifierSpec(eps))
        fine = np.linspace(0, 1, 2001)
        vals = [operator_norm(m(s) - p(s)) for s in fine]
        l1 = float(np.trapezoid(vals, fine))
        jump = operator_norm(pauli("x") - pauli("z"))
        assert l1 <= eps * jump
        assert l1 > 0.1 * eps * jump  # the smoothing is real, not degenerate

    def test_propagator_deviation_bound(self):
        # sup_{s, tau} ||W_eps - W|| <= int ||L_eps - L|| + 2 * step budget
        h = random_hermitian(4, 50)
        p = step_path(np.kron(np.eye(2), pauli("z")), np.kron(np.eye(2), pauli("x")))
        m = mollify(p, MollifierSpec(0.05))
        fine = np.linspace(0, 1, 1001)
        l1 = float(np.trapezoid([operator_norm(m(s) - p(s)) for s in fine], fine))
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

    def test_constant_path_stays_exact(self):
        m = mollify(GeneratorPath.constant(0.3 * pauli("y")), MollifierSpec(0.05))
        assert evolve(random_hermitian(2, 1), m, 5.0, GRID).scheme == "exact-constant"

    def test_mollified_sample_is_profile_form(self, monkeypatch):
        # A + p_eps(s) B, with p_eps the bump's distribution function; the
        # raw step profile is never evaluated
        raw = step_path(pauli("z"), pauli("x"), at=0.5)
        m = mollify(raw, MollifierSpec(0.1))
        called = []
        profile = GeneratorPath.profile
        monkeypatch.setattr(
            GeneratorPath, "profile", lambda f, s: called.append(f) or profile(f, s)
        )
        for s in (0.0, 0.41, 0.5, 0.55, 0.63, 1.0):
            want = raw.a + profile(m, s) * raw.b
            assert np.array_equal(m(s), want)
        assert called and all(f.mollifier is not None for f in called)
        cdf = quad(default_bump, -1.0, 0.5)[0]
        assert profile(m, 0.55) == pytest.approx(cdf, abs=1e-9)
        assert (profile(m, 0.39), profile(m, 0.61)) == (0.0, 1.0)

    def test_only_step_and_constant_drives(self):
        with pytest.raises(ValueError, match="step drive"):
            mollify(seeded_pair_path(3, 1.0, 2), MollifierSpec(0.1))
        mollified = mollify(step_path(pauli("z"), pauli("x")), MollifierSpec(0.1))
        with pytest.raises(ValueError, match="step drive"):
            mollify(mollified, MollifierSpec(0.1))

    def test_mollified_path_is_c1(self):
        m = mollify(step_path(pauli("z"), pauli("x")), MollifierSpec(0.1))
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
        # Lambda(s) = (1 - 2s) sz: V(s) = exp(-i (s - s^2) sz)
        path = GeneratorPath.drive(pauli("z"), -2.0 * pauli("z"), None, None)
        res = interaction_frame(path, GRID, step=1e-4)
        for s in GRID:
            integral = s - s * s
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
        sub_path = GeneratorPath.drive(path.a[:2, :2], path.b[:2, :2], None, None)
        sub_v = interaction_frame(sub_path, GRID, step=1e-4)
        for a, b in zip(oi.unitaries, sub_v.unitaries):
            assert operator_norm(a[:2, :2] - b) <= 1e-8

    def test_constant_drive_is_exact(self):
        d = hermitian_eigendecomposition(HermitianOperator(np.diag([0.0, 1.0, 1.0])))
        res = omega_infinity(d, GeneratorPath.constant(random_hermitian(3, 71).matrix), GRID)
        assert res.scheme == "limit-exact-constant"

    def test_steps_at_the_parent_metadata(self):
        # masking is a pinching, so the parent's bounds carry over as they
        # are; bounds derived again from the masked A and B would move h_MF
        inst = scenario_instance("pure_point_omega", dim=16, degenerate_pairs=4)
        d, path = inst.h_o.decomposition, inst.path
        own = GeneratorPath.drive(block_compress(d, path.a), block_compress(d, path.b), None, None)
        assert own.kappa < path.kappa
        h_mf = magnus_step(path.kappa, path.kappa_dot)
        res = omega_infinity(d, path, TestMagnusFilon.GRID11)
        assert res.scheme == "limit-magnus-filon" and res.basis is d
        assert res.step <= h_mf * (1 + 1e-9) and res.steps == sum(
            max(1, math.ceil(x / h_mf - 1e-9)) for x in np.diff(TestMagnusFilon.GRID11)
        )

    def test_zero_operator_shared_per_dim(self, monkeypatch):
        # omega_infinity and interaction_frame evolve under one zero H_o per dim
        seen = []

        def recorded(h_o, *args, **kwargs):
            seen.append(h_o)
            return evolve(h_o, *args, **kwargs)

        monkeypatch.setattr(slowdrive.propagation, "evolve", recorded)
        d = hermitian_eigendecomposition(HermitianOperator(np.diag([0.0, 1.0, 1.0])))
        path = seeded_pair_path(3, 1.0, 72)
        omega_infinity(d, path, GRID)
        interaction_frame(path, GRID)
        interaction_frame(seeded_pair_path(2, 1.0, 73), GRID)
        assert seen[0] is seen[1] and seen[0].dim == 3
        assert seen[2].dim == 2 and not seen[2].matrix.any()

    def test_commutes_with_h(self):
        h = random_hermitian(6, 80)
        d = hermitian_eigendecomposition(h)
        path = seeded_pair_path(6, 1.0, 81)
        oi = omega_infinity(d, path, GRID)
        for u in oi.unitaries:
            assert operator_norm(u @ h.matrix - h.matrix @ u) <= 1e-9 * h.norm()
