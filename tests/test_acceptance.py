"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line (visible with -s or in captured output on failure).

The heavy tau sweeps share module-scoped fixtures; criterion 10 audits the
unitarity drift of every propagation produced here plus spectral
reconstruction residuals across fresh seeds.
"""

import math

import numpy as np
import pytest

from slowdrive.diagnostics import (
    embedded_eigenprojection_decay,
    heisenberg_distance_norm,
    heisenberg_distance_sot,
    offdiagonal_block_decay,
    rate_fit,
    resolvent_distance,
    schrodinger_limit_distance,
)
from slowdrive.operators import (
    HermitianOperator,
    hermitian_eigendecomposition,
    operator_norm,
    pauli,
)
from slowdrive.propagation import (
    MollifierSpec,
    comparison_operator,
    dyson_series,
    evolve,
    mollify,
    omega_infinity,
    richardson_error,
)
from slowdrive.scenarios import ScenarioConfig, build_scenario, step_path
from slowdrive.spectral import (
    calculus_bv,
    calculus_continuous,
    fermi_dirac,
    kronecker_delta,
    step_function,
)

from test_operators import random_hermitian

TAU_GRID = tuple(10.0**e for e in (2.0, 2.5, 3.0, 3.5, 4.0))
S_GRID = np.linspace(0.0, 1.0, 11)

# criterion 10 audits every evolution produced by the suite
DRIFT_LOG: list[tuple[str, float]] = []


def _evolve(tag, h_o, path, tau, s_grid, step=None):
    res = evolve(h_o, path, tau, s_grid, step=step)
    DRIFT_LOG.append((f"{tag}/tau={tau:g}", res.max_drift))
    return res


@pytest.fixture(scope="module")
def embedded_instance():
    cfg = ScenarioConfig(
        scenario="embedded_eigenvalue",
        params={"grid_points": 63, "multiplicity": 1},
        taus=TAU_GRID, s_grid=tuple(S_GRID), metrics=(), seed=11,
    )
    return build_scenario(cfg)


@pytest.fixture(scope="module")
def embedded_runs(embedded_instance):
    inst = embedded_instance
    return {tau: _evolve("embedded", inst.h_o, inst.path, tau, S_GRID) for tau in TAU_GRID}


@pytest.fixture(scope="module")
def pure_point_instance():
    cfg = ScenarioConfig(
        scenario="pure_point_omega", params={"dim": 16}, taus=TAU_GRID,
        s_grid=tuple(S_GRID), metrics=(), seed=0,
    )
    return build_scenario(cfg)


@pytest.fixture(scope="module")
def pure_point_runs(pure_point_instance):
    inst = pure_point_instance
    taus = TAU_GRID + (10.0,)
    return {tau: _evolve("pure_point", inst.h_o, inst.path, tau, S_GRID) for tau in taus}


def test_criterion_01_resolvent_inverse_tau_law(embedded_instance, embedded_runs):
    # rate_fit slope in [-1.1, -0.9]; the bound with the constant fitted on
    # the smallest decade holds at all larger tau (z = i).
    inst = embedded_instance
    rows = []
    for tau in TAU_GRID:
        rec = resolvent_distance(inst.h_o, embedded_runs[tau], 1j, inst.path)
        assert rec.bound_ok is True
        rows.append((tau, rec.sup))
    fit = rate_fit(rows)
    assert -1.1 <= fit.slope <= -0.9
    decade = [(t, v) for t, v in rows if t <= 1000.0 * (1 + 1e-9)]
    c_fit = max(v * t for t, v in decade)  # (Im z)^2 = 1
    for t, v in rows:
        if t > 1000.0:
            assert v <= c_fit / t
    print(f"PASS criterion 1: resolvent slope {fit.slope:+.4f} in [-1.1,-0.9]; "
          f"decade-fitted C={c_fit:.4f} bounds all larger tau")


def test_criterion_02_offdiagonal_block_decay(pure_point_instance, pure_point_runs):
    # seeded 16-dim, delta = 0.5: slope in [-1.15, -0.85], both block orders.
    inst = pure_point_instance
    rows12, rows21 = [], []
    for tau in TAU_GRID:
        rec = offdiagonal_block_decay(
            inst.h_o, pure_point_runs[tau], -0.25, 0.25, 1.0, 0.0,
        )
        rows12.append((tau, rec.value_low_high))
        rows21.append((tau, rec.value_high_low))
    f12, f21 = rate_fit(rows12), rate_fit(rows21)
    assert -1.15 <= f12.slope <= -0.85
    assert -1.15 <= f21.slope <= -0.85
    print(f"PASS criterion 2: off-diagonal decay slopes {f12.slope:+.4f} / "
          f"{f21.slope:+.4f} (interchanged) in [-1.15,-0.85]")


def test_criterion_03_embedded_sot_convergence():
    # multiplicity 3 at E=0, 8 seeded vectors: sup_s distance at tau=1e4
    # is at most 0.2x its value at tau=10, for every vector.
    cfg = ScenarioConfig(
        scenario="embedded_eigenvalue",
        params={"grid_points": 63, "multiplicity": 3},
        taus=(10.0, 1e4), s_grid=tuple(S_GRID), metrics=(), seed=11,
    )
    inst = build_scenario(cfg)
    sups = {}
    for tau in (10.0, 1e4):
        res = _evolve("embedded-m3", inst.h_o, inst.path, tau, S_GRID)
        recs = embedded_eigenprojection_decay(
            inst.h_o, res, 0.0, inst.vectors
        )
        sups[tau] = {r.vector_id: r.projection_sup for r in recs}
    ratios = {k: sups[1e4][k] / sups[10.0][k] for k in sups[10.0]}
    assert len(ratios) == 8
    assert all(r <= 0.2 for r in ratios.values()), ratios
    print(f"PASS criterion 3: embedded-eigenvalue SOT decay, worst per-vector "
          f"ratio {max(ratios.values()):.4f} <= 0.2")


def test_criterion_04_norm_failure_counterexample():
    # direct sum, N=64: norm metric at tau=n, s=0.5 stays above
    # 0.9 * (1/sqrt2)|sin(sqrt2/2)| while the block-1 SOT metric at tau=64
    # drops below 0.05.
    cfg = ScenarioConfig(
        scenario="direct_sum_counterexample", params={"blocks": 64},
        taus=(8.0, 16.0, 32.0, 64.0), s_grid=(0.0, 0.5, 1.0), metrics=(), seed=1,
    )
    inst = build_scenario(cfg)
    floor = 0.9 * (1.0 / math.sqrt(2.0)) * abs(math.sin(math.sqrt(2.0) / 2.0))
    assert floor == pytest.approx(0.4134, abs=5e-4)
    p_neg = inst.observable("negative_energies")
    grid = np.array([0.0, 0.5, 1.0])
    sot_at_64 = None
    norm_values = {}
    for tau in (8.0, 16.0, 32.0, 64.0):
        res = _evolve("direct-sum", inst.h_o, inst.path, tau, grid)
        values, _ = heisenberg_distance_norm(inst.h_o, res, p_neg)
        norm_values[tau] = float(values[1])
        assert values[1] >= floor, (tau, values[1])
        if tau == 64.0:
            _, sups = heisenberg_distance_sot(res, p_neg, inst.vectors)
            sot_at_64 = float(sups[inst.vectors.labels.index("block1_up")])
    assert sot_at_64 <= 0.05
    print(f"PASS criterion 4: norm metric at s=0.5 stays >= {floor:.4f} "
          f"(values {sorted(set(round(v, 4) for v in norm_values.values()))}), "
          f"block-1 SOT at tau=64 is {sot_at_64:.4f} <= 0.05")


def test_criterion_05_swap_demonstration():
    # M=32: ||V_n H V_n^+ - H|| = 1/n to 1e-12 for n in {2,4,8,16} while
    # ||(V_n P0 V_n^+ - P0)|0>|| = 1 for every n.
    cfg = ScenarioConfig(
        scenario="swap_sequence", params={"half_width": 32},
        taus=(2.0, 4.0, 8.0, 16.0), s_grid=(0.0, 1.0), metrics=(), seed=0,
    )
    inst = build_scenario(cfg)
    h = inst.h_o.matrix
    p0 = inst.observable("p_zero").matrix
    e0 = inst.vectors.vectors[inst.vectors.labels.index("e0")]
    for n in (2, 4, 8, 16):
        v = inst.static_family(n)
        shift = operator_norm(v @ h @ v.conj().T - h)
        assert abs(shift - 1.0 / n) <= 1e-12
        sot = float(np.linalg.norm((v @ p0 @ v.conj().T - p0) @ e0))
        assert abs(sot - 1.0) <= 1e-12
    print("PASS criterion 5: ||V_n H V_n^+ - H|| = 1/n to 1e-12 for n in "
          "{2,4,8,16}; the conjugated projection stays at unit distance from "
          "P0 on |0> for every n (no SOT convergence to P0)")


def test_criterion_06_bv_calculus_consistency():
    # 20 seeded spectra; step, point mass, Fermi (beta 1 and 10), and a
    # step+Fermi sum all agree with the direct functional calculus to 1e-8.
    worst = 0.0
    for seed in range(20):
        dim = 4 + (seed * 3) % 61  # spread across 4..64
        d = hermitian_eigendecomposition(random_hermitian(dim, 1000 + seed))
        eigs = d.eigenvalues
        e_step = float(eigs[len(eigs) // 2])
        e_delta = float(eigs[len(eigs) // 3])
        functions = [
            step_function(e_step),
            kronecker_delta(e_delta),
            fermi_dirac(0.0, 1.0),
            fermi_dirac(0.0, 10.0),
            step_function(e_step) + fermi_dirac(0.0, 1.0),
        ]
        for f in functions:
            got = calculus_bv(d, f)
            want = calculus_continuous(d, f)
            worst = max(worst, operator_norm(got.matrix - want.matrix))
    assert worst <= 1e-8
    print(f"PASS criterion 6: BV calculus matches direct calculus on 20 seeded "
          f"spectra x 5 function classes, worst deviation {worst:.2e} <= 1e-8")


def test_criterion_07_dyson_oracle():
    # dim 4, kappa = 1, tau = 50: the order-8 partial sum agrees with the ODE
    # comparison operator within the scalar tail bound plus 1e-5.
    from slowdrive.scenarios import seeded_pair_path

    h = random_hermitian(4, 9)
    h = HermitianOperator(h.matrix / h.norm())
    path = seeded_pair_path(4, 1.0, seed=123)
    tau = 50.0
    series = dyson_series(h, path, tau, 1.0, 0.0, order=8, quad_points=32768)
    assert not series.warnings
    res = _evolve("dyson", h, path, tau, np.array([0.0, 1.0]), step=2e-4)
    omega = comparison_operator(h, res, 1.0, 0.0)
    diff = operator_norm(series.approx.matrix - omega.matrix)
    allowance = series.remainder_bound + 1e-5
    assert diff <= allowance
    tail_direct = math.e - sum(1.0 / math.factorial(n) for n in range(9))
    assert series.remainder_bound == pytest.approx(tail_direct, rel=1e-6)
    print(f"PASS criterion 7: |Dyson partial sum - Omega| = {diff:.3e} <= "
          f"{allowance:.3e} (tail {series.remainder_bound:.3e} + 1e-5)")


def test_criterion_08_pure_point_limit(pure_point_instance, pure_point_runs):
    # nondegenerate dim 16: per-vector sup_s ||(Omega_tau - Omega_inf) psi||
    # decays by 5x from tau=10 to tau=1e4; Omega_inf commutes with H_o.
    inst = pure_point_instance
    oinf = omega_infinity(inst.h_o.decomposition, inst.path, S_GRID)
    h_norm = inst.h_o.norm()
    comm = max(
        operator_norm(u @ inst.h_o.matrix - inst.h_o.matrix @ u) for u in oinf.unitaries
    )
    assert comm <= 1e-9 * h_norm
    sups = {}
    for tau in (10.0, 1e4):
        recs = schrodinger_limit_distance(
            inst.h_o, pure_point_runs[tau], oinf, inst.vectors, inst.path
        )
        sups[tau] = {r.vector_id: r.distance_sup for r in recs}
    ratios = {k: sups[1e4][k] / sups[10.0][k] for k in sups[10.0]}
    assert all(r <= 0.2 for r in ratios.values()), ratios
    print(f"PASS criterion 8: limit-evolution decay worst ratio "
          f"{max(ratios.values()):.4f} <= 0.2; commutant defect {comm:.2e} "
          f"<= 1e-9*||H_o||")


def test_criterion_09_mollifier_contract():
    # step drive, eps in {0.05, 0.01}: sup over the s-grid and tau in
    # {10,100,1000} of ||W_eps - W|| <= measured int ||L_eps - L|| + 2x the
    # Richardson step-error budget.
    h = random_hermitian(4, 50)
    h = HermitianOperator(h.matrix / h.norm())
    before = np.kron(np.eye(2), pauli("z"))
    after = np.kron(np.eye(2), pauli("x"))
    path = step_path(before, after, at=0.5)
    grid = np.linspace(0.0, 1.0, 11)
    fine = np.linspace(0.0, 1.0, 2001)
    for eps in (0.05, 0.01):
        meps = mollify(path, MollifierSpec(eps))
        diffs = [operator_norm(meps(s) - path(s)) for s in fine]
        l1 = float(np.trapezoid(diffs, fine))
        assert l1 <= eps * operator_norm(after - before)
        worst, budget = 0.0, 0.0
        for tau in (10.0, 100.0, 1000.0):
            raw, err_raw = richardson_error(h, path, tau, grid)
            mol, err_mol = richardson_error(h, meps, tau, grid)
            DRIFT_LOG.append((f"mollifier-raw/tau={tau:g}", raw.max_drift))
            DRIFT_LOG.append((f"mollifier-eps{eps}/tau={tau:g}", mol.max_drift))
            budget = max(budget, err_raw, err_mol)
            worst = max(
                worst,
                max(operator_norm(a - b) for a, b in zip(raw.unitaries, mol.unitaries)),
            )
        assert worst <= l1 + 2 * budget, (eps, worst, l1, budget)
        print(f"PASS criterion 9 (eps={eps}): sup ||W_eps - W|| = {worst:.5f} "
              f"<= {l1:.5f} + 2*{budget:.2e}")


def test_criterion_10_global_hygiene():
    # every unitary produced by the suite drifted at most 1e-8; spectral
    # decompositions reconstruct their operators to 1e-10 relative error.
    if not DRIFT_LOG:  # standalone selection: audit fresh runs instead
        from slowdrive.scenarios import seeded_pair_path

        for tau in (10.0, 1000.0):
            _evolve("hygiene", random_hermitian(8, 1), seeded_pair_path(8, 1.0, 2), tau, S_GRID)
    worst_tag, worst = max(DRIFT_LOG, key=lambda kv: kv[1])
    assert worst <= 1e-8, (worst_tag, worst)
    worst_rec = 0.0
    for seed in range(12):
        dim = 3 + (7 * seed) % 62
        h = random_hermitian(dim, 4000 + seed)
        d = hermitian_eigendecomposition(h)
        rebuilt = sum(lv.eigenvalue * lv.projection for lv in d.levels)
        worst_rec = max(worst_rec, operator_norm(rebuilt - h.matrix) / max(h.norm(), 1e-300))
    assert worst_rec <= 1e-10
    print(f"PASS criterion 10: {len(DRIFT_LOG)} evolutions audited, max drift "
          f"{worst:.2e} ({worst_tag}) <= 1e-8; worst reconstruction residual "
          f"{worst_rec:.2e} <= 1e-10 relative")
