import dataclasses

import numpy as np
import pytest

from slowdrive.operators import (
    EigensolverError,
    HermitianOperator,
    OperatorError,
    UnitaryOperator,
    direct_sum,
    format_matrix,
    hermitian_eigendecomposition,
    operator_norm,
    parse_matrix,
    pauli,
    read_matrix,
    unitary_exponential,
    write_matrix,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((g + g.conj().T) / 2)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestHermitianOperator:
    def test_symmetrized_exactly(self):
        a = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 2e-14j, 2.0]])
        h = HermitianOperator(a)
        assert np.array_equal(h.matrix, h.matrix.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(OperatorError, match="not Hermitian"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(OperatorError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(OperatorError, match="finite"):
            HermitianOperator(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_matrix_is_read_only(self):
        h = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0


class TestUnitaryOperator:
    def test_drift_measured(self):
        u = UnitaryOperator(np.diag([1.0, 1j]))
        assert u.drift <= 1e-15

    def test_rejects_drifted(self):
        with pytest.raises(OperatorError, match="drift"):
            UnitaryOperator(np.diag([1.0, 1.1]))

    def test_custom_tolerance_admits(self):
        u = UnitaryOperator(np.diag([1.0, 1.0 + 1e-5]), drift_tol=1e-4)
        assert u.drift > 1e-8


class TestEigendecomposition:
    def test_diagonal_with_degeneracy(self):
        d = hermitian_eigendecomposition(HermitianOperator(np.diag([0.0, 0.0, 1.0])), cluster_tol=0.0)
        assert [(lv.eigenvalue, lv.multiplicity) for lv in d.levels] == [(0.0, 2), (1.0, 1)]

    def test_pauli_z_projections(self):
        d = hermitian_eigendecomposition(HermitianOperator(pauli("z")))
        assert [(lv.eigenvalue, lv.multiplicity) for lv in d.levels] == [(-1.0, 1), (1.0, 1)]
        assert np.allclose(d.levels[0].projection, (np.eye(2) - pauli("z")) / 2, atol=1e-14)
        assert np.allclose(d.levels[1].projection, (np.eye(2) + pauli("z")) / 2, atol=1e-14)

    def test_reconstruction_residual_seeded(self):
        h = random_hermitian(8, seed=42)
        d = hermitian_eigendecomposition(h)
        rebuilt = sum(lv.eigenvalue * lv.projection for lv in d.levels)
        assert operator_norm(rebuilt - h.matrix) <= 1e-10 * h.norm()

    def test_cluster_merging(self):
        h = HermitianOperator(np.diag([0.0, 1e-12, 1.0]))
        d = hermitian_eigendecomposition(h, cluster_tol=1e-9)
        assert [lv.multiplicity for lv in d.levels] == [2, 1]

    def test_negative_cluster_tol_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eigendecomposition(HermitianOperator(np.eye(2)), cluster_tol=-1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariants_seeded(self, seed):
        # sum P = 1, P_E P_E' = delta P_E, H = sum E P_E, all at 1e-10.
        h = random_hermitian(12, seed=seed)
        d = hermitian_eigendecomposition(h)
        total = sum(lv.projection for lv in d.levels)
        assert operator_norm(total - np.eye(12)) <= 1e-10
        for i, a in enumerate(d.levels):
            assert operator_norm(a.projection @ a.projection - a.projection) <= 1e-10
            for b in d.levels[i + 1 :]:
                assert operator_norm(a.projection @ b.projection) <= 1e-10


class TestDecompositionValidation:
    def test_non_orthonormal_vectors_rejected(self):
        d = hermitian_eigendecomposition(random_hermitian(6, 90))
        v = np.array(d.vectors)
        v[:, 0] *= 1.0 + 1e-6
        with pytest.raises(EigensolverError, match="orthonormal"):
            dataclasses.replace(d, vectors=v)

    def test_wrong_reconstruction_rejected(self):
        d = hermitian_eigendecomposition(random_hermitian(6, 91))
        values = np.array(d.eigenvalues)
        values[-1] += 1e-6
        with pytest.raises(EigensolverError, match="reconstruction"):
            dataclasses.replace(d, eigenvalues=values)

    def test_unseparated_levels_rejected(self):
        d = hermitian_eigendecomposition(random_hermitian(6, 92))
        widest = float(np.diff(d.eigenvalues).max())
        with pytest.raises(EigensolverError, match="separated"):
            dataclasses.replace(d, cluster_tol=widest)

    def test_slices_must_partition_the_columns(self):
        d = hermitian_eigendecomposition(HermitianOperator(np.diag([0.0, 0.0, 1.0])))
        with pytest.raises(EigensolverError, match="partition"):
            dataclasses.replace(d, offsets=(0, 1, 2))

    def test_levels_are_eigenvector_slices(self):
        d = hermitian_eigendecomposition(HermitianOperator(np.diag([2.0, 0.0, 0.0])))
        assert [lv.vectors.shape for lv in d.levels] == [(3, 2), (3, 1)]
        assert d.offsets == (0, 2, 3)
        assert np.allclose(d.levels[0].projection, np.diag([0.0, 1.0, 1.0]), atol=1e-15)

    def test_dense_dim_256_reconstructs(self):
        h = random_hermitian(256, 93)
        d = hermitian_eigendecomposition(h)
        assert len(d.levels) == 256
        rebuilt = d.compose(d.eigenvalues)
        assert operator_norm(rebuilt - h.matrix) <= 1e-10 * h.norm()

    def test_one_eigh_per_operator(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        h = random_hermitian(5, 94)
        h.norm()
        hermitian_eigendecomposition(h)
        unitary_exponential(h, 0.3)
        assert len(calls) == 1


class TestUnitaryExponential:
    def test_diagonal_phases(self):
        t = 0.7321
        u = unitary_exponential(HermitianOperator(pauli("z")), t)
        assert np.allclose(u.matrix, np.diag([np.exp(-1j * t), np.exp(1j * t)]), atol=1e-14)

    def test_zero_time_identity(self):
        u = unitary_exponential(random_hermitian(6, 3), 0.0)
        assert np.allclose(u.matrix, np.eye(6), atol=1e-14)

    def test_pauli_x_quarter_turn_vs_series(self):
        # closed form exp(-i theta sx) = cos(theta) 1 - i sin(theta) sx,
        # cross-checked against a truncated power series oracle
        h = HermitianOperator(pauli("x"))
        u = unitary_exponential(h, np.pi / 2)
        assert np.allclose(u.matrix, -1j * pauli("x"), atol=1e-12)
        series = np.zeros((2, 2), dtype=complex)
        term = np.eye(2, dtype=complex)
        for k in range(1, 40):
            series += term
            term = term @ (-1j * (np.pi / 2) * pauli("x")) / k
        assert np.allclose(u.matrix, series, atol=1e-12)

    @pytest.mark.parametrize("dim,seed", [(2, 0), (16, 1), (64, 2)])
    def test_group_law(self, dim, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(dim, seed + 10)
        d = hermitian_eigendecomposition(h)
        for _ in range(3):
            t1, t2 = rng.uniform(-1e3, 1e3, 2)
            u1 = unitary_exponential(h, t1, d).matrix
            u2 = unitary_exponential(h, t2, d).matrix
            u12 = unitary_exponential(h, t1 + t2, d).matrix
            assert operator_norm(u1 @ u2 - u12) <= 1e-9


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-14)

    def test_swap_perturbation_norm(self):
        # (1/n)(|0><0| - |n><n|) has norm exactly 1/n
        for n in (2, 4, 8):
            dim = n + 1
            a = np.zeros((dim, dim))
            a[0, 0] = 1.0 / n
            a[n, n] = -1.0 / n
            assert operator_norm(a) == pytest.approx(1.0 / n, abs=1e-14)

    def test_against_power_iteration(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        v /= np.linalg.norm(v)
        m = a.conj().T @ a
        for _ in range(3000):
            v = m @ v
            v /= np.linalg.norm(v)
        sigma = np.sqrt(np.real(v.conj() @ (m @ v)))
        assert operator_norm(a) == pytest.approx(sigma, abs=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_unitarily_invariant(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        u = random_unitary(8, seed + 20)
        v = random_unitary(8, seed + 40)
        assert abs(operator_norm(u @ a @ v) - operator_norm(a)) <= 1e-10 * operator_norm(a)


class TestMatrixTextFormat:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = parse_matrix(format_matrix(a))
        assert np.array_equal(a, b)  # %.17g reproduces doubles exactly

    def test_header(self):
        text = format_matrix(np.eye(3))
        assert text.splitlines()[0] == "dim 3"

    def test_file_roundtrip(self, tmp_path):
        a = np.array([[1 + 2j, 0], [0, -1e-300 + 5e12j]])
        p = tmp_path / "m.txt"
        write_matrix(p, a)
        assert np.array_equal(read_matrix(p), a)

    def test_rejects_bad_header(self):
        with pytest.raises(OperatorError):
            parse_matrix("3\n1 0 0\n0 1 0\n0 0 1")

    def test_rejects_short_rows(self):
        with pytest.raises(OperatorError):
            parse_matrix("dim 2\n1+0j\n0+0j 1+0j")


def test_direct_sum_layout():
    out = direct_sum([pauli("z"), 2 * pauli("x")])
    assert out.shape == (4, 4)
    assert np.array_equal(out[:2, :2], pauli("z"))
    assert np.array_equal(out[2:, 2:], 2 * pauli("x"))
    assert not out[:2, 2:].any()
