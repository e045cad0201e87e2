import math

import numpy as np
import pytest

from rtnqubit import (
    NotAStateError,
    bloch_to_density,
    density_to_bloch,
    hermitian_eigenvalues,
    pauli,
)

from helpers import bell_projector

RNG = np.random.default_rng(1234)


def random_bloch(rng, radius=1.0):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * radius * rng.uniform() ** (1.0 / 3.0)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def bloch_reference(rho):
    """Bloch components as the Pauli traces Tr(sigma_i rho)."""
    return np.array([np.trace(pauli(i) @ rho).real for i in (1, 2, 3)])


class TestPauli:
    def test_identity(self):
        assert np.array_equal(pauli(0), np.eye(2))

    def test_sigma3_convention(self):
        assert np.array_equal(np.diag(pauli(3)), [1.0, -1.0])

    def test_algebra_sigma1_sigma2(self):
        assert np.allclose(pauli(1) @ pauli(2), 1j * pauli(3), atol=0)

    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_trace_orthogonality(self, i, j):
        expected = 2.0 if i == j else 0.0
        assert np.trace(pauli(i) @ pauli(j)) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("bad", [-1, 4, 17])
    def test_bad_index(self, bad):
        with pytest.raises(ValueError):
            pauli(bad)

    def test_returned_copy_is_safe(self):
        m = pauli(1)
        m[0, 0] = 99.0
        assert pauli(1)[0, 0] == 0.0


class TestMatrixAlgebra:
    def test_adjoint_of_product(self):
        for _ in range(50):
            a = random_hermitian(RNG, 2) + 1j * RNG.normal(size=(2, 2))
            b = random_hermitian(RNG, 2) + 1j * RNG.normal(size=(2, 2))
            lhs = (a @ b).conj().T
            rhs = b.conj().T @ a.conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_trace_cyclic(self):
        for _ in range(50):
            a = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            b = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            assert np.trace(a @ b) == pytest.approx(np.trace(b @ a), abs=1e-12)


class TestBlochConversion:
    def test_center_is_maximally_mixed(self):
        assert np.array_equal(bloch_to_density([0.0, 0.0, 0.0]), np.eye(2) / 2.0)

    def test_north_pole_is_plus_z_projector(self):
        assert np.array_equal(
            bloch_to_density([0.0, 0.0, 1.0]), np.diag([1.0, 0.0]).astype(complex)
        )

    def test_pure_states_have_eigenvalues_zero_one(self):
        for _ in range(25):
            b = RNG.normal(size=3)
            b /= np.linalg.norm(b)
            ev = np.linalg.eigvalsh(bloch_to_density(b))
            assert np.allclose(ev, [0.0, 1.0], atol=1e-12)

    def test_outside_sphere_rejected(self):
        with pytest.raises(NotAStateError):
            bloch_to_density([0.8, 0.8, 0.8])

    @pytest.mark.parametrize("b", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0]])
    def test_non_finite_rejected(self, b):
        with pytest.raises(NotAStateError, match="norm must be <= 1"):
            bloch_to_density(b)

    def test_boundary_tolerance(self):
        bloch_to_density([1.0, 0.0, 0.0])  # exactly on the sphere is fine

    def test_round_trip(self):
        for _ in range(100):
            b = random_bloch(RNG)
            assert np.max(np.abs(density_to_bloch(bloch_to_density(b)) - b)) < 1e-12

    def test_plus_x_projector(self):
        rho = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        assert np.allclose(density_to_bloch(rho), [1.0, 0.0, 0.0], atol=1e-15)

    def test_maximally_mixed_maps_to_origin(self):
        assert np.array_equal(density_to_bloch(np.eye(2) / 2.0), np.zeros(3))

    def test_bloch_norm_of_states_bounded(self):
        for _ in range(100):
            b = random_bloch(RNG)
            out = density_to_bloch(bloch_to_density(b))
            assert np.linalg.norm(out) <= 1.0 + 1e-12

    def test_equals_pauli_trace_reference(self):
        rng = np.random.default_rng(2718)
        edges = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
        cases = [
            bloch_to_density(b)
            for b in np.array(np.meshgrid(edges, edges, edges)).reshape(3, -1).T
            if np.linalg.norm(b) <= 1.0
        ]
        cases += [bloch_to_density(random_bloch(rng)) for _ in range(2000)]
        cases += [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2000)]
        for rho in cases:
            assert np.array_equal(density_to_bloch(rho), bloch_reference(rho))

    def test_exact_trace_and_hermiticity(self):
        for _ in range(100):
            rho = bloch_to_density(random_bloch(RNG))
            assert np.trace(rho) == 1.0
            assert np.array_equal(rho, rho.conj().T)


class TestHermitianEigenvalues:
    def test_diagonal(self):
        assert np.allclose(
            hermitian_eigenvalues(np.diag([1.0, 2.0, 3.0, 4.0])), [1, 2, 3, 4], atol=0
        )

    def test_sigma1_tensor_sigma1(self):
        m = np.kron(pauli(1), pauli(1))
        assert np.allclose(hermitian_eigenvalues(m), [-1, -1, 1, 1], atol=1e-12)

    def test_bell_projector_spectrum(self):
        assert np.allclose(
            hermitian_eigenvalues(bell_projector()), [0, 0, 0, 1], atol=1e-12
        )

    @pytest.mark.parametrize(
        "matrix, kwargs",
        [([[math.nan, 0.0], [0.0, 1.0]], {}), ([[0.0, 1.0], [0.0, 0.0]], {"atol": math.nan})],
    )
    def test_nan_fails_hermiticity_check(self, matrix, kwargs):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(matrix, **kwargs)

    def test_sorted_ascending(self):
        for _ in range(50):
            ev = hermitian_eigenvalues(random_hermitian(RNG, 4))
            assert np.all(np.diff(ev) >= 0.0)

    def test_sum_matches_trace(self):
        for _ in range(50):
            m = random_hermitian(RNG, 4)
            ev = hermitian_eigenvalues(m)
            assert abs(np.sum(ev) - np.trace(m).real) < 1e-10

    def test_sum_of_squares_matches_frobenius(self):
        for _ in range(50):
            m = random_hermitian(RNG, 4)
            ev = hermitian_eigenvalues(m)
            assert np.sum(ev**2) == pytest.approx(
                np.sum(np.abs(m) ** 2), rel=1e-10
            )

    def test_unitary_invariance(self):
        for _ in range(20):
            m = random_hermitian(RNG, 4)
            q, _ = np.linalg.qr(
                RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
            )
            ev1 = hermitian_eigenvalues(m)
            ev2 = hermitian_eigenvalues(q @ m @ q.conj().T, atol=1e-8)
            assert np.max(np.abs(ev1 - ev2)) < 1e-10

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            hermitian_eigenvalues(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.zeros((2, 3)))
