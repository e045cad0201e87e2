"""Dense complex linear algebra for one- and two-qubit operators.

Everything in this package is small and fixed-size: density operators are
2x2 complex Hermitian matrices with unit trace, Bloch vectors are real
3-vectors of Euclidean norm at most 1, and the composite-map test matrix
is 4x4 Hermitian.  States and operators are plain numpy arrays; all
functions are pure, so they are safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotAStateError",
    "pauli",
    "bloch_to_density",
    "density_to_bloch",
    "hermitian_eigenvalues",
]

BLOCH_NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-10


class NotAStateError(ValueError):
    """The given vector or matrix does not describe a physical qubit state."""


def _pauli_matrices() -> tuple[np.ndarray, ...]:
    mats = (
        np.eye(2, dtype=complex),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    )
    for m in mats:
        m.flags.writeable = False
    return mats


_PAULI = _pauli_matrices()


def pauli(index: int) -> np.ndarray:
    """Return the identity (index 0) or a Pauli matrix (index 1, 2, 3).

    Convention: sigma_3 is diagonal with entries (1, -1), so that
    sigma_1 @ sigma_2 == 1j * sigma_3.
    """
    if index not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0, 1, 2 or 3, got {index!r}")
    return _PAULI[index].copy()


def bloch_to_density(b) -> np.ndarray:
    """Build the density matrix (I + b . sigma) / 2 from a Bloch vector.

    Raises:
        NotAStateError: if ||b|| exceeds 1 beyond tolerance or is NaN, i.e.
            the point does not lie in the Bloch ball.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (3,):
        raise NotAStateError(f"Bloch vector must have shape (3,), got {b.shape}")
    norm = float(np.linalg.norm(b))
    if not norm <= 1.0 + BLOCH_NORM_TOL:  # NaN fails too
        raise NotAStateError(f"Bloch vector norm must be <= 1, got {norm:.17g}")
    bx, by, bz = (float(c) for c in b)
    # Diagonal written as 0.5 +/- bz/2 keeps the trace exactly 1.0, and the
    # explicit conjugate off-diagonal keeps the matrix exactly Hermitian.
    return np.array(
        [
            [0.5 + 0.5 * bz, 0.5 * (bx - 1.0j * by)],
            [0.5 * (bx + 1.0j * by), 0.5 - 0.5 * bz],
        ],
        dtype=complex,
    )


def density_to_bloch(rho) -> np.ndarray:
    """Bloch components b_i = Tr(sigma_i rho) of a density matrix, in closed form."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise NotAStateError(f"density matrix must have shape (2, 2), got {rho.shape}")
    (r00, r01), (r10, r11) = rho.tolist()
    return np.array([(r01 + r10).real, (1j * (r01 - r10)).real, (r00 - r11).real])


def hermitian_eigenvalues(matrix, atol: float = HERMITICITY_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted ascending.

    Raises:
        ValueError: if the matrix is not Hermitian to within ``atol``
            (max-norm of M - M^dagger).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    defect = float(np.max(np.abs(m - m.conj().T)))
    if not defect <= atol:  # a NaN entry or tolerance fails too
        raise ValueError(f"matrix is not Hermitian: max |M - M^+| = {defect:.3e}")
    return np.linalg.eigvalsh(m)
