"""Kraus form of the telegraph-noise channel and the dephasing special case.

Whenever the map is completely positive at time nu it acts as

    rho  ->  sum_k A_k rho A_k^dagger,
    A_1 = sqrt(xi_1) sigma_1,  A_2 = sqrt(xi_2) sigma_2,
    A_3 = sqrt(xi_3) sigma_3,  A_4 = sqrt(xi_4) I,

with the xi_j of :func:`rtnqubit.positivity.xi`: rows of one fixed table of
(I, sigma_1, sigma_2, sigma_3), scaled and applied in one batched conjugation.
All operators are Hermitian, so the two completeness orderings coincide and
sum_k A_k A_k^dagger = I follows from sum_j xi_j = 1.

With a single coupling along sigma_3 the channel reduces to phase damping
(sometimes described as depolarization by colored noise): operators
sqrt((1 + L)/2) I and sqrt((1 - L)/2) sigma_3, fixed points |+z> and |-z>,
and the steady state (rho + sigma_3 rho sigma_3) / 2.
"""

from __future__ import annotations

import numpy as np

from . import linalg, positivity
from .telegraph import ModelParams

__all__ = [
    "NotCompletelyPositiveError",
    "KrausSet",
    "kraus_from_params",
    "apply_channel",
    "dephasing_steady_state",
]

# Negative xi values no larger than this in magnitude are clamped to zero
# before taking square roots (roundoff at a CP boundary); anything more
# negative is a genuine CP failure, as is_cp counts it.
KRAUS_CLAMP = positivity.CP_TOLERANCE
_BASIS = np.stack([linalg.pauli(i) for i in range(4)])  # (4, 2, 2): I, sigma_1, sigma_2, sigma_3


class NotCompletelyPositiveError(ValueError):
    """No Kraus form exists: some xi_j is negative beyond tolerance.

    Attributes:
        nu: evaluation time of the failed construction.
        index: 1-based index of the offending xi component.
        value: the negative xi value.
    """

    def __init__(self, nu: float, index: int, value: float):
        self.nu = float(nu)
        self.index = int(index)
        self.value = float(value)
        super().__init__(
            f"map is not completely positive at nu = {nu:.6g}: "
            f"xi_{index} = {value:.6e} < -{KRAUS_CLAMP:g}"
        )


class KrausSet:
    """Weighted Pauli/identity Kraus operators of one channel instance.

    Attributes:
        operators: tuple of 2x2 arrays sqrt(w) * B with B in (sigma_1, sigma_2,
            sigma_3, I), views of one (k, 2, 2) stack; zero-weight entries are dropped.
        weights: the retained xi values, same order as ``operators``.
        basis_indices: Pauli index of each operator (0 denotes identity).
    """

    def __init__(self, weights, basis_indices):
        n_w, n_i = len(weights), len(basis_indices)
        if n_w != n_i:
            raise ValueError(f"got {n_w} Kraus weights for {n_i} basis indices")
        for i in basis_indices:
            if i not in (0, 1, 2, 3):
                raise ValueError(f"Pauli index must be 0, 1, 2 or 3, got {i!r}")
        w = np.asarray(weights, dtype=float)
        if not (w >= 0.0).all():  # NaN fails too; name the first bad weight
            raise ValueError(f"Kraus weight must be >= 0, got {float(w[np.argmin(w >= 0.0)])}")
        keep = w > 0.0
        w, idx = w[keep], np.asarray(basis_indices, dtype=int)[keep]
        self._ops = np.sqrt(w)[:, None, None] * _BASIS[idx]
        self.operators = tuple(self._ops)
        self.weights, self.basis_indices = tuple(w.tolist()), tuple(idx.tolist())

    def __len__(self) -> int:
        return len(self.operators)

    def completeness_defect(self) -> float:
        """Max-norm of sum_k A_k A_k^dagger - I (should be ~0)."""
        return float(np.max(np.abs(_conjugate(self._ops, _BASIS[0]) - _BASIS[0])))


def _conjugate(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k A_k rho A_k^dagger over a (k, 2, 2) operator stack."""
    return (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


def kraus_from_params(params: ModelParams, nu: float) -> KrausSet:
    """Kraus operators of the telegraph channel at dimensionless time nu.

    xi values in [-KRAUS_CLAMP, 0) are clamped to zero; a more negative
    value raises :class:`NotCompletelyPositiveError` carrying the witness.
    This exception is the operational meaning of a CP failure.
    """
    xis = positivity.xi(float(nu), params)
    worst = int(np.argmin(xis))
    if xis[worst] < -KRAUS_CLAMP:
        raise NotCompletelyPositiveError(nu=nu, index=worst + 1, value=float(xis[worst]))
    return KrausSet(weights=np.maximum(xis, 0.0), basis_indices=(1, 2, 3, 0))


def apply_channel(kraus: KrausSet, rho) -> np.ndarray:
    """Apply the channel: sum_k A_k rho A_k^dagger."""
    return _conjugate(kraus._ops, np.asarray(rho, dtype=complex))


def dephasing_steady_state(rho) -> np.ndarray:
    """Long-time state of the dephasing channel: (rho + sigma_3 rho sigma_3)/2.

    Off-diagonal elements are erased, populations kept; equals the
    nu -> infinity limit of propagation with a single sigma_3 coupling.
    """
    rho = np.asarray(rho, dtype=complex)
    sz = linalg.pauli(3)
    return 0.5 * (rho + sz @ rho @ sz)
