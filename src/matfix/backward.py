"""Certification of approximate solutions through a computable error bound.

Given an approximate positive definite Xt, the residual
R(Xt) = Q + sum(Ai* Xt^-1 Ai) - Xt certifies the distance to the true
solution: when Sigma = sum ||Xt^-1 Ai||^2 < 1 and

    ||R(Xt)|| < (1 - Sigma)^2 / (1 + Sigma + 2 sqrt(Sigma)) * lambda_min(Xt),

then ||Xt - X|| <= theta ||R(Xt)|| with the theta computed here.
Infeasibility is reported, not raised: callers want Sigma and the threshold
as diagnostics even when the certificate does not apply.  R and each Xt^-1 Ai
come from the Cholesky factor Xt = L L* of the solver's own map F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotPositiveDefinite
from .solver import EquationInstance, _hermitian_map, _hermitian_norm

Array = np.ndarray


@dataclass(frozen=True)
class BackwardErrorReport:
    Sigma: float
    residual_norm: float
    threshold: float
    theta: float
    bound: float
    feasible: bool


def backward_bound(instance: EquationInstance, Xt: Array) -> BackwardErrorReport:
    """Evaluate the certificate at Xt; ``feasible`` records applicability.

    :class:`NotPositiveDefinite` is raised unless herm(Xt) has a Cholesky
    factor and lambda_min above :func:`matfix.linalg.definiteness_floor`.
    theta and bound are NaN when the feasibility condition fails badly enough
    that the square root below would leave the reals; they are still computed
    whenever the discriminant allows, since near-threshold diagnostics are
    useful.
    """
    Xt = linalg.as_matrix(Xt, name="Xt")
    H = linalg.hermitian_part(Xt)
    lam_min, lam_max = linalg.eig_extremes(H)
    if not lam_min > linalg.definiteness_floor(len(H), lam_max):
        raise NotPositiveDefinite("backward_bound requires a positive definite Xt")
    try:
        FH, L, G = _hermitian_map(instance, H)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"backward_bound requires a positive definite Xt: {exc}") from exc

    B = linalg.solve_triangular(L.conj().T, G, lower=False)  # [Xt^-1 A1 ... Xt^-1 Am]
    Sigma = float(sum(linalg.spectral_norm(Bi) ** 2 for Bi in np.hsplit(B, instance.m)))
    res_norm = _hermitian_norm(FH - H)

    if Sigma < 1.0:
        threshold = (1.0 - Sigma) ** 2 / (1.0 + Sigma + 2.0 * math.sqrt(Sigma)) * lam_min
    else:
        threshold = 0.0
    feasible = Sigma < 1.0 and res_norm < threshold

    base = (1.0 - Sigma) * lam_min + res_norm
    disc = base * base - 4.0 * lam_min * res_norm
    if disc >= 0.0 and base > 0.0:
        theta = 2.0 * lam_min / (base + math.sqrt(disc))
        bound = theta * res_norm
    else:
        theta = float("nan")
        bound = float("nan")
    return BackwardErrorReport(
        Sigma=Sigma,
        residual_norm=res_norm,
        threshold=threshold,
        theta=theta,
        bound=bound,
        feasible=feasible,
    )
