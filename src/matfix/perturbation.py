"""Perturbation bounds for the unique positive definite solution.

Three bounds of increasing sharpness are available for the solution change
under data perturbations (dA_1..dA_m, dQ):

* ``xi1``  a priori relative bound that needs no knowledge of X, from the
  scalar beta and the data norms alone;
* ``xi2``  differential bound for coefficient-only perturbations (dQ = 0);
* ``xi3``  operator-based absolute bound built on the L/P_i surrogates,
  usually the sharpest of the three.

A term function per bound computes its conditions without raising, and the
bound checks them; ``feasibility_table`` reports them as con1..con6, con3
its own, and ``first_order_delta`` returns the first-order solution change
L^-1(dQ + sum(B_i* dA_i + dA_i* B_i)).  F is evaluated only in the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .bounds import ScalarBounds
from .errors import ConditionViolated, NonzeroDeltaQ, SingularOperator
from .operators import OperatorBundle
from .solver import EquationInstance

Array = np.ndarray


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbations dA_1..dA_m and Hermitian dQ, with their spectral norms
    (computed once, at construction)."""

    dA: tuple[Array, ...]
    dQ: Array
    da_norms: tuple[float, ...] = field(init=False)
    dq_norm: float = field(init=False)

    def __init__(self, dA, dQ):
        dA = tuple(linalg.as_matrix(D, name=f"dA[{i}]") for i, D in enumerate(dA))
        dQ = linalg.as_matrix(dQ, name="dQ")
        object.__setattr__(self, "dA", dA)
        object.__setattr__(self, "dQ", dQ)
        object.__setattr__(self, "da_norms", tuple(linalg.spectral_norm(D) for D in dA))
        object.__setattr__(self, "dq_norm", linalg.spectral_norm(dQ))

    @classmethod
    def zero(cls, instance: EquationInstance) -> "PerturbationSpec":
        n = instance.n
        z = np.zeros((n, n))
        return cls(dA=tuple(z.copy() for _ in range(instance.m)), dQ=z.copy())


@dataclass(frozen=True)
class ConditionValue:
    value: float
    passed: bool


@dataclass(frozen=True)
class BoundReport:
    """One evaluated perturbation bound with its feasibility evidence."""

    kind: str
    relative_bound: float
    absolute_bound: float | None
    conditions: dict[str, ConditionValue]
    inputs_echo: dict[str, float] = field(default_factory=dict)


Terms = tuple[dict[str, float], dict[str, ConditionValue]]  # a bound's inputs, its conditions


def _check(conditions: dict[str, ConditionValue], kind: str, echo: dict[str, float]) -> None:
    for name, cv in conditions.items():
        if not cv.passed:
            raise ConditionViolated(
                name,
                f"{kind}: condition {name} fails with value {cv.value:.6e}",
                values={**echo, name: cv.value},
            )


def _xi1_terms(sb: ScalarBounds, spec: PerturbationSpec, norms_a: list[float]) -> Terms:
    beta, da, dq = sb.beta, spec.da_norms, spec.dq_norm
    b = beta * beta + beta * dq - sum(v * v for v in norms_a)
    s = sum(da[i] * (2.0 * norms_a[i] + da[i]) for i in range(len(norms_a)))
    disc = b * b - 4.0 * beta * beta * (beta * dq + s)
    echo = {"beta": beta, "b": b, "s": s, "dq_norm": dq, "sum_da": sum(da)}
    return echo, {
        "b_positive": ConditionValue(b, b > 0.0),
        "b_below_2beta_sq": ConditionValue(2.0 * beta * beta - b, 2.0 * beta * beta - b > 0.0),
        "discriminant": ConditionValue(disc, disc >= 0.0),
    }


def xi1(instance: EquationInstance, sb: ScalarBounds, spec: PerturbationSpec) -> BoundReport:
    """A priori relative bound; requires 0 < b < 2 beta^2 and a nonnegative
    discriminant b^2 - 4 beta^2 (beta ||dQ|| + s).

    Evaluated in the combined form 2(s + beta||dQ||)/(b + sqrt(disc)), which
    is algebraically identical to the split rho/omega form but has no 0/0 at
    dA = 0.
    """
    echo, conditions = _xi1_terms(sb, spec, [linalg.spectral_norm(Ai) for Ai in instance.A])
    _check(conditions, "xi1", echo)
    disc = conditions["discriminant"].value
    rel = 2.0 * (echo["s"] + sb.beta * spec.dq_norm) / (echo["b"] + math.sqrt(disc))
    return BoundReport(
        kind="xi1",
        relative_bound=rel,
        absolute_bound=None,
        conditions=conditions,
        inputs_echo=echo,
    )


def _xi2_terms(sb: ScalarBounds, spec: PerturbationSpec, norms_a: list[float]) -> Terms:
    beta, da = sb.beta, spec.da_norms
    base_margin = beta * beta - sum(v * v for v in norms_a)
    pert_margin = beta * beta - sum((norms_a[i] + da[i]) ** 2 for i in range(len(norms_a)))
    echo = {"beta": beta, "base_margin": base_margin, "pert_margin": pert_margin}
    return echo, {
        "coeff_norms_below_beta_sq": ConditionValue(base_margin, base_margin > 0.0),
        "perturbed_norms_below_beta_sq": ConditionValue(pert_margin, pert_margin > 0.0),
    }


def xi2(
    instance: EquationInstance,
    sb: ScalarBounds,
    spec: PerturbationSpec,
    X: Array,
) -> BoundReport:
    """Differential bound for coefficient-only perturbations.

    Rejects dQ != 0 outright (the underlying result perturbs only the A_i).
    Needs sum||A_i||^2 < beta^2 and sum(||A_i|| + ||dA_i||)^2 < beta^2.
    X (the solved solution) supplies the denominator of the relative form.
    """
    if spec.dq_norm != 0.0:
        raise NonzeroDeltaQ("xi2 covers coefficient perturbations only; got dQ != 0")
    norms_a, da = [linalg.spectral_norm(Ai) for Ai in instance.A], spec.da_norms
    echo, conditions = _xi2_terms(sb, spec, norms_a)
    _check(conditions, "xi2", echo)
    absolute = (
        2.0
        * sb.beta
        * sum((norms_a[i] + da[i]) * da[i] for i in range(instance.m))
        / echo["pert_margin"]
    )
    norm_x = linalg.spectral_norm(X)
    return BoundReport(
        kind="xi2",
        relative_bound=absolute / norm_x,
        absolute_bound=absolute,
        conditions=conditions,
        inputs_echo={**echo, "norm_x": norm_x},
    )


def _xi3_ingredients(bundle: OperatorBundle, spec: PerturbationSpec, norms_a: list[float]) -> Terms:
    l, zeta, theta = bundle.l, bundle.zeta, bundle.theta
    da = spec.da_norms
    sigma = (zeta / l) * sum(
        ((norms_a[i] + da[i]) * zeta + bundle.theta_is[i]) * da[i]
        for i in range(len(norms_a))
    )
    eps = spec.dq_norm / l + sum(
        bundle.n_ops[i] * da[i] + (zeta / l) * da[i] ** 2 for i in range(len(norms_a))
    )
    threshold = (
        l
        * (1.0 - sigma) ** 2
        / (zeta * (l + l * sigma + 2.0 * theta + 2.0 * math.sqrt((l * sigma + theta) * (theta + l))))
        if sigma < 1.0
        else float("nan")
    )
    ing = {
        "l": l,
        "zeta": zeta,
        "theta": theta,
        "sigma": sigma,
        "eps": eps,
        "eps_threshold": threshold,
    }
    return ing, {
        "sigma_below_one": ConditionValue(1.0 - sigma, sigma < 1.0),
        "eps_below_threshold": ConditionValue(
            threshold - eps if math.isfinite(threshold) else float("nan"),
            math.isfinite(threshold) and eps < threshold,
        ),
    }


def xi3(
    instance: EquationInstance,
    X: Array,
    bundle: OperatorBundle,
    spec: PerturbationSpec,
) -> BoundReport:
    """Operator-based absolute bound; the relative form divides by ||X||.

    Needs sigma < 1 and eps below the threshold
    l(1-sigma)^2 / (zeta (l + l sigma + 2 theta + 2 sqrt((l sigma + theta)(theta + l)))).
    """
    norms_a = [linalg.spectral_norm(Ai) for Ai in instance.A]
    ing, conditions = _xi3_ingredients(bundle, spec, norms_a)
    _check(conditions, "xi3", ing)
    sigma, eps = ing["sigma"], ing["eps"]
    l, zeta, theta = ing["l"], ing["zeta"], ing["theta"]

    t = 1.0 + zeta * eps - sigma
    disc = l * l * t * t - 4.0 * l * zeta * eps * (l + theta)
    absolute = 2.0 * l * eps / (l * t + math.sqrt(max(disc, 0.0)))
    norm_x = linalg.spectral_norm(X)
    return BoundReport(
        kind="xi3",
        relative_bound=absolute / norm_x,
        absolute_bound=absolute,
        conditions=conditions,
        inputs_echo={**ing, "norm_x": norm_x},
    )


def feasibility_table(
    instance: EquationInstance,
    sb: ScalarBounds,
    bundle: OperatorBundle,
    spec: PerturbationSpec,
) -> dict[str, ConditionValue]:
    """The six named applicability conditions, reported rather than enforced.

    con1 = 2 beta^2 - b                          (> 0)  xi1's b_below_2beta_sq
    con2 = beta^2 - sum||A_i||^2                 (> 0)  xi2's coeff_norms_below_beta_sq
    con3 = con2^2 - 4 beta^2 sum(||dA_i||(2||A_i|| + ||dA_i||))   (>= 0)
    con4 = beta^2 - sum(||A_i|| + ||dA_i||)^2    (> 0)  xi2's perturbed_norms_below_beta_sq
    con5 = 1 - sigma                             (> 0)  xi3's sigma_below_one
    con6 = eps threshold - eps                   (> 0)  xi3's eps_below_threshold
    """
    norms_a = [linalg.spectral_norm(Ai) for Ai in instance.A]
    echo1, cond1 = _xi1_terms(sb, spec, norms_a)
    cond2 = _xi2_terms(sb, spec, norms_a)[1]
    cond3 = _xi3_ingredients(bundle, spec, norms_a)[1]
    con2 = cond2["coeff_norms_below_beta_sq"]
    con3 = con2.value * con2.value - 4.0 * sb.beta * sb.beta * echo1["s"]
    return {
        "con1": cond1["b_below_2beta_sq"],
        "con2": con2,
        "con3": ConditionValue(con3, con3 >= 0.0),
        "con4": cond2["perturbed_norms_below_beta_sq"],
        "con5": cond3["sigma_below_one"],
        "con6": cond3["eps_below_threshold"],
    }


FIRST_ORDER_RTOL = 1e-14  # first_order_delta's L-solve tolerance, and the backward error it accepts
FIRST_ORDER_MATVECS = 1000  # cap on that L-solve's products of L


def first_order_delta(bundle: OperatorBundle, spec: PerturbationSpec) -> Array:
    """First-order solution change dX = L^-1(RHS), RHS = dQ + sum(B_i* dA_i + dA_i* B_i).

    The L-solve :func:`matfix.linalg.solve_l` runs on the Hermitian part of
    RHS to relative residual FIRST_ORDER_RTOL within FIRST_ORDER_MATVECS
    products of L, or until GMRES stagnates at the rounding floor of an
    ill-conditioned L; dX is Hermitian by storage, and real on real data.  dX is
    returned only if its normwise backward error ||RHS - L(dX)|| /
    (||L|| ||dX|| + ||RHS||), with ||L|| = 1/l, is at most FIRST_ORDER_RTOL;
    otherwise :class:`SingularOperator` reports it and the relative residual.
    """
    RHS = spec.dQ
    for Bi, Di in zip(bundle.B, spec.dA):
        RHS = RHS + Bi.conj().T @ Di + Di.conj().T @ Bi
    RHS = linalg.hermitian_part(RHS)
    dX = linalg.solve_l(bundle.B, RHS, FIRST_ORDER_RTOL, FIRST_ORDER_MATVECS)[0]
    residual = linalg.frobenius_norm(RHS - linalg.apply_l(bundle.B, dX))
    rhs = linalg.frobenius_norm(RHS)
    scale = rhs + linalg.frobenius_norm(dX) / bundle.l
    if not residual <= FIRST_ORDER_RTOL * scale:
        raise SingularOperator(
            f"the first-order L-solve stopped at backward error {residual / scale:.3e} "
            f"(relative residual {residual / rhs:.3e}), above {FIRST_ORDER_RTOL:.0e}, "
            f"within {FIRST_ORDER_MATVECS} products of L"
        )
    return dX
