"""Command-line front end: solve, analyze, reproduce.

Exit codes: 0 success, 1 invalid input (usage errors and an instance too
large for the memory budgets included), 2 numerical non-convergence, 3
analysis completed but at least one requested bound's feasibility
condition failed.

Structured output is a single JSON document on one compact line, carrying
the schema version, the command echo, settings, wall clock, and per-module
reports; the text rendering of matrices is built only for text output.
Text output contains no wall clock so identical inputs (and seed) render
identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import linalg
from .backward import backward_bound
from .bounds import (
    coarse_interval,
    default_membership_tolerance,
    membership,
    refined_interval,
    scalar_bounds,
    scalar_interval,
)
from .conditioning import cond_complex, cond_real
from .errors import (
    ConditionViolated,
    MatfixError,
    NonzeroDeltaQ,
    OperatorTooLarge,
    ParseError,
    ValidationError,
)
from .examples import (
    benchmark2_delta_norms,
    benchmark2_deterministic_deltas,
    benchmark2_random_directions,
    benchmark4_symmetrized,
    benchmark_instance,
    tridiagonal_seed,
)
from .fileio import matrix_to_obj, parse_delta, parse_instance, parse_single_matrix
from .operators import build_bundle
from .perturbation import feasibility_table, first_order_delta, xi1, xi2, xi3
from .reference_values import (
    BENCHMARK1,
    BENCHMARK2_BOUNDS,
    BENCHMARK2_CONDITIONS,
    BENCHMARK3_TRAJECTORY,
    BENCHMARK4_CONDITION,
)
from .solver import SolveSettings, _hermitian_map, solve, solve_stack

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_CONDITION_VIOLATED = 3

SCHEMA_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matfix",
        description="Solve and analyze the matrix equation X - sum(Ai* X^-1 Ai) = Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=None,
                       help="residual tolerance in the spectral norm (default 1e-10)")
        p.add_argument("--max-iter", type=int, default=1000)
        p.add_argument("--format", choices=["text", "structured"], default="text")

    p_solve = sub.add_parser("solve", help="solve one equation instance from a file")
    p_solve.add_argument("input", help="instance file (JSON)")
    p_solve.add_argument("--x0", default="q",
                         help="start: q | identity | scale:<c> | file:<path>")
    p_solve.add_argument("--allow-nonhermitian", action="store_true",
                         help="run the raw iteration without Hermitian/PD guards")
    common(p_solve)

    p_an = sub.add_parser("analyze",
                          help="perturbation bounds, backward error, condition numbers")
    p_an.add_argument("input", help="instance file (JSON)")
    p_an.add_argument("delta", help="perturbation file (JSON)")
    p_an.add_argument("--mode", choices=["absolute", "relative"], default="relative")
    p_an.add_argument("--case", choices=["complex", "real"], default="complex")
    common(p_an)

    p_rep = sub.add_parser("reproduce", help="regenerate a bundled benchmark table")
    p_rep.add_argument("example", type=int, choices=[1, 2, 3, 4])
    p_rep.add_argument("--seed", type=int, default=None,
                       help="RNG seed; MATFIX_SEED overrides the built-in default")
    common(p_rep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`main`'s parser, built on its first call and kept (parsing leaves it as it was)."""
    return build_parser()


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MATFIX_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"MATFIX_SEED must be an integer, got {env!r}") from exc
    return 0


def _parse_x0(arg: str):
    if arg == "q":
        return None
    if arg == "identity":
        return 1.0
    if arg.startswith("scale:"):
        try:
            c = float(arg.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"--x0 scale factor is not a number: {arg!r}") from exc
        if not 0.0 < c < float("inf"):
            raise ParseError(f"--x0 scale factor must be finite and positive: {arg!r}")
        return c
    if arg.startswith("file:"):
        return parse_single_matrix(arg.split(":", 1)[1])
    raise ParseError(f"--x0 must be q | identity | scale:<c> | file:<path>, got {arg!r}")


def _tol(args) -> float:
    return args.tol if args.tol is not None else 1e-10


def _fmt(x: float) -> str:
    return f"{x:.4e}"


def _matrix_lines(M, indent: str = "  ") -> list[str]:
    M = np.asarray(M)
    if np.iscomplexobj(M) and np.any(M.imag != 0.0):
        return [indent + "  ".join(f"{re:+.10e}{im:+.10e}j" for re, im in zip(rr, ri))
                for rr, ri in zip(M.real.tolist(), M.imag.tolist())]
    return [indent + "  ".join(f"{v:+.10e}" for v in row) for row in M.real.tolist()]


# ---------------------------------------------------------------- solve ----


def _cmd_solve(args) -> tuple[dict, list[str], int]:
    instance = parse_instance(args.input)
    settings = SolveSettings(x0=_parse_x0(args.x0), tol=_tol(args), max_iter=args.max_iter)
    report = solve(instance, settings, allow_nonhermitian=args.allow_nonhermitian)

    payload: dict = {
        "solve": {
            "converged": report.converged,
            "iterations": report.iterations,
            "residual_norm": report.residual_norm,
            "rate": report.rate,
            "newton_steps": report.newton_steps,
            "history": list(report.history),
            "X": matrix_to_obj(report.X),
        }
    }
    lines = [
        f"solve: converged={report.converged} iterations={report.iterations} "
        f"residual={_fmt(report.residual_norm)}",
        "X:",
        *(_matrix_lines(report.X) if args.format == "text" else ()),
    ]

    if not args.allow_nonhermitian:
        sb = scalar_bounds(instance)
        coarse = coarse_interval(instance)
        refined = refined_interval(instance, sb)
        scal = scalar_interval(instance, sb)
        slack = 10.0 * max(report.residual_norm, settings.tol)
        # the default slack n eps ||upper||_2 wins the max only if n eps ||upper||_F,
        # its bound, does too (1% over it covers the rounding of both norms);
        # only then is its eigensolve worth making
        if 1.01 * instance.n * np.finfo(float).eps * linalg.frobenius_norm(coarse.upper) > slack:
            slack = max(default_membership_tolerance(coarse), slack)
        members = {
            "coarse": membership(report.X, coarse, slack),
            "refined": membership(report.X, refined, slack),
            "scalar": membership(report.X, scal, slack),
        }
        payload["bounds"] = {
            "alpha": sb.alpha,
            "beta": sb.beta,
            "membership": members,
            "membership_slack": slack,
        }
        lines += [
            f"bounds: beta={sb.beta:.6f} alpha={sb.alpha:.6f}",
            "membership: "
            + " ".join(f"{k}={v}" for k, v in members.items())
            + f" (slack {_fmt(slack)})",
        ]
    else:  # the raw iteration's residual is that of the returned X already
        payload["solve"]["raw_residual_norm"] = report.residual_norm

    return payload, lines, EXIT_OK if report.converged else EXIT_NOT_CONVERGED


# -------------------------------------------------------------- analyze ----


def _condition_payload(rep) -> dict:
    return {
        "feasible": True,
        "relative_bound": rep.relative_bound,
        "absolute_bound": rep.absolute_bound,
        "conditions": {k: asdict(v) for k, v in rep.conditions.items()},
        "inputs": rep.inputs_echo,
    }


def _cmd_analyze(args) -> tuple[dict, list[str], int]:
    instance = parse_instance(args.input)
    delta = parse_delta(args.delta, instance)
    settings = SolveSettings(tol=_tol(args), max_iter=args.max_iter)
    report = solve(instance, settings)
    payload: dict = {"solve": {"converged": report.converged, "iterations": report.iterations,
                               "residual_norm": report.residual_norm}}
    if not report.converged:
        return payload, [f"solve did not converge within {report.iterations} iterations "
                         f"(residual {_fmt(report.residual_norm)})"], EXIT_NOT_CONVERGED
    X = report.X
    sb = scalar_bounds(instance)
    bundle = build_bundle(instance, X)
    payload["bounds"] = {"alpha": sb.alpha, "beta": sb.beta}
    payload["delta_norms"] = {"dA": list(delta.da_norms), "dQ": delta.dq_norm}
    lines = [
        f"solve: iterations={report.iterations} residual={_fmt(report.residual_norm)}",
        f"bounds: beta={sb.beta:.6f} alpha={sb.alpha:.6f}",
        "perturbation norms: "
        + " ".join(f"|dA{i + 1}|={_fmt(v)}" for i, v in enumerate(delta.da_norms))
        + f" |dQ|={_fmt(delta.dq_norm)}",
    ]

    feas = feasibility_table(instance, sb, bundle, delta)
    payload["feasibility"] = {k: asdict(v) for k, v in feas.items()}
    lines.append("feasibility: " + "  ".join(
        f"{k}={v.value:.4f}{'' if v.passed else '(FAIL)'}" for k, v in feas.items()
    ))

    violated: list[str] = []
    for kind, fn in (
        ("xi1", lambda: xi1(instance, sb, delta)),
        ("xi2", lambda: xi2(instance, sb, delta, X)),
        ("xi3", lambda: xi3(instance, X, bundle, delta)),
    ):
        try:
            rep = fn()
            payload[kind] = _condition_payload(rep)
            abs_txt = "" if rep.absolute_bound is None else f" absolute={_fmt(rep.absolute_bound)}"
            lines.append(f"{kind}: relative={_fmt(rep.relative_bound)}{abs_txt}")
        except ConditionViolated as exc:
            violated.append(f"{kind}:{exc.name}")
            payload[kind] = {"feasible": False, "condition": exc.name, "values": exc.values}
            lines.append(f"{kind}: infeasible ({exc.name})")
        except NonzeroDeltaQ:
            payload[kind] = {"feasible": False, "applicable": False,
                             "reason": "dQ != 0 not covered"}
            lines.append(f"{kind}: not applicable (dQ != 0)")

    back = backward_bound(instance, X)
    payload["backward"] = asdict(back)
    lines.append(f"backward: Sigma={back.Sigma:.4f} bound={_fmt(back.bound)} feasible={back.feasible}")

    if args.case == "real":
        cond = cond_real(instance, X, args.mode, bundle=bundle)
    else:
        cond = cond_complex(instance, X, bundle, args.mode)
    payload["condition"] = asdict(cond)
    lines.append(f"condition ({cond.case}, {cond.mode}): {cond.value:.6f}")

    fod = first_order_delta(bundle, delta)
    fod_norm = linalg.frobenius_norm(fod)
    payload["first_order"] = {"dX": matrix_to_obj(fod), "frobenius_norm": fod_norm}
    lines.append(f"first-order dX: |dX|_F={_fmt(fod_norm)}")

    code = EXIT_CONDITION_VIOLATED if violated else EXIT_OK
    if violated:
        lines.append("violated conditions: " + ", ".join(violated))
    return payload, lines, code


# ------------------------------------------------------------ reproduce ----


def _dev(ours: float, published: float) -> float:
    if published == 0.0:
        return abs(ours - published)
    return abs(ours - published) / abs(published)


def _devs(ours: dict, published: dict) -> dict:
    """Deviation of each of our values from the published one of that key."""
    return {k: _dev(ours[k], published[k]) for k in ours}


def _row(widths, cells) -> str:
    """Table row (or header): each cell right-aligned in its width."""
    return " ".join(f"{c:>{w}s}" for w, c in zip(widths, cells))


def _reproduce_1(args, seed: int) -> tuple[dict, list[str], int]:
    instance = benchmark_instance(1)
    sb = scalar_bounds(instance)
    tol = _tol(args)
    rep = solve(instance, SolveSettings(x0=1.1, tol=tol, max_iter=args.max_iter))
    ref = BENCHMARK1
    scalars = {"beta": sb.beta, "alpha": sb.alpha}
    devs = _devs(scalars, ref)
    max_dev = float(np.abs(rep.X.real - np.array(ref["X"])).max())
    inside = membership(rep.X, scalar_interval(instance, sb), 10.0 * max(rep.residual_norm, tol))
    payload = {
        **scalars,
        "iterations": rep.iterations,
        "residual_norm": rep.residual_norm,
        "converged": rep.converged,
        "X": matrix_to_obj(rep.X),
        "in_scalar_interval": inside,
        "deviations": {
            **devs,
            "iterations": rep.iterations - ref["iterations"],
            "residual": _dev(rep.residual_norm, ref["residual"]),
            "X_max_abs": max_dev,
        },
    }
    lines = [
        "benchmark 1",
        *(f"{k}={v:.6f} (published {ref[k]}, dev {_fmt(devs[k])})" for k, v in scalars.items()),
        f"iterations={rep.iterations} (published {ref['iterations']})",
        f"residual={_fmt(rep.residual_norm)} (published {_fmt(ref['residual'])})",
        f"max |X - X_published| = {_fmt(max_dev)}",
        f"X in [beta I, alpha I]: {inside}",
        "X:",
        *_matrix_lines(rep.X),
    ]
    return payload, lines, EXIT_OK if rep.converged else EXIT_NOT_CONVERGED


def _reproduce_2(args, seed: int) -> tuple[dict, list[str], int]:
    instance = benchmark_instance(2)
    fine = SolveSettings(tol=1e-13, max_iter=2000)
    X = solve(instance, fine).X
    norm_x = linalg.spectral_norm(X)
    sb = scalar_bounds(instance)
    bundle = build_bundle(instance, X)
    # 20 random draws per column, in column order, each direction scaled to
    # the column's two perturbation norms
    S = benchmark2_random_directions(np.random.default_rng(seed), 20 * len(BENCHMARK2_CONDITIONS))
    norms = np.repeat([benchmark2_delta_norms(j) for j in BENCHMARK2_CONDITIONS], 20, axis=0)
    A = np.asarray(instance.A) + norms[:, :, None, None] * S[:, None]
    Q = np.broadcast_to(instance.Q, S.shape)
    Xs = np.array([rep.X for rep in solve_stack(Q, A, fine)])
    errors = linalg.spectral_norm(Xs - X) / norm_x

    columns, measured = {}, {}
    for c, (j, published) in enumerate(BENCHMARK2_CONDITIONS.items()):
        det = benchmark2_deterministic_deltas(j)
        feas = feasibility_table(instance, sb, bundle, det)
        errs = errors[20 * c : 20 * (c + 1)]
        bounds = {
            "xi1": xi1(instance, sb, det).relative_bound,
            "xi2": xi2(instance, sb, det, X).relative_bound,
            # published table carries the absolute operator bound in this row
            "nu_star": xi3(instance, X, bundle, det).absolute_bound,
        }
        measured[j] = {"true_rel_error": float(np.exp(np.mean(np.log(errs)))), **bounds}
        conditions = {k: v.value for k, v in feas.items()}
        columns[str(j)] = {
            "conditions": conditions,
            "conditions_pass": all(v.passed for v in feas.values()),
            "true_rel_error_geomean": measured[j]["true_rel_error"],
            **bounds,
            "deviations": {
                **_devs(conditions, published),
                **_devs(measured[j], BENCHMARK2_BOUNDS[j]),
            },
        }

    header = f"{'':14s}" + "".join(f"{'j=' + j:>14s}" for j in columns)
    lines = ["benchmark 2 (20 random draws per column, geometric mean)", "",
             "condition table", header]
    for name in published:  # the last column's rows, which every column shares
        lines.append(f"{name:14s}" + "".join(f"{c['conditions'][name]:>14.4f}"
                                             for c in columns.values()))
    lines += ["", "bound table (deviation vs published in parentheses)", header]
    for name in BENCHMARK2_BOUNDS[j]:  # likewise
        # labels are cut to 12 characters: true_rel_error prints as true_rel_err
        lines.append(f"{name:14.12s}" + "".join(f"{m[name]:>14.4e}" for m in measured.values()))
        lines.append(f"{'':14s}" + "".join(f"({c['deviations'][name]:>11.2e})"
                                           for c in columns.values()))
    return {"columns": columns, "seed": seed}, lines, EXIT_OK


def _reproduce_3(args, seed: int) -> tuple[dict, list[str], int]:
    instance = benchmark_instance(3)
    A0 = tridiagonal_seed()
    Xref = solve(instance, SolveSettings(x0=A0, tol=1e-13, max_iter=2000)).X
    widths = (2, 14, 14, 11, 11)
    lines = ["benchmark 3 (trajectory from the seed matrix; reference solve tol 1e-13)",
             _row(widths, ("k", "error", "bound", "dev(err)", "dev(bnd)"))]
    rows = {}
    Xt = A0.astype(complex)
    for k, published in BENCHMARK3_TRAJECTORY.items():
        Xt = _hermitian_map(instance, Xt)[0]
        back = backward_bound(instance, Xt)
        ours = {"error": linalg.spectral_norm(Xt - Xref), "bound": back.bound}
        devs = _devs(ours, published)
        rows[str(k)] = {
            **ours,
            "feasible": back.feasible,
            "dominates": bool(back.bound >= ours["error"]),
            "deviations": devs,
        }
        lines.append(_row(widths, (str(k), *(f"{v:.4e}" for v in ours.values()),
                                   *(f"{v:.2e}" for v in devs.values()))))
    return {"rows": rows}, lines, EXIT_OK


def _reproduce_4(args, seed: int) -> tuple[dict, list[str], int]:
    settings = SolveSettings(tol=_tol(args), max_iter=args.max_iter)
    widths = (2, 10, 10, 11, 9)
    lines = ["benchmark 4 (right-hand side as published; raw iteration)",
             _row(widths, ("k", "c_rel", "published", "dev", "fallback"))]
    rows = {}
    for k, published in BENCHMARK4_CONDITION.items():
        instance = benchmark_instance(4, k)
        rep = solve(instance, settings, allow_nonhermitian=True)
        substituted = not rep.converged
        if substituted:
            # symmetrized-Q fallback; flagged so the report is honest about it
            instance = benchmark4_symmetrized(k)
            rep = solve(instance, settings)
        crel = cond_real(instance, rep.X, "relative").value
        dev = _dev(crel, published)
        rows[str(k)] = {
            "c_rel": crel,
            "iterations": rep.iterations,
            "substituted_symmetrized_q": substituted,
            "deviation": dev,
        }
        lines.append(_row(widths, (str(k), f"{crel:.4f}", f"{published:.4f}", f"{dev:.2e}",
                                   str(substituted))))
    return {"rows": rows}, lines, EXIT_OK


def _cmd_reproduce(args) -> tuple[dict, list[str], int]:
    seed = _resolve_seed(args)
    fn = {1: _reproduce_1, 2: _reproduce_2, 3: _reproduce_3, 4: _reproduce_4}[args.example]
    payload, lines, code = fn(args, seed)
    payload["example"] = args.example
    return payload, lines, code


# ----------------------------------------------------------------- main ----


COMMANDS = {"solve": _cmd_solve, "analyze": _cmd_analyze, "reproduce": _cmd_reproduce}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_INVALID_INPUT if exc.code else EXIT_OK
    started = time.perf_counter()
    try:
        payload, lines, code = COMMANDS[args.command](args)
    except (ParseError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except MatfixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT if isinstance(exc, OperatorTooLarge) else EXIT_NOT_CONVERGED

    if args.format == "structured":
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "argv": list(argv) if argv is not None else sys.argv[1:],
            "settings": {
                "tol": args.tol,
                "max_iter": args.max_iter,
                "seed": getattr(args, "seed", None),
            },
            "wall_clock_s": time.perf_counter() - started,
            "exit_code": code,
            "report": payload,
        }
        print(json.dumps(report))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
