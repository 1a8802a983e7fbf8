"""The four benchmark workloads: seeded inputs, tasks and checks.

A *task* is a list of steps.  A CLI step calls ``matfix.cli.main(argv)``
in-process with stdout captured; a library step calls one public function.
Every step carries a check that judges its output against numbers this file
computes with plain numpy (or against goldens recorded at commit 680c66e).

Every instance has m = 2, Q = I and Gaussian A_i rescaled to a stated
spectral norm.  The benchmark's own JSON writer produces the instance files,
so a change to ``matfix.fileio``'s writer cannot change the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from matfix import cli, conditioning, solver
from matfix.examples import benchmark_instance

HERE = Path(__file__).resolve().parent
TOL = 1e-10  # the CLI's default residual tolerance; every task runs with it
M = 2
DELTA_NORM = 1e-6  # spectral norm of each analyze-dense perturbation block

Check = Callable[[object, object], list]


@dataclass
class Step:
    label: str
    check: Check
    argv: tuple | None = None        # a CLI call through cli.main
    call: Callable | None = None     # or a library call
    span: str = "cli.main"


@dataclass
class Task:
    label: str
    steps: list
    dense_bytes: int = 0  # computed: largest dense operator footprint of one command


@dataclass
class Workload:
    name: str
    tasks: list                                  # the pool the timed loop cycles through
    guards: list = field(default_factory=list)   # (label, value, low, high)


def run_step(step: Step):
    """Run one step; returns (exit code or None, output)."""
    if step.argv is None:
        return None, step.call()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(step.argv))
    return code, out.getvalue() + err.getvalue()


# ------------------------------------------------------------ plain numpy ----


def gaussian(rng, n: int, norm: float, cplx: bool) -> np.ndarray:
    G = rng.standard_normal((n, n))
    if cplx:
        G = G + 1j * rng.standard_normal((n, n))
    return G * (norm / np.linalg.norm(G, 2))


def hermitian_gaussian(rng, n: int, norm: float) -> np.ndarray:
    G = gaussian(rng, n, 1.0, True)
    H = G + G.conj().T
    return H * (norm / np.linalg.norm(H, 2))


def reference_solution(A, Q, rtol: float = 1e-14, max_iter: int = 20000):
    """Plain fixed-point iteration; returns X and the per-step change norms."""
    X = np.asarray(Q, dtype=complex)
    history = []
    for _ in range(max_iter):
        Xn = Q + sum(Ai.conj().T @ np.linalg.solve(X, Ai) for Ai in A)
        Xn = (Xn + Xn.conj().T) / 2
        history.append(float(np.linalg.norm(Xn - X)))
        X = Xn
        if history[-1] <= rtol * np.linalg.norm(X):
            return X, history
    raise RuntimeError("reference iteration did not converge")


def residual_norm(A, Q, X) -> float:
    R = Q - X + sum(Ai.conj().T @ np.linalg.solve(X, Ai) for Ai in A)
    return float(np.linalg.norm((R + R.conj().T) / 2, 2))


def contraction_bound(Q, X) -> float:
    """1 - lambda_min(X^-1/2 Q X^-1/2), which bounds the fixed-point contraction."""
    w, V = np.linalg.eigh(X)
    Xmh = (V / np.sqrt(w)) @ V.conj().T
    return float(1.0 - np.linalg.eigvalsh(Xmh @ Q @ Xmh)[0])


def observed_rate(history) -> float:
    h = np.asarray(history)
    return float(np.median(h[1:] / h[:-1]))


def matrix_obj(M_) -> dict:
    obj = {"re": np.real(M_).tolist()}
    if np.iscomplexobj(M_) and np.any(np.imag(M_) != 0):
        obj["im"] = np.imag(M_).tolist()
    return obj


def from_obj(obj) -> np.ndarray:
    X = np.array(obj["re"], dtype=complex)
    if "im" in obj:
        X = X + 1j * np.array(obj["im"])
    return X


def write_instance(path: Path, A, Q) -> Path:
    doc = {"n": Q.shape[0], "m": len(A), "Q": matrix_obj(Q), "A": [matrix_obj(a) for a in A]}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def write_delta(path: Path, dA, dQ) -> Path:
    doc = {"n": dA[0].shape[0], "m": len(dA), "dA": [matrix_obj(d) for d in dA]}
    if dQ is not None:
        doc["dQ"] = matrix_obj(dQ)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def dense_bytes(n: int, m: int, case: str) -> int:
    """Bytes of L_rep and Pi_reps (complex n^2 x n^2 each) plus the condition
    block row: 2n^2 x 2n^2(m+1) reals for the complex case, n^2 x n^2(m+1)
    for the real case."""
    row = 32 if case == "complex" else 8
    return (16 + row) * (m + 1) * n ** 4


# --------------------------------------------------------------- checks ----


def check_solve(A, Q, expected_code: int = 0) -> Check:
    """Exit code, convergence, reported and recomputed residual, Hermitian PD X,
    and all three interval memberships."""

    def check(code, text):
        if code != expected_code:
            return [f"exit code {code}, expected {expected_code}: {text[-200:]}"]
        rep = json.loads(text)["report"]
        sol, errs = rep["solve"], []
        if sol["converged"] is not True:
            errs.append("not converged")
        if not sol["residual_norm"] < TOL:
            errs.append(f"reported residual {sol['residual_norm']!r} not below {TOL}")
        X = from_obj(sol["X"])
        scale = float(np.abs(X).max())
        if not np.abs(X - X.conj().T).max() <= 1e-12 * scale:
            errs.append("X is not Hermitian")
        elif not np.linalg.eigvalsh(X)[0] > 0:
            errs.append("X is not positive definite")
        else:
            r = residual_norm(A, Q, X)
            if not r <= 2 * TOL:
                errs.append(f"recomputed residual {r!r} exceeds {2 * TOL}")
        members = rep.get("bounds", {}).get("membership", {})
        if sorted(members) != ["coarse", "refined", "scalar"] or not all(members.values()):
            errs.append(f"memberships {members}")
        return errs

    return check


@dataclass
class AnalyzeTruth:
    """Untimed reference for one analyze call, all from plain numpy except
    ``fd_lower``, the program's own finite-difference lower estimate."""

    A: list
    Q: np.ndarray
    X: np.ndarray            # tight solution
    dX: np.ndarray           # tight perturbed solution minus X
    X_cli: np.ndarray        # what `matfix solve` returns at the CLI tolerance
    fd_lower: float


def analyze_truth(A, Q, dA, dQ, path: Path, case: str, fd_trials: int) -> AnalyzeTruth:
    X, _ = reference_solution(A, Q)
    Ap = [a + d for a, d in zip(A, dA)]
    Xp, _ = reference_solution(Ap, Q if dQ is None else Q + dQ)
    code, text = run_step(Step("solve", check=None,
                               argv=("solve", str(path), "--format", "structured")))
    if code != 0:
        raise RuntimeError(f"set-up solve of {path.name} failed: {text[-200:]}")
    X_cli = from_obj(json.loads(text)["report"]["solve"]["X"])
    fd = conditioning.cond_fd_oracle(
        solver.EquationInstance(A=A, Q=Q), X, "relative", trials=fd_trials, case=case
    )
    return AnalyzeTruth(A=A, Q=Q, X=X, dX=Xp - X, X_cli=X_cli, fd_lower=fd)


def check_analyze(truth: AnalyzeTruth, expected_code: int, require_feasible: bool) -> Check:
    """Every feasible perturbation bound covers the true solution change; the
    backward bound covers the true error of the CLI's solution; the condition
    number is at least the finite-difference lower estimate; the first-order
    change matches the true change to second order."""
    change = float(np.linalg.norm(truth.dX, 2))
    error = float(np.linalg.norm(truth.X_cli - truth.X, 2))
    norm_x = float(np.linalg.norm(truth.X, 2))

    def check(code, text):
        if code != expected_code:
            return [f"exit code {code}, expected {expected_code}: {text[-200:]}"]
        rep, errs = json.loads(text)["report"], []
        for kind in ("xi1", "xi2", "xi3"):
            b = rep[kind]
            if not b.get("feasible"):
                if kind == "xi3" and require_feasible:
                    errs.append("xi3 infeasible")
                continue
            covered = (b["relative_bound"] * norm_x if kind == "xi1" else b["absolute_bound"])
            if not covered >= change:
                errs.append(f"{kind} bound {covered!r} below true change {change!r}")
        back = rep["backward"]
        if back["feasible"]:
            if not back["bound"] >= error:
                errs.append(f"backward bound {back['bound']!r} below true error {error!r}")
            r = residual_norm(truth.A, truth.Q, truth.X_cli)
            if not abs(back["residual_norm"] - r) <= 1e-3 * r + 1e-14:
                errs.append(f"backward residual {back['residual_norm']!r} != recomputed {r!r}")
        elif require_feasible:
            errs.append("backward certificate infeasible")
        cond = rep["condition"]["value"]
        if not truth.fd_lower * (1 - 1e-4) <= cond <= 10 * truth.fd_lower:
            errs.append(f"condition {cond!r} outside [fd lower {truth.fd_lower!r}, 10x]")
        fo = from_obj(rep["first_order"]["dX"])
        gap = float(np.linalg.norm(fo - truth.dX))
        if not gap <= 1e-3 * float(np.linalg.norm(truth.dX)):
            errs.append(f"first-order dX off the true change by {gap!r}")
        return errs

    return check


def check_exact(expected_code: int, expected_text: str) -> Check:
    def check(code, text):
        if code != expected_code:
            return [f"exit code {code}, expected {expected_code}"]
        return [] if text == expected_text else ["text differs from the golden"]

    return check


# ------------------------------------------------------------- workloads ----


def _solve_workload(name, workdir, seed, smoke, norm, bands):
    n, pool = (6, 1) if smoke else ({"solve-mild": 128, "solve-slow": 48}[name], 4)
    rng = np.random.default_rng(seed)
    tasks, guards = [], []
    for j in range(pool):
        A = [gaussian(rng, n, norm, True) for _ in range(M)]
        Q = np.eye(n)
        path = write_instance(workdir / f"instance{j}.json", A, Q)
        step = Step(f"solve instance{j}", check_solve(A, Q),
                    argv=("solve", str(path), "--format", "structured"))
        tasks.append(Task(f"instance{j}", [step]))
        X, history = reference_solution(A, Q, rtol=1e-12)
        for label, value in (("contraction_bound", contraction_bound(Q, X)),
                             ("observed_rate", observed_rate(history))):
            if label in bands:
                guards.append((f"instance{j} {label}", value, *bands[label]))
    return Workload(name, tasks, guards)


def _analyze_dense(workdir, seed, smoke):
    n, pool, trials = (4, 1, 4) if smoke else (16, 2, 8)
    rng = np.random.default_rng(seed)
    tasks, guards = [], []
    for j in range(pool):
        steps = []
        for case in ("complex", "real"):
            cplx = case == "complex"
            A = [gaussian(rng, n, 0.3, cplx) for _ in range(M)]
            Q = np.eye(n)
            dA = [gaussian(rng, n, DELTA_NORM, cplx) for _ in range(M)]
            dQ = hermitian_gaussian(rng, n, DELTA_NORM) if cplx else None  # real run: dQ = 0
            path = write_instance(workdir / f"{case}{j}.json", A, Q)
            dpath = write_delta(workdir / f"{case}{j}-delta.json", dA, dQ)
            truth = analyze_truth(A, Q, dA, dQ, path, case, trials)
            steps.append(Step(
                f"analyze {case}{j}", check_analyze(truth, 0, require_feasible=True),
                argv=("analyze", str(path), str(dpath), "--case", case, "--format", "structured"),
            ))
            guards.append((f"{case}{j} contraction_bound", contraction_bound(Q, truth.X), 0.0, 0.2))
        tasks.append(Task(f"pair{j}", steps, dense_bytes=dense_bytes(n, M, "complex")))
    return Workload("analyze-dense", tasks, guards)


def _paper_small(workdir, seed, smoke):
    golden = json.loads((HERE / "goldens" / "paper_small.json").read_text())
    fixtures = HERE / "fixtures"
    delta = fixtures / "delta_j7.json"
    steps, guards = [], []
    for k in "1234":
        text = (HERE / "goldens" / f"reproduce_{k}.txt").read_text()
        steps.append(Step(f"reproduce {k}", check_exact(golden["reproduce_exit_codes"][k], text),
                          argv=("reproduce", k)))
    delta_doc = json.loads(delta.read_text())
    dA, dQ = [from_obj(d) for d in delta_doc["dA"]], from_obj(delta_doc["dQ"])
    cases = {}
    for k in "123":
        path = fixtures / f"example{k}.json"
        doc = json.loads(path.read_text())
        A, Q = [from_obj(a) for a in doc["A"]], from_obj(doc["Q"])
        cases[k] = (path, A, Q)
        truth = analyze_truth(A, Q, dA, dQ, path, "complex", 8)
        steps.append(Step(
            f"analyze example{k}",
            check_analyze(truth, golden["analyze_exit_codes"][k], require_feasible=False),
            argv=("analyze", str(path), str(delta), "--format", "structured"),
        ))
        guards.append((f"example{k} contraction_bound", contraction_bound(Q, truth.X), 0.0, 0.5))
    for k, (path, A, Q) in cases.items():
        steps.append(Step(f"solve example{k}", check_solve(A, Q, golden["solve_exit_codes"][k]),
                          argv=("solve", str(path), "--format", "structured")))

    inst2 = benchmark_instance(2)
    X2 = solver.solve(inst2, solver.SolveSettings(tol=1e-13, max_iter=2000)).X
    fd_golden = golden["benchmark2_fd_oracle_trials100"]
    cond_golden = golden["benchmark2_cond_real_relative"]

    def check_fd(_, value):
        if abs(value - fd_golden) <= 1e-3 * fd_golden and value <= cond_golden * (1 + 1e-6):
            return []
        return [f"fd oracle {value!r}: golden {fd_golden!r}, condition {cond_golden!r}"]

    steps.append(Step("cond_fd_oracle benchmark 2", check_fd, span="conditioning.cond_fd_oracle",
                      call=lambda: conditioning.cond_fd_oracle(inst2, X2, trials=100)))
    return Workload("paper-small", [Task("paper", steps, dense_bytes=dense_bytes(5, M, "complex"))],
                    guards)


def build(name: str, workdir: Path, seed: int, smoke: bool = False) -> Workload:
    """Generate the workload's inputs under ``workdir`` and its untimed references."""
    if name == "solve-mild":
        return _solve_workload(name, workdir, seed, smoke, 0.3,
                               {"contraction_bound": (0.0, 0.2)})
    if name == "solve-slow":
        return _solve_workload(name, workdir, seed, smoke, 30.0,
                               {"contraction_bound": (0.98, 0.999),
                                "observed_rate": (0.85, 0.96)})
    if name == "analyze-dense":
        return _analyze_dense(workdir, seed, smoke)
    if name == "paper-small":
        return _paper_small(workdir, seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
