import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from matfix import SolveSettings, cli, solve
from matfix.bounds import coarse_interval, default_membership_tolerance
from matfix.cli import main
from matfix.fileio import parse_instance

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_structured(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "structured")
    return code, json.loads(out), err


class TestSolveCommand:
    def test_benchmark1_protocol(self, capsys):
        code, doc, _ = run_structured(
            capsys, "solve", str(FIXTURES / "example1.json"),
            "--x0", "scale:1.1", "--tol", "1e-10",
        )
        assert code == 0
        s = doc["report"]["solve"]
        assert s["converged"] is True
        assert s["iterations"] == 11
        assert s["residual_norm"] == pytest.approx(4.8477e-11, rel=1e-3)
        assert 0.0 < s["rate"] < 1.0
        assert doc["report"]["bounds"]["membership"]["scalar"] is True
        assert doc["schema_version"] == 1

    def test_invalid_input_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "solve", str(FIXTURES / "bad_nonpd.json"))
        assert code == 1
        assert "positive definite" in err

    def test_parse_error_exit_1(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        code, _, err = run_cli(capsys, "solve", str(p))
        assert code == 1
        assert "line" in err

    def test_scalar_instance(self, capsys):
        code, doc, _ = run_structured(capsys, "solve", str(FIXTURES / "scalar.json"))
        assert code == 0
        X = doc["report"]["solve"]["X"]["re"]
        assert X[0][0] == pytest.approx(2.0, abs=1e-10)

    def test_nonconvergence_exit_2(self, capsys):
        code, doc, _ = run_structured(
            capsys, "solve", str(FIXTURES / "example1.json"), "--max-iter", "1",
        )
        assert code == 2
        assert doc["report"]["solve"]["converged"] is False
        assert doc["report"]["solve"]["rate"] is None

    def test_allow_nonhermitian(self, capsys):
        code, doc, _ = run_structured(
            capsys, "solve", str(FIXTURES / "example4.json"), "--allow-nonhermitian",
        )
        assert code == 0
        assert "bounds" not in doc["report"]
        assert doc["report"]["solve"]["raw_residual_norm"] < 1e-9

    def test_nonhermitian_without_flag_fails(self, capsys):
        code, _, err = run_cli(capsys, "solve", str(FIXTURES / "example4.json"))
        assert code == 1
        assert "Hermitian" in err

    def test_x0_file(self, capsys, tmp_path):
        p = tmp_path / "x0.json"
        p.write_text(json.dumps({"re": [[2.0]]}))
        code, doc, _ = run_structured(
            capsys, "solve", str(FIXTURES / "scalar.json"), "--x0", f"file:{p}",
        )
        assert code == 0

    @pytest.mark.parametrize("name", ["example1.json", "complex3.json", "scalar.json"])
    def test_structured_x_round_trips_bit_exactly(self, capsys, name):
        code, out, _ = run_cli(capsys, "solve", str(FIXTURES / name), "--format", "structured")
        assert code == 0
        assert out.count("\n") == 1  # one compact JSON line
        obj = json.loads(out)["report"]["solve"]["X"]
        X = np.array(obj["re"]) + 1j * np.array(obj.get("im", 0.0))
        expected = solve(parse_instance(FIXTURES / name), SolveSettings(tol=1e-10)).X
        assert np.array_equal(X, expected)

    def test_integer_too_large_for_double_exit_1(self, capsys, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text('{"n": 1, "m": 1, "Q": {"re": [[1]]}, "A": [{"re": [[1%s]]}]}' % ("0" * 400))
        code, _, err = run_cli(capsys, "solve", str(p))
        assert code == 1
        assert "A[0].re: entry (0,0)" in err

    def test_bad_x0_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", str(FIXTURES / "scalar.json"), "--x0", "bogus",
        )
        assert code == 1

    @pytest.mark.parametrize("factor", ["inf", "nan", "1e400", "0", "-1"])
    def test_x0_scale_must_be_finite_and_positive(self, capsys, factor):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                capsys, "solve", str(FIXTURES / "scalar.json"), "--x0", f"scale:{factor}",
            )
        assert code == 1
        assert out == ""
        assert err == f"error: --x0 scale factor must be finite and positive: 'scale:{factor}'\n"

    def test_newton_steps_reported(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        A = []
        for _ in range(2):
            G = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            A.append(30.0 * G / np.linalg.norm(G, 2))
        p = tmp_path / "slow.json"
        p.write_text(json.dumps({
            "n": 8, "m": 2, "Q": {"re": np.eye(8).tolist()},
            "A": [{"re": Ai.real.tolist(), "im": Ai.imag.tolist()} for Ai in A],
        }))
        code, doc, _ = run_structured(capsys, "solve", str(p))
        assert code == 0
        s = doc["report"]["solve"]
        assert s["newton_steps"] > 0
        assert s["iterations"] == len(s["history"])
        code, doc, _ = run_structured(capsys, "solve", str(FIXTURES / "example1.json"))
        assert doc["report"]["solve"]["newton_steps"] == 0


def write_instance(path, A, Q):
    path.write_text(json.dumps({
        "n": Q.shape[0], "m": len(A), "Q": {"re": Q.real.tolist(), "im": Q.imag.tolist()},
        "A": [{"re": Ai.real.tolist(), "im": Ai.imag.tolist()} for Ai in A],
    }))
    return str(path)


class TestSolveEigensolves:
    def test_mild_n128_makes_iterations_plus_two(self, capsys, tmp_path, monkeypatch):
        # one eigensolve per residual, one for Q's validation, one for the
        # scalar bounds: the three memberships are Cholesky certificates and
        # the default slack cannot win here, so its eigensolve is skipped
        rng = np.random.default_rng(1)
        A = []
        for _ in range(2):
            G = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
            A.append(0.3 * G / np.linalg.norm(G, 2))
        path = write_instance(tmp_path / "mild.json", A, np.eye(128, dtype=complex))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(None) or eigvalsh(*a, **k))
        code, doc, _ = run_structured(capsys, "solve", path)
        assert code == 0
        report = doc["report"]
        assert report["solve"]["iterations"] == 7
        assert all(report["bounds"]["membership"].values())
        assert len(calls) == report["solve"]["iterations"] + 2 == 9

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("scale, tol", [(1.0, "1e-10"), (1e8, "1e-12")])
    def test_slack_bit_for_bit(self, capsys, tmp_path, k, scale, tol):
        # the slack is max(default_membership_tolerance(coarse), 10 max(res, tol))
        # whether or not its first term's eigensolve is made; at data scale 1e8
        # with tol 1e-12 the first term wins
        inst = parse_instance(FIXTURES / f"example{k}.json")
        path = write_instance(tmp_path / "data.json", [scale * Ai for Ai in inst.A], scale * inst.Q)
        code, doc, _ = run_structured(capsys, "solve", path, "--tol", tol)
        report = doc["report"]
        inst = parse_instance(path)
        first = default_membership_tolerance(coarse_interval(inst))
        second = 10.0 * max(report["solve"]["residual_norm"], float(tol))
        assert report["bounds"]["membership_slack"] == max(first, second)
        assert (first > second) == (scale > 1.0)
        assert all(report["bounds"]["membership"].values())


def test_cli_solve_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: a slow solve, which takes the
    # Newton-GMRES finish, analyze, whose first-order change is the same
    # L-solve, and reproduce 1, whose interval membership is a Cholesky
    # certificate, must not pull scipy in through a lazy import; each runs
    # in a fresh interpreter
    script = """
import json, sys
import numpy as np
import matfix.cli
rng = np.random.default_rng(1)
A = []
for _ in range(2):
    G = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    A.append(30.0 * G / np.linalg.norm(G, 2))
path = sys.argv[1]
with open(path, "w") as fh:
    json.dump({"n": 8, "m": 2, "Q": {"re": np.eye(8).tolist()},
               "A": [{"re": a.real.tolist(), "im": a.imag.tolist()} for a in A]}, fh)
argv = sys.argv[2:] or ["solve", path]
code = matfix.cli.main(argv + ["--format", "structured"])
print("SCIPY" if any(m == "scipy" or m.startswith("scipy.") for m in sys.modules) else "CLEAN", code)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    analyze = ["analyze", str(FIXTURES / "example2.json"), str(FIXTURES / "delta_j7.json"), "--case"]
    for argv in ([], analyze + ["complex"], analyze + ["real"], ["reproduce", "1"]):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "slow.json"), *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        last = proc.stdout.strip().splitlines()[-1]
        assert last == "CLEAN 0", argv
        if not argv:
            assert '"newton_steps": 0' not in proc.stdout
        elif argv[0] == "analyze":
            assert '"first_order"' in proc.stdout
        else:
            assert '"in_scalar_interval": true' in proc.stdout


def test_parser_built_on_first_call_not_at_import():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import matfix.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


class TestCachedParser:
    """main builds its parser once per process: each call of a sequence
    prints what it prints as the first call of a process."""

    EX1 = str(FIXTURES / "example1.json")

    @pytest.mark.parametrize("calls", [
        [(("solve", EX1, "--tol", "1e-8"), None),
         (("solve", EX1, "--format", "structured", "--x0", "identity"), None),
         (("solve", EX1, "--x0", "scale:2", "--tol", "1e-12", "--format", "text"), None)],
        [(("reproduce", "2", "--seed", "5"), None), (("reproduce", "2"), "7")],
        [(("solve",), None), (("solve", EX1), None)],
        [(("--help",), None), (("reproduce", "1"), None)],
    ], ids=["options", "seed", "usage-error", "help"])
    def test_later_calls_print_as_first_calls(self, capsys, monkeypatch, calls):
        def call(argv, seed):
            if seed is None:
                monkeypatch.delenv("MATFIX_SEED", raising=False)
            else:
                monkeypatch.setenv("MATFIX_SEED", seed)
            code, out, err = run_cli(capsys, *argv)
            if "structured" in argv:
                doc = json.loads(out)
                doc.pop("wall_clock_s")
                out = json.dumps(doc)
            return code, out, err

        first = []
        for argv, seed in calls:
            cli._parser.cache_clear()
            first.append(call(argv, seed))
        assert len({out for _, out, _ in first}) == len(calls)
        cli._parser.cache_clear()
        assert [call(argv, seed) for argv, seed in calls] == first
        assert cli._parser.cache_info().misses == 1  # one parser served the sequence


class TestAnalyzeCommand:
    def test_benchmark2_j7(self, capsys):
        code, doc, _ = run_structured(
            capsys, "analyze", str(FIXTURES / "example2.json"), str(FIXTURES / "delta_j7.json"),
        )
        assert code == 0
        feas = doc["report"]["feasibility"]
        assert feas["con1"]["value"] == pytest.approx(1.1650, abs=2e-3)
        assert feas["con6"]["value"] == pytest.approx(0.4804, abs=2e-3)
        assert doc["report"]["xi1"]["relative_bound"] == pytest.approx(9.8301e-8, rel=1e-2)
        assert doc["report"]["xi2"]["relative_bound"] == pytest.approx(8.6061e-8, rel=1e-2)
        assert doc["report"]["xi3"]["absolute_bound"] == pytest.approx(6.4045e-8, rel=5e-2)
        assert doc["report"]["condition"]["case"] == "complex"
        assert doc["report"]["first_order"]["frobenius_norm"] > 0
        assert doc["report"]["backward"]["feasible"] is True

    def test_zero_delta(self, capsys):
        code, doc, _ = run_structured(
            capsys, "analyze", str(FIXTURES / "example2.json"), str(FIXTURES / "delta_zero.json"),
        )
        assert code == 0
        assert doc["report"]["xi1"]["relative_bound"] == 0.0
        assert doc["report"]["xi2"]["relative_bound"] == 0.0
        assert doc["report"]["xi3"]["relative_bound"] == 0.0
        assert all(v["passed"] for v in doc["report"]["feasibility"].values())
        assert doc["report"]["first_order"]["frobenius_norm"] == 0.0

    def test_missed_l_solve_exits_through_singular_operator(self, capsys, tmp_path, monkeypatch):
        # first_order_delta never returns an unconverged dX: one product of L
        # is far from the tolerance, and analyze exits 2 with the named error
        from matfix import EquationInstance, PerturbationSpec
        from matfix.fileio import write_delta, write_instance

        rng = np.random.default_rng(6)
        A = []
        for _ in range(2):
            G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            A.append(3.0 * G / np.linalg.norm(G, 2))
        write_instance(EquationInstance(A=A, Q=np.eye(6)), tmp_path / "inst.json")
        H = rng.standard_normal((6, 6))
        dA = [1e-6 * rng.standard_normal((6, 6)) for _ in range(2)]
        spec = PerturbationSpec(dA=dA, dQ=1e-6 * (H + H.T))
        write_delta(spec, 6, 2, tmp_path / "delta.json")
        argv = ("analyze", str(tmp_path / "inst.json"), str(tmp_path / "delta.json"))
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 3), err
        monkeypatch.setattr("matfix.perturbation.FIRST_ORDER_MATVECS", 1)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "SingularOperator" in err and "backward error" in err and "relative residual" in err

    def test_mismatched_dimensions_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", str(FIXTURES / "scalar.json"), str(FIXTURES / "delta_j7.json"),
        )
        assert code == 1
        assert "do not match" in err

    def test_batch_over_budget_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr("matfix.solver.BATCH_BUDGET_BYTES", 1)
        code, out, err = run_cli(capsys, "solve", str(FIXTURES / "example1.json"))
        assert (code, out) == (1, "")
        assert "OperatorTooLarge" in err and "k=1 solves at n=5, m=2" in err

    def test_operator_too_large_exit_1(self, capsys, monkeypatch):
        # a refused size is invalid input, not non-convergence (exit 2)
        monkeypatch.setattr("matfix.operators.DENSE_BUDGET_BYTES", 1)
        code, out, err = run_cli(
            capsys, "analyze", str(FIXTURES / "example1.json"), str(FIXTURES / "delta_j7.json"),
        )
        assert code == 1
        assert out == ""
        assert "OperatorTooLarge" in err

    def test_real_case_condition(self, capsys):
        code, doc, _ = run_structured(
            capsys, "analyze", str(FIXTURES / "example2.json"), str(FIXTURES / "delta_zero.json"),
            "--case", "real",
        )
        assert code == 0
        assert doc["report"]["condition"]["case"] == "real"

    def test_condition_violated_exit_3(self, capsys, tmp_path):
        # a perturbation far too large for the discriminant condition
        big = {"n": 5, "m": 2,
               "dA": [{"re": [[0.5 if i == j else 0.0 for j in range(5)] for i in range(5)]},
                      {"re": [[0.0] * 5 for _ in range(5)]}]}
        p = tmp_path / "big.json"
        p.write_text(json.dumps(big))
        code, doc, _ = run_structured(
            capsys, "analyze", str(FIXTURES / "example2.json"), str(p),
        )
        assert code == 3
        assert doc["report"]["xi1"]["feasible"] is False


class TestReproduceCommand:
    def test_example1(self, capsys):
        code, doc, _ = run_structured(capsys, "reproduce", "1")
        assert code == 0
        rep = doc["report"]
        assert rep["beta"] == pytest.approx(1.0009, abs=5e-4)
        assert rep["alpha"] == pytest.approx(1.1976, abs=5e-4)
        assert rep["iterations"] == 11
        assert rep["in_scalar_interval"] is True

    def test_example2_deterministic_text(self, capsys):
        code1, out1, _ = run_cli(capsys, "reproduce", "2", "--seed", "0")
        code2, out2, _ = run_cli(capsys, "reproduce", "2", "--seed", "0")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_example2_structured_modulo_clock(self, capsys):
        code1, doc1, _ = run_structured(capsys, "reproduce", "2", "--seed", "1")
        code2, doc2, _ = run_structured(capsys, "reproduce", "2", "--seed", "1")
        doc1.pop("wall_clock_s"), doc2.pop("wall_clock_s")
        assert doc1 == doc2

    def test_example2_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MATFIX_SEED", "7")
        _, doc_env, _ = run_structured(capsys, "reproduce", "2")
        monkeypatch.delenv("MATFIX_SEED")
        _, doc_flag, _ = run_structured(capsys, "reproduce", "2", "--seed", "7")
        assert doc_env["report"] == doc_flag["report"]

    def test_example3_rows(self, capsys):
        code, doc, _ = run_structured(capsys, "reproduce", "3")
        assert code == 0
        rows = doc["report"]["rows"]
        for k in ("1", "2", "3", "4"):
            assert rows[k]["dominates"] is True
        assert rows["1"]["error"] == pytest.approx(5.0268e-4, rel=1e-3)
        assert rows["1"]["bound"] == pytest.approx(5.1435e-4, rel=1e-3)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_text_byte_identical_to_golden(self, capsys, monkeypatch, k):
        # the published tables are the output contract: every printed digit
        # and the exit code must stay as recorded in tests/goldens/
        monkeypatch.delenv("MATFIX_SEED", raising=False)
        code, out, _ = run_cli(capsys, "reproduce", str(k))
        assert code == 0
        assert out.encode() == (GOLDENS / f"reproduce_{k}.txt").read_bytes()

    def test_example4_values(self, capsys):
        code, doc, _ = run_structured(capsys, "reproduce", "4")
        assert code == 0
        rows = doc["report"]["rows"]
        assert rows["1"]["c_rel"] == pytest.approx(1.2704, rel=2e-2)
        assert rows["9"]["c_rel"] == pytest.approx(1.0938, rel=2e-2)
        assert rows["1"]["substituted_symmetrized_q"] is False


class TestTextGoldens:
    # recorded before the CLI's output paths were sped up; every byte must stay
    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["solve", "example1.json"], "solve_example1.txt"),
            (["analyze", "example1.json", "delta_j7.json"], "analyze_example1_delta_j7.txt"),
        ],
    )
    def test_solve_analyze_text_byte_identical_to_golden(self, capsys, argv, golden):
        command, *files = argv
        code, out, _ = run_cli(capsys, command, *(str(FIXTURES / f) for f in files))
        assert code == 0
        assert out.encode() == (GOLDENS / golden).read_bytes()


class TestUsageErrors:
    # argparse exits 2 on its own, the code documented for non-convergence
    @pytest.mark.parametrize("argv", [["reproduce", "5"], ["reproduce", "1", "--format", "bogus"],
                                      ["solve", "x.json", "--seed", "1"], []])
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "usage: matfix" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--help")
        assert code == 0
        assert "--seed" in out


class TestInputErrors:
    # each is a parse or validation failure: exit 1, one "error:" line, no output
    @pytest.mark.parametrize("argv", [
        ["solve", "{tmp}/missing.json"],
        ["solve", "{tmp}"],
        ["analyze", "{fixtures}/example1.json", "{tmp}/missing.json"],
        ["solve", "{fixtures}/example1.json", "--x0", "file:{tmp}/missing.json"],
        ["solve", "{fixtures}/example1.json", "--tol", "inf"],
        ["solve", "{fixtures}/example1.json", "--tol", "nan"],
        ["reproduce", "1", "--tol", "inf"],
        ["analyze", "{fixtures}/example1.json", "{tmp}/upper.json"],
    ])
    def test_exits_1(self, capsys, tmp_path, argv):
        dQ = np.triu(np.full((5, 5), 1e-6))  # not Hermitian
        (tmp_path / "upper.json").write_text(json.dumps({"n": 5, "m": 2, "dQ": {"re": dQ.tolist()}}))
        argv = [a.format(tmp=tmp_path, fixtures=FIXTURES) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_missing_file_names_its_path(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", str(tmp_path / "missing.json"))
        assert code == 1
        assert str(tmp_path / "missing.json") in err

    def test_missing_file_in_a_fresh_interpreter(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "matfix.cli", "solve", str(tmp_path / "missing.json")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


class TestOnePathPerQuantity:
    def test_raw_solve_maps_once_per_iteration(self, capsys, monkeypatch):
        # iterations + 1 evaluations of F: the start and one per iterate; the
        # raw residual is the iteration's own
        from matfix import solver
        calls = []
        lu_map = solver._lu_map
        monkeypatch.setattr(solver, "_lu_map", lambda *a: calls.append(None) or lu_map(*a))
        for name in ("example4", "complex3"):
            calls.clear()
            code, doc, _ = run_structured(capsys, "solve", str(FIXTURES / f"{name}.json"),
                                          "--allow-nonhermitian")
            raw = doc["report"]["solve"]
            assert len(calls) == raw["iterations"] + 1
            assert raw["raw_residual_norm"] == raw["residual_norm"]

    def test_reproduce_3_makes_no_inverse(self, capsys, monkeypatch):
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda *a, **k: calls.append(None) or inv(*a, **k))
        code, out, _ = run_cli(capsys, "reproduce", "3")
        assert code == 0
        assert out.encode() == (GOLDENS / "reproduce_3.txt").read_bytes()
        assert calls == []


def _expand(pattern: str) -> set[str]:
    """Brace expansion: "a.{b,c.{d,e}}" -> {"a.b", "a.c.d", "a.c.e"}."""
    start = pattern.find("{")
    if start < 0:
        return {pattern}
    depth, parts, last = 0, [], start + 1
    for end in range(start, len(pattern)):
        depth += {"{": 1, "}": -1}.get(pattern[end], 0)
        if depth == 1 and pattern[end] == ",":
            parts.append(pattern[last:end])
            last = end + 1
        elif depth == 0:
            break
    parts.append(pattern[last:end])
    return {p for part in parts for p in _expand(pattern[:start] + part + pattern[end + 1:])}


def _leaf_paths(doc: dict, prefix: str = "") -> set[str]:
    paths = set()
    for key, value in doc.items():
        if isinstance(value, dict):
            paths |= _leaf_paths(value, f"{prefix}{key}.")
        else:
            paths.add(prefix + key)
    return paths


_ENVELOPE = "{schema_version,command,argv,settings.{tol,max_iter,seed},wall_clock_s,exit_code}"
_CONS = "{con1,con2,con3,con4,con5,con6}"
_ANALYZE = (
    "report.{solve.{converged,iterations,residual_norm},bounds.{alpha,beta},delta_norms.{dA,dQ},"
    "feasibility.{con1,con2,con3,con4,con5,con6}.{value,passed},"
    "backward.{Sigma,residual_norm,threshold,theta,bound,feasible},"
    "condition.{mode,case,value,xi,rho,etas},first_order.{dX.re,frobenius_norm}}"
)
_XI12_FEASIBLE = (
    "report.{xi1.{conditions.{b_positive,b_below_2beta_sq,discriminant}.{value,passed},"
    "inputs.{beta,b,s,dq_norm,sum_da}},"
    "xi2.{conditions.{coeff_norms_below_beta_sq,perturbed_norms_below_beta_sq}.{value,passed},"
    "inputs.{beta,base_margin,pert_margin,norm_x}}}"
)
_XI3_FEASIBLE = (
    "report.xi3.{conditions.{sigma_below_one,eps_below_threshold}.{value,passed},"
    "inputs.{l,zeta,theta,sigma,eps,eps_threshold,norm_x}}"
)


class TestStructuredSchema:
    # the key paths of every structured report, as recorded before the
    # reproduce tables were driven from the published values
    @pytest.mark.parametrize("argv, code, patterns", [
        (["reproduce", "1"], 0, [
            "report.{beta,alpha,iterations,residual_norm,converged,X.re,in_scalar_interval,example}",
            "report.deviations.{beta,alpha,iterations,residual,X_max_abs}",
        ]),
        (["reproduce", "2"], 0, [
            "report.{seed,example}",
            "report.columns.{4,5,6,7}.{conditions_pass,true_rel_error_geomean,xi1,xi2,nu_star}",
            "report.columns.{4,5,6,7}.conditions." + _CONS,
            "report.columns.{4,5,6,7}.deviations."
            "{con1,con2,con3,con4,con5,con6,true_rel_error,xi1,xi2,nu_star}",
        ]),
        (["reproduce", "3"], 0, [
            "report.example",
            "report.rows.{1,2,3,4}.{error,bound,feasible,dominates,deviations.{error,bound}}",
        ]),
        (["reproduce", "4"], 0, [
            "report.example",
            "report.rows.{1,3,5,7,9}.{c_rel,iterations,substituted_symmetrized_q,deviation}",
        ]),
        (["solve", "example1.json"], 0, [
            "report.solve.{converged,iterations,residual_norm,rate,newton_steps,history,X.re}",
            "report.bounds.{alpha,beta,membership.{coarse,refined,scalar},membership_slack}",
        ]),
        (["solve", "--allow-nonhermitian", "example4.json"], 0, [
            "report.solve.{converged,iterations,residual_norm,rate,newton_steps,history,X.re}",
            "report.solve.raw_residual_norm",
        ]),
        (["analyze", "example1.json", "delta_j7.json", "--case", "complex"], 0, [
            _ANALYZE, "report.{xi1,xi2,xi3}.{feasible,relative_bound,absolute_bound}",
            _XI12_FEASIBLE, _XI3_FEASIBLE,
        ]),
        (["analyze", "example1.json", "delta_j7.json", "--case", "real"], 0, [
            _ANALYZE, "report.{xi1,xi2,xi3}.{feasible,relative_bound,absolute_bound}",
            _XI12_FEASIBLE, _XI3_FEASIBLE,
        ]),
        (["analyze", "example3.json", "delta_j7.json"], 3, [
            _ANALYZE,
            "report.{xi1,xi2}.{feasible,condition}",
            "report.xi1.values.{beta,b,s,dq_norm,sum_da,b_positive}",
            "report.xi2.values.{beta,base_margin,pert_margin,coeff_norms_below_beta_sq}",
            "report.xi3.{feasible,relative_bound,absolute_bound}", _XI3_FEASIBLE,
        ]),
    ])
    def test_key_paths(self, capsys, monkeypatch, argv, code, patterns):
        monkeypatch.delenv("MATFIX_SEED", raising=False)
        argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
        got_code, doc, _ = run_structured(capsys, *argv)
        assert got_code == code
        expected = set().union(*(_expand(p) for p in [_ENVELOPE, *patterns]))
        assert _leaf_paths(doc) == expected
