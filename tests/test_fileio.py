import json
from pathlib import Path

import numpy as np
import pytest

from matfix import NotHermitian, ParseError
from matfix.fileio import (
    _grid,
    _grid_walk,
    matrix_to_obj,
    parse_delta,
    parse_instance,
    parse_single_matrix,
)
from tests.conftest import write_delta, write_instance

FIXTURES = Path(__file__).parent / "fixtures"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        ["example1.json", "example2.json", "example3.json", "example4.json",
         "scalar.json", "complex3.json"],
    )
    def test_instance_value_identical(self, name, tmp_path):
        inst = parse_instance(FIXTURES / name)
        out = tmp_path / name
        write_instance(inst, out)
        again = parse_instance(out)
        assert np.array_equal(inst.Q, again.Q)
        assert len(inst.A) == len(again.A)
        for a, b in zip(inst.A, again.A):
            assert np.array_equal(a, b)

    def test_delta_value_identical(self, tmp_path):
        inst = parse_instance(FIXTURES / "example2.json")
        spec = parse_delta(FIXTURES / "delta_j7.json", inst)
        out = tmp_path / "d.json"
        write_delta(spec, out)
        again = parse_delta(out, inst)
        assert np.array_equal(spec.dQ, again.dQ)
        for a, b in zip(spec.dA, again.dA):
            assert np.array_equal(a, b)


class TestParseErrors:
    def test_bad_json_names_line(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"n": 1,\n  "m": }')
        with pytest.raises(ParseError, match="line 2"):
            parse_instance(p)

    def test_missing_q(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"n": 1, "m": 1, "A": [{"re": [[1.0]]}]}))
        with pytest.raises(ParseError, match="'Q'"):
            parse_instance(p)

    def test_ragged_rows_named(self, tmp_path):
        p = tmp_path / "x.json"
        doc = {"n": 2, "m": 1, "Q": {"re": [[1.0, 0.0], [0.0]]},
               "A": [{"re": [[0.0, 0.0], [0.0, 0.0]]}]}
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"Q\.re: row 1"):
            parse_instance(p)

    def test_wrong_m_count(self, tmp_path):
        p = tmp_path / "x.json"
        doc = {"n": 1, "m": 2, "Q": {"re": [[1.0]]}, "A": [{"re": [[0.0]]}]}
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="m says 2"):
            parse_instance(p)

    def test_non_number_entry(self, tmp_path):
        p = tmp_path / "x.json"
        doc = {"n": 1, "m": 1, "Q": {"re": [["x"]]}, "A": [{"re": [[0.0]]}]}
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"\(0,0\)"):
            parse_instance(p)

    def test_delta_dimension_mismatch(self, tmp_path):
        inst = parse_instance(FIXTURES / "scalar.json")
        p = tmp_path / "d.json"
        p.write_text(json.dumps({"n": 5, "m": 2, "dQ": {"re": [[0.0] * 5] * 5}}))
        with pytest.raises(ParseError, match="do not match"):
            parse_delta(p, inst)

    def test_unknown_matrix_keys(self, tmp_path):
        p = tmp_path / "x.json"
        doc = {"n": 1, "m": 1, "Q": {"re": [[1.0]], "imag": [[0.0]]}, "A": [{"re": [[0.0]]}]}
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="unknown keys"):
            parse_instance(p)


    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_file_names_path(self, tmp_path, kind):
        p = tmp_path / "x.json"
        if kind == "directory":
            p.mkdir()
        elif kind == "not_utf8":
            p.write_bytes(b'{"n": 1, "m": 1, "Q": "\xff"}')
        with pytest.raises(ParseError, match="cannot read") as exc:
            parse_instance(p)
        assert str(p) in str(exc.value)

    def test_non_hermitian_dq(self, tmp_path):
        inst = parse_instance(FIXTURES / "example1.json")
        p = tmp_path / "d.json"
        dQ = np.triu(np.full((5, 5), 1e-6))
        p.write_text(json.dumps({"n": 5, "m": 2, "dQ": {"re": dQ.tolist()}}))
        with pytest.raises(NotHermitian, match=f"{p}: dQ is not Hermitian"):
            parse_delta(p, inst)

    @pytest.mark.parametrize("name", ["delta_j7", "delta_zero"])
    def test_fixture_deltas_are_hermitian(self, name):
        inst = parse_instance(FIXTURES / "example1.json")
        spec = parse_delta(FIXTURES / f"{name}.json", inst)
        assert np.array_equal(spec.dQ, spec.dQ.conj().T)

class TestDefaults:
    def test_delta_defaults_to_zero(self, tmp_path):
        inst = parse_instance(FIXTURES / "example2.json")
        p = tmp_path / "d.json"
        p.write_text(json.dumps({"n": 5, "m": 2}))
        spec = parse_delta(p, inst)
        assert np.all(spec.dQ == 0)
        assert all(np.all(D == 0) for D in spec.dA)

    def test_imaginary_part_optional(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"re": [[1.0, 2.0], [3.0, 4.0]]}))
        M = parse_single_matrix(p)
        assert M.dtype == complex
        assert np.all(M.imag == 0)

    def test_imaginary_part_parsed(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"re": [[1.0]], "im": [[2.0]]}))
        assert parse_single_matrix(p)[0, 0] == 1.0 + 2.0j


class TestGridFastPath:
    """The one-call fast path and the per-entry walk agree on every grid."""

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.5, -2.0], [0.0, 3.25]],
            [[1, -2], [0, 3]],  # ints
            [[1, 2.5], [-0.0, 7]],  # ints mixed with floats
            [[2**53 + 1, -(2**64) - 1], [10**300, 3]],  # ints rounded to doubles
            [[float("nan"), 1.0], [2.0, float("inf")]],  # NaN and Infinity literals
        ],
    )
    def test_same_array(self, rows):
        fast, walk = _grid(rows, 2, "Q.re"), _grid_walk(rows, 2, "Q.re")
        assert fast.dtype == walk.dtype == np.float64
        assert np.array_equal(fast, walk, equal_nan=True)
        assert fast.tobytes() == walk.tobytes()

    def test_random_entries_bit_identical(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((7, 7)) * 10.0 ** rng.integers(-300, 300, (7, 7))
        rows = M.tolist()
        rows[2][5] = int(rng.integers(-(2**62), 2**62))
        assert _grid(rows, 7, "x").tobytes() == _grid_walk(rows, 7, "x").tobytes()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1.0, 0.0], [0.0]], "Q.re: row 1 has 1 entries, expected 2"),  # ragged
            ([[1.0, 0.0]], "Q.re: expected 2 rows, got list of length 1"),
            ({"a": 1}, "Q.re: expected 2 rows, got dict"),
            ([[1.0, True], [0.0, 1.0]], r"Q.re: entry \(0,1\) is not a number"),  # bool
            ([[1.0, 0.0], ["0", 1.0]], r"Q.re: entry \(1,0\) is not a number"),  # string
            ([[1.0, 0.0], [0.0, [1.0]]], r"Q.re: entry \(1,1\) is not a number"),  # nested
            ([[1.0, 0.0], [0.0, None]], r"Q.re: entry \(1,1\) is not a number"),
            ([[1.0, 0.0], [0.0, 10**400]], r"Q.re: entry \(1,1\) is too large for a double"),
        ],
    )
    def test_same_parse_error(self, rows, message):
        with pytest.raises(ParseError, match=message) as fast:
            _grid(rows, 2, "Q.re")
        with pytest.raises(ParseError) as walk:
            _grid_walk(rows, 2, "Q.re")
        assert str(fast.value) == str(walk.value)

    def test_integer_too_large_for_double_names_entry(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"n": 2, "m": 1, "Q": {"re": [[1, 0], [0, 1]]},'
                     ' "A": [{"re": [[0, 0], [0, 0]], "im": [[0, 0], [-1%s, 0]]}]}' % ("0" * 400))
        with pytest.raises(ParseError, match=r"A\[0\]\.im: entry \(1,0\) is too large"):
            parse_instance(p)


class TestMatrixToObj:
    def test_plain_floats_bit_identical(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obj = matrix_to_obj(M)
        assert all(type(v) is float for row in obj["re"] + obj["im"] for v in row)
        assert np.array_equal(np.array(obj["re"]) + 1j * np.array(obj["im"]), M)

    def test_real_matrix_has_no_im(self):
        assert matrix_to_obj(np.eye(2)) == {"re": [[1.0, 0.0], [0.0, 1.0]]}
