"""JSON file formats for equation instances and perturbations.

Instance document::

    {
      "n": 2, "m": 1,
      "Q": {"re": [[...], [...]], "im": [[...], [...]]},
      "A": [{"re": [[...], [...]]}]
    }

``im`` is optional (defaults to zero).  A perturbation document uses the
same matrix objects under keys ``dQ`` and ``dA``, both optional (defaulting
to zero); ``dQ`` must be exactly Hermitian, as Q must.  Numbers round-trip
at full double precision; parse errors name the offending field or line,
and an unreadable file (missing, a directory, not UTF-8) its path.

A grid of rows is converted in one ``np.array`` call once a fast check has
seen n lists of n entries, every entry a JSON number (``int`` or ``float``).
Anything else, and an integer too large for a double, goes through the
per-entry walk, which accepts exactly the same grids and raises the
:class:`ParseError` naming the field, row or entry.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import NotHermitian, ParseError
from .linalg import is_exactly_hermitian
from .perturbation import PerturbationSpec
from .solver import EquationInstance

Array = np.ndarray


_JSON_NUMBERS = frozenset((int, float))


def _grid(obj, n: int, where: str) -> Array:
    if (
        type(obj) is list
        and len(obj) == n
        and all(type(row) is list and len(row) == n for row in obj)
        and set(map(type, chain.from_iterable(obj))) <= _JSON_NUMBERS
    ):
        try:
            return np.array(obj, dtype=float)
        except OverflowError:
            pass  # an integer beyond the double range; the walk names it
    return _grid_walk(obj, n, where)


def _grid_walk(obj, n: int, where: str) -> Array:
    """Entry-by-entry conversion of a grid; raises a ParseError naming the fault."""
    if not isinstance(obj, list) or len(obj) != n:
        raise ParseError(f"{where}: expected {n} rows, got {type(obj).__name__}"
                         f"{' of length ' + str(len(obj)) if isinstance(obj, list) else ''}")
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{where}: row {r} has {len(row) if isinstance(row, list) else 'no'} "
                             f"entries, expected {n}")
        values = []
        for c, v in enumerate(row):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ParseError(f"{where}: entry ({r},{c}) is not a number")
            try:
                values.append(float(v))
            except OverflowError:
                raise ParseError(f"{where}: entry ({r},{c}) is too large for a double") from None
        rows.append(values)
    return np.array(rows)


def _matrix(obj, n: int, where: str) -> Array:
    if not isinstance(obj, dict) or "re" not in obj:
        raise ParseError(f"{where}: expected an object with key 're'")
    unknown = set(obj) - {"re", "im"}
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    re = _grid(obj["re"], n, f"{where}.re")
    if "im" in obj:
        im = _grid(obj["im"], n, f"{where}.im")
        return re + 1j * im
    return re.astype(complex)


def _load_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def _counts(doc: dict, path) -> tuple[int, int]:
    for key in ("n", "m"):
        if key not in doc:
            raise ParseError(f"{path}: missing key '{key}'")
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) or doc[key] < 1:
            raise ParseError(f"{path}: '{key}' must be a positive integer")
    return doc["n"], doc["m"]


def parse_instance(path) -> EquationInstance:
    doc = _load_json(path)
    n, m = _counts(doc, path)
    if "Q" not in doc:
        raise ParseError(f"{path}: missing key 'Q'")
    Q = _matrix(doc["Q"], n, "Q")
    if "A" not in doc or not isinstance(doc["A"], list):
        raise ParseError(f"{path}: missing or non-list key 'A'")
    if len(doc["A"]) != m:
        raise ParseError(f"{path}: 'A' has {len(doc['A'])} matrices, m says {m}")
    A = [_matrix(doc["A"][i], n, f"A[{i}]") for i in range(m)]
    return EquationInstance(A=A, Q=Q)


def parse_delta(path, instance: EquationInstance) -> PerturbationSpec:
    doc = _load_json(path)
    n, m = _counts(doc, path)
    if n != instance.n or m != instance.m:
        raise ParseError(
            f"{path}: dimensions (n={n}, m={m}) do not match the instance "
            f"(n={instance.n}, m={instance.m})"
        )
    if "dQ" in doc:
        dQ = _matrix(doc["dQ"], n, "dQ")
        if not is_exactly_hermitian(dQ):
            raise NotHermitian(f"{path}: dQ is not Hermitian")
    else:
        dQ = np.zeros((n, n), dtype=complex)
    if "dA" in doc:
        if not isinstance(doc["dA"], list) or len(doc["dA"]) != m:
            raise ParseError(f"{path}: 'dA' must list {m} matrices")
        dA = [_matrix(doc["dA"][i], n, f"dA[{i}]") for i in range(m)]
    else:
        dA = [np.zeros((n, n), dtype=complex) for _ in range(m)]
    return PerturbationSpec(dA=dA, dQ=dQ)


def matrix_to_obj(M: Array) -> dict:
    M = np.asarray(M, dtype=complex)
    obj = {"re": M.real.tolist()}
    if np.any(M.imag != 0.0):
        obj["im"] = M.imag.tolist()
    return obj


def parse_single_matrix(path) -> Array:
    """A standalone matrix file: {"re": [[...]], "im": [[...]]} (im optional)."""
    doc = _load_json(path)
    if "re" not in doc:
        raise ParseError(f"{path}: missing key 're'")
    rows = doc["re"]
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{path}: 're' must be a non-empty list of rows")
    n = len(rows)
    return _matrix(doc, n, "matrix")
