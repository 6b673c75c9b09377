"""JSON interchange for states, observable pairs and decompositions.

Complex matrices are stored row-major as nested lists of [re, im]
pairs; the composite index convention is i = i_plus * d_minus + i_minus.
Floats go through Python's shortest round-trip repr, so parse(serialize)
is the identity to full double precision.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from .errors import InputError, TwinObsError
from .linops import Tolerances, DEFAULT_TOL
from .states import BipartiteState, PureDecomposition
from .twins import ObservablePair


def matrix_to_json(M: np.ndarray) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def _complex_from_json(data, locus: str, ndim: int, layout: str) -> np.ndarray:
    """Array of [re, im] pairs with `ndim` complex axes -> complex array."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{locus}: not a numeric array: {exc}") from exc
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise InputError(f"{locus}: expected {layout} of [re, im] pairs, got shape {arr.shape}")
    # json accepts the literals NaN, Infinity and -Infinity
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{locus}: non-finite entry (NaN or Infinity)")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_from_json(data, locus: str = "matrix") -> np.ndarray:
    return _complex_from_json(data, locus, 2, "rows")


def vector_from_json(data, locus: str = "vector") -> np.ndarray:
    return _complex_from_json(data, locus, 1, "a list")


def vector_to_json(v: np.ndarray) -> list:
    return matrix_to_json(np.ravel(v))


def tolerances_from_json(data) -> Tolerances:
    if data is None:
        return DEFAULT_TOL
    if not isinstance(data, dict):
        raise InputError("tolerances: expected a JSON object")
    known = {f.name for f in fields(Tolerances)}
    bad = set(data) - known
    if bad:
        raise InputError(f"tolerances: unknown fields {sorted(bad)}")
    try:
        return Tolerances(**{k: float(v) for k, v in data.items()})
    except (TypeError, ValueError) as exc:
        raise InputError(f"tolerances: {exc}") from exc


def state_to_document(state: BipartiteState) -> dict:
    return {
        "dims": [state.d_plus, state.d_minus],
        "rho": matrix_to_json(state.rho),
        "tolerances": asdict(state.tol),
    }


def state_from_document(doc: dict, tol_override: Tolerances | None = None) -> BipartiteState:
    if not isinstance(doc, dict):
        raise InputError("state document: expected a JSON object")
    for field in ("dims", "rho"):
        if field not in doc:
            raise InputError(f"state document: missing field {field!r}")
    dims = doc["dims"]
    if (not isinstance(dims, list) or len(dims) != 2
            or any(not isinstance(d, int) or isinstance(d, bool) or d < 1 for d in dims)):
        raise InputError("state document: dims must be two positive integers")
    rho = matrix_from_json(doc["rho"], "rho")
    tol = tol_override if tol_override is not None else tolerances_from_json(
        doc.get("tolerances")
    )
    try:
        return BipartiteState(d_plus=dims[0], d_minus=dims[1], rho=rho, tol=tol)
    except TwinObsError as exc:
        raise InputError(f"state document: {exc}") from exc


def pair_to_document(pair: ObservablePair) -> dict:
    return {
        "a_plus": matrix_to_json(pair.a_plus),
        "a_minus": matrix_to_json(pair.a_minus),
    }


def pair_from_document(doc: dict) -> ObservablePair:
    if not isinstance(doc, dict):
        raise InputError("pair document: expected a JSON object")
    for field in ("a_plus", "a_minus"):
        if field not in doc:
            raise InputError(f"pair document: missing field {field!r}")
    try:
        return ObservablePair(
            matrix_from_json(doc["a_plus"], "a_plus"),
            matrix_from_json(doc["a_minus"], "a_minus"),
        )
    except TwinObsError as exc:
        raise InputError(f"pair document: {exc}") from exc


def decomposition_to_document(dec: PureDecomposition) -> dict:
    return {
        "weights": list(dec.weights),
        "vectors": [vector_to_json(v) for v in dec.vectors],
    }


def decomposition_from_document(doc: dict) -> PureDecomposition:
    if not isinstance(doc, dict):
        raise InputError("decomposition document: expected a JSON object")
    for field in ("weights", "vectors"):
        if field not in doc:
            raise InputError(f"decomposition document: missing field {field!r}")
    weights = doc["weights"]
    if not isinstance(weights, list) or any(
            isinstance(w, bool) or not isinstance(w, (int, float)) for w in weights):
        raise InputError("decomposition document: weights must be a list of numbers")
    if not isinstance(doc["vectors"], list):
        raise InputError("decomposition document: vectors must be a list of vectors")
    vectors = [
        vector_from_json(v, f"vectors[{i}]") for i, v in enumerate(doc["vectors"])
    ]
    try:
        return PureDecomposition(weights=tuple(weights), vectors=tuple(vectors))
    except TwinObsError as exc:
        raise InputError(f"decomposition document: {exc}") from exc


def load_json(path_or_stream, locus: str) -> dict:
    try:
        if hasattr(path_or_stream, "read"):
            return json.load(path_or_stream)
        with open(path_or_stream) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{locus}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{locus}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc


def dump_json(doc) -> str:
    return json.dumps(doc, indent=2)
