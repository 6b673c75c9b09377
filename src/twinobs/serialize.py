"""JSON interchange for states, observable pairs and decompositions.

Complex matrices are stored row-major as nested lists of [re, im]
pairs; the composite index convention is i = i_plus * d_minus + i_minus.
Floats go through Python's shortest round-trip repr, so parse(serialize)
is the identity to full double precision.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

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
    with _document(data, "tolerances"):
        bad = set(data) - set(Tolerances.FIELDS)
        if bad:
            raise InputError(f"tolerances: unknown fields {sorted(bad)}")
        try:
            return Tolerances(**{k: float(v) for k, v in data.items()})
        except (TypeError, ValueError) as exc:
            raise InputError(f"tolerances: {exc}") from exc


@contextmanager
def _document(doc, kind: str, *required: str):
    """Read a document of the given kind in the with-block.

    Raises InputError naming the kind when doc is not a JSON object or
    lacks a required field, and turns a TwinObsError of the block that
    is not already an InputError into one with that prefix."""
    if not isinstance(doc, dict):
        raise InputError(f"{kind}: expected a JSON object")
    for field in required:
        if field not in doc:
            raise InputError(f"{kind}: missing field {field!r}")
    try:
        yield
    except InputError:
        raise
    except TwinObsError as exc:
        raise InputError(f"{kind}: {exc}") from exc


def state_to_document(state: BipartiteState) -> dict:
    return {
        "dims": [state.d_plus, state.d_minus],
        "rho": matrix_to_json(state.rho),
        "tolerances": dict(vars(state.tol)),
    }


def state_from_document(doc: dict, tol_override: Tolerances | None = None) -> BipartiteState:
    with _document(doc, "state document", "dims", "rho"):
        dims = doc["dims"]
        if (not isinstance(dims, list) or len(dims) != 2
                or any(not isinstance(d, int) or isinstance(d, bool) or d < 1 for d in dims)):
            raise InputError("state document: dims must be two positive integers")
        rho = matrix_from_json(doc["rho"], "rho")
        tol = tolerances_from_json(doc.get("tolerances")) if tol_override is None else tol_override
        return BipartiteState(d_plus=dims[0], d_minus=dims[1], rho=rho, tol=tol)


def pair_to_document(pair: ObservablePair) -> dict:
    return {
        "a_plus": matrix_to_json(pair.a_plus),
        "a_minus": matrix_to_json(pair.a_minus),
    }


def pair_from_document(doc: dict) -> ObservablePair:
    with _document(doc, "pair document", "a_plus", "a_minus"):
        return ObservablePair(
            matrix_from_json(doc["a_plus"], "a_plus"),
            matrix_from_json(doc["a_minus"], "a_minus"),
        )


def decomposition_to_document(dec: PureDecomposition) -> dict:
    return {
        "weights": list(dec.weights),
        "vectors": [vector_to_json(v) for v in dec.vectors],
    }


def decomposition_from_document(doc: dict) -> PureDecomposition:
    with _document(doc, "decomposition document", "weights", "vectors"):
        weights = doc["weights"]
        if not isinstance(weights, list) or any(
                isinstance(w, bool) or not isinstance(w, (int, float)) for w in weights):
            raise InputError("decomposition document: weights must be a list of numbers")
        if not isinstance(doc["vectors"], list):
            raise InputError("decomposition document: vectors must be a list of vectors")
        vectors = [
            vector_from_json(v, f"vectors[{i}]") for i, v in enumerate(doc["vectors"])
        ]
        return PureDecomposition(weights=tuple(weights), vectors=tuple(vectors))


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
