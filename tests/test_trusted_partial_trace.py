"""The state's reductions go through ``linops.partial_trace`` on the
trusted ``_Hermitian`` view of rho, which skips the finite scan of
``as_matrix``: the same reductions, bit for bit, as from a plain copy of
rho, while a plain array keeps every check."""

import numpy as np
import pytest

from twinobs import linops
from twinobs.errors import DimensionMismatchError

from conftest import random_state
from test_product_kernels import on_factor_path, pure_schmidt_state


def states():
    rng = np.random.default_rng(2501)
    return [
        ("factor path", pure_schmidt_state(rng, 4, 4), True),
        ("factor path, unequal dims", pure_schmidt_state(rng, 3, 6), True),
        ("eigh path", random_state(rng, 3, 3), False),
        ("eigh path, unequal dims", random_state(rng, 2, 5, rank=3), False),
    ]


@pytest.mark.parametrize("index", range(4))
def test_reductions_equal_those_of_a_plain_copy(index):
    _, state, factor_path = states()[index]
    assert on_factor_path(state) is factor_path
    plain = np.array(state.rho)
    assert plain.flags.writeable and type(plain) is np.ndarray
    sub = state.subsystems
    for got, side in ((sub.rho_plus, "-"), (sub.rho_minus, "+")):
        expected = linops.partial_trace(plain, state.d_plus, state.d_minus, side)
        assert type(got) is np.ndarray
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("index", range(4))
def test_subsystems_make_no_finite_scan(index, monkeypatch):
    _, state, _ = states()[index]
    calls = []
    as_matrix = linops.as_matrix
    monkeypatch.setattr(linops, "as_matrix", lambda *a, **k: calls.append(1) or as_matrix(*a, **k))
    state.subsystems
    assert calls == []
    # a plain array still goes through as_matrix
    linops.partial_trace(np.array(state.rho), state.d_plus, state.d_minus, "-")
    assert calls == [1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_plain_array_with_non_finite_entry_is_rejected(bad):
    rho = np.eye(6, dtype=complex) / 6
    rho[2, 4] = bad
    for side in "+-":
        with pytest.raises(ValueError, match="NaN or Inf"):
            linops.partial_trace(rho, 2, 3, side)


@pytest.mark.parametrize("shape", [(5, 5), (6, 4), (6,), (2, 3, 6)])
def test_wrong_shape_is_rejected(shape):
    with pytest.raises(DimensionMismatchError):
        linops.partial_trace(np.zeros(shape, dtype=complex), 2, 3, "-")


def test_trusted_view_of_wrong_shape_is_rejected():
    rho = (np.eye(5, dtype=complex) / 5).view(linops._Hermitian)
    with pytest.raises(DimensionMismatchError):
        linops.partial_trace(rho, 2, 3, "+")
