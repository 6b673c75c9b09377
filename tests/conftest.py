import numpy as np
import pytest

from twinobs import BipartiteState, SpinScenario, build_scenario
from twinobs.linops import hermitian_basis


def random_state(rng, d_plus, d_minus, rank=None):
    """Random bipartite state of the given rank (full rank by default)."""
    dim = d_plus * d_minus
    if rank is None:
        rank = dim
    vecs = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    w = rng.uniform(0.2, 1.0, size=rank)
    rho = sum(
        wi * np.outer(v, v.conj()) / np.linalg.norm(v) ** 2
        for wi, v in zip(w, vecs.T)
    )
    rho /= np.trace(rho).real
    return BipartiteState(d_plus=d_plus, d_minus=d_minus, rho=rho)


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated while call() runs
    (NumPy reports its array buffers to tracemalloc)."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_hermitian(rng, d):
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (M + M.conj().T) / 2


def oracle_twin_coords(state):
    """Independent brute-force solution of the twin equation.

    Builds the full 2*(d_plus*d_minus)^2 x (d_plus^2 + d_minus^2) real
    matrix of the map (A_plus, A_minus) -> (A_plus ⊗ 1 - 1 ⊗ A_minus) rho
    with explicit index loops (no Kronecker products, no range-basis
    reduction) and returns an orthonormal basis of its kernel.
    """
    import scipy.linalg

    dp, dm = state.d_plus, state.d_minus
    D = dp * dm
    rho = state.rho
    cols = []
    for G in hermitian_basis(dp):
        # (G ⊗ 1) rho by explicit composite-index arithmetic
        M = np.zeros((D, D), dtype=complex)
        for ip in range(dp):
            for im in range(dm):
                i = ip * dm + im
                for kp in range(dp):
                    M[i, :] += G[ip, kp] * rho[kp * dm + im, :]
        cols.append(np.concatenate([M.real.ravel(), M.imag.ravel()]))
    for G in hermitian_basis(dm):
        # -(1 ⊗ G) rho
        M = np.zeros((D, D), dtype=complex)
        for ip in range(dp):
            for im in range(dm):
                i = ip * dm + im
                for km in range(dm):
                    M[i, :] -= G[im, km] * rho[ip * dm + km, :]
        cols.append(np.concatenate([M.real.ravel(), M.imag.ravel()]))
    A = np.column_stack(cols)
    return scipy.linalg.null_space(A, rcond=1e-10)


# one pass/fail line per acceptance criterion, printed after the run
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def example1():
    return build_scenario(SpinScenario("example1_range10_00"))


@pytest.fixture(scope="session")
def example1_insufficient():
    return build_scenario(SpinScenario("example1_range10_1m1"))


@pytest.fixture(scope="session")
def example2_ms0():
    return build_scenario(SpinScenario("example2_ms0"))


@pytest.fixture(scope="session")
def example2_ms1():
    return build_scenario(SpinScenario("example2_ms1"))
