"""The layout cache of solve_twin_space: the unit bases and the block
layout of an eigenspace layout are built once, kept read-only and
fetched by one lookup per solve, and the twin space is bitwise the same
whether the cache is cold, warm or bypassed."""

import numpy as np
import pytest

from twinobs import solve_twin_space, twins

from test_compressed_constraint import STATES


def space_bytes(space):
    dims = (space.dim_total, space.dim_detectable, space.dim_undetectable_plus,
            space.dim_undetectable_minus)
    return dims, [(p.a_plus.tobytes(), p.a_minus.tobytes()) for p in space.basis]


@pytest.mark.parametrize("name", STATES)
def test_cold_warm_and_uncached_solves_are_bitwise_equal(name, monkeypatch):
    def solve():
        return space_bytes(solve_twin_space(STATES[name](np.random.default_rng(sum(map(ord, name))))))

    twins._layout.cache_clear()
    cold = solve()
    info = twins._layout.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    warm = solve()
    info = twins._layout.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    monkeypatch.setattr(twins, "_layout", twins._layout.__wrapped__)
    uncached = solve()
    assert warm == cold
    assert uncached == cold


def test_cached_arrays_are_read_only():
    twins._layout.cache_clear()
    layout = twins._layout((0, 0, 1), (0, 1, 1, 1))
    assert all(a is not None for a in layout)
    for a in layout:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]
    assert twins._layout((0, 0, 1), (0, 1, 1, 1)) is layout


def test_nondegenerate_layout_keeps_no_index_maps():
    units_plus, units_minus, m_b, slots, pair, row = twins._layout((0, 1, 2), (0, 1))
    assert units_plus.shape == (3, 3, 3) and units_minus.shape == (2, 2, 2)
    assert m_b.tolist() == [1] * 6
    assert slots is pair is row is None
    with pytest.raises(ValueError):
        m_b[0] = 2


def test_cache_size_stays_within_the_bound():
    twins._layout.cache_clear()
    # a nondegenerate eigenspaces, then b of dimension 2
    layouts = [tuple(range(a)) + tuple(a + i // 2 for i in range(2 * b))
               for a in range(6) for b in range(6)][1:]
    assert len(layouts) > 2 * twins._LAYOUT_CACHE_SIZE
    for labels in layouts:
        twins._layout(labels, labels[:1])
        assert twins._layout.cache_info().currsize <= twins._LAYOUT_CACHE_SIZE
    info = twins._layout.cache_info()
    assert info.maxsize == info.currsize == twins._LAYOUT_CACHE_SIZE
    assert info.misses == len(layouts)
