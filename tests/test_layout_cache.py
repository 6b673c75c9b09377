"""The layout caches of solve_twin_space: the unit bases and the block
layout of an eigenspace layout are built once and kept read-only, and
the twin space is bitwise the same whether they are cold, warm or not
cached at all."""

import numpy as np
import pytest

from twinobs import solve_twin_space, twins

from test_compressed_constraint import STATES

CACHES = (twins._unit_basis, twins._block_layout)


def space_bytes(space):
    dims = (space.dim_total, space.dim_detectable, space.dim_undetectable_plus,
            space.dim_undetectable_minus)
    return dims, [(p.a_plus.tobytes(), p.a_minus.tobytes()) for p in space.basis]


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@pytest.mark.parametrize("name", STATES)
def test_cold_warm_and_uncached_solves_are_bitwise_equal(name, monkeypatch):
    def solve():
        return space_bytes(solve_twin_space(STATES[name](np.random.default_rng(sum(map(ord, name))))))

    clear_caches()
    cold = solve()
    hits = [cache.cache_info().hits for cache in CACHES]
    warm = solve()
    assert all(cache.cache_info().hits > h for cache, h in zip(CACHES, hits))
    for cache in CACHES:
        monkeypatch.setattr(twins, cache.__wrapped__.__name__, cache.__wrapped__)
    uncached = solve()
    assert warm == cold
    assert uncached == cold


def test_cached_arrays_are_read_only():
    clear_caches()
    units = twins._unit_basis((0, 0, 1))
    layout = twins._block_layout((0, 0, 1), (0, 1, 1, 1))
    arrays = [units, *layout]
    assert all(a is not None for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]
    assert twins._unit_basis((0, 0, 1)) is units


def test_nondegenerate_layout_keeps_no_index_maps():
    m_b, slots, pair, row = twins._block_layout((0, 1, 2), (0, 1))
    assert m_b.tolist() == [1] * 6
    assert slots is pair is row is None
    with pytest.raises(ValueError):
        m_b[0] = 2


def test_cache_size_stays_within_the_bound():
    clear_caches()
    # a nondegenerate eigenspaces, then b of dimension 2
    layouts = [tuple(range(a)) + tuple(a + i // 2 for i in range(2 * b))
               for a in range(6) for b in range(6)][1:]
    assert len(layouts) > 2 * twins._LAYOUT_CACHE_SIZE
    for labels in layouts:
        twins._unit_basis(labels)
        twins._block_layout(labels, labels[:1])
        for cache in CACHES:
            assert cache.cache_info().currsize <= twins._LAYOUT_CACHE_SIZE
    for cache in CACHES:
        info = cache.cache_info()
        assert info.maxsize == info.currsize == twins._LAYOUT_CACHE_SIZE
        assert info.misses == len(layouts)
