"""Tests for repro.network.deployment."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CoverageError, GeometryError
from repro.network import Deployment


class TestConstruction:
    def test_empty(self):
        d = Deployment()
        assert len(d) == 0 and d.n_alive == 0

    def test_initial_positions(self):
        d = Deployment([[1.0, 2.0], [3.0, 4.0]])
        assert d.n_alive == 2
        np.testing.assert_allclose(d.position_of(1), [3.0, 4.0])

    def test_empty_array_initial(self):
        assert Deployment(np.empty((0, 2))).n_alive == 0


class TestGrowth:
    def test_add_returns_sequential_ids(self):
        d = Deployment()
        assert [d.add([float(i), 0.0]) for i in range(5)] == [0, 1, 2, 3, 4]

    def test_add_many(self):
        d = Deployment([[0.0, 0.0]])
        ids = d.add_many([[1.0, 1.0], [2.0, 2.0]])
        assert ids.tolist() == [1, 2]
        assert d.n_alive == 3

    def test_growth_beyond_initial_capacity(self):
        d = Deployment()
        for i in range(500):
            d.add([float(i), 0.0])
        assert d.n_alive == 500
        np.testing.assert_allclose(d.position_of(499), [499.0, 0.0])

    def test_positions_preserved_across_growth(self, rng):
        pts = rng.random((300, 2))
        d = Deployment()
        for p in pts:
            d.add(p)
        np.testing.assert_allclose(d.positions, pts)


class TestFailures:
    def test_fail_and_masks(self):
        d = Deployment([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        d.fail([1])
        assert d.n_alive == 2 and d.n_failed == 1
        assert d.alive_ids().tolist() == [0, 2]
        assert not d.is_alive(1)
        np.testing.assert_allclose(d.alive_positions(), [[0.0, 0.0], [2.0, 2.0]])

    def test_double_fail_raises(self):
        d = Deployment([[0.0, 0.0]])
        d.fail([0])
        with pytest.raises(CoverageError):
            d.fail([0])

    def test_fail_unknown_raises(self):
        with pytest.raises(GeometryError):
            Deployment([[0.0, 0.0]]).fail([5])

    def test_repeated_id_raises_before_any_change(self):
        d = Deployment([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(CoverageError):
            d.fail([1, 1])
        assert d.n_alive == 3

    def test_revive(self):
        d = Deployment([[0.0, 0.0]])
        d.fail([0])
        d.revive([0])
        assert d.n_alive == 1

    def test_revive_alive_raises(self):
        d = Deployment([[0.0, 0.0]])
        with pytest.raises(CoverageError):
            d.revive([0])


class TestViewsAndCopy:
    def test_positions_view_readonly(self):
        d = Deployment([[1.0, 2.0]])
        with pytest.raises(ValueError):
            d.positions[0, 0] = 9.0

    def test_copy_independent(self):
        d = Deployment([[0.0, 0.0], [1.0, 1.0]])
        c = d.copy()
        c.fail([0])
        c.add([5.0, 5.0])
        assert d.n_alive == 2 and c.n_alive == 2
        assert len(d) == 2 and len(c) == 3


def grown_deployment() -> Deployment:
    d = Deployment()
    for i in range(4601):  # grows the buffers to 8,192 slots
        d.add([float(i), 0.5 * i])
    d.fail([0, 17, 4600])
    return d


class TestPickle:
    """Every pooled result carries its deployment: a pickle holds the
    filled rows, not the capacity-doubling buffers."""

    def test_pickle_holds_only_filled_rows(self):
        d = grown_deployment()
        blob = pickle.dumps(d, pickle.HIGHEST_PROTOCOL)
        # 16 bytes of position and 1 alive flag per node, plus a header
        assert len(blob) <= 17 * d.n_total + 1024

    def test_round_trip_keeps_ids_positions_and_mask(self):
        d = grown_deployment()
        c = pickle.loads(pickle.dumps(d, pickle.HIGHEST_PROTOCOL))
        assert c.n_total == d.n_total and c.n_alive == d.n_alive
        assert np.array_equal(c.alive_ids(), d.alive_ids())
        assert np.array_equal(c.positions, d.positions)
        assert np.array_equal(c.alive_mask, d.alive_mask)

    @pytest.mark.parametrize(
        "make", [grown_deployment, Deployment], ids=["grown", "empty"]
    )
    def test_add_after_round_trip(self, make):
        d = make()
        c = pickle.loads(pickle.dumps(d, pickle.HIGHEST_PROTOCOL))
        ids = [c.add([1.0, 2.0]) for _ in range(70)]  # past the empty capacity
        assert ids == list(range(d.n_total, d.n_total + 70))
        assert c.n_alive == d.n_alive + 70
        np.testing.assert_allclose(c.position_of(ids[-1]), [1.0, 2.0])
        assert np.array_equal(c.positions[: d.n_total], d.positions)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["add", "fail", "revive"]), max_size=60),
       st.integers(0, 2**31))
def test_alive_count_invariant(ops, seed):
    """Property: n_alive + n_failed == n_total after any operation sequence."""
    rng = np.random.default_rng(seed)
    d = Deployment()
    for op in ops:
        if op == "add" or len(d) == 0:
            d.add(rng.random(2))
        elif op == "fail":
            alive = d.alive_ids()
            if alive.size:
                d.fail([int(rng.choice(alive))])
        else:
            failed = [i for i in range(len(d)) if not d.is_alive(i)]
            if failed:
                d.revive([int(rng.choice(failed))])
        assert d.n_alive + d.n_failed == d.n_total
