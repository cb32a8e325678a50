"""Unit tests for the Stack Distance Competition model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.sdc import sdc_corun_misses, sdc_effective_ways
from repro.cache.sdp import StackDistanceProfile, geometric_sdp
from repro.perf.kernels import sdc_merge_ways


def profiles_strategy(k, assoc=8):
    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),   # miss rate
            st.floats(min_value=0.1, max_value=1.0),   # decay
        ),
        min_size=k, max_size=k,
    ).map(lambda params: [
        geometric_sdp(1e5, mr, assoc, rd) for mr, rd in params
    ])


class TestEffectiveWays:
    def test_single_process_keeps_cache(self):
        p = geometric_sdp(1e5, 0.2, 8)
        res = sdc_corun_misses([p], associativity=8)
        assert res.corun_misses[0] == pytest.approx(p.misses)
        assert res.extra_misses[0] == 0.0

    def test_ways_always_sum_to_associativity(self):
        a = geometric_sdp(1e5, 0.2, 16, 0.9)
        b = geometric_sdp(1e5, 0.6, 16, 0.5)
        ways = sdc_effective_ways([a, b], associativity=16)
        assert sum(ways) == 16

    def test_heavier_reuser_wins_more_ways(self):
        hungry = geometric_sdp(1e6, 0.1, 16, 0.95)   # tall reuse tail
        modest = geometric_sdp(1e4, 0.1, 16, 0.30)   # tiny, tight reuse
        ways = sdc_effective_ways([hungry, modest], associativity=16)
        assert ways[0] > ways[1]

    def test_rates_shift_the_partition(self):
        a = geometric_sdp(1e5, 0.3, 16, 0.7)
        b = geometric_sdp(1e5, 0.3, 16, 0.7)
        even = sdc_effective_ways([a, b], associativity=16)
        skewed = sdc_effective_ways([a, b], associativity=16, rates=[10.0, 1.0])
        assert skewed[0] >= even[0]

    def test_rejects_bad_args(self):
        p = geometric_sdp(1e5, 0.2, 8)
        with pytest.raises(ValueError):
            sdc_effective_ways([], associativity=8)
        with pytest.raises(ValueError):
            sdc_effective_ways([p], associativity=0)
        with pytest.raises(ValueError):
            sdc_effective_ways([p, p], associativity=8, rates=[1.0])
        with pytest.raises(ValueError):
            sdc_effective_ways([p, p], associativity=8, rates=[1.0, -1.0])


class TestMergeWalk:
    """The position-by-position merge walk ``sdc_effective_ways`` runs."""

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_groups(self, seed):
        # With non-increasing counters the walk takes the ``assoc`` largest
        # positive rate-weighted counters, ties to the lower process, then
        # deals what is left round-robin from process 0.
        rng = np.random.default_rng(300 + seed)
        k = int(rng.integers(1, 9))
        counters = [
            tuple(sorted(rng.uniform(0.0, 100.0,
                                     size=int(rng.integers(1, 70))),
                         reverse=True))
            for _ in range(k)
        ]
        weights = [float(w) for w in rng.uniform(0.0, 2.0, size=k)]
        ranked = sorted(
            ((c * weights[i], i) for i in range(k) for c in counters[i]
             if c * weights[i] > 0.0),
            key=lambda t: (-t[0], t[1]),
        )
        for assoc in (4, 16, 64, 128):
            expected = [0] * k
            for _val, i in ranked[:assoc]:
                expected[i] += 1
            for j in range(assoc - sum(expected)):
                expected[j % k] += 1
            assert sdc_merge_ways(counters, weights, assoc) == expected

    def test_exhausted_counters_deal_round_robin(self):
        # Two positions are won outright; the other 63 go 0, 1, 0, ...
        assert sdc_merge_ways([(1.0,), (2.0,)], [1.0, 1.0], 65) == [33, 32]

    def test_ties_go_to_lower_index(self):
        counters = [(5.0,) * 40, (5.0,) * 40, (5.0,) * 40]
        assert sdc_merge_ways(counters, [1.0, 1.0, 1.0], 96) == [40, 40, 16]

    def test_zero_rate_process_wins_nothing_directly(self):
        # Process 1's counters weigh 0: the walk stops after process 0's
        # 80 positions and the 48 left are split evenly.
        counters = [(9.0,) * 80, (9.0,) * 80]
        assert sdc_merge_ways(counters, [1.0, 0.0], 128) == [104, 24]


class TestCorunMisses:
    def test_corun_never_below_single(self):
        a = geometric_sdp(1e5, 0.2, 16, 0.8)
        b = geometric_sdp(1e5, 0.5, 16, 0.9)
        res = sdc_corun_misses([a, b], associativity=16)
        for extra in res.extra_misses:
            assert extra >= 0.0

    def test_compute_bound_pair_barely_interferes(self):
        # Two tight-reuse, low-miss codes fit side by side.
        a = geometric_sdp(1e5, 0.03, 16, 0.15)
        b = geometric_sdp(1e5, 0.03, 16, 0.15)
        res = sdc_corun_misses([a, b], associativity=16)
        for extra, single in zip(res.extra_misses, res.single_misses):
            assert extra <= 0.15 * (single + 1.0) + 1e5 * 0.01

    @settings(max_examples=30, deadline=None)
    @given(profiles_strategy(3))
    def test_property_misses_bounded_by_accesses(self, profiles):
        res = sdc_corun_misses(profiles, associativity=8)
        for p, m in zip(profiles, res.corun_misses):
            assert p.misses - 1e-6 <= m <= p.accesses + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(profiles_strategy(2), profiles_strategy(1))
    def test_property_more_competitors_never_help(self, pair, extra_list):
        """Adding a competitor can only inflate (or keep) my misses —
        inclusion monotonicity of the SDC prediction."""
        me = pair[0]
        res2 = sdc_corun_misses(pair, associativity=8)
        res3 = sdc_corun_misses(pair + extra_list, associativity=8)
        assert res3.corun_misses[0] >= res2.corun_misses[0] - 1e-6
