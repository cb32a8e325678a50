"""Table IV — h(v) strategies: Strategy 2 prunes harder than Strategy 1 and
the heuristic-free O-SVP (ordering reproduced; magnitude notes in
EXPERIMENTS.md).

The paper's "Strategy 2 fastest" time ordering is not asserted: here S2's
1-11% fewer visited paths do not show in wall time (best-of-12 S2 times
are 5% faster than S1 at 12 jobs and 3-7% slower at 14 and 16), so any
time check is a coin flip on a shared host.  EXPERIMENTS.md records the
measurement and ROADMAP.md tracks it.
"""

from repro.experiments import table4


def test_table4_h_strategies(benchmark, once):
    result = once(benchmark, table4.run, sizes=(12, 14, 16), cluster="quad")
    print("\n" + result.text)
    for n, per in result.data.items():
        s1 = per["Strategy 1"]["visited_paths"]
        s2 = per["Strategy 2"]["visited_paths"]
        osvp = per["O-SVP"]["visited_paths"]
        # Strategy 2 is the best pruner (the paper's Table IV winner).
        assert s2 <= s1, f"n={n}: S2 paths {s2} > S1 paths {s1}"
        assert s2 <= osvp, f"n={n}: S2 paths {s2} > O-SVP paths {osvp}"
