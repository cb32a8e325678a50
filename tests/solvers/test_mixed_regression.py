"""Exact regression table for the paper's mixed-workload searches.

Each entry pins, per solver spec and ``random_mixed_instance``, the
``repr`` of the objective and the search counters ``(expanded,
visited_paths, dismissed, condensed_away, nodes_generated)``.  The values
were recorded from the per-pid scalar scoring path (one
``problem.degradation`` call per member, the recursive PE enumerator and
the reference condensation key); the table-driven path must reproduce the
same search exactly, only faster.
"""

import pytest

from repro.runtime.registry import create_solver
from repro.workloads import random_mixed_instance

SHAPES = {
    # 6 serial + PE 4 + PC 6 = 16 on quad-core (the bench's oastar-mix).
    "quad": dict(n_serial=6, pe_shapes=(4,), pc_shapes=(6,), cluster="quad"),
    # 5 serial + PE 3 + PC 4 = 12 on eight-core: 4 imaginary pads.
    "padded": dict(n_serial=5, pe_shapes=(3,), pc_shapes=(4,),
                   cluster="eight"),
    # 3 serial + a 3x3 PC grid = 12 on quad-core.
    "grid9": dict(n_serial=3, pe_shapes=(), pc_shapes=(9,), cluster="quad"),
    # 4 serial + PE 4 + a 2x4 PC grid = 16 on eight-core.
    "eight": dict(n_serial=4, pe_shapes=(4,), pc_shapes=(8,),
                  cluster="eight"),
}

# shape -> seed -> spec -> (repr(objective), expanded, visited_paths,
#                           dismissed, condensed_away, nodes_generated)
PINNED = {
    "quad": {
        0: {
            "oastar?condense=true": ('0.4015513636086959', 306, 1600, 3444, 4555, 5043),
            "oastar": ('0.4015513636086959', 753, 4342, 20368, 0, 24709),
            "osvp": ('0.4015513636086959', 1528, 4246, 35561, 0, 39806),
            "hastar": ('0.47348447798729065', 23, 31, 41, 0, 583),
            "oastar?dismiss=paper&condense=true": ('0.4015513636086959', 261, 1328, 3268, 4228, 4595),
            "oastar?h_strategy=1&condense=true": ('0.4015513636086959', 306, 1600, 3444, 4555, 5043),
        },
        1: {
            "oastar?condense=true": ('0.9770797039013802', 337, 1046, 2689, 2398, 3734),
            "oastar": ('0.9770797039013802', 762, 2631, 13069, 0, 15699),
            "osvp": ('0.9770797039013802', 1475, 3426, 32497, 0, 35922),
            "hastar": ('1.088212540399148', 34, 38, 45, 0, 784),
            "oastar?dismiss=paper&condense=true": ('0.9770797039013802', 266, 885, 2232, 2135, 3116),
            "oastar?h_strategy=1&condense=true": ('0.9770797039013802', 337, 1046, 2689, 2398, 3734),
        },
        2: {
            "oastar?condense=true": ('1.2166603827694058', 623, 2349, 6548, 6037, 8896),
            "oastar": ('1.2166603827694058', 1456, 6160, 31042, 0, 37201),
            "osvp": ('1.2166603827694058', 1890, 6790, 39060, 0, 45849),
            "hastar": ('1.4578548470444965', 11, 29, 10, 0, 630),
            "oastar?dismiss=paper&condense=true": ('1.2166603827694058', 452, 1325, 5809, 5257, 7133),
            "oastar?h_strategy=1&condense=true": ('1.2166603827694058', 623, 2349, 6548, 6037, 8896),
        },
    },
    "padded": {
        0: {
            "oastar?condense=true": ('0.5688741600055438', 718, 1260, 715, 1746, 1974),
            "oastar": ('0.5688741600055438', 1678, 3006, 1675, 0, 4680),
            "osvp": ('0.5688741600055438', 1978, 3006, 1975, 0, 4980),
            "hastar": ('0.5692983947937177', 3, 4, 1, 0, 3005),
            "oastar?dismiss=paper&condense=true": ('0.5688741600055438', 718, 1260, 715, 1746, 1974),
            "oastar?h_strategy=1&condense=true": ('0.5688741600055438', 718, 1260, 715, 1746, 1974),
        },
        1: {
            "oastar?condense=true": ('1.3061195466214366', 345, 1260, 342, 1746, 1601),
            "oastar": ('1.3061195466214366', 780, 3006, 777, 0, 3782),
            "osvp": ('1.3061195466214366', 1285, 3006, 1282, 0, 4287),
            "hastar": ('1.40029461658566', 3, 4, 1, 0, 3005),
            "oastar?dismiss=paper&condense=true": ('1.3061195466214366', 345, 1260, 342, 1746, 1601),
            "oastar?h_strategy=1&condense=true": ('1.3061195466214366', 345, 1260, 342, 1746, 1601),
        },
        2: {
            "oastar?condense=true": ('0.9543554868656585', 700, 1261, 696, 1746, 1956),
            "oastar": ('0.9543554868656585', 1693, 3007, 1689, 0, 4695),
            "osvp": ('0.9543554868656585', 1957, 3007, 1953, 0, 4959),
            "hastar": ('1.1566479221049768', 3, 4, 1, 0, 3005),
            "oastar?dismiss=paper&condense=true": ('0.9543554868656585', 700, 1261, 696, 1746, 1956),
            "oastar?h_strategy=1&condense=true": ('0.9543554868656585', 700, 1261, 696, 1746, 1956),
        },
    },
    "grid9": {
        0: {
            "oastar?condense=true": ('0.08407008257872196', 60, 227, 246, 670, 472),
            "oastar": ('0.08407008257872196', 239, 815, 3669, 0, 4483),
            "osvp": ('0.08407008257872196', 239, 815, 3669, 0, 4483),
            "hastar": ('0.12169417140000423', 11, 12, 8, 0, 277),
            "oastar?dismiss=paper&condense=true": ('0.08407008257872196', 60, 227, 246, 670, 472),
            "oastar?h_strategy=1&condense=true": ('0.08407008257872196', 60, 227, 246, 670, 472),
        },
        1: {
            "oastar?condense=true": ('0.8508712474202302', 11, 60, 8, 142, 67),
            "oastar": ('0.8508712474202302', 47, 241, 107, 0, 347),
            "osvp": ('0.8508712474202302', 47, 241, 107, 0, 347),
            "hastar": ('0.8508712474202302', 11, 12, 8, 0, 277),
            "oastar?dismiss=paper&condense=true": ('0.8508712474202302', 11, 60, 8, 142, 67),
            "oastar?h_strategy=1&condense=true": ('0.8508712474202302', 11, 60, 8, 142, 67),
        },
        2: {
            "oastar?condense=true": ('0.35428282555483664', 38, 108, 144, 427, 251),
            "oastar": ('0.35428282555483664', 115, 372, 1438, 0, 1809),
            "osvp": ('0.35428282555483664', 237, 516, 5496, 0, 6011),
            "hastar": ('0.35428282555483664', 11, 12, 8, 0, 277),
            "oastar?dismiss=paper&condense=true": ('0.35428282555483664', 38, 108, 144, 427, 251),
            "oastar?h_strategy=1&condense=true": ('0.35428282555483664', 38, 108, 144, 427, 251),
        },
    },
    "eight": {
        0: {
            "oastar?condense=true": ('0.9134280256850131', 159, 308, 151, 1449, 458),
            "oastar": ('0.9134280256850131', 958, 1757, 950, 0, 2706),
            "osvp": ('0.9134280256850131', 1326, 1754, 1321, 0, 3074),
            "hastar": ('0.9672184205543463', 3, 4, 1, 0, 1751),
            "oastar?dismiss=paper&condense=true": ('0.9134280256850131', 159, 308, 151, 1449, 458),
            "oastar?h_strategy=1&condense=true": ('0.9134280256850131', 159, 308, 151, 1449, 458),
        },
        1: {
            "oastar?condense=true": ('1.2063503981241244', 54, 307, 47, 1449, 353),
            "oastar": ('1.2063503981241244', 289, 1756, 282, 0, 2037),
            "osvp": ('1.2063503981241244', 533, 1756, 526, 0, 2281),
            "hastar": ('1.705838135364482', 3, 4, 1, 0, 1751),
            "oastar?dismiss=paper&condense=true": ('1.2063503981241244', 54, 307, 47, 1449, 353),
            "oastar?h_strategy=1&condense=true": ('1.2063503981241244', 54, 307, 47, 1449, 353),
        },
        2: {
            "oastar?condense=true": ('0.5895985626472681', 131, 303, 128, 1449, 430),
            "oastar": ('0.5895985626472681', 781, 1752, 778, 0, 2529),
            "osvp": ('0.5895985626472681', 1073, 1755, 1067, 0, 2821),
            "hastar": ('0.815885067966527', 3, 4, 1, 0, 1751),
            "oastar?dismiss=paper&condense=true": ('0.5895985626472681', 131, 303, 128, 1449, 430),
            "oastar?h_strategy=1&condense=true": ('0.5895985626472681', 131, 303, 128, 1449, 430),
        },
    },
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_mixed_search_matches_pinned_table(shape, seed):
    for spec, want in PINNED[shape][seed].items():
        problem = random_mixed_instance(seed=seed, **SHAPES[shape])
        result = create_solver(spec).solve(problem)
        s = result.stats
        got = (repr(result.objective), s["expanded"], s["visited_paths"],
               s["dismissed"], s["condensed_away"], s["nodes_generated"])
        assert got == want, spec
