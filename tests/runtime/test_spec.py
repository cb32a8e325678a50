"""Spec-string grammar: parsing, aliases, coercion, canonical round-trips
and the structured error vocabulary every surface rejects bad input with."""

import pytest

from repro.runtime import (
    SolverSpec,
    SpecError,
    canonical_name,
    create_solver,
    parse_spec,
    solver_names,
)


class TestParse:
    def test_bare_name(self):
        spec = parse_spec("oastar")
        assert spec == SolverSpec(name="oastar", params={})

    def test_alias_resolves_to_canonical(self):
        assert parse_spec("oa").name == "oastar"
        assert parse_spec("oa*").name == "oastar"
        assert parse_spec("greedy").name == "pg"
        assert parse_spec("milp").name == "ip"

    def test_whitespace_tolerated(self):
        assert parse_spec("  hastar  ").name == "hastar"

    def test_params_parsed_and_coerced(self):
        spec = parse_spec(
            "oastar?h_strategy=2&process_floor=false&name=OA*(h2)&x=1.5"
        )
        assert spec.params == {
            "h_strategy": 2,
            "process_floor": False,
            "name": "OA*(h2)",
            "x": 1.5,
        }

    def test_none_coercion(self):
        assert parse_spec("hastar?beam_width=none").params == {
            "beam_width": None
        }

    def test_param_alias(self):
        # HA*'s paper name for the beam knob is the MER bound.
        assert parse_spec("hastar?mer=4").params == {"beam_width": 4}

    def test_canonical_round_trip(self):
        for raw in [
            "oastar",
            "hastar?mer=4",
            "oastar?condense=true&name=OA*+cond",
            "fallback?chain=oastar,pg",
        ]:
            spec = parse_spec(raw)
            assert parse_spec(spec.canonical()) == spec


class TestErrors:
    def test_unknown_solver(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("does-not-exist")
        assert exc.value.reason == "unknown_solver"

    @pytest.mark.parametrize("bad", ["", "   ", None, 42])
    def test_not_a_spec_string(self, bad):
        with pytest.raises(SpecError) as exc:
            parse_spec(bad)
        assert exc.value.reason == "bad_spec"

    @pytest.mark.parametrize("bad", ["hastar?", "hastar?mer", "hastar?=4"])
    def test_malformed_params(self, bad):
        with pytest.raises(SpecError) as exc:
            parse_spec(bad)
        assert exc.value.reason == "bad_spec"

    def test_duplicate_param(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("hastar?mer=4&beam_width=8")
        assert exc.value.reason == "bad_param"

    def test_constructor_rejection_is_bad_param(self):
        with pytest.raises(SpecError) as exc:
            create_solver("hastar?no_such_kwarg=1")
        assert exc.value.reason == "bad_param"
        # The chain has no fan-out knob; workers= is an unknown kwarg.
        with pytest.raises(SpecError) as exc:
            create_solver("fallback?workers=2")
        assert exc.value.reason == "bad_param"

    @pytest.mark.parametrize("name", ["genetic", "split", "anneal",
                                      "annealing", "sa", "portfolio"])
    def test_removed_solvers_are_unknown(self, name, capsys):
        with pytest.raises(SpecError) as exc:
            create_solver(name)
        assert exc.value.reason == "unknown_solver"
        from repro.cli import main

        assert main(["solve", "--solver", name, "BT", "CG"]) == 2
        assert "unknown_solver" in capsys.readouterr().err

    def test_removed_bench_subcommand_is_unknown(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_removed_simulate_subcommand_is_unknown(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2
        assert "invalid choice: 'simulate'" in capsys.readouterr().err

    def test_empty_composite_list(self):
        with pytest.raises(SpecError) as exc:
            create_solver("fallback?chain=true")
        assert exc.value.reason == "bad_param"

    def test_unknown_member_in_composite(self):
        with pytest.raises(SpecError) as exc:
            create_solver("fallback?chain=hastar,nope")
        assert exc.value.reason == "unknown_solver"


class TestCreate:
    def test_composite_chain(self):
        chain = create_solver("fallback?chain=oastar,pg")
        assert [type(m).__name__ for m in chain.members] == [
            "OAStar",
            "PolitenessGreedy",
        ]

    def test_composite_polish_chain(self):
        chain = create_solver("fallback?chain=hastar,hill")
        assert [type(m).__name__ for m in chain.members] == [
            "HAStar",
            "SwapHillClimber",
        ]

    def test_accepts_parsed_spec(self):
        solver = create_solver(SolverSpec(name="hastar",
                                          params={"beam_width": 3}))
        assert solver.beam_width == 3

    def test_every_name_and_alias_constructs(self):
        for name in solver_names():
            create_solver(name)
        for alias, target in [("oa", "oastar"), ("cascade", "fallback"),
                              ("hillclimb", "hill")]:
            assert canonical_name(alias) == target
            create_solver(alias)
