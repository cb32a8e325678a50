"""The solver registry: one source of truth for every surface.

Before this package existed the repo carried three divergent hand-written
solver tables — ``cli.SOLVERS``, ``service.queue.SOLVER_FACTORIES`` and
direct class construction inside ``experiments/`` — each wiring budgets,
tracing and warm starts differently, and each supporting a different
solver subset.  :data:`REGISTRY` replaces all of them: a
capability-annotated table of :class:`SolverInfo` entries that the CLI,
the HTTP service and the experiment runners all resolve through.  Adding
a solver (or a capability) is a one-entry change here, visible everywhere
at once.

Solvers are addressed by **spec strings** — one syntax shared by CLI
flags, HTTP request bodies and experiment configs::

    oastar                      # canonical name (or any alias)
    hastar?mer=4                # constructor params after '?'
    oastar?h_strategy=1&name=OA*(h1)
    fallback?chain=hastar,hill  # the composite solver takes a solver list

Parameters are ``key=value`` pairs separated by ``&``; values are coerced
(int, float, ``true``/``false``, else string) and passed to the solver's
constructor, so every keyword the class accepts is reachable from every
surface.  :func:`parse_spec` validates a spec without building anything
(the service uses it for admission control); :func:`create_solver` builds
the instance.  Both raise :class:`SpecError` with a machine-readable
``reason`` (``"unknown_solver"`` / ``"bad_spec"`` / ``"bad_param"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Tuple

from ..solvers import (
    BranchBoundIP,
    BruteForce,
    FallbackChain,
    HAStar,
    OAStar,
    OSVP,
    PolitenessGreedy,
    RepairSolver,
    ScipyMILP,
    SwapHillClimber,
)
from ..solvers.base import Solver

__all__ = [
    "REGISTRY",
    "SolverInfo",
    "SolverSpec",
    "SpecError",
    "canonical_name",
    "create_solver",
    "get_info",
    "parse_spec",
    "register",
    "solver_names",
]


class SpecError(ValueError):
    """A solver spec failed to resolve.

    ``reason`` is machine-readable so callers (HTTP admission control, CLI
    argument handling) can surface structured rejections:

    * ``"unknown_solver"`` — the name matches no registry entry or alias;
    * ``"bad_spec"`` — the string is not ``name`` or ``name?k=v&...``;
    * ``"bad_param"`` — a parameter is malformed or the constructor
      rejected it.
    """

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class SolverInfo:
    """One registry entry: identity, factory and declared capabilities.

    The capability flags are contracts the parity tests enforce against
    observed behavior (``tests/runtime/test_registry.py``):

    ``exact``
        An unbudgeted run returns a provably optimal schedule.
    ``budget_currencies``
        The :class:`~repro.solvers.budget.Budget` currencies the solver
        actually honors by stopping early (``"wall_time"`` /
        ``"max_expanded"`` / ``"max_weight_evals"``).  Empty means budgets
        are accepted but ignored (the solver always runs to completion).
    ``supports_warm_start``
        ``solve(initial_schedule=...)`` seeds the run and
        ``stats["warm_start"]`` records the outcome (the base-class
        never-worse guarantee).
    ``supports_trace``
        Runs emit structured events through an attached
        :class:`~repro.perf.Tracer` (at minimum ``solve_start`` /
        ``solve_end``).
    ``supports_repair``
        The solver can serve as the ``base`` of the incremental repair
        path (``repair?base=<name>``, :mod:`repro.online`): it accepts the
        reduced serial sub-problems repair extracts and honors warm
        starts.  ``RepairSolver`` rejects non-advertising bases with a
        structured ``SpecError`` (reason ``"repair_base"``).
    ``supports_heterogeneous`` / ``supports_constraints``
        The solver handles scenario problems — heterogeneous machine
        rosters (per-machine capacities and speed scaling) and pluggable
        :class:`~repro.core.constraints.ScenarioConstraint` penalties.
        The flags mirror the instance's ``scenario_capabilities`` set;
        admission control rejects specs whose flags do not cover
        ``problem.required_capabilities()`` with a structured
        ``SpecError`` (reason ``"unsupported_scenario"``) before any
        search runs (see docs/SCENARIOS.md).
    ``param_aliases``
        Spec-parameter shorthands, e.g. HA*'s ``mer`` for ``beam_width``.
    """

    name: str
    factory: Callable[..., Solver]
    summary: str
    exact: bool
    aliases: Tuple[str, ...] = ()
    budget_currencies: Tuple[str, ...] = ()
    supports_warm_start: bool = True
    supports_trace: bool = True
    supports_repair: bool = False
    supports_heterogeneous: bool = False
    supports_constraints: bool = False
    param_aliases: Mapping[str, str] = field(default_factory=dict)

    @property
    def supports_budget(self) -> bool:
        """True when at least one budget currency stops the solver early."""
        return bool(self.budget_currencies)

    def capabilities(self) -> Dict[str, object]:
        """JSON-safe capability summary (CLI ``list``, ``GET /metrics``)."""
        return {
            "exact": self.exact,
            "supports_budget": self.supports_budget,
            "budget_currencies": list(self.budget_currencies),
            "supports_warm_start": self.supports_warm_start,
            "supports_trace": self.supports_trace,
            "supports_repair": self.supports_repair,
            "supports_heterogeneous": self.supports_heterogeneous,
            "supports_constraints": self.supports_constraints,
        }

    def scenario_flags(self) -> frozenset:
        """The declared scenario capability set, in the same vocabulary as
        ``Solver.scenario_capabilities`` / ``problem.required_capabilities()``.
        """
        flags = set()
        if self.supports_heterogeneous:
            flags.add("heterogeneous")
        if self.supports_constraints:
            flags.add("constraints")
        return frozenset(flags)


@dataclass(frozen=True)
class SolverSpec:
    """A parsed spec: canonical solver name plus constructor params."""

    name: str
    params: Mapping[str, object] = field(default_factory=dict)

    def canonical(self) -> str:
        """The spec as a round-trippable string."""
        if not self.params:
            return self.name
        def fmt(v: object) -> str:
            if isinstance(v, bool):
                return "true" if v else "false"
            return str(v)
        args = "&".join(f"{k}={fmt(v)}" for k, v in sorted(self.params.items()))
        return f"{self.name}?{args}"


#: Canonical name -> :class:`SolverInfo`.  The single solver table; mutate
#: only through :func:`register` (tests may monkeypatch entries).
REGISTRY: Dict[str, SolverInfo] = {}

#: alias -> canonical name (derived from the registry; kept in sync by
#: :func:`register`).
_ALIASES: Dict[str, str] = {}

_SEARCH_CURRENCIES = ("wall_time", "max_expanded", "max_weight_evals")


def register(info: SolverInfo, overwrite: bool = False) -> SolverInfo:
    """Add ``info`` to the registry (and index its aliases)."""
    claimed = (info.name,) + info.aliases
    for key in claimed:
        taken = key in REGISTRY or key in _ALIASES
        if taken and not overwrite:
            raise ValueError(f"solver name/alias {key!r} already registered")
    REGISTRY[info.name] = info
    for alias in info.aliases:
        _ALIASES[alias] = info.name
    return info


def solver_names() -> Tuple[str, ...]:
    """Sorted canonical solver names — the one solver set every surface
    (CLI ``list``, ``GET /metrics``, experiment configs) reports."""
    return tuple(sorted(REGISTRY))


def canonical_name(name: str) -> str:
    """Resolve ``name`` (canonical or alias) to the canonical name."""
    if name in REGISTRY:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    raise SpecError(
        "unknown_solver",
        f"{name!r} is not a registered solver; known: "
        f"{', '.join(solver_names())}",
    )


def get_info(name: str) -> SolverInfo:
    """The :class:`SolverInfo` for a canonical name or alias."""
    return REGISTRY[canonical_name(name)]


def _coerce(raw: str) -> object:
    """Spec parameter value -> int | float | bool | str."""
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if low in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_spec(spec: str) -> SolverSpec:
    """Parse and validate ``"name"`` or ``"name?k=v&k2=v2"``.

    Resolves aliases (including parameter aliases declared by the entry)
    and raises :class:`SpecError` without constructing a solver — safe for
    admission control on untrusted input.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise SpecError("bad_spec", f"solver spec must be a non-empty "
                                    f"string, got {spec!r}")
    name, sep, tail = spec.strip().partition("?")
    info = get_info(name)  # raises unknown_solver
    params: Dict[str, object] = {}
    if sep and not tail:
        raise SpecError("bad_spec", f"{spec!r} has a '?' but no parameters")
    if tail:
        for pair in tail.split("&"):
            key, eq, raw = pair.partition("=")
            key = key.strip()
            if not eq or not key:
                raise SpecError(
                    "bad_spec",
                    f"parameter {pair!r} in {spec!r} is not key=value",
                )
            key = info.param_aliases.get(key, key)
            if key in params:
                raise SpecError(
                    "bad_param", f"duplicate parameter {key!r} in {spec!r}"
                )
            params[key] = _coerce(raw.strip())
    return SolverSpec(name=info.name, params=params)


#: Composite-solver parameters whose value is a comma-separated list of
#: sub-specs, resolved recursively by :func:`create_solver`.
_COMPOSITE_PARAMS = {
    "fallback": "chain",
}


def create_solver(spec) -> Solver:
    """Build a solver from a spec string or :class:`SolverSpec`.

    Composite solvers resolve their member lists recursively
    (``fallback?chain=oastar,pg`` builds an OA* > PG cascade;
    ``fallback?chain=hastar,hill`` polishes HA*'s schedule with the hill
    climber).
    Constructor errors surface as :class:`SpecError` with reason
    ``"bad_param"`` so every caller rejects bad input the same way.
    """
    parsed = parse_spec(spec) if isinstance(spec, str) else spec
    info = REGISTRY[parsed.name]
    kwargs = dict(parsed.params)
    list_param = _COMPOSITE_PARAMS.get(parsed.name)
    if list_param is not None and list_param in kwargs:
        members_raw = kwargs.pop(list_param)
        if not isinstance(members_raw, str) or not members_raw:
            raise SpecError(
                "bad_param",
                f"{list_param!r} must be a comma-separated solver list, "
                f"got {members_raw!r}",
            )
        kwargs["members"] = [
            create_solver(m.strip()) for m in members_raw.split(",")
        ]
    try:
        return info.factory(**kwargs)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(
            "bad_param",
            f"cannot build solver {parsed.canonical()!r}: {exc}",
        ) from exc


# ---------------------------------------------------------------------- #
# the built-in table
# ---------------------------------------------------------------------- #


register(SolverInfo(
    name="oastar",
    supports_heterogeneous=True,
    supports_constraints=True,
    aliases=("oa", "oa*"),
    factory=OAStar,
    summary="exact extended A* over the co-scheduling graph (Section III)",
    exact=True,
    budget_currencies=_SEARCH_CURRENCIES,
    supports_repair=True,
))
register(SolverInfo(
    name="hastar",
    supports_heterogeneous=True,
    supports_constraints=True,
    aliases=("ha", "ha*"),
    factory=HAStar,
    summary="MER-trimmed A*: near-optimal, orders of magnitude fewer nodes",
    exact=False,
    budget_currencies=_SEARCH_CURRENCIES,
    supports_repair=True,
    param_aliases={"mer": "beam_width"},
))
register(SolverInfo(
    name="osvp",
    supports_heterogeneous=True,
    supports_constraints=True,
    aliases=("o-svp",),
    factory=OSVP,
    summary="the authors' earlier exact Dijkstra search (MASCOTS'14)",
    exact=True,
    budget_currencies=_SEARCH_CURRENCIES,
    supports_repair=True,
))
register(SolverInfo(
    name="pg",
    supports_heterogeneous=True,
    supports_constraints=True,
    aliases=("greedy", "politeness"),
    factory=PolitenessGreedy,
    summary="politeness-greedy placement (Section V) — fast, always finishes",
    exact=False,
    budget_currencies=(),  # never needs to stop early
    supports_repair=True,
))
register(SolverInfo(
    name="ip",
    aliases=("milp", "scipy-milp"),
    factory=ScipyMILP,
    summary="HiGHS MILP on the subset-selection IP formulation (Eq. 14-17)",
    exact=True,
    budget_currencies=("wall_time",),
))
register(SolverInfo(
    name="bb",
    aliases=("branch-bound", "ip-bb"),
    factory=BranchBoundIP,
    summary="from-scratch LP branch-and-bound on the IP formulation",
    exact=True,
    budget_currencies=_SEARCH_CURRENCIES,
))
register(SolverInfo(
    name="hill",
    supports_heterogeneous=True,
    supports_constraints=True,
    aliases=("hillclimb",),
    factory=SwapHillClimber,
    summary="first-improvement pairwise swaps to a swap-local optimum",
    exact=False,
    budget_currencies=_SEARCH_CURRENCIES,
    supports_repair=True,
))
register(SolverInfo(
    name="brute",
    supports_heterogeneous=True,
    supports_constraints=True,
    aliases=("bruteforce", "exhaustive"),
    factory=BruteForce,
    summary="exhaustive partition enumeration (tiny instances only)",
    exact=True,
    budget_currencies=_SEARCH_CURRENCIES,
))
register(SolverInfo(
    name="fallback",
    supports_heterogeneous=True,
    supports_constraints=True,
    aliases=("cascade",),
    factory=FallbackChain,
    summary="anytime cascade OA* > HA* > PG under one budget "
            "(chain=... overrides the stages)",
    exact=True,  # the unbudgeted default chain ends at the exact stage
    budget_currencies=_SEARCH_CURRENCIES,
    supports_repair=True,
))
register(SolverInfo(
    name="repair",
    aliases=("incremental",),
    factory=RepairSolver,
    summary="incremental schedule repair over a stale solution "
            "(base=... picks the sub-problem solver; see repro.online)",
    exact=False,
    # Budgets are accepted but not polled: repair's cost is dominated by
    # the (typically tiny) base sub-solve.
    budget_currencies=(),
))


def _replace_factory(name: str, factory: Callable[..., Solver]) -> SolverInfo:
    """A copy of ``REGISTRY[name]`` with a different factory — the hook
    tests use with ``monkeypatch.setitem(REGISTRY, name, ...)``."""
    return replace(REGISTRY[name], factory=factory)
