"""Load-shedding policies: validated chains of cheap registry solvers.

When a solve queue saturates, the service layer degrades to a *shed
solve* — a fast heuristic answered inline — instead of rejecting the
request (see ``docs/DEPLOYMENT.md``).  Which solvers are acceptable for
that degraded path is a policy decision, and this module is where it is
validated, once, against the registry's capability annotations:

* every spec in the policy must resolve through :func:`parse_spec`
  (unknown solvers and malformed params are refused at *configuration*
  time, not at the first saturated request);
* every spec must name a **heuristic** solver (``SolverInfo.exact`` is
  ``False``).  Exact solvers are exactly what a saturated queue cannot
  afford — admitting ``oastar`` as a shed target would turn load
  shedding into load amplification, so the registry's exactness flag is
  the gate.

A resolved :class:`ShedPolicy` is an ordered chain of specs, and
:meth:`ShedPolicy.chain` builds it as one
:class:`~repro.solvers.fallback.FallbackChain`: each member starts from the
best schedule so far, and a member that raises or produces nothing hands
over to the next.  The default policy is ``"pg"`` — the paper's politeness
greedy, O(n log n)-ish and budget-free — and ``"pg,hill"`` polishes PG's
schedule with the hill climber inside the shed budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..solvers.fallback import FallbackChain
from .registry import SpecError, create_solver, get_info, parse_spec

__all__ = ["ShedPolicy", "resolve_shed_policy", "DEFAULT_SHED_POLICY"]

#: The shed chain used when a surface enables shedding without naming one.
DEFAULT_SHED_POLICY = "pg"


@dataclass(frozen=True)
class ShedPolicy:
    """An ordered, pre-validated chain of cheap solver specs.

    Build via :func:`resolve_shed_policy`; ``specs`` holds the canonical
    spec strings in fallback order.
    """

    specs: Tuple[str, ...]

    def describe(self) -> str:
        return ",".join(self.specs)

    def chain(self) -> FallbackChain:
        """A fresh :class:`~repro.solvers.fallback.FallbackChain` of the
        policy's members.  Build one per shed solve: solvers keep per-run
        state, and sheds run on concurrent request threads.
        ``stats["winner_stage"]`` of its result indexes :attr:`specs`."""
        return FallbackChain([create_solver(spec) for spec in self.specs])


def resolve_shed_policy(policy: Optional[str] = None) -> ShedPolicy:
    """Validate a comma-separated shed chain against the registry.

    ``policy`` is e.g. ``"pg"`` or ``"pg,hill"`` (any registry spec
    syntax per member, aliases included — ``"greedy"`` resolves to
    ``pg``).  ``None`` or ``""`` resolves the default policy.

    Raises :class:`~repro.runtime.SpecError` with the usual
    machine-readable reasons, plus ``"exact_solver"`` when a member names
    an exact solver — the capability flag check that keeps the degraded
    path cheap.
    """
    text = policy if policy else DEFAULT_SHED_POLICY
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise SpecError("bad_spec", "shed policy names no solvers")
    canonical = []
    for part in parts:
        spec = parse_spec(part)  # raises unknown_solver/bad_spec/bad_param
        info = get_info(spec.name)
        if info.exact:
            raise SpecError(
                "exact_solver",
                f"shed policy member {part!r} resolves to exact solver "
                f"{spec.name!r}; load shedding requires heuristic solvers "
                f"(registry entries with exact=False, e.g. pg, hill)",
            )
        canonical.append(spec.canonical())
    return ShedPolicy(specs=tuple(canonical))
