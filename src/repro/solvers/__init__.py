"""Solvers: exact (OA*, O-SVP, IP backends, brute force) and heuristic (HA*, PG)."""

from .astar_core import AStarSearch
from .base import CapabilityError, SolveResult, Solver
from .brute_force import BruteForce, count_partitions
from .budget import Budget, BudgetState
from .fallback import FallbackChain
from .greedy import PolitenessGreedy, RandomScheduler, SequentialScheduler
from .hastar import HAStar
from .ip_branch_bound import BranchBoundIP
from .ip_model import IPFormulation, build_formulation
from .ip_scipy import ScipyMILP
from .local_search import SwapHillClimber
from .oastar import OAStar
from .osvp import OSVP
from .repair import RepairSolver
from .simplex import LPResult, simplex_solve

__all__ = [
    "AStarSearch",
    "CapabilityError",
    "SolveResult",
    "Solver",
    "Budget",
    "BudgetState",
    "FallbackChain",
    "BruteForce",
    "count_partitions",
    "PolitenessGreedy",
    "RandomScheduler",
    "SequentialScheduler",
    "HAStar",
    "BranchBoundIP",
    "IPFormulation",
    "build_formulation",
    "ScipyMILP",
    "SwapHillClimber",
    "OAStar",
    "OSVP",
    "RepairSolver",
    "LPResult",
    "simplex_solve",
]
