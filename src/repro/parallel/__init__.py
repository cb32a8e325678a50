"""Parallelized solving (the paper's future-work item 1)."""

from .portfolio import PortfolioSolver

__all__ = ["PortfolioSolver"]
