"""Exact core imputations of matching and b-matching games.

All analysis runs over exact rationals: worths, duality gaps, core
membership and payment questions are decided by equality tests, never
by tolerances.
"""

from .games import (
    CapExceeded,
    Coalition,
    Edge,
    GameInstance,
    connected_coalitions,
    induce_subgame,
    make_game,
    validate_game,
)
from .gamelp import build_dual_lp, build_primal_lp, priced, solve_dual
from .simplex import LinearProgram, LPSolution, solve_lp, solve_over_optimal_face
from .matchings import (
    MatchingVector,
    birkhoff_decompose,
    brute_force_optima,
    check_half_integral,
    fractional_optimum,
)
from .analysis import (
    CoalitionSystem,
    GameAnalysis,
    Imputation,
    core_membership_via_system,
    meet_join,
    worth,
)
from .bmatching import imputation_from_dual, in_dual_image
from .gamefile import parse_game, render_game
from .rationals import Rational, compare, format_rational, parse_rational

__all__ = [name for name in dir() if not name.startswith("_")]
