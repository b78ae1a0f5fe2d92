"""Truncated symmetric Fock calculus and chaos expansions for finite-activity
jump diffusions, with a verification CLI built on exact kernels and seeded
Monte Carlo."""

from ._version import __version__
from .chaos import (
    BNSplit,
    ChaosCoefficients,
    ChaosSkorohod,
    MarkedChaos,
    bn_split,
    chaos_evaluate,
    embed_chaos,
    embed_marked,
    ito_skorohod_chaos,
    load_chaos,
    project_mc,
    save_chaos,
)
from .config import RunConfig
from .fock import (
    FockVector,
    MarkedFock,
    SkorohodIdentity,
    annihilate,
    create,
    exp_vector,
    ito_skorohod,
)
from .exponential import ExpCombo, exp_gram, exp_shift
from .indices import GuardLimitError, level_dim, occupations
from .integrals import (
    doleans_exp,
    iterated_chain,
    power_integrals,
    stochastic_integral,
)
from .levy import (
    CellGrid,
    LevyModel,
    PathEnsemble,
    StepField,
    brownian_preset,
    cell_increments,
    poisson_preset,
    sample_ensemble,
    terminal_value,
)
from .montecarlo import MCStat, summarize
from .reporting import CheckRecord, emit_report
from .suites import run_suite

__all__ = [
    "BNSplit",
    "CellGrid",
    "ChaosCoefficients",
    "ChaosSkorohod",
    "CheckRecord",
    "ExpCombo",
    "FockVector",
    "GuardLimitError",
    "LevyModel",
    "MCStat",
    "MarkedChaos",
    "MarkedFock",
    "PathEnsemble",
    "RunConfig",
    "SkorohodIdentity",
    "StepField",
    "__version__",
    "annihilate",
    "bn_split",
    "brownian_preset",
    "cell_increments",
    "chaos_evaluate",
    "create",
    "doleans_exp",
    "embed_chaos",
    "embed_marked",
    "emit_report",
    "exp_gram",
    "exp_shift",
    "exp_vector",
    "ito_skorohod",
    "ito_skorohod_chaos",
    "iterated_chain",
    "level_dim",
    "load_chaos",
    "occupations",
    "poisson_preset",
    "power_integrals",
    "project_mc",
    "run_suite",
    "sample_ensemble",
    "save_chaos",
    "stochastic_integral",
    "summarize",
    "terminal_value",
]
