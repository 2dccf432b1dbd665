"""Constrained least squares over l1 balls, Monte Carlo complexity fixed
points, small-ball diagnostics, version-space probing, and rate experiments.
"""

from .distributions import (
    CounterexampleSpec,
    DesignSpec,
    NoiseSpec,
    Sample,
    l21_norm,
    make_sample,
    psi2_norm,
    sample_counterexample,
    sample_design,
    sample_response,
)
from .erm import ClassSpec, ErmResult, brute_force_erm, excess_loss, solve_erm
from .experiments import (
    MainTheoremConfig,
    SweepConfig,
    make_t0,
    run_counterexample,
    run_persistence_sweep,
    verify_main_theorem,
)
from .fixed_points import (
    FixedPointEstimate,
    LocalizedSupConfig,
    alpha_star,
    beta_star,
    expected_rademacher_sup,
    k_star,
)
from .geometry import BallIntersection, project_l1, rearrangement_d, support_l1l2, support_l1l2_batch, top_d_l2
from .rates import RateInputs, lemma_dsum_bound, rho_N, v1_v2
from .reports import Report, emit_report, wilson_interval
from .rng import derive_seed, substream
from .smallball import (
    SmallBallEstimate,
    TauChoice,
    choose_tau,
    estimate_Q,
    l2_l1_ratio,
    moment_ratio_p2,
    paley_zygmund_Q,
    verify_empirical_smallball,
)
from .versionspace import VersionSpaceProbe, version_diameter

__version__ = "0.1.0"
