"""Desk-scale laboratory for preference alignment under latent annotator heterogeneity."""

from .rewards import Catalog, LatentType, Population
from .simulate import (
    AnnotatorData,
    Dataset,
    PreferenceRecord,
    expected_dataset,
    make_adversarial_pair,
    make_mpi_population,
    read_dataset,
    simulate_dataset,
    write_dataset,
)
from .policy import (
    ReferencePolicy,
    ScoreEnsemble,
    ScoreTable,
    gauge_fix,
    optimal_table_for_type,
    policy_probs,
    read_ensemble,
    uniform_prompt_weights,
    write_ensemble,
)
from .emdpo import (
    EmState,
    fit_preference_table,
    init_responsibilities,
    m_step_policy,
    mixture_loglik,
    run_em,
)
from .aggregate import (
    GameSolution,
    brute_force_game,
    discrepancy_matrix,
    minimax_policy_direct,
    minimax_policy_lightweight,
    regret_matrix,
    regret_of_policy,
    solve_regret_game,
    uniform_mixture,
)
from .identify import (
    RecoveryReport,
    binary_likelihood_flatness,
    recover_theta_from_binary,
    ternary_recovery_experiment,
    verify_binary_flatness,
)
from .evaluate import (
    accuracy,
    max_mean_reward_margin,
    max_regret,
    run_cluster_dpo,
    run_vanilla_dpo,
    split_by_true_type,
)

__version__ = "0.1.0"
