"""rankgap: rank-truncating recommender simulations and collective strategies."""

from .matrix import (
    GroupPartition,
    OpenInterval,
    PartitionError,
    RatingsMatrix,
    SpectralSummary,
    block_partition,
    column_abs_sums,
    find_picky_items,
    load_ratings_csv,
    matrix_l1_norm,
    reorder_to_blocks,
    save_ratings_csv,
    singular_value_gap,
    spectral,
)
from .learner import (
    LearnerModel,
    RecommendationOutcome,
    WelfareReport,
    choose_rank,
    fit_learner,
    kappa_k,
    recommend,
    social_welfare,
    truncate,
    tvr,
    utility_en,
)
from .collective import (
    CollectiveStrategy,
    FinderInputs,
    SufficiencyReport,
    aggregate_value,
    apply_uprating,
    check_sufficient_conditions,
    find_eta,
    robustness_margin,
    sufficient_gap,
)
from .completion import (
    PartialMatrix,
    explore,
    explore_per_user,
    miss_probability_mc,
    observed_minority_block_zero,
    reduce_solution,
    sparsest_majority_completion,
)
from .popgap import (
    ClassMembershipReport,
    GeneralStrategy,
    GeneralSufficiencyReport,
    PopularitySplit,
    UserClasses,
    check_general_sufficiency,
    class_membership,
    no_larger_nbar_check,
    projection_gap_check,
    singular_bounds_check,
)
from .generators import (
    gap_class_instance,
    general_strategy_instance,
    indicator_scenario,
    multigroup_example,
    paired_indicator,
    random_block_scenario,
    stratified_collective,
)

__version__ = "0.1.0"
