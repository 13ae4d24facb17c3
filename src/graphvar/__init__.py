"""graphvar: threshold-crossing structure of graph-valued paths.

Simulate right-continuous graph processes, scan density-threshold ladders,
average prefix distances over vertex relabelings, track pattern-density
vectors, and verify the jump-count / variation / movement bounds that tie
them together.
"""

from .config import RunConfig, load_config, resolve_config
from .density import (
    DensityLevel,
    DensityVector,
    WEIGHT_FAMILIES,
    WeightFunction,
    bound_constant,
    density_exact,
    finite_dim_variation,
    limit_metric,
    limit_vector,
    lipschitz_check,
    load_density_vector,
    save_density_vector,
    total_variation_check,
    weight_admissibility,
    weight_family,
)
from .graphs import (
    AdjacencyGraph,
    DataError,
    Refused,
    density_quantum,
    er_sample,
    num_pairs,
    pair_index,
    read_edge_list,
    sym_diff_count,
    write_edge_list,
)
from .metrics import (
    partial_zeta,
    perm_prefix_power,
    prefix_power_series,
    slln_statistic,
)
from .process import (
    EdgeEvent,
    EventLogPath,
    ExchangeabilityReport,
    JumpCounts,
    MODELS,
    PiecewiseRate,
    StepGraphon,
    exchangeability_check,
    jump_counts,
    load_path,
    save_path,
    simulate,
    simulate_edge_flip,
    simulate_graphon_jump,
    snapshot,
)
from .variation import (
    DyadicDiagnostic,
    JumpBoundReport,
    LadderProfile,
    StoppingLadder,
    VariationCell,
    VariationGrid,
    default_windows,
    dyadic_diagnostic,
    jump_bound_check,
    np_profile,
    stopping_ladder,
    variation_bound_check,
    variation_grid,
)
from .verify import CheckResult, VerificationReport, run_verification

__version__ = "0.1.0"
