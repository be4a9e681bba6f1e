"""Blue-red colorings of Boolean lattices: constructions, embeddings, verification."""

__version__ = "0.1.0"

from .lattice import (
    Chain,
    Coloring,
    Permutation,
    SetWord,
    WeightedFamily,
    elements_of,
    is_subset,
    layer,
    mask_of,
)
from .oracle import (
    CopyKind,
    CopyWitness,
    RamseyOutcome,
    RamseyScanResult,
    SearchExhausted,
    coloring_is_ramsey,
    exhaustive_ramsey_number,
    find_chain,
    find_copy,
)
from .embedder import (
    BoundReport,
    EmbedRecord,
    SweepReport,
    counting_bound,
    embed_with_permutation,
    minimal_k,
    recover_permutation,
    sweep_permutations,
)
from .constructions import (
    GreedyStuck,
    LllConfig,
    NoSolutionError,
    PairCode,
    PreconditionFailed,
    Refutation,
    ResampleBudgetExceeded,
    code_witness,
    find_prime,
    greedy_pair_code,
    induced_q2_coloring,
    layered_coloring,
    lll_family,
    modp_code,
    olson_subset_sum,
    probabilistic_coloring,
    refute_m2,
    weak_construction,
    weak_parameters,
)
from .verifier import (
    CheckResult,
    DpTable,
    LllReport,
    UnknownShape,
    build_dp_table,
    certify_blue_free,
    certify_red_singleton_bound,
    check_code_statement,
    check_conditions,
    check_min_distance,
    dp_count,
    lll_inequality_report,
    verify_embedding,
)
