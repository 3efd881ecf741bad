"""Numerical laboratory for m-adic tree martingales.

Finite-depth models of constrained martingale spaces: the tree probability
space, the norm engine, the constraint subspace machinery with its kappa
profile, Riesz-potential embedding experiments, the convex/flat decomposition,
Hausdorff-dimension certificates, shift-invariant subspaces over finite
abelian groups, and trace embeddings against reference measures.
"""

__version__ = "0.1.0"

from .filtration import (
    AtomId,
    FiltrationSpec,
    Martingale,
    TreeMeasure,
    evaluate,
    martingale_to_measure,
    measure_to_martingale,
    multiplicative_martingale,
    sample_path,
    sample_paths,
    tree_distance,
)
from .norms import (
    SimpleFunction,
    besov_norm,
    h1_norm,
    lorentz_p1_norm,
    lp_norm,
    lp_nu_norm,
    martingale_difference,
    martingale_level,
    weak_lp_norm,
)
from .spacew import (
    StructuralReport,
    SubspaceW,
    check_first_condition,
    check_second_condition,
    delta_vector,
    project,
    random_w_martingale,
    structural_report,
)
from .kappa import (
    KappaProfile,
    KappaWitness,
    dimension_bound,
    kappa_of,
    kappa_prime_one,
    kappa_profile,
    kappa_v,
    strict_gap_check,
)
from .riesz import (
    EmbeddingReport,
    delta_counterexample,
    delta_martingale,
    hls_experiment,
    main_inequality_experiment,
    riesz_potential,
)
from .decomp import (
    FlatForest,
    classify_atoms,
    split_convex_flat,
    verify_convex_lemma,
    verify_flat_tree_growth,
    verify_stepwise_identity,
    verify_tree_summation,
)
from .dimension import (
    FrostmanCertificate,
    MultiplicativeMeasure,
    antichain_max,
    build_sharpness_measure,
    digit_frequency_test,
    eggleston_dimension,
    frostman_certify,
    multiplicative_measure,
)
from .groupfourier import (
    FiberFamily,
    FiniteAbelianGroup,
    antisymmetry_subgroup_bound,
    build_shift_invariant_w,
    check_antisymmetry_fibers,
    check_cancellation_fibers,
)
from .trace import (
    build_sharpness_trace_measure,
    capped_cascade_measure,
    frostman_constant,
    trace_experiment_l1,
    trace_experiment_p,
)
