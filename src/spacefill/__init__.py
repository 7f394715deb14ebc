"""spacefill: deterministic space-filling sampling, adaptations, quality
metrics, and a reproducible benchmark harness."""

from .core import (
    Domain,
    RegionTooSmallError,
    RngState,
    SampleSet,
    SamplingError,
    derive_seed,
    min_pair,
    nearest_neighbor_distances,
    scale_from_unit,
    scale_to_unit,
)
from .samplers import (
    ALGORITHMS,
    BinPlacement,
    CvtConfig,
    FpConfig,
    GridMode,
    LhsConfig,
    PoissonConfig,
    best_candidate,
    cvt_sampling,
    generate,
    greedy_fp,
    grid_sampling,
    hybrid_bc_fp,
    latin_property_holds,
    latinize,
    lhs_basic,
    lhs_maximin,
    poisson_disk,
    random_sampling,
)
from .adapt import (
    CurveRegionSpec,
    StreamConfig,
    curve_region_sample,
    density_weighted_select,
    expand_domain,
    incremental_add,
    rejection_sample_density,
    stream_subset,
    viable_region_sample,
)
from .metrics import QualityReport, cl2_discrepancy, nn_stats, phi_p, quality_report
from .bench import BenchReport, ExperimentSpec, format_report, paper_suite, run_experiment

__version__ = "0.1.0"
