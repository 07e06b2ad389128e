"""Marked point pattern statistics on planar windows and linear networks.

Estimators (cross/dot K, nearest-neighbour H, empty-space F, their ratio J,
mark-weighted K, mark correlation functions), kernel intensity estimation
with bandwidth rules, pattern simulators (Poisson, log-Gaussian Cox on
networks, linked/balanced bivariate Cox, three mark mechanisms), and a
rank-based Monte Carlo envelope protocol.
"""

__version__ = "0.1.0"

from .curves import SummaryCurve, r_grid
from .envelope import EnvelopeBand, envelope_rank, envelopes, mark_correlation_study
from .errors import MarkedPointsError, NumericalError, ValidationError
from .geometry import (
    LinearNetwork,
    NetworkLocation,
    PlanarWindow,
    all_pairs_network_distances,
    boundary_distance,
    load_network,
    network_arc_mesh,
    network_cross_distances,
    save_network,
    synthetic_tree_network,
    uniform_points_on_network,
)
from .intensity import (
    IntensityEstimate,
    KernelSpec,
    NetworkIntensityEstimate,
    bandwidth_cvl,
    bandwidth_scott,
    cvl_criterion,
    eval_intensity,
    intensity_heat,
    intensity_jones_diggle,
    intensity_network,
    intensity_uniform,
    kernel_mass,
)
from .markcorr import (
    BEISBART_KERSCHER,
    SHIMANTANI_I,
    STOYAN,
    VARIOGRAM,
    MarkCorrSuite,
    SmoothingSpec1D,
    TestFunction,
    default_smoothing,
    mark_corr,
    mark_corr_suite,
    normalization,
    pair_average,
)
from .pattern import (
    MarkedPoint,
    MarkedPointPattern,
    MarkSummaryStats,
    load_pattern_csv,
    mark_moments,
    save_pattern_csv,
    split_by_type,
)
from .simulate import (
    GaussianFieldSpec,
    IrmpsReport,
    SeedSpec,
    constant_field_sampler,
    cosine_field_sampler,
    irmps_check,
    lgcp_network,
    linked_balanced_cox,
    model_marks,
    poisson_network,
    poisson_planar,
    replicate_rng,
    replicate_seed,
)
from .summaries import (
    f_inhom,
    h_cross_inhom,
    j_cross_inhom,
    k_cross_inhom,
    k_dot_inhom,
    mark_sum_measure,
    mark_weighted_k,
)
