"""Certified log-Sobolev constants for block-structured Gibbs measures.

The package certifies a log-Sobolev constant for a Gibbs model from its
block curvature and cross-block interactions, and verifies the entropy
inequalities that such a certificate implies: the block decomposition of
relative entropy, geometric entropy contraction of the weighted Gibbs
sampler, the transport inequality, and entropy dissipation along the
Langevin flow.
"""

from .criteria import (
    CertificateError,
    Check,
    CriteriaReport,
    block_lsi_constants,
    build_A_rho,
    criteria_report,
    op_norm,
    otto_reznikoff,
    solve_rho_marton,
    toeplitz_spectrum_report,
)
from .fokker_planck import (
    EntropyTrace,
    dissipation_check,
    entropy_trace,
    gaussian_fp_evolve,
    langevin_particles,
    write_entropy_csv,
)
from .gaussian import (
    GaussianDist,
    avg_conditional_kl,
    block_conditionals,
    conditional,
    fisher,
    gaussian_target,
    kl,
    w2,
)
from .gibbs import (
    GaussianMixture,
    MixtureCapError,
    apply_gibbs_block,
    apply_weighted_gibbs,
    entropy_drop_identity,
    kl_mixture_mc,
    verify_contraction,
    verify_theorem1,
)
from .model import (
    BlockPartition,
    GibbsModel,
    ModelError,
    ModelFormatError,
    ModelValidationError,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    toeplitz_matrix,
)
from .oracles import (
    QuadratureError,
    prop4_check,
    quad_fisher,
    quad_kl,
    transport_check,
    w2_empirical_1d,
)

__version__ = "0.1.0"
