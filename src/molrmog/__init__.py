"""Numerical laboratory for mixture-of-low-rank-MoG diffusion models."""

__version__ = "0.1.0"

from .schedule import DiffusionSchedule, ScheduleKind, coefficients, make_schedule
from .model import (
    EquivalentGaussian,
    LabeledDataset,
    LabeledSample,
    MoGComponent,
    MoLRMoGModel,
    Subspace,
    build_model,
    decode,
    encode,
    forward_noise,
    moment_match,
    sample_data,
    support_radius,
)
from .score import (
    LatentParams,
    NoisedComponentView,
    SymmetricParams,
    ambient_score,
    conditional_score,
    delta_vec,
    latent_score,
    log_density,
    responsibilities,
    symmetric_score,
)
from .objective import (
    EstimationReport,
    LipschitzReport,
    LossConfig,
    ParameterBox,
    dsm_loss,
    empirical_loss,
    estimation_gap_experiment,
    lipschitz_constants,
    make_theta_grid,
)
from .calculus import (
    HessianReport,
    JacobianPair,
    OverlapReport,
    alpha_asymmetric,
    alpha_symmetric,
    constants_CprimeCtilde,
    equivalent_gaussian_error,
    hessian_empirical,
    jacobian_exact_terms,
    jacobian_fd,
    mmtop_eigs,
    overlap_analysis,
)
from .optimizer import (
    GDConfig,
    TrainTrace,
    contraction_check,
    gd_train,
    init_near,
    theoretical_step,
)
from .sampler import SamplerConfig, reverse_sample, sample_quality
