"""Weighted left/right creation operators on depth-truncated Fock space."""

from .words import BasisEnumeration, Word, eval_word, parse_word
from .weights import (
    CommutantMu,
    Condition6Report,
    ConstantWeights,
    FinitePerturbationWeights,
    MuSystem,
    PeriodicWeights,
    PrefixWeights,
    ScaledWeights,
    TableMu,
    TabulatedWeights,
    TwoLetterRunWeights,
    WeightSystem,
    check_cocycles,
    check_intertwining,
    commutant_mu,
    condition6_sup,
    lambda_from_mu,
    left_weight,
    right_weight,
    semisimple_estimate,
)
from .fock import (
    GradedOperator,
    TruncatedFock,
    commutation_defect,
    left_creation,
    norm_check,
    right_creation,
    vacuum_kernel_check,
    weighted_left_shift,
    weighted_right_shift,
)
from .algebra import (
    FourierElement,
    apply_fourier,
    cesaro_sum,
    commutant_extract,
    expansion_operator,
    fourier_power_coeffs,
    injectivity_pairing,
    operator_from_fourier,
    phi_band,
    pk_polynomial,
    spectral_radius_lower,
    word_operator,
)
from .eigen import (
    EigenCandidate,
    GridSpec,
    RegionSample,
    eigen_residual,
    eigenvector_coeffs,
    ellipse_predicate,
    hereditary_check,
    joint_eigenspace_dim,
    level_sums,
    membership_verdict,
    region_sample,
    write_region_csv,
)
from .spectra import (
    GrowthCertificate,
    SpectrumReport,
    left_growth_certificate,
    resolvent_check,
    right_membership,
    zero_left_inverses,
)

__version__ = "0.1.0"
