"""doilab: operator norms, Schur multipliers, discrete double operator
integrals and commutator Lipschitz estimates on finite l_p -> l_q spaces."""

from .norms import (
    INF,
    NormEstimate,
    SearchConfig,
    conjugate_exponent,
    opnorm,
    opnorm_bruteforce,
    opnorm_upper,
    opnorms,
    power_iteration_pq,
    vector_norm,
)
from .spectral import (
    ConstantEstimate,
    DiagonalizableOperator,
    assemble,
    diagonalizability_constant,
    functional_calculus,
    spectral_constant,
    spectral_projection,
)
from .schur import (
    StaircaseDescriptor,
    abs_divided_difference,
    canonicalize_mask,
    divided_difference_matrix,
    hilbert_type_witness,
    multiplier_norm,
    multiplier_norms,
    repeat_first_column,
    schur_product,
    standard_truncation_mask,
)
from .doi import (
    CommutatorReport,
    abs_kernel_constant,
    commutator_transform,
    sobolev_weight_norm,
)
from .psumming import (
    PSummingContext,
    lipschitz_commutator_check,
    pi_p_norm,
    psumming_definition_ratio,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
