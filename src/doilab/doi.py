"""Discrete double operator integrals.

In the eigenbases of A and B the double operator integral is exactly a
Schur multiplier, T_phi(S) = Phi * S with Phi[k, j] = phi(lambda_j, mu_k),
which `schur_product` computes. The commutator transform checks the
algebraic identity

    f(B)S - Sf(A) = V^{-1} ( Phi_f * (V(BS - SA)U^{-1}) ) U

entrywise and reports the norms of both commutators and their ratio;
callers that normalize by K_A K_B compute the constants themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .norms import EXACT, SearchConfig, check_exponent, opnorm, opnorm_upper
from .schur import divided_difference_matrix, schur_product
from .spectral import DiagonalizableOperator, assemble, functional_calculus

RHS_ZERO_CUTOFF = 1e-14


def sobolev_weight_norm() -> float:
    """||g||_{L2} + ||g'||_{L2} for g(t) = 2 / (e^|t| + 1), in closed form:
    the integral of g^2 over the line is 8 ln 2 - 4 and that of g'^2 is
    2/3; the test suite checks both against a quadrature."""
    return math.sqrt(8.0 * math.log(2.0) - 4.0) + math.sqrt(2.0 / 3.0)


def abs_kernel_constant() -> float:
    """The explicit constant C = 2 + 32 sqrt(2) ||g||_{W^{1,2}} of the
    paper's truncation bound ||T_phi(S)|| <= C (||S|| + ||T_seq(S)||) for
    the absolute value kernel, T_seq keeping (k, j) with mu_k <= lambda_j."""
    return 2.0 + 32.0 * math.sqrt(2.0) * sobolev_weight_norm()


@dataclass
class CommutatorReport:
    lhs_norm: float
    rhs_norm: float
    ratio: float  # math.inf flags rhs below cutoff
    # lhs_norm over an upper bound on ||BS - SA|| (rhs_norm itself where it
    # is exact): a certified lower bound on the ratio; math.inf where ratio is
    ratio_lower: float
    identity_residual: float
    norms_meta: dict
    phi: np.ndarray = field(compare=False)  # Phi_f, as the identity applies it


def commutator_transform(
    a: DiagonalizableOperator,
    b: DiagonalizableOperator,
    S,
    fs,
    p,
    q,
    cfg: SearchConfig | None = None,
) -> list[CommutatorReport]:
    """Evaluate f(B)S - Sf(A) for each f in fs both directly and through
    the discrete DOI acting on BS - SA, and report norms and ratio; returns
    one report per f.

    BS - SA, its norm, an upper bound on that norm (`opnorm_upper` where
    `opnorm` has no exact branch) and V(BS - SA)U^{-1} do not depend on f
    and are computed once. The divided differences take the value 1 on
    coincident eigenvalues: the identity holds for any value there, since
    entry (k, j) of V(BS - SA)U^{-1} is (mu_k - lambda_j)(VSU^{-1})_kj, and
    so vanishes.
    """
    p = check_exponent(p)
    q = check_exponent(q)
    cfg = cfg or SearchConfig()
    S = np.asarray(S, dtype=complex)
    comm = assemble(b) @ S - S @ assemble(a)
    rhs = opnorm(comm, p, q, cfg)
    rhs_upper = rhs.value if rhs.certainty == EXACT else opnorm_upper(comm, p, q)
    flagged = rhs.value < RHS_ZERO_CUTOFF
    mid = b.u @ comm @ a.u_inv
    reports = []
    for f in fs:
        d1 = functional_calculus(b, f) @ S - S @ functional_calculus(a, f)
        phi = divided_difference_matrix(f, a.lambdas, b.lambdas, 1.0)
        d2 = b.u_inv @ schur_product(phi, mid) @ a.u
        lhs = opnorm(d1, p, q, cfg)
        reports.append(
            CommutatorReport(
                lhs_norm=lhs.value,
                rhs_norm=rhs.value,
                ratio=math.inf if flagged else lhs.value / rhs.value,
                ratio_lower=math.inf if flagged else lhs.value / rhs_upper,
                identity_residual=float(np.abs(d1 - d2).max()),
                norms_meta={"lhs": lhs.certainty, "rhs": rhs.certainty},
                phi=phi,
            )
        )
    return reports
