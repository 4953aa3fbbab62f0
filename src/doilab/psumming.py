"""The p-summing norm of l_{p*} -> l_p operators, which coincides with
the entrywise l_p norm of the matrix, and the exactly verifiable
Lipschitz commutator bound pi_p(f(B)S - Sf(A)) <= K_A K_B pi_p(BS - SA)
for 1-Lipschitz f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .norms import EXACT, INF, UPPER_BOUND, SearchConfig, check_exponent, conjugate_exponent, opnorm, vector_norm
from .schur import divided_difference_matrix
from .spectral import DiagonalizableOperator, assemble, diagonalizability_constant, functional_calculus


@dataclass
class PSummingContext:
    p: float
    pstar: float = field(init=False)

    def __post_init__(self):
        self.p = check_exponent(self.p)
        if not 1.0 < self.p < INF:
            raise ValueError("p-summing context requires 1 < p < inf")
        self.pstar = conjugate_exponent(self.p)


def pi_p_norm(S, ctx: PSummingContext) -> float:
    """(sum_{j,k} |s_jk|^p)^(1/p)."""
    S = np.asarray(S)
    return vector_norm(S.ravel(), ctx.p)


def psumming_definition_ratio(S, ctx: PSummingContext, collection, cfg: SearchConfig | None = None) -> dict:
    """The two sides of the summing inequality for a finite collection of
    vectors: lhs = (sum_j ||S x_j||_p^p)^(1/p), weak_norm = the p -> p
    norm of the matrix with rows x_j."""
    S = np.asarray(S, dtype=complex)
    if not collection:
        raise ValueError("empty collection")
    lhs = vector_norm([vector_norm(S @ np.asarray(x), ctx.p) for x in collection], ctx.p)
    rows = np.asarray([np.asarray(x, dtype=complex) for x in collection])
    weak = opnorm(rows, ctx.p, ctx.p, cfg).value
    return {
        "lhs": lhs,
        "weak_norm": weak,
        "ratio": lhs / weak if weak > 0 else math.inf,
        "zero_weak_norm": weak == 0.0,
    }


def sampled_lipschitz_floor(f, a: DiagonalizableOperator, b: DiagonalizableOperator) -> float:
    """Max modulus of divided differences over all pairs of eigenvalues
    of A and B; a floor for any admissible Lipschitz bound."""
    pts = np.concatenate([a.lambdas, b.lambdas])
    return float(np.abs(divided_difference_matrix(f, pts, pts, 0.0)).max())


def lipschitz_commutator_check(
    a: DiagonalizableOperator,
    b: DiagonalizableOperator,
    S,
    fs,
    ctx: PSummingContext,
) -> list[dict]:
    """Verify pi_p(f(B)S - Sf(A)) <= K_A K_B pi_p(BS - SA) for each f in
    fs, which must be 1-Lipschitz on the spectra (else ValueError), with K
    upper bounds; both pi_p values are exact entrywise norms. A acts on
    l_{p*}, B on l_p. K_A, K_B and pi_p(BS - SA) do not depend on f and are
    computed once; returns one result per f. Its `bound_certainty` is
    `exact` when both K are, else `upper_bound`."""
    for f in fs:
        floor = sampled_lipschitz_floor(f, a, b)
        if floor > 1.0 + 1e-12:
            raise ValueError(f"f is not 1-Lipschitz: sampled divided-difference max {floor}")
    S = np.asarray(S, dtype=complex)
    rhs = pi_p_norm(assemble(b) @ S - S @ assemble(a), ctx)
    k_a = diagonalizability_constant(a, ctx.pstar)
    k_b = diagonalizability_constant(b, ctx.p)
    bound = k_a.value * k_b.value * rhs
    bound_certainty = EXACT if k_a.certainty == k_b.certainty == EXACT else UPPER_BOUND
    results = []
    for f in fs:
        lhs = pi_p_norm(functional_calculus(b, f) @ S - S @ functional_calculus(a, f), ctx)
        results.append({
            "lhs": lhs,
            "rhs": rhs,
            "bound": bound,
            "K_A": k_a.value,
            "K_B": k_b.value,
            "bound_certainty": bound_certainty,
            "satisfied": lhs <= bound + 1e-9 * (1.0 + bound),
        })
    return results
