"""Frozen reference values and brute-force oracles for the test suite.

Every constant here was produced by an independent straight-from-the-math
reference implementation (direct summations, literal formula evaluation,
an isolated reimplementation of the RNG protocol) before the package code
was tested against it.  Tests compare against these with tight tolerances;
if the package's sampling protocol or formula conventions drift, these
comparisons fail first.
"""

import numpy as np

# --- truncation weight of the uniformly spread m=2 state, n=7, s=3 --------
# Direct 9-term sum of 2·cos²(2π(q−r)/7)/49 over q, r ∈ {−1, 0, 1}.
CAPTURED_WEIGHT_N7_M2_S3 = 0.18995874547693684


def captured_weight_cosine_n7_s3() -> float:
    """Recompute the 9-term cosine sum literally."""
    total = 0.0
    for q in (-1, 0, 1):
        for r in (-1, 0, 1):
            total += 2.0 * np.cos(2.0 * np.pi * (q - r) / 7.0) ** 2 / 49.0
    return total


# --- exact m=2 purity formula values at n=201 ------------------------------
PURITY_M2_N201_S3 = 0.9999991506919012
PURITY_M2_N201_S101 = 0.5000490243747637
SCHMIDT_N201_S101 = 1.9998039217261747

# --- frozen random-ensemble protocol reference ------------------------------
# n=9, m=3, s ∈ (3, 5), 4 realizations, master seed 2024; subsystem A uses
# stream (j, 0), subsystem B stream (j, 1); Ginibre (x+iy)/√2; QR column
# phases R_jj/|R_jj|.
TINY_ENSEMBLE = {
    "n": 9,
    "m": 3,
    "s_values": (3, 5),
    "realizations": 4,
    "master_seed": 2024,
    "k_per_realization": {
        3: (1.098767475211958, 1.403081800514588, 1.1559089445905115, 1.3290409305767417),
        5: (1.9563893848846081, 2.2747970903250874, 1.6976037723423822, 2.088327896661218),
    },
    "weight_per_realization": {
        3: (0.07841182086005904, 0.1063489189529686, 0.10020566060168819, 0.1575098285237494),
        5: (0.2901108455205142, 0.2749601391457719, 0.25055027073685904, 0.3318039381629469),
    },
    "mean_K": (1.2466997877234498, 2.004279536053324),
    "std_K": (0.1238571193076738, 0.21011149701807305),
    "mean_captured_weight": (0.1106190572346163, 0.286856298391523),
}


# --- brute-force purity: literal quadruple sum over coefficient pairs ------
def quadruple_sum_purity(block: np.ndarray) -> float:
    """P as the literal four-index sum Σ β_{q,t'} β*_{q',t'} β_{q',t} β*_{q,t}."""
    s = block.shape[0]
    total = 0.0 + 0.0j
    for q in range(s):
        for qp in range(s):
            for t in range(s):
                for tp in range(s):
                    total += (
                        block[q, tp]
                        * np.conj(block[qp, tp])
                        * block[qp, t]
                        * np.conj(block[q, t])
                    )
    return float(total.real)


# --- Haar first-moment check config ----------------------------------------
# E|U_ij|² = 1/n with Var|U_ij|² = (n−1)/(n²(n+1)); the frozen seed keeps the
# 10⁴-sample mean deterministic and inside the 3σ band with a 2× margin.
HAAR_MOMENT = {"n": 11, "samples": 10_000, "master_seed": 3, "entries": ((0, 0), (3, 5))}


# --- exact annealed purity of the Haar ensemble ------------------------------
def exact_annealed_purity(n, m, s):
    """P_ann = ⟨tr ρ̃²⟩/⟨tr ρ̃⟩² for independent Haar U_A, U_B, from degree-2 Weingarten calculus.

    P_ann = (a² + b²)/m + 2ab with a = n(sn − 1)/(s(n² − 1)) and
    b = n(n − s)/(s(n² − 1)).  Arithmetic only, so ``fractions.Fraction``
    arguments give the exact rational value.
    """
    a = n * (s * n - 1) / (s * (n * n - 1))
    b = n * (n - s) / (s * (n * n - 1))
    return (a * a + b * b) / m + 2 * a * b
