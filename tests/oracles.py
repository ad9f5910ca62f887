"""Independent brute-force oracles used only by the tests.

Everything here is written with plain Python loops and elementary
formulas so it shares no code path with the package implementation,
except the ``ref_*`` selections at the end: those are the package's
earlier selection code, kept verbatim so a faster selection can be
checked bit for bit, rng state included, against what it replaces.
"""
import math

import numpy as np

from greedylsq.exceptions import AllZeroGradient, ZeroColumn


def brute_ggs_select(s, norms, tie_tol):
    """Reference two-stage greedy selection by explicit scan."""
    n = len(s)
    s_max = max(abs(float(v)) for v in s)
    candidates = [j for j in range(n) if abs(float(s[j])) >= (1.0 - tie_tol) * s_max]
    best_j = candidates[0]
    best_ratio = float(s[best_j]) ** 2 / float(norms[best_j])
    for j in candidates[1:]:
        ratio = float(s[j]) ** 2 / float(norms[j])
        if ratio > best_ratio:
            best_j, best_ratio = j, ratio
    return best_j, candidates


def brute_grcd_set(s, norms, frob_sq):
    """Reference threshold set as an explicit scan; returns (members, threshold)."""
    n = len(s)
    s_norm_sq = sum(float(v) ** 2 for v in s)
    ratios = [float(s[j]) ** 2 / float(norms[j]) for j in range(n)]
    threshold = 0.5 * (max(ratios) / s_norm_sq + 1.0 / frob_sq)
    members = [j for j in range(n)
               if float(s[j]) ** 2 >= threshold * s_norm_sq * float(norms[j])]
    best = max(range(n), key=lambda j: ratios[j])
    if best not in members:
        members = sorted(members + [best])
    return members, threshold


def charpoly_smallest_eigenvalue(G, grid_points=200_000, bisect_iters=200):
    """Smallest eigenvalue of a small symmetric matrix via its
    characteristic polynomial (trace power sums + Newton identities),
    located by a sign scan and bisection.  Only sensible for n <= 4."""
    G = np.asarray(G, dtype=np.float64)
    n = G.shape[0]
    power = np.eye(n)
    p = []
    for _ in range(n):
        power = power @ G
        p.append(float(np.trace(power)))
    e = [1.0]
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1.0) ** (i - 1) * e[k - i] * p[i - 1]
        e.append(acc / k)

    # S(lam) = prod_i (lambda_i - lam) = sum_k e_k * (-lam)^(n-k); positive
    # below the smallest eigenvalue of a positive-definite matrix.
    # Coefficient of lam^(n-k) is e_k * (-1)^(n-k), highest degree first.
    coeffs = [e[k] * (-1.0) ** (n - k) for k in range(n + 1)]

    def S(lam):
        return np.polyval(coeffs, lam)

    upper = max(float(G[i, i]) + sum(abs(float(G[i, j])) for j in range(n) if j != i)
                for i in range(n))
    grid = np.linspace(0.0, upper * (1 + 1e-12), grid_points)
    values = S(grid)
    crossings = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    if len(crossings) == 0:
        raise ValueError("no sign change found; matrix may be singular")
    lo, hi = grid[crossings[0]], grid[crossings[0] + 1]
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if np.sign(S(mid)) == np.sign(S(lo)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Earlier package selections (before the one-candidate fast path and the
# per-solve cumulative rgs table), verbatim apart from their names.
# ---------------------------------------------------------------------------

def _ref_greedy_candidates(s, col_norms_sq, tie_tolerance_rel):
    abs_s = np.abs(s)
    s_max = abs_s.max()
    if s_max == 0.0:
        raise AllZeroGradient("gradient is zero; the normal equation is satisfied")
    candidates = np.flatnonzero(abs_s >= (1.0 - tie_tolerance_rel) * s_max)
    norms = col_norms_sq[candidates]
    if np.any(norms <= 0.0):
        raise ZeroColumn("candidate column has zero norm")
    t = _ref_unit_scaled(s[candidates], s_max)
    return candidates, t * t / norms


def _ref_unit_scaled(s, s_max):
    return np.ldexp(s, -math.frexp(s_max)[1])


def ref_ggs_select(s, col_norms_sq, tie_tolerance_rel):
    candidates, ratios = _ref_greedy_candidates(s, col_norms_sq, tie_tolerance_rel)
    return int(candidates[int(np.argmax(ratios))]), candidates


def ref_ggs_randomized_select(s, col_norms_sq, tie_tolerance_rel, rng):
    candidates, weights = _ref_greedy_candidates(s, col_norms_sq, tie_tolerance_rel)
    return int(candidates[_ref_sample_inverse_cdf(weights, rng)]), candidates


def ref_rgs_select(col_norms_sq, frob_sq, rng):
    if frob_sq <= 0.0:
        raise ValueError("frob_sq must be positive")
    return int(_ref_sample_inverse_cdf(col_norms_sq, rng))


def _ref_sample_inverse_cdf(weights, rng):
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)
