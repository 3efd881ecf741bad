"""Lower Hausdorff dimension machinery on the finite tree.

The Frostman-type certificate asks for the smallest K with

    sum_{omega in C} mu(omega)  <=  K * ( sum_{omega in C} m^{-beta n(omega)} )^gamma

over all antichains C of atoms.  The linearized functional
mass(C) - lambda * cost(C) is maximized exactly by a bottom-up tree dynamic
program, one pass per lambda on a geometric grid; witnesses give certified
lower bounds on the best ratio, the dual envelope gives the certified
constant, and the verdict comes from the trend of the best ratio across
depth prefixes, never from one depth alone.  The full-depth scan is also the
depth-D prefix (truncating at the full depth keeps every node weight and the
grid), so only the prefixes 1..D-1 get scans of their own.

A lambda scan needs only the root's value and witness (mass, cost), so its
passes hold one level at a time; only ``antichain_max`` keeps the per-level
tables for its witness walk.  Child sums add the strided slices a[j::m] left
to right, which is bit for bit numpy's ``reshape(-1, m).sum(axis=1)`` for
m <= 7 (numpy adds rows shorter than 8 in order); for m >= 8 numpy's row sum
takes another order, so those m keep ``reshape(-1, m).sum(axis=1)`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filtration import (
    FiltrationSpec,
    Martingale,
    TreeMeasure,
    multiplicative_martingale,
)
from .kappa import kappa_prime_one
from .spacew import SubspaceW

# A fitted growth slope of log K(d) above gamma * SLOPE_FRACTION * log m
# flags a violation; half of the +-0.05 dimension slack used by the
# sharpness experiments.
SLOPE_FRACTION = 0.025


@dataclass
class MultiplicativeMeasure:
    """Product measure with branch weights p_j = (1 + v_j)/m."""

    v: np.ndarray
    weights: np.ndarray
    spec: FiltrationSpec
    measure: TreeMeasure
    martingale: Martingale


def multiplicative_measure(spec: FiltrationSpec, v: np.ndarray) -> MultiplicativeMeasure:
    v = np.asarray(v, dtype=float).reshape(spec.m).copy()
    # Optimizer witnesses sit on the boundary up to rounding; snap exact zeros
    # of 1 + v so the product measure carries exact zero masses, and restore
    # the zero sum on the largest coordinate.
    boundary = np.abs(1.0 + v) < 1e-9
    if boundary.any():
        v[boundary] = -1.0
        v[np.argmax(v)] -= v.sum()
    scalar_spec = FiltrationSpec(spec.m, spec.depth, 1)
    G = multiplicative_martingale(scalar_spec, v)
    from .filtration import martingale_to_measure

    mu = martingale_to_measure(G)
    return MultiplicativeMeasure(
        v=v,
        weights=(1.0 + v) / spec.m,
        spec=scalar_spec,
        measure=mu,
        martingale=G,
    )


def _node_weights(mu: TreeMeasure) -> list[np.ndarray]:
    """Per-level atom weights: masses for scalar mu, Euclidean sizes for vector."""
    out = []
    for n in range(mu.spec.depth + 1):
        mass = mu.level_mass(n)
        out.append(mass if mass.ndim == 1 else np.linalg.norm(mass, axis=1))
    return out


def _child_sum(a: np.ndarray, m: int) -> np.ndarray:
    """Sum of each run of m consecutive entries, as reshape(-1, m).sum(axis=1)."""
    if m >= 8:
        # numpy's row sum no longer adds rows this long left to right
        return a.reshape(-1, m).sum(axis=1)
    total = a[0::m] + a[1::m]
    for j in range(2, m):
        total += a[j::m]
    return total


def _antichain_dp(weights: list[np.ndarray], m: int, beta: float, lam: float, keep_tables: bool = False):
    """Bottom-up pass; returns the root's value, its witness (mass, cost) and the tables.

    value(omega) = max(score(omega), sum_children value(child)), floored at
    zero; the witness mass and cost follow the same choice.  Only the current
    level is held, and each level is updated in place.  With ``keep_tables``
    the per-level value and take arrays come back as ``(values, take)``,
    indexed by level, for the witness walk; otherwise the last item is None.
    """
    depth = len(weights) - 1
    unit = [float(m) ** (-n * beta) for n in range(depth + 1)]
    score = weights[depth] - lam * unit[depth]
    takes = [score >= 0.0] if keep_tables else None
    value = np.maximum(score, 0.0, out=score)
    active = value > 0.0
    mass = np.where(active, weights[depth], 0.0)
    cost = np.where(active, unit[depth], 0.0)
    values = [value] if keep_tables else None
    for n in range(depth - 1, -1, -1):
        score = weights[n] - lam * unit[n]
        value = _child_sum(value, m)
        take = score >= value
        np.copyto(value, score, where=take)
        np.maximum(value, 0.0, out=value)
        inactive = ~(value > 0.0)
        mass = _child_sum(mass, m)
        np.copyto(mass, weights[n], where=take)
        np.copyto(mass, 0.0, where=inactive)
        cost = _child_sum(cost, m)
        np.copyto(cost, unit[n], where=take)
        np.copyto(cost, 0.0, where=inactive)
        if keep_tables:
            values.append(value)
            takes.append(take)
    tables = (values[::-1], takes[::-1]) if keep_tables else None
    return float(value[0]), float(mass[0]), float(cost[0]), tables


def antichain_max(mu: TreeMeasure, beta: float, lam: float) -> tuple[float, list[tuple[int, int]]]:
    """Exact max over antichains of sum (mu(omega) - lam m^{-n beta}) and a witness.

    Bottom-up DP: value(omega) = max(score(omega), sum_children value(child))
    with empty choices floored at zero.  The witness is one optimal antichain
    as (level, index) pairs.
    """
    if mu.is_scalar and np.any(np.asarray(mu.leaf_mass) < 0):
        raise ValueError("antichain DP requires a nonnegative measure")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    spec = mu.spec
    m = spec.m
    weights = _node_weights(mu)
    value, _, _, (values, take) = _antichain_dp(weights, m, beta, lam, keep_tables=True)
    witness: list[tuple[int, int]] = []
    stack = [(0, 0)]
    while stack:
        n, i = stack.pop()
        if values[n][i] <= 0.0:
            continue
        if take[n][i]:
            witness.append((n, int(i)))
        else:
            stack.extend((n + 1, m * i + j) for j in range(m))
    return value, witness


def antichain_score(mu: TreeMeasure, antichain, beta: float, lam: float) -> float:
    weights = _node_weights(mu)
    return float(
        sum(weights[n][i] - lam * float(mu.spec.m) ** (-n * beta) for n, i in antichain)
    )


@dataclass
class FrostmanCertificate:
    beta: float
    gamma: float
    lambda_grid: np.ndarray
    best_values: np.ndarray               # DP value per lambda at full depth
    verdict: str                          # "CERTIFIED" or "VIOLATED"
    constant: float                       # certified K (dual envelope, full depth)
    witness_constant: float               # best achieved ratio at full depth
    per_depth_ratio: np.ndarray           # best witness ratio per depth prefix
    slope: float                          # fitted slope of log ratio vs depth
    violating_antichain: list | None = None
    details: dict = field(default_factory=dict)


def _lambda_scan(mu, beta, gamma, grid):
    """One full-depth scan: witness ratios plus the dual envelope constant.

    Returns the DP value per lambda, the best witness ratio, the grid index of
    the lambda that achieved it (None when no witness has positive cost) and
    the certified constant.
    """
    weights = _node_weights(mu)
    values = np.empty(len(grid))
    witness_costs = []
    best_ratio, best = 0.0, None
    for i, lam in enumerate(grid):
        values[i], mass, cost, _ = _antichain_dp(weights, mu.spec.m, beta, lam)
        if cost > 0:
            witness_costs.append(cost)
            if mass / cost**gamma > best_ratio:
                best_ratio, best = mass / cost**gamma, i
    # Dual bound: every antichain obeys mass <= g(lam) + lam * cost for all
    # lam, hence ratio <= min_lam (g(lam) + lam c)/c^gamma at its own cost.
    # The c-grid carries the witness costs so achieved ratios are never
    # undercut, and the constant is floored at the best achieved ratio.
    n_leaves = mu.spec.leaves
    c_lo = float(mu.spec.m) ** (-mu.spec.depth * beta)
    c_hi = max(n_leaves * float(mu.spec.m) ** (-mu.spec.depth * beta), 1.0)
    c_grid = np.unique(np.concatenate([np.geomspace(c_lo, c_hi, 257), witness_costs]))
    envelope = np.min(values[None, :] + np.outer(c_grid, grid), axis=1) / c_grid**gamma
    constant = float(max(envelope.max(), best_ratio))
    return values, best_ratio, best, constant


def frostman_certify(
    mu: TreeMeasure, beta: float, gamma: float, lambda_grid_size: int = 64
) -> FrostmanCertificate:
    """Certify or refute the antichain inequality, with a depth trend verdict."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    spec = mu.spec
    m = spec.m
    span = float(m) ** (spec.depth * max(beta, 0.25))
    grid = np.geomspace(1.0 / span, span, lambda_grid_size)
    values, witness_ratio, best, constant = _lambda_scan(mu, beta, gamma, grid)

    # The depth-D prefix is mu itself on the same grid: its ratio is the
    # full-depth witness ratio, so only the shorter prefixes are scanned.
    per_depth = np.zeros(spec.depth)
    per_depth[-1] = witness_ratio
    for d in range(1, spec.depth):
        sub = mu.truncated(d)
        span_d = float(m) ** (d * max(beta, 0.25))
        grid_d = np.geomspace(1.0 / span_d, span_d, lambda_grid_size)
        _, ratio_d, _, _ = _lambda_scan(sub, beta, gamma, grid_d)
        per_depth[d - 1] = ratio_d

    depths = np.arange(1, spec.depth + 1, dtype=float)
    window = depths >= max(2, spec.depth // 2)
    positive = per_depth > 0
    keep = window & positive
    slope = 0.0
    if keep.sum() >= 2:
        slope = float(np.polyfit(depths[keep], np.log(per_depth[keep]), 1)[0])
    violated = slope > SLOPE_FRACTION * gamma * np.log(m)
    witness = None
    if violated and best is not None:
        _, witness = antichain_max(mu, beta, grid[best])
    return FrostmanCertificate(
        beta=beta,
        gamma=gamma,
        lambda_grid=grid,
        best_values=values,
        verdict="VIOLATED" if violated else "CERTIFIED",
        constant=constant,
        witness_constant=witness_ratio,
        per_depth_ratio=per_depth,
        slope=slope,
        violating_antichain=witness,
        # A best lambda on the first or last grid point means the optimum may
        # lie outside the grid, so the witness ratio may understate the best.
        details={"best_lambda_at_grid_edge": best in (0, lambda_grid_size - 1)},
    )


def eggleston_dimension(weights) -> float:
    """Base-m entropy of the branch distribution: -sum p log p / log m."""
    p = np.asarray(weights, dtype=float)
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be a probability distribution")
    p = np.clip(p, 0.0, None)
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return float(-terms.sum() / np.log(p.size))


def build_sharpness_measure(
    W: SubspaceW, spec: FiltrationSpec, seed: int = 0
) -> tuple[MultiplicativeMeasure, Martingale]:
    """The extremal multiplicative measure of the dimension bound, lifted into W.

    Branch weights come from the entropy minimizer v of kappa'(1); the lift is
    the product martingale times the witness direction a, whose blocks all lie
    in W.  For W = {0} the witness is v = 0 and the measure is uniform.
    """
    witness = kappa_prime_one(W, seed=seed)
    v = witness.v
    mm = multiplicative_measure(spec, v)
    a = witness.a if np.linalg.norm(witness.a) > 0 else np.eye(W.ell)[0]
    lift_spec = FiltrationSpec(spec.m, spec.depth, W.ell)
    G = mm.martingale
    diffs = [G.diffs[n][:, :, 0][:, :, None] * a[None, None, :] for n in range(spec.depth)]
    lifted = Martingale(lift_spec, a.copy(), diffs, validate=False)
    for n in range(spec.depth):
        worst = float(W.residuals(lifted.diffs[n]).max(initial=0.0))
        scale = max(1.0, float(np.max(np.abs(lifted.diffs[n]))) if lifted.diffs[n].size else 1.0)
        if worst > 1e-12 * scale:
            raise ValueError(f"lifted blocks left W at level {n} (residual {worst:.2e})")
    return mm, lifted


@dataclass
class DigitFrequencyReport:
    weights: np.ndarray
    frequencies: np.ndarray
    max_deviation: float
    samples: int
    digits_per_sample: int


def digit_frequency_test(
    mm: MultiplicativeMeasure, samples: int, seed, digits_per_sample: int | None = None
) -> DigitFrequencyReport:
    """Pooled digit frequencies of sampled paths against the branch weights.

    The digits of a product measure are i.i.d., so paths are sampled digitwise
    and the tree never needs materializing; expected deviation is
    O(1/sqrt(samples * digits)).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n_digits = digits_per_sample or mm.spec.depth
    rng = np.random.default_rng(seed)
    draws = rng.choice(mm.spec.m, size=(samples, n_digits), p=mm.weights)
    freqs = np.array([(draws == j).mean() for j in range(mm.spec.m)])
    return DigitFrequencyReport(
        weights=mm.weights,
        frequencies=freqs,
        max_deviation=float(np.max(np.abs(freqs - mm.weights))),
        samples=samples,
        digits_per_sample=n_digits,
    )
