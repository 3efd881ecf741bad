"""Lower Hausdorff dimension machinery on the finite tree.

The Frostman-type certificate asks for the smallest K with

    sum_{omega in C} mu(omega)  <=  K * ( sum_{omega in C} m^{-beta n(omega)} )^gamma

over all antichains C of atoms.  The linearized functional
mass(C) - lambda * cost(C) is maximized exactly by a bottom-up tree dynamic
program for every lambda of a geometric grid; witnesses give certified
lower bounds on the best ratio, the dual envelope gives the certified
constant, and the verdict comes from the trend of the best ratio across
depth prefixes, never from one depth alone.  The full-depth scan is also the
depth-D prefix (truncating at the full depth keeps every node weight and the
grid), so only the prefixes 1..D-1 get scans of their own.  A scalar
measure with a negative or NaN mass, and a vector measure with a NaN
component, are refused up front, by the certificate and by
``antichain_max`` alike.

The DP runs over the support, built once per certificate from the leaves: a
node is kept iff some leaf below it is positive or NaN (for a vector
measure, has a component that is not 0).  Every other node has value =
mass = cost = +0.0 for every lambda >= 0, so a pass visits the kept nodes
only (13 of 797,161 for the depth-12 delta sharpness measure).  A kept
weight sums the node's own leaves as the dense level sum does, and a depth-d
prefix takes the kept level-d masses, scattered into zeros, as its leaves:
an unkept mass is +-0.0, which changes a kept sum at most in the sign of a
zero vector component, dropped by the norm, so the bits stay the dense ones.
A pass takes a slab of lambdas at once, as many as keep its widest array (a
kept level, or the scatter slab of a child sum) within SLAB_ELEMENTS
entries: the whole grid on a sparse support, one lambda at a time on a dense
depth-12 tree.  A lambda scan needs only the root's value and witness (mass,
cost), so its passes hold one level at a time; only ``antichain_max`` keeps
the per-level tables for its witness walk.  Every entry is bit for bit the
dense one-lambda pass over all nodes (kept in tests/oracles.py): the kept
children go into a zero slab, whose child sums add each parent's children in
the dense order, left to right for m <= 7 and as numpy's
``reshape(-1, m).sum(axis=1)`` for m >= 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filtration import FiltrationSpec, Product, TreeMeasure, _sweep, vector_norms
from .kappa import kappa_prime_one
from .spacew import SubspaceW

# A fitted growth slope of log K(d) above gamma * SLOPE_FRACTION * log m
# flags a violation; half of the +-0.05 dimension slack used by the
# sharpness experiments.
SLOPE_FRACTION = 0.025

# A DP pass holds (lambdas, kept nodes of a level) arrays and, where a kept
# parent has a child left out, (lambdas, kept parents * m) scatter slabs.  The
# lambda grid runs in slabs that keep each such array within this many
# entries, one lambda at a time where one lambda's array alone is wider: a
# sparse support takes the whole grid in one pass, a dense depth-12 tree one
# lambda at a time, so no array exceeds the larger of this budget and the
# widest level of the dense one-lambda pass.
SLAB_ELEMENTS = 2**16
LIFT_ROWS = 4_096  # blocks of one level of the sharpness lift checked against W at once


@dataclass
class MultiplicativeMeasure:
    """Product measure with branch weights p_j = (1 + v_j)/m."""

    v: np.ndarray
    weights: np.ndarray
    spec: FiltrationSpec
    measure: TreeMeasure


def multiplicative_measure(spec: FiltrationSpec, v: np.ndarray) -> MultiplicativeMeasure:
    """Leaf masses m^{-N} G_N from one sweep over ``Product(m, v)``'s levels as they are formed."""
    v = np.asarray(v, dtype=float).reshape(spec.m).copy()
    # Optimizer witnesses sit on the boundary up to rounding; snap exact zeros
    # of 1 + v so the product measure carries exact zero masses, and restore
    # the zero sum on the largest coordinate.
    boundary = np.abs(1.0 + v) < 1e-9
    if boundary.any():
        v[boundary] = -1.0
        v[np.argmax(v)] -= v.sum()
    scalar_spec, G = FiltrationSpec(spec.m, spec.depth, 1), Product(spec.m, v)
    for values in _sweep(scalar_spec, np.ones(1), G.levels(spec.depth), spec.depth):
        pass
    values /= float(spec.m) ** spec.depth
    return MultiplicativeMeasure(v=v, weights=G.weights, spec=scalar_spec,
                                 measure=TreeMeasure(scalar_spec, values[:, 0]))


@dataclass
class _Support:
    """The nodes a DP pass visits, level by level.

    ``nodes[n]`` holds the kept indices of level n in order, ``masses[n]``
    their masses and ``weights[n]`` their weights (the masses' Euclidean
    sizes for a vector measure).  ``slots[n]`` places the kept children of
    level n + 1 in the slab of the kept parents of level n, m rows each; it
    is None when every child of a kept parent is kept, as on a dense tree.
    """

    m: int
    nodes: list[np.ndarray]
    masses: list[np.ndarray]
    weights: list[np.ndarray]
    slots: list[np.ndarray | None] = field(init=False)

    def __post_init__(self):
        m, self.slots = self.m, []
        for parents, children in zip(self.nodes, self.nodes[1:]):
            full = children.size == parents.size * m
            self.slots.append(None if full else np.searchsorted(parents, children // m) * m + children % m)

    @property
    def width(self) -> int:
        """Entries per lambda of the widest array a pass builds: a kept level or a scatter slab."""
        slabs = [idx.size * self.m for idx, slot in zip(self.nodes, self.slots) if slot is not None]
        return max([idx.size for idx in self.nodes] + slabs)


def _support(leaves: np.ndarray, m: int, nodes: list[np.ndarray] | None = None) -> _Support:
    """The support of the measure with these leaf masses, on ``nodes`` where given.

    A node is kept iff some leaf below it is positive or NaN (for a vector
    measure, has a component that is not 0); the root is always kept.  A kept
    node's mass is its row of the dense level sum, summed from its own rows.
    """
    if nodes is None:
        kept = ~(leaves <= 0.0) if leaves.ndim == 1 else (leaves != 0.0).any(axis=1)
        masks = [kept]
        while kept.size > 1:
            kept = np.ascontiguousarray(kept.reshape(-1, m).T).any(axis=0)  # any(axis=1) is ~10x slower
            masks.append(kept)
        masks[-1][0] = True
        nodes = [np.flatnonzero(mask) for mask in masks[::-1]]
    levels = [leaves.reshape(m**n, -1, *leaves.shape[1:]) for n in range(len(nodes))]
    masses = [(rows if idx.size == len(rows) else rows[idx]).sum(axis=1) for rows, idx in zip(levels, nodes)]
    return _Support(m, nodes, masses, masses if leaves.ndim == 1 else [vector_norms(x) for x in masses])


def _child_sum(a: np.ndarray, m: int, rows: int, slot: np.ndarray | None) -> np.ndarray:
    """Per lambda and kept parent, the sum of its m children, as the dense child sum.

    ``a`` is (lambdas, kept children).  Unkept children are +0.0, so the kept
    ones are scattered into a zero (lambdas, rows * m) slab in which each
    parent's m children sit side by side, and the slab adds them in the
    dense pass's order: left to right for m <= 7, and for m >= 8 as numpy's
    ``reshape(-1, m).sum(axis=1)``, which adds rows shorter than 8 in order
    and longer rows in another order.
    """
    lams = a.shape[0]
    if slot is not None:
        slab = np.zeros((lams, rows * m))
        slab[:, slot] = a
        a = slab
    a = a.reshape(lams, rows, m)
    if m >= 8:
        return a.sum(axis=2)
    total = a[:, :, 0] + a[:, :, 1]
    for j in range(2, m):
        total += a[:, :, j]
    return total


def _dp_pass(support: _Support, beta: float, lam: np.ndarray, keep_tables: bool = False):
    """Bottom-up pass over the kept nodes for every lambda of ``lam`` at once.

    value(omega) = max(score(omega), sum_children value(child)), floored at
    zero; the witness mass and cost follow the same choice.  Each array is
    (lambdas, kept nodes of the level) and is updated in place, with the
    dense pass's operations in the dense pass's order, so every entry is bit
    for bit the dense one.  Returns the root's value, witness mass and cost
    per lambda and, with ``keep_tables``, the per-level value and take arrays
    of the kept nodes as ``(values, take)`` indexed by level (else None).
    """
    m = support.m
    depth = len(support.nodes) - 1
    unit = [float(m) ** (-n * beta) for n in range(depth + 1)]
    lam = lam[:, None]
    w = support.weights[depth]
    score = w - lam * unit[depth]
    takes = [score >= 0.0] if keep_tables else None
    value = np.maximum(score, 0.0, out=score)
    active = value > 0.0
    mass = np.where(active, w, 0.0)
    cost = np.where(active, unit[depth], 0.0)
    values = [value] if keep_tables else None
    for n in range(depth - 1, -1, -1):
        w = support.weights[n]
        rows, slot = w.size, support.slots[n]
        score = w - lam * unit[n]
        value = _child_sum(value, m, rows, slot)
        take = score >= value
        np.copyto(value, score, where=take)
        np.maximum(value, 0.0, out=value)
        inactive = ~(value > 0.0)
        mass = _child_sum(mass, m, rows, slot)
        np.copyto(mass, w, where=take)
        np.copyto(mass, 0.0, where=inactive)
        cost = _child_sum(cost, m, rows, slot)
        np.copyto(cost, unit[n], where=take)
        np.copyto(cost, 0.0, where=inactive)
        if keep_tables:
            values.append(value)
            takes.append(take)
    tables = (values[::-1], takes[::-1]) if keep_tables else None
    return value[:, 0], mass[:, 0], cost[:, 0], tables


def _require_nonnegative(mu: TreeMeasure) -> None:
    """Scalar masses must be >= 0, so NaN fails too; vector masses must have
    no NaN component."""
    mass = np.asarray(mu.leaf_mass)
    if mu.is_scalar and not (mass >= 0).all():
        raise ValueError("antichain DP requires a nonnegative measure, without NaN masses")
    if not mu.is_scalar and np.isnan(mass).any():
        raise ValueError("antichain DP requires a measure without NaN masses")


def antichain_max(mu: TreeMeasure, beta: float, lam: float) -> tuple[float, list[tuple[int, int]]]:
    """Exact max over antichains of sum (mu(omega) - lam m^{-n beta}) and a witness.

    Bottom-up DP: value(omega) = max(score(omega), sum_children value(child))
    with empty choices floored at zero.  The witness is one optimal antichain
    as (level, index) pairs.
    """
    _require_nonnegative(mu)
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    return _antichain_max(_support(mu.leaf_mass, mu.spec.m), beta, lam)


def _antichain_max(support: _Support, beta: float, lam: float) -> tuple[float, list[tuple[int, int]]]:
    """``antichain_max`` on a support; its walk enters only kept nodes, those of positive value."""
    m, nodes = support.m, support.nodes
    value, _, _, (values, take) = _dp_pass(support, beta, np.array([lam], dtype=float), keep_tables=True)
    witness: list[tuple[int, int]] = []
    stack = [(0, 0)]  # (level, position among the kept nodes of that level)
    while stack:
        n, k = stack.pop()
        if values[n][0, k] <= 0.0:
            continue
        i = int(nodes[n][k])
        if take[n][0, k]:
            witness.append((n, i))
        else:
            first, last = np.searchsorted(nodes[n + 1], (m * i, m * i + m))
            stack.extend((n + 1, j) for j in range(first, last))
    return float(value[0]), witness


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


def _lambda_scan(support, beta, gamma, lambda_grid_size):
    """One scan of a support: its lambda grid (geometric, spanning
    m^{+-depth max(beta, 1/4)} for the support's depth), the DP value per
    lambda, the best witness ratio, the grid index of the lambda that
    achieved it (None when no witness has positive cost) and the witness
    costs that are positive."""
    m, depth = support.m, len(support.nodes) - 1
    span = float(m) ** (depth * max(beta, 0.25))
    grid = np.geomspace(1.0 / span, span, lambda_grid_size)
    step = max(1, SLAB_ELEMENTS // support.width)
    roots = [_dp_pass(support, beta, grid[i : i + step])[:3] for i in range(0, len(grid), step)]
    values, masses, costs = (np.concatenate(parts) for parts in zip(*roots))
    witness_costs = []
    best_ratio, best = 0.0, None
    for i, (mass, cost) in enumerate(zip(masses.tolist(), costs.tolist())):
        if cost > 0:
            witness_costs.append(cost)
            if mass / cost**gamma > best_ratio:
                best_ratio, best = mass / cost**gamma, i
    return grid, values, best_ratio, best, witness_costs


def frostman_certify(
    mu: TreeMeasure, beta: float, gamma: float, lambda_grid_size: int = 64
) -> FrostmanCertificate:
    """Certify or refute the antichain inequality, with a depth trend verdict."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    _require_nonnegative(mu)
    spec = mu.spec
    m = spec.m
    support = _support(mu.leaf_mass, m)
    grid, values, witness_ratio, best, witness_costs = _lambda_scan(support, beta, gamma, lambda_grid_size)
    # Dual bound: every antichain obeys mass <= g(lam) + lam * cost for all
    # lam, hence ratio <= min_lam (g(lam) + lam c)/c^gamma at its own cost.
    # The c-grid carries the witness costs so achieved ratios are never
    # undercut, and the constant is floored at the best achieved ratio.
    c_lo = float(m) ** (-spec.depth * beta)
    c_hi = max(spec.leaves * float(m) ** (-spec.depth * beta), 1.0)
    c_grid = np.unique(np.concatenate([np.geomspace(c_lo, c_hi, 257), witness_costs]))
    envelope = np.min(values[None, :] + np.outer(c_grid, grid), axis=1) / c_grid**gamma
    constant = float(max(envelope.max(), witness_ratio))

    # The depth-D prefix is mu itself on the same grid: its ratio is the
    # full-depth witness ratio, so only the shorter prefixes are scanned.
    per_depth = np.zeros(spec.depth)
    per_depth[-1] = witness_ratio
    for d in range(1, spec.depth):
        # the depth-d prefix: its leaves are the kept level-d masses in zeros
        leaves = np.zeros((m**d, *support.masses[d].shape[1:]))
        leaves[support.nodes[d]] = support.masses[d]
        prefix = _support(leaves, m, support.nodes[: d + 1])
        per_depth[d - 1] = _lambda_scan(prefix, beta, gamma, lambda_grid_size)[2]

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
        _, witness = _antichain_max(support, beta, grid[best])
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
) -> tuple[MultiplicativeMeasure, np.ndarray]:
    """The extremal multiplicative measure of the dimension bound, and the direction a lifting it into W.

    Branch weights come from the entropy minimizer v of kappa'(1); the lift is
    the product martingale G times a, whose blocks, level by level, must lie
    in W.  For W = {0} the witness is v = 0 and the measure is uniform.
    """
    witness = kappa_prime_one(W, seed=seed)
    mm = multiplicative_measure(spec, witness.v)
    a = witness.a if np.linalg.norm(witness.a) > 0 else np.eye(W.ell)[0]
    for n, level in enumerate(Product(mm.spec.m, mm.v).levels(mm.spec.depth)):
        worst, scale = _lift_residual(W, level, a)
        if worst > 1e-12 * scale:
            raise ValueError(f"lifted blocks left W at level {n} (residual {worst:.2e})")
    return mm, a


def _lift_residual(W: SubspaceW, level: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    """Largest distance to W and max(1, largest entry) of the lifted blocks g (x) a
    of one level of G, ``LIFT_ROWS`` blocks at a time (``project`` is bit-exact per block)."""
    worst, scale = 0.0, 1.0
    for rows in range(0, len(level), LIFT_ROWS):
        lifted = level[rows : rows + LIFT_ROWS, :, 0][:, :, None] * a[None, None, :]
        worst = max(worst, float(W.residuals(lifted).max(initial=0.0)))
        scale = max(scale, float(np.max(np.abs(lifted))))
    return worst, scale
