"""Reference implementations the tests compare the package against.

Each is the plain, one-at-a-time form of a computation the package now runs
batched or replaced: the projection onto W of one block (its coefficients,
their combination, the distance to W), the per-column second-condition test,
the per-start scipy Nelder-Mead loop of ``spacew.check_first_condition`` with
its scalar objective, the per-start alternating projection of
``kappa.rank_one_directions``, the dense one-lambda antichain pass over
every node of the tree with its child sum, the per-level node weights from
the measure's level sums with the support of any such weights (the package
builds its support from the leaves), the per-ray scipy bounded polish of
``kappa._optimize_rays`` (``optimize_ray``), and the dense ray grid that
brute-forces one kappa ray.  The batched code must reproduce all but the
last bit for bit.  ``stack_walk`` is the per-node walk that read one optimal antichain
off a support's tables before ``dimension._antichain_max`` walked them a
level at a time; both must list the same nodes in the same order.
``antichain_score`` scores a given antichain, and
``lp_norm_weighted`` is the one-segment form of ``norms.lp_norm_segments``.
``shift_w`` builds a subspace on which those searches meet tied values.
``log_mean_exp`` is scipy's ``logsumexp`` with weight 1/m, which the numpy
log-mean-exp behind ``kappa.kappa_v_many`` reproduces.  ``evaluate_all`` is
the prefix sweep each checker ran for itself before the martingale kept its
magnitudes, and ``level_data`` every part it keeps, computed from that sweep
with nothing kept.  ``tree_leaf_values``
is F_T on every leaf, the full-array form of ``decomp.tree_leaf_values``,
and ``rle`` the atom-by-atom run-length code of a label mask that
``cli._rle`` reproduces.  ``martingale_document`` is the columnar document
of a martingale built block by block; ``fileio.write_martingale`` must
write the bytes of its ``json.dumps(indent=1)``.
``multiplicative_martingale`` is the product martingale G with every level
kept, each formed from the previous G_n as ``filtration.Product`` forms it,
``delta_martingale`` the delta construction as the sum G + (-1) of two
martingales, ``delta_counterexample`` its per-level terms and L_1 norms
from that whole martingale, ``sharpness_lift`` and ``lift_residuals`` the
lifted martingale G (x) a of the dimension sharpness measure and the
per-level residuals of its check, ``unfused_sharpness`` the sharpness
measure and its lift check as two sweeps over G's levels, every block
lifted, and ``sharpness_trace`` the leaves of nu
and the per-depth numbers of the trace sharpness construction from whole
martingales and every truncation of nu at once; the package forms each one
level at a time and must match them bit for bit, signed zeros included.
``level`` and ``difference`` are the magnitudes |F_n| and |f_n| with the
atom mass m^{-n}, the arguments of the level norms, computed afresh as the
norms computed them before each martingale kept its magnitudes; ``simple``
is the same pair for given values on one level.

The rest are test-side tools the package never calls: tracemalloc's peak
over one call (``traced_peak``), mass-weighted leaf sampling with its
base-m digits, the digit-frequency test of a product
measure, the unitary DFT pair on a finite abelian group, and the
shift-invariance residual of a subspace built from fibers.
"""

import tracemalloc
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import logsumexp

from martree.dimension import LIFT_ROWS, MultiplicativeMeasure, _dp_pass, _Support, multiplicative_measure
from martree.filtration import (
    AtomId,
    FiltrationSpec,
    Martingale,
    Product,
    TreeMeasure,
    evaluate,
    martingale_to_measure,
    vector_norms,
)
from martree.groupfourier import FiberFamily, FiniteAbelianGroup, ShiftInvariantW, build_shift_invariant_w
from martree.kappa import RAY_GRID_POINTS, feasible_interval, kappa_prime_one
from martree.norms import lp_norm, lp_nu_norm
from martree.riesz import riesz_potential
from martree.spacew import (
    FIRST_CONDITION_HOLDS,
    FIRST_CONDITION_VIOLATED,
    SECOND_CONDITION_TOL,
    SubspaceW,
    delta_vector,
)
from martree.trace import frostman_constant


def coefficients(block: np.ndarray, W: SubspaceW) -> np.ndarray:
    """Coordinates of one block in the basis of W."""
    return W.basis.reshape(W.dim, -1) @ np.asarray(block, dtype=float).reshape(-1)


def combine(coeffs: np.ndarray, W: SubspaceW) -> np.ndarray:
    """The block of W with the given coordinates."""
    return np.tensordot(np.asarray(coeffs, dtype=float), W.basis, axes=(0, 0))


def project(block: np.ndarray, W: SubspaceW) -> np.ndarray:
    """Orthogonal projection of one block onto W."""
    block = np.asarray(block, dtype=float)
    if W.dim == 0:
        return np.zeros_like(block)
    return combine(coefficients(block, W), W)


def distance(block: np.ndarray, W: SubspaceW) -> float:
    """Frobenius distance of one block to W."""
    block = np.asarray(block, dtype=float)
    return float(np.linalg.norm(block - project(block, W)))


def check_second_condition(W: SubspaceW):
    """The second-condition test with one projection per column of each residual map."""
    diag = {"sigma_min": []}
    if W.dim == 0:
        diag["sigma_min"] = [1.0] * W.m
        return True, None, diag
    flat_basis = W.basis.reshape(W.dim, -1)
    for j in range(W.m):
        v = delta_vector(W.m, j)
        columns = np.empty((W.m * W.ell, W.ell))
        for s in range(W.ell):
            block = np.outer(v, np.eye(W.ell)[s]).reshape(-1)
            columns[:, s] = block - flat_basis.T @ (flat_basis @ block)
        sigma = np.linalg.svd(columns, compute_uv=False)
        smin = float(sigma[-1]) / np.linalg.norm(v)
        diag["sigma_min"].append(smin)
        if smin <= SECOND_CONDITION_TOL:
            _, _, vt = np.linalg.svd(columns)
            a = vt[-1]
            a = a / np.linalg.norm(a)
            return False, (j, a), diag
    return True, None, diag


def second_singular_ratio(coeffs: np.ndarray, W: SubspaceW) -> float:
    """sigma_2(w)^2 / ||w||^2 of one w = combine(coeffs, W)."""
    block = combine(coeffs, W)
    sq = float(np.sum(block * block))
    if sq == 0.0:
        return 1.0
    sigma = np.linalg.svd(block, compute_uv=False)
    if sigma.size < 2:
        return 0.0
    return float(sigma[1] ** 2 / sq)


def nelder_mead_starts(W: SubspaceW, n_starts: int = 24, seed: int = 0, maxiter: int = 2000) -> list:
    """scipy's Nelder-Mead result from each start of the first-condition search."""
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(n_starts):
        x0 = rng.standard_normal(W.dim)
        x0 /= np.linalg.norm(x0)
        results.append(optimize.minimize(
            second_singular_ratio,
            x0,
            args=(W,),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": maxiter},
        ))
    return results


def check_first_condition(W: SubspaceW, n_starts: int = 24, seed: int = 0):
    """The first-condition search with one scipy Nelder-Mead run per start."""
    if W.dim == 0:
        return True, None, {"min_ratio": np.inf, "starts": 0}
    if min(W.m, W.ell) < 2:
        block = W.basis[0]
        u, s, vt = np.linalg.svd(block)
        return False, (u[:, 0] * s[0], vt[0]), {"min_ratio": 0.0, "starts": 0}
    best = np.inf
    best_coeffs = None
    for res in nelder_mead_starts(W, n_starts, seed):
        if res.fun < best:
            best = float(res.fun)
            best_coeffs = res.x
    diag = {"min_ratio": best, "starts": n_starts}
    if best <= FIRST_CONDITION_VIOLATED:
        block = combine(best_coeffs, W)
        u, s, vt = np.linalg.svd(block)
        v = u[:, 0] * s[0]
        a = vt[0]
        for _ in range(60):
            block = project(np.outer(v, a), W)
            u, s, vt = np.linalg.svd(block)
            v, a = u[:, 0] * s[0], vt[0]
        return False, (v, a), diag
    if best > FIRST_CONDITION_HOLDS:
        return True, None, diag
    return None, None, diag


def rank_one_directions(W: SubspaceW, n_starts: int = 32, seed: int = 0) -> list:
    """Alternating projection between W and the rank-one cone, one start at a time."""
    if W.dim == 0:
        return []
    rng = np.random.default_rng(seed)
    found = []

    def register(u, a):
        X = np.outer(u, a)
        for u2, a2 in found:
            if abs(np.sum(X * np.outer(u2, a2))) > 1.0 - 1e-8:
                return
        found.append((u, a))

    for _ in range(n_starts):
        coeffs = rng.standard_normal(W.dim)
        X = combine(coeffs, W)
        norm = np.linalg.norm(X)
        if norm == 0:
            continue
        X /= norm
        for _ in range(200):
            U, s, Vt = np.linalg.svd(X)
            R = s[0] * np.outer(U[:, 0], Vt[0])
            X_new = project(R, W)
            norm = np.linalg.norm(X_new)
            if norm < 1e-14:
                break
            X_new /= norm
            if np.linalg.norm(X_new - X) < 1e-15:
                X = X_new
                break
            X = X_new
        U, s, Vt = np.linalg.svd(X)
        if s[0] > 0 and (s[1:] ** 2).sum() <= 1e-20 and distance(X, W) <= 1e-10:
            u = U[:, 0]
            if abs(u.sum()) < 1e-8:
                register(u, Vt[0])
    return found


def ray_grid_oracle(u: np.ndarray, objective_many, maximize: bool, resolution: int = 100_000) -> float:
    """Dense-grid optimum over one feasible ray; brute-force reference."""
    t_lo, t_hi = feasible_interval(u)
    ts = np.linspace(t_lo, t_hi, resolution)
    vals = objective_many(ts[:, None] * np.asarray(u, dtype=float)[None, :])
    return float(vals.max() if maximize else vals.min())


def optimize_ray(u, objective, objective_many, maximize):
    """One ray's optimum as ``kappa._optimize_rays`` finds it, one ray at a
    time: the grid bracket, then scipy's bounded ``minimize_scalar`` on the
    scalar objective."""
    t_lo, t_hi = feasible_interval(u)
    if not np.isfinite(t_lo) or not np.isfinite(t_hi):
        t_lo, t_hi = max(t_lo, -1e6), min(t_hi, 1e6)
    ts = np.linspace(t_lo, t_hi, RAY_GRID_POINTS)
    vals = objective_many(ts[:, None] * u[None, :])
    best_idx = int(np.argmax(vals) if maximize else np.argmin(vals))
    lo = ts[max(best_idx - 1, 0)]
    hi = ts[min(best_idx + 1, RAY_GRID_POINTS - 1)]
    sign = -1.0 if maximize else 1.0
    res = optimize.minimize_scalar(
        lambda t: sign * objective(t * u),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-13},
    )
    candidates = [(vals[best_idx], ts[best_idx]), (sign * res.fun, float(res.x)),
                  (vals[0], t_lo), (vals[-1], t_hi)]
    if maximize:
        value, t = max(candidates, key=lambda c: c[0])
    else:
        value, t = min(candidates, key=lambda c: c[0])
    return float(value), float(t)


def optimize_rays(us, objective_many, maximize):
    """``kappa._optimize_rays`` ray by ray through ``optimize_ray``; the
    scalar objective is ``objective_many`` on one row, as ``kappa_v`` and
    ``entropy_v`` are."""
    def objective(v):
        return float(objective_many(v[None, :])[0])

    return [optimize_ray(u, objective, objective_many, maximize) for u in us]


def shift_w():
    """The Z_5 shift-invariant W with fibers at 1 and 2 (m 5, ell 2, dim 4).

    Its second-singular ratio has plateaus at exactly 0.5, so Nelder-Mead
    simplices hold tied values.
    """
    fibers = {gamma: np.zeros((0, 1), dtype=complex) for gamma in range(1, 5)}
    fibers[1] = np.array([[1.0 + 0.0j]])
    fibers[2] = np.array([[(0.6 + 0.8j)]])
    return build_shift_invariant_w(FiberFamily(FiniteAbelianGroup.cyclic(5), 1, fibers)).realify()


def child_sum(a: np.ndarray, m: int) -> np.ndarray:
    """Sum of each run of m consecutive entries, as reshape(-1, m).sum(axis=1)."""
    if m >= 8:
        # numpy's row sum no longer adds rows this long left to right
        return a.reshape(-1, m).sum(axis=1)
    total = a[0::m] + a[1::m]
    for j in range(2, m):
        total += a[j::m]
    return total


def _node_weights(mu: TreeMeasure) -> list[np.ndarray]:
    """Per-level atom weights: masses for scalar mu, Euclidean sizes for vector."""
    out = []
    for n in range(mu.spec.depth + 1):
        mass = mu.level_mass(n)
        out.append(mass if mass.ndim == 1 else vector_norms(mass))
    return out


def _support(weights: list[np.ndarray], m: int) -> _Support:
    """The support of given node weights: a node is kept iff some node of its
    subtree has a weight that is not <= 0 (a NaN weight keeps it); the root
    is always kept."""
    kept = ~(weights[-1] <= 0.0)
    masks = [kept]
    for w in weights[-2::-1]:
        kept = ~(w <= 0.0) | kept.reshape(-1, m).any(axis=1)
        masks.append(kept)
    masks[-1][0] = True
    nodes = [np.flatnonzero(mask) for mask in masks[::-1]]
    kept_weights = [w if idx.size == w.size else w[idx] for w, idx in zip(weights, nodes)]
    return _Support(m, nodes, kept_weights, kept_weights)


def antichain_dp(weights: list, m: int, beta: float, lam: float):
    """One dense antichain pass for one lambda over every node, a level at a time.

    Returns the root's value and its witness (mass, cost).
    """
    depth = len(weights) - 1
    unit = [float(m) ** (-n * beta) for n in range(depth + 1)]
    score = weights[depth] - lam * unit[depth]
    value = np.maximum(score, 0.0, out=score)
    active = value > 0.0
    mass = np.where(active, weights[depth], 0.0)
    cost = np.where(active, unit[depth], 0.0)
    for n in range(depth - 1, -1, -1):
        score = weights[n] - lam * unit[n]
        value = child_sum(value, m)
        take = score >= value
        np.copyto(value, score, where=take)
        np.maximum(value, 0.0, out=value)
        inactive = ~(value > 0.0)
        mass = child_sum(mass, m)
        np.copyto(mass, weights[n], where=take)
        np.copyto(mass, 0.0, where=inactive)
        cost = child_sum(cost, m)
        np.copyto(cost, unit[n], where=take)
        np.copyto(cost, 0.0, where=inactive)
    return float(value[0]), float(mass[0]), float(cost[0])


def stack_walk(support: _Support, beta: float, lam: float) -> tuple[float, list[tuple[int, int]]]:
    """``dimension._antichain_max`` as a per-node walk: a stack of (level,
    position among the kept nodes), children pushed first to last, so popped
    last to first."""
    m, nodes = support.m, support.nodes
    value, _, _, (values, take) = _dp_pass(support, beta, np.array([lam], dtype=float), keep_tables=True)
    witness = []
    stack = [(0, 0)]
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


def antichain_score(mu, antichain, beta: float, lam: float) -> float:
    """sum over the antichain of (weight - lam m^{-n beta}), weights as the DP sees them."""
    weights = _node_weights(mu)
    return float(
        sum(weights[n][i] - lam * float(mu.spec.m) ** (-n * beta) for n, i in antichain)
    )


def lp_norm_weighted(mags: np.ndarray, weights: np.ndarray, p: float) -> float:
    """(sum weights |mags|^p)^{1/p}; the max over positive weights for p = inf."""
    if p == np.inf:
        return float(np.max(mags[weights > 0])) if np.any(weights > 0) else 0.0
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float(np.sum(weights * mags**p) ** (1.0 / p))


def log_mean_exp(a: np.ndarray) -> np.ndarray:
    """log((1/m) sum_j exp(a_j)) of each row of a (batch, m) array, by scipy."""
    return logsumexp(a, axis=1, b=1.0 / a.shape[1])


def evaluate_all(F: Martingale) -> list[np.ndarray]:
    """F_0, ..., F_N in one prefix sweep, kept nowhere."""
    out = [F.f0.reshape(1, F.spec.ell)]
    for block in F.diffs:
        out.append(np.repeat(out[-1], F.spec.m, axis=0) + block.reshape(-1, F.spec.ell))
    return out


def simple(values, level: int, m: int = 3) -> tuple[np.ndarray, float]:
    """The magnitudes of ``values`` (one row, or one scalar, per atom of the
    level) and the atom mass m^{-level}."""
    values = np.asarray(values, dtype=float)
    return vector_norms(values.reshape(values.shape[0], -1)), float(m) ** (-level)


def level(F: Martingale, n: int) -> tuple[np.ndarray, float]:
    """``simple`` of F_n, swept afresh."""
    return simple(evaluate(F, n), n, F.spec.m)


def difference(F: Martingale, n: int) -> tuple[np.ndarray, float]:
    """``simple`` of f_n from its stored blocks; f_0 is F_0."""
    return simple((F.f0 if n == 0 else F.diffs[n - 1]).reshape(F.spec.m**n, F.spec.ell), n, F.spec.m)


def level_data(F: Martingale) -> dict:
    """What a martingale keeps, each part by name, from ``evaluate_all``:
    |F_n|, |f_{n+1}| per block entry and the per-atom growth, mass and child
    mean of ``Martingale.increments``."""
    m = F.spec.m
    values = evaluate_all(F)
    mags = [np.linalg.norm(v, axis=-1) for v in values]
    increments, level_masses, child_means = [], [], []
    for n in range(F.spec.depth):
        weight = float(m) ** (-n)
        child_mean = mags[n + 1].reshape(-1, m).mean(axis=1)
        increments.append(weight * (child_mean - mags[n]))
        level_masses.append(weight * mags[n])
        child_means.append(child_mean)
    return {
        "norms": mags,
        "diff_norms": [np.linalg.norm(d, axis=-1) for d in F.diffs],
        "increments": (increments, level_masses, child_means),
    }


def tree_leaf_values(F, forest, scales=None):
    """Yields ``(level, ids, values)`` for each root level: the trees rooted
    there and an (m^N, ell) array holding F_T on each one's root cylinder and
    zero elsewhere, refilled for the next level.  Each member's block is
    added to every leaf under it, in ascending level order."""
    spec = F.spec
    m, ell = spec.m, spec.ell
    index = forest.index
    values = np.empty((spec.leaves, ell))
    for level in np.unique(index.root_level).tolist():
        rooted_here = index.root_level == level
        values.fill(0.0)
        for n in range(level, spec.depth):
            atoms = index.members[n][np.repeat(rooted_here[index.ids[n]], index.counts[n])]
            block = F.diffs[n][atoms].reshape(-1, 1, ell)
            if scales is not None:
                block = scales[n] * block
            rep = m ** (spec.depth - n - 1)
            values.reshape(-1, rep, ell)[(atoms[:, None] * m + np.arange(m)).ravel()] += block
        yield level, np.flatnonzero(rooted_here), values


def rle(mask: np.ndarray) -> list:
    """[[value, run length], ...] of a mask, one atom at a time."""
    runs = []
    start = 0
    values = mask.astype(int)
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            runs.append([int(values[start]), i - start])
            start = i
    return runs


def martingale_document(F: Martingale) -> dict:
    """The columnar document of ``F``: the level-order id of each block that
    is not all zero, and its values, appended one block at a time."""
    nodes, values, node = [], [], 0
    for level in F.diffs:
        for block in level:
            if np.any(block != 0):
                nodes.append(node)
                values.extend(block.ravel().tolist())
            node += 1
    return {"kind": "martingale", "m": F.spec.m, "depth": F.spec.depth, "ell": F.spec.ell,
            "f0": F.f0.tolist(), "nodes": nodes, "values": values}


def multiplicative_martingale(spec, v) -> Martingale:
    """The product martingale G_n = prod_{i <= n} (1 + h_i) with h_i = J[v],
    every level formed from G_n on its atoms and kept, with the refusals of
    ``filtration.Product`` and of a vector-valued spec."""
    v = np.asarray(v, dtype=float).reshape(spec.m)
    if abs(v.sum()) > 1e-9 * max(1.0, float(np.max(np.abs(v)))):
        raise ValueError("v must have zero coordinate sum")
    if np.any(v < -1 - 1e-12):
        raise ValueError("v must satisfy v_j >= -1")
    if spec.ell != 1:
        raise ValueError("multiplicative martingales are scalar; lift afterwards")
    factors, values, diffs = 1.0 + v, np.ones(1), []
    for _ in range(spec.depth):
        diffs.append((values[:, None] * v)[:, :, None])
        values = (values[:, None] * factors).reshape(-1)
    return Martingale(spec, np.ones(1), diffs, validate=False)


def delta_martingale(spec) -> Martingale:
    """prod(1 + h_i) - 1 for the delta direction, as the sum of two
    martingales: the product one and the constant -1 with zero blocks."""
    G = multiplicative_martingale(spec, delta_vector(spec.m))
    return G + Martingale(spec, -np.ones(1), Martingale.zero(spec).diffs, validate=False)


def delta_counterexample(p: float, spec, depths) -> tuple:
    """The per-level terms, their partial sums at ``depths`` and the L_1
    norms there, from the whole delta martingale and the magnitudes it keeps."""
    m, F = float(spec.m), delta_martingale(spec)
    terms = np.array([
        m ** (-(p - 1) * n) * lp_norm(g.ravel(), m ** (-n), p) ** p for n, g in enumerate(F.diff_norms, start=1)
    ])
    power_sums = np.array([terms[:d].sum() for d in depths])
    return terms, power_sums, np.array([lp_norm(F.norms[d], m ** (-d), 1.0) for d in depths])


def sharpness_lift(mm: MultiplicativeMeasure, a: np.ndarray) -> Martingale:
    """G (x) a, the sharpness measure's lifted martingale formed whole from
    G's kept levels."""
    G = multiplicative_martingale(mm.spec, mm.v)
    diffs = [d[:, :, 0][:, :, None] * a[None, None, :] for d in G.diffs]
    return Martingale(FiltrationSpec(mm.spec.m, mm.spec.depth, a.size), a.copy(), diffs, validate=False)


def lift_residuals(W: SubspaceW, lifted: Martingale) -> list[tuple[float, float]]:
    """Per level, the largest distance to W of a whole level of lifted blocks
    and max(1, its largest entry): what the lift check compares."""
    return [(float(W.residuals(d).max(initial=0.0)), max(1.0, float(np.max(np.abs(d))))) for d in lifted.diffs]


def unfused_sharpness(W: SubspaceW, spec: FiltrationSpec, seed: int = 0) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """The dimension sharpness measure's leaf masses and the per-level
    (residual, scale) of its lift check, as two sweeps: the measure from
    ``multiplicative_measure``, then every block of G's levels, zero or not,
    lifted and checked ``LIFT_ROWS`` at a time."""
    witness = kappa_prime_one(W, seed=seed)
    mm = multiplicative_measure(spec, witness.v)
    a = witness.a if np.linalg.norm(witness.a) > 0 else np.eye(W.ell)[0]
    checks = []
    for level in Product(mm.spec.m, mm.v).levels(mm.spec.depth):
        worst, scale = 0.0, 1.0
        for rows in range(0, len(level), LIFT_ROWS):
            lifted = level[rows : rows + LIFT_ROWS, :, 0][:, :, None] * a[None, None, :]
            worst = max(worst, float(W.residuals(lifted).max(initial=0.0)))
            scale = max(scale, float(np.max(np.abs(lifted))))
        checks.append((worst, scale))
    return mm.measure.leaf_mass, checks


def sharpness_trace(G: Martingale, gamma: float, alpha: float, depths) -> tuple:
    """nu's leaf masses of the trace sharpness construction, from the whole
    martingale I_gamma[G], and per depth the Frostman constant of nu,
    ||I_alpha G||_{L_1(nu)}, from the whole image and every truncation of nu
    held at once, and the partial sum of m^{-(alpha+gamma)n} E f_n^2 over
    G's kept levels."""
    nu = martingale_to_measure(riesz_potential(G, gamma))
    nu = TreeMeasure(nu.spec, np.clip(nu.leaf_mass, 0.0, None))
    nus = [nu.truncated(d) for d in depths]
    constants = np.array([frostman_constant(nu_d, alpha, 1.0) for nu_d in nus])
    image = riesz_potential(G, alpha)
    exact = np.array([lp_nu_norm(image.norms[d], nu_d, 1.0) for d, nu_d in zip(depths, nus)])
    m = float(G.spec.m)
    terms = np.array([m ** (-(alpha + gamma) * n) * float(np.mean(d.ravel() ** 2)) for n, d in enumerate(G.diffs, 1)])
    return nu.leaf_mass, constants, exact, np.array([terms[:d].sum() for d in depths])


def traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over a second ``call()``: the first lets
    imports and caches settle."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sample_paths(mu: TreeMeasure, n_samples: int, seed) -> np.ndarray:
    """Leaf indices drawn with probability proportional to their mass.

    Deterministic given the seed.  Raises on negative masses or zero total.
    """
    if not mu.is_scalar:
        raise ValueError("sampling requires a scalar measure")
    mass = mu.leaf_mass
    if np.any(mass < 0):
        raise ValueError("sampling requires nonnegative masses")
    total = float(mass.sum())
    if total <= 0:
        raise ValueError("sampling requires positive total mass")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(mass)
    u = rng.random(n_samples) * total
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, mu.spec.leaves - 1)


def sample_path(mu: TreeMeasure, seed) -> AtomId:
    """One leaf drawn with probability equal to its mass."""
    return AtomId(mu.spec.depth, int(sample_paths(mu, 1, seed)[0]))


def leaf_digit_matrix(indices: np.ndarray, m: int, depth: int) -> np.ndarray:
    """Base-m digits (most significant first) of many leaf indices at once."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.empty((indices.size, depth), dtype=np.int64)
    rem = indices.copy()
    for pos in range(depth - 1, -1, -1):
        out[:, pos] = rem % m
        rem //= m
    return out


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


def dft(f: np.ndarray, chars: np.ndarray) -> np.ndarray:
    """Unitary transform: f_hat(gamma) = m^{-1/2} sum_x f(x) conj(chi_gamma(x))."""
    m = chars.shape[0]
    return np.tensordot(chars.conj(), f, axes=(1, 0)) / np.sqrt(m)


def idft(fhat: np.ndarray, chars: np.ndarray) -> np.ndarray:
    m = chars.shape[0]
    return np.tensordot(chars.T, fhat, axes=(1, 0)) / np.sqrt(m)


def shift_invariance_residual(w: ShiftInvariantW) -> float:
    """max over basis f and z in G of dist(f(z + .), span W); should be ~0."""
    G = w.group
    m = G.order
    flat = w.basis.reshape(w.dim, -1)
    proj = flat.T @ flat.conj()
    add = G.add_table()
    worst = 0.0
    for f in w.basis:
        for z in range(m):
            shifted = f[add[z]]
            vec = shifted.reshape(-1)
            residual = vec - proj @ vec
            worst = max(worst, float(np.linalg.norm(residual)))
    return worst
