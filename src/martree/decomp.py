"""Epsilon-convex/flat atom decomposition and the flat forest.

An atom omega at level n is eps-convex for F when

    E(|F_{n+1}| - |F_n|) chi_omega >= eps * E|F_n| chi_omega,

and eps-flat otherwise.  Atoms where F vanishes together with its children
(both sides zero) are labeled flat: the letter of the definition would make
them convex through 0 >= 0, but they carry no growth and would degenerate the
forest of the zero martingale.  Flat atoms connected by parent/child edges
form trees; each tree root's parent (if any) is convex.  Fruits of a tree are
the convex atoms hanging off it, and its leaf cylinders are the bottom-level
atoms below a flat parent, so every tree root is partitioned by its fruits
and leaves.

``atom_increments`` gives the per-atom growth and mass that both the labels
and the stepwise identity read.  The forest's layout lives in one columnar
index, ``FlatForest.index``, derived once from the convex masks in time
linear in the number of atoms: tree ids propagate from parents to flat
children, new roots are numbered in index order, and each level's members
are grouped by tree with one stable sort.  ``classify_atoms`` slices its
trees out of that index, and the per-tree checks, trace controls included,
read it directly and run batched over all trees, with each tree's sums taken
in the same order as a tree-by-tree loop would take them, so the reports are
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .filtration import AtomId, Martingale, evaluate, evaluate_all
from .norms import lorentz_p1_segments, lp_norm_segments
from .spacew import _row_norms


@dataclass
class FlatTree:
    root: AtomId
    members: dict[int, np.ndarray]        # level -> sorted atom indices
    fruits: list[AtomId] = field(default_factory=list)
    leaf_atoms: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))


class ForestIndex(NamedTuple):
    """The flat forest in columns, per level n < N and per tree; read-only."""

    tree_of: list[np.ndarray]     # each atom's tree id, -1 on convex atoms
    ids: list[np.ndarray]         # the trees with members at n, ascending
    counts: list[np.ndarray]      # each of those trees' member count at n
    members: list[np.ndarray]     # their members, tree by tree, each ascending
    root_level: np.ndarray        # per tree, in tree order
    root_index: np.ndarray


_EMPTY = np.zeros(0, dtype=np.int64)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of sorted nonnegative ``keys`` and each one's count."""
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.diff(starts, append=keys.size)


def _index_forest(convex: list[np.ndarray]) -> ForestIndex:
    """Tree ids from the convex masks: a flat atom takes its parent's tree id,
    the other flat atoms root new trees numbered in index order."""
    tree_of, ids, counts, members = [], [], [], []
    root_level, root_index = [_EMPTY], [_EMPTY]
    n_trees = 0
    for n, mask in enumerate(convex):
        flat = ~mask
        of = np.full(mask.size, -1, dtype=np.int64)
        if n > 0:  # each parent's id repeated over its m children
            of[flat] = np.repeat(tree_of[n - 1], mask.size // convex[n - 1].size)[flat]
        new_roots = np.flatnonzero(flat & (of < 0))
        of[new_roots] = n_trees + np.arange(new_roots.size)
        n_trees += new_roots.size
        root_level.append(np.full(new_roots.size, n, dtype=np.int64))
        root_index.append(new_roots)
        flat_idx = np.flatnonzero(flat)
        order = np.argsort(of[flat_idx], kind="stable")
        level_ids, level_counts = _runs(of[flat_idx][order])
        tree_of.append(of)
        ids.append(level_ids)
        counts.append(level_counts)
        members.append(flat_idx[order])
    root_level, root_index = np.concatenate(root_level), np.concatenate(root_index)
    for a in [*tree_of, *ids, *counts, *members, root_level, root_index]:
        a.flags.writeable = False
    return ForestIndex(tree_of, ids, counts, members, root_level, root_index)


@dataclass
class FlatForest:
    epsilon: float
    convex: list[np.ndarray]              # per level n < N, boolean mask
    trees: list[FlatTree]
    increments: list[np.ndarray]          # E(|F_{n+1}|-|F_n|) chi_omega per atom
    level_masses: list[np.ndarray]        # E|F_n| chi_omega per atom

    def n_convex(self) -> int:
        return int(sum(mask.sum() for mask in self.convex))

    @cached_property
    def index(self) -> ForestIndex:
        """The forest's columnar layout, derived from ``convex`` on first use
        and kept.  It is not a dataclass field, so whatever walks a forest's
        fields (equality, ``dataclasses.fields``, the benchmark's result
        digests) sees the forest's outputs only."""
        return _index_forest(self.convex)


def atom_increments(
    F: Martingale,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Per level n < N and atom omega: the growth E(|F_{n+1}| - |F_n|) chi_omega,
    the mass E|F_n| chi_omega, and the mean of |F_{n+1}| over omega's children."""
    m = F.spec.m
    mags = [np.linalg.norm(v, axis=1) for v in evaluate_all(F)]
    increments, level_masses, child_means = [], [], []
    for n in range(F.spec.depth):
        weight = float(m) ** (-n)
        child_mean = mags[n + 1].reshape(-1, m).mean(axis=1)
        increments.append(weight * (child_mean - mags[n]))
        level_masses.append(weight * mags[n])
        child_means.append(child_mean)
    return increments, level_masses, child_means


def _children(atoms: np.ndarray, m: int) -> np.ndarray:
    return (atoms[:, None] * m + np.arange(m)).ravel()


def _slices(ids: np.ndarray, counts: np.ndarray, width: int = 1):
    """(tree, start, stop) of each tree's consecutive run of ``counts * width``."""
    stops = np.cumsum(counts) * width
    return zip(ids.tolist(), (stops - counts * width).tolist(), stops.tolist())


def classify_atoms(F: Martingale, epsilon: float) -> FlatForest:
    """Label every internal atom convex or flat and assemble the flat forest.

    The trees are sliced out of the forest's index (``FlatForest.index``),
    built here once from the convex masks: per level, every atom's tree id,
    the trees with members there and their members; per tree, its root.
    Fruits, the convex atoms whose parent is flat, are grouped by tree with
    one stable sort; leaves, the bottom atoms whose parent is flat, are the
    children of the bottom members.  The work is linear in the number of
    atoms.  The index is cached on the forest rather than held in a field,
    so the forest's fields stay its outputs.
    """
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    spec = F.spec
    m = spec.m
    increments, level_masses, child_means = atom_increments(F)
    convex = [
        (inc >= epsilon * base) & (child_mean > 0)
        for inc, base, child_mean in zip(increments, level_masses, child_means)
    ]
    forest = FlatForest(epsilon, convex, [], increments, level_masses)
    index = forest.index

    members: list[dict[int, np.ndarray]] = [{} for _ in range(index.root_level.size)]
    for n in range(spec.depth):
        for t, start, stop in _slices(index.ids[n], index.counts[n]):
            members[t][n] = index.members[n][start:stop]

    fruit_tree, fruit_level, fruit_index = [_EMPTY], [_EMPTY], [_EMPTY]
    for n in range(1, spec.depth):
        conv_idx = np.flatnonzero(convex[n])
        parent = index.tree_of[n - 1][conv_idx // m]
        under_tree = parent >= 0
        fruit_tree.append(parent[under_tree])
        fruit_index.append(conv_idx[under_tree])
        fruit_level.append(np.full(fruit_index[-1].size, n))
    fruit_tree = np.concatenate(fruit_tree)
    order = np.argsort(fruit_tree, kind="stable")
    atoms = list(map(AtomId, np.concatenate(fruit_level)[order].tolist(),
                     np.concatenate(fruit_index)[order].tolist()))
    fruits: list[list[AtomId]] = [[] for _ in members]
    for t, start, stop in _slices(*_runs(fruit_tree[order])):
        fruits[t] = atoms[start:stop]

    leaves = [_EMPTY] * len(members)
    leaf_atoms = _children(index.members[-1], m)
    for t, start, stop in _slices(index.ids[-1], index.counts[-1], m):
        leaves[t] = leaf_atoms[start:stop]

    forest.trees = [
        FlatTree(AtomId(n, i), tree_members, tree_fruits, tree_leaves)
        for n, i, tree_members, tree_fruits, tree_leaves in zip(
            index.root_level.tolist(), index.root_index.tolist(), members, fruits, leaves
        )
    ]
    return forest


def split_convex_flat(F: Martingale, forest: FlatForest) -> tuple[Martingale, Martingale]:
    """F = F_co + F_fl blockwise; the flat part carries F_0 (constants are flat)."""
    if len(forest.convex) != F.spec.depth:
        raise ValueError("forest does not match the martingale's depth")
    co_diffs, fl_diffs = [], []
    for n in range(F.spec.depth):
        mask = forest.convex[n][:, None, None]
        co_diffs.append(np.where(mask, F.diffs[n], 0.0))
        fl_diffs.append(np.where(mask, 0.0, F.diffs[n]))
    F_co = Martingale(F.spec, np.zeros(F.spec.ell), co_diffs, validate=False)
    F_fl = Martingale(F.spec, F.f0.copy(), fl_diffs, validate=False)
    return F_co, F_fl


@dataclass
class StepwiseReport:
    increment_sum: float        # sum of E(|F_{n+1}| - |F_n|)
    final_l1: float             # E|F_N|
    initial_l1: float           # E|F_0|
    min_atom_increment: float
    identity_gap: float         # increment_sum - (final_l1 - initial_l1)


def verify_stepwise_identity(F: Martingale) -> StepwiseReport:
    """Telescoping of the stepwise growth, with the F_0 convention exposed.

    The literal statement sum_n E(|F_{n+1}|-|F_n|) = ||F||_{L_1} only holds
    when F_0 = 0; the report carries E|F_0| so either convention can be read
    off.  Every atom increment is nonnegative because blocks sum to zero.
    """
    increments = atom_increments(F)[0]
    increment_sum = float(sum(inc.sum() for inc in increments))
    final_l1 = float(np.linalg.norm(evaluate(F, F.spec.depth), axis=1).mean())
    initial_l1 = float(np.linalg.norm(F.f0))
    min_atom = float(min(inc.min() for inc in increments))
    return StepwiseReport(
        increment_sum=increment_sum,
        final_l1=final_l1,
        initial_l1=initial_l1,
        min_atom_increment=min_atom,
        identity_gap=increment_sum - (final_l1 - initial_l1),
    )


@dataclass
class ConvexLemmaReport:
    constant: float             # (eps + 2)/eps
    max_atom_ratio: float       # worst E|f_{n+1}|chi / (constant * increment)
    besov_co: float             # ||F_co||_{B_1^{0,1}}
    telescoped_bound: float     # constant * (E|F_N| - E|F_0|)
    holds: bool


def verify_convex_lemma(F: Martingale, forest: FlatForest) -> ConvexLemmaReport:
    """Per-atom bound E|f_{n+1}| chi <= ((eps+2)/eps) E(|F_{n+1}|-|F_n|) chi on
    convex atoms, and its Besov aggregate."""
    spec = F.spec
    m = spec.m
    constant = (forest.epsilon + 2.0) / forest.epsilon
    max_ratio = 0.0
    besov_co = 0.0
    for n in range(spec.depth):
        diff_mags = np.linalg.norm(F.diffs[n], axis=2)  # (atoms, m)
        atom_f_l1 = float(m) ** (-(n + 1)) * diff_mags.sum(axis=1)
        mask = forest.convex[n]
        besov_co += float(atom_f_l1[mask].sum())
        bound = constant * forest.increments[n][mask]
        vals = atom_f_l1[mask]
        positive = bound > 0
        if np.any(positive):
            max_ratio = max(max_ratio, float(np.max(vals[positive] / bound[positive])))
        if np.any(vals[~positive] > 1e-13):
            # convex atoms always have positive increment; flag if violated
            max_ratio = np.inf
    report = verify_stepwise_identity(F)
    telescoped = constant * (report.final_l1 - report.initial_l1)
    return ConvexLemmaReport(
        constant=constant,
        max_atom_ratio=max_ratio,
        besov_co=besov_co,
        telescoped_bound=telescoped,
        holds=bool(besov_co <= telescoped * (1 + 1e-12) + 1e-15 and max_ratio <= 1 + 1e-12),
    )


def _root_masses(F: Martingale, levels: list[np.ndarray], forest: FlatForest, p: float = 1.0) -> np.ndarray:
    """m^{-n_0/p} |F_{n_0}(omega_0)| at each tree root omega_0, in tree order.
    The roots of one level share a batched norm, bit for bit each vector's."""
    root_level, root_index = forest.index.root_level, forest.index.root_index
    norms = np.zeros(root_level.size)
    for n in np.unique(root_level).tolist():
        here = root_level == n
        norms[here] = _row_norms(levels[n][root_index[here]])
    return np.array([float(F.spec.m) ** (-n / p) for n in range(F.spec.depth + 1)])[root_level] * norms


def tree_leaf_values(F: Martingale, forest: FlatForest, scales=None):
    """F_T = sum_n scales[n] f_{n+1} chi_{T cap A_n} on the leaves, where A_n
    is the set of level-n atoms, for all trees at once, one root level at a
    time.

    Yields ``(level, ids, values)``: the ids of the trees rooted at ``level``
    (ascending) and an (m^N, ell) array that holds F_T on the cylinder of each
    such tree's root and zero elsewhere.  Trees rooted at one level have
    disjoint cylinders, so they share the array; the same array is refilled
    for the next level, so read it before advancing.  Each leaf receives its
    terms in ascending level order.  ``scales`` defaults to all ones.
    """
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
            values.reshape(-1, rep, ell)[_children(atoms, m)] += block
        yield level, np.flatnonzero(rooted_here), values


def _tree_leaf_sums(F: Martingale, forest: FlatForest, scales=None, weight=None) -> np.ndarray:
    """Per tree, the sum over its root cylinder's leaves of |F_T| (times the
    leaf's ``weight``, if given); F_T and ``scales`` as in ``tree_leaf_values``."""
    spec = F.spec
    root_index = forest.index.root_index
    sums = np.zeros(root_index.size)
    for level, ids, values in tree_leaf_values(F, forest, scales):
        # leaf norms on the root cylinders only: one row per tree
        span = spec.m ** (spec.depth - level)
        leaf = np.linalg.norm(values.reshape(-1, span, spec.ell)[root_index[ids]], axis=2)
        if weight is not None:
            leaf = leaf * weight.reshape(-1, span)[root_index[ids]]
        sums[ids] = leaf.sum(axis=1)
    return sums


def _running_max(start: float, values: np.ndarray) -> float:
    """``max(start, *values)`` for ``start`` not NaN: NaN values never win."""
    return float(np.fmax.reduce(values, initial=start))


@dataclass
class TreeGrowthReport:
    alpha: float
    max_ratio: float
    per_tree: list[dict]


def verify_flat_tree_growth(
    F: Martingale, forest: FlatForest, p: float, kappa_at_inv_p: float, alpha_margin: float
) -> TreeGrowthReport:
    """Ratios of ||sum_{omega in T cap AF_n} F_{n+1} chi|| _{L_p} against the
    e^{alpha(n - n_0)} envelope from the tree root, alpha = kappa(1/p) + margin."""
    spec = F.spec
    m = spec.m
    alpha = kappa_at_inv_p + alpha_margin
    levels = evaluate_all(F)
    index = forest.index
    root_norm = _root_masses(F, levels, forest, p)
    envelope = np.array([np.exp(alpha * k) for k in range(spec.depth + 1)])
    rows: list[list] = [[] for _ in forest.trees]
    max_ratio = 0.0
    for n, (ids, counts, atoms) in enumerate(zip(index.ids, index.counts, index.members)):
        live = root_norm[ids] != 0.0
        ids, counts, atoms = ids[live], counts[live], atoms[np.repeat(live, counts)]
        if ids.size == 0:
            continue
        mags = np.linalg.norm(levels[n + 1][_children(atoms, m)], axis=1)
        lhs = lp_norm_segments(mags, counts * m, float(m) ** (-(n + 1)), p)
        ratios = lhs / (envelope[n - index.root_level[ids]] * root_norm[ids])
        for t, ratio in zip(ids.tolist(), ratios.tolist()):
            rows[t].append((n, ratio))
        max_ratio = _running_max(max_ratio, ratios)
    per_tree = [
        {"root": tree.root, "ratios": tree_rows, "degenerate": bool(norm == 0.0)}
        for tree, tree_rows, norm in zip(forest.trees, rows, root_norm.tolist())
    ]
    return TreeGrowthReport(alpha=alpha, max_ratio=max_ratio, per_tree=per_tree)


@dataclass
class TreeSummationReport:
    p: float
    max_lorentz_ratio: float
    max_stopping_ratio: float
    per_tree: list[dict]


def verify_tree_summation(F: Martingale, forest: FlatForest, p: float) -> TreeSummationReport:
    """Per tree: the weighted Lorentz sum against E|F_{n_0}| chi_{omega_0}, and
    the stopping-time control ||F_T||_{L_1} <= C ||F||_{L_1}."""
    spec = F.spec
    m = spec.m
    levels = evaluate_all(F)
    total_l1 = float(np.linalg.norm(levels[-1], axis=1).mean())
    root_mass = _root_masses(F, levels, forest)

    # Each tree's Lorentz sum accumulates in ascending level order.
    index = forest.index
    lorentz_sum = np.zeros(len(forest.trees))
    for n, (ids, counts, atoms) in enumerate(zip(index.ids, index.counts, index.members)):
        if ids.size == 0:
            continue
        mags = np.linalg.norm(F.diffs[n][atoms].reshape(-1, spec.ell), axis=1)
        norm = lorentz_p1_segments(mags, counts * m, float(m) ** (-(n + 1)), p)
        lorentz_sum[ids] += float(m) ** (-(p - 1) / p * n) * norm

    # ||F_T||_{L_1}: F_T is supported on the root cylinder.
    ft_l1 = float(m) ** (-spec.depth) * _tree_leaf_sums(F, forest)

    # A degenerate root (no mass) with a Lorentz sum above round-off has an
    # infinite ratio; one without has none.
    positive = root_mass > 0
    has_ratio = positive | (lorentz_sum > 1e-13)
    ratios = np.full(lorentz_sum.size, np.inf)
    np.divide(lorentz_sum, root_mass, out=ratios, where=positive)
    max_lorentz = np.inf if np.any(has_ratio & ~positive) else _running_max(0.0, ratios[positive])
    max_stopping = _running_max(0.0, ft_l1 / total_l1) if total_l1 > 0 else 0.0
    per_tree = []
    columns = (lorentz_sum, root_mass, ft_l1, ratios, has_ratio)
    for tree, lsum, mass, ft, ratio, has in zip(forest.trees, *(c.tolist() for c in columns)):
        entry = {"root": tree.root, "lorentz_sum": lsum, "root_mass": mass, "ft_l1": ft}
        if has:
            entry["lorentz_ratio"] = ratio
        per_tree.append(entry)
    return TreeSummationReport(
        p=p,
        max_lorentz_ratio=max_lorentz,
        max_stopping_ratio=max_stopping,
        per_tree=per_tree,
    )


def verify_tree_trace(F: Martingale, forest: FlatForest, nu, nu_levels, alpha, p, c_frostman):
    """Per flat tree: the empirical C of ||I_alpha[F_T]||_{L_1(nu)} <= C m^{-n_0}
    |F_{n_0}(omega_0)|, and the worst ratio of the interpolatory estimate (nu's
    density on the root cylinder, exponent p) to the Frostman constant."""
    if not np.isfinite(p) or p <= 1:
        raise ValueError(f"p must be finite and > 1, got {p}")
    spec = F.spec
    m = spec.m
    q = p / (p - 1.0)
    index = forest.index
    root_level, root_index = index.root_level, index.root_index
    scales = [float(m) ** (-alpha * (n + 1)) for n in range(spec.depth)]
    l1_nu = _tree_leaf_sums(F, forest, scales, nu.leaf_mass)
    denom = _root_masses(F, evaluate_all(F), forest)
    tree_constants = (l1_nu[denom > 0] / denom[denom > 0]).tolist()

    # Interpolatory estimate of the restricted measure martingale: the nu
    # density on the root cylinder at every level where the tree has members.
    interp_max = 0.0
    for n, tree_ids in enumerate(index.ids):
        for n0 in np.unique(root_level[tree_ids]).tolist():
            roots = root_index[tree_ids[root_level[tree_ids] == n0]]
            dens = nu_levels[n].reshape(m**n0, m ** (n - n0))[roots] * float(m) ** n
            sums = float(m) ** (-n) * (dens**q).sum(axis=1)
            rhs = float(m) ** ((p - 1) / p * (alpha - 1) * n0 + alpha * n / p)
            if rhs > 0 and c_frostman > 0:
                # one scalar libm pow per tree, as the tree-by-tree form takes it
                lhs = np.array([s ** (1.0 / q) for s in sums.tolist()])
                interp_max = _running_max(interp_max, lhs / (c_frostman * rhs))
    return tree_constants, interp_max
