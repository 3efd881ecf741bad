"""m-adic tree probability space: atoms, tree measures, adapted martingales.

The ambient space is the boundary of a rooted m-ary tree truncated at depth N.
Atoms at level n are cylinders of mass m^{-n}.  The atom with index i at level
n has children with indices m*i + j, j in [0, m), at level n + 1; this fixed
child ordering is the global identification between difference blocks and
m-tuples used throughout the package.  All martingale data is stored as
level-ordered contiguous arrays, so everything here is plain numpy.

A martingale's derived level data is kept on the martingale itself:
``Martingale.norms`` (|F_n| per level), ``Martingale.diff_norms`` (|f_{n+1}|
per block entry) and ``Martingale.increments`` (the per-atom growth of |F|
that the convex/flat labels read).  Each is computed on its first read, from
one prefix sweep that keeps no level, and kept as read-only arrays, so every
checker of one martingale shares that sweep.  Nothing is kept until the
first norm or checker call that reads them, and a martingale's ``f0`` and
``diffs`` must not be written after that: the kept arrays would no longer
describe them.  ``evaluate``, ``evaluate_at`` and ``evaluate_all`` sweep
afresh and keep nothing.  ``copy``, ``truncated``, ``scaled`` and ``+``
return martingales with nothing kept.  ``Product(m, v)``, the product
martingale of v, is never a ``Martingale``: its levels are formed as read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

# Cap on the leaf count; the storage grows like m^N and is inherently
# exponential, so we refuse absurd depths instead of thrashing.
MAX_LEAVES = 2_000_000

# Tolerance for the zero-sum constraint of difference blocks, relative to the
# largest entry of the block array.
BLOCK_SUM_TOL = 1e-9


@dataclass(frozen=True)
class FiltrationSpec:
    """Branching factor, depth and value dimension of the tree model."""

    m: int
    depth: int
    ell: int = 1

    def __post_init__(self):
        if self.m < 3:
            raise ValueError(f"branching factor must be >= 3, got {self.m}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.ell < 1:
            raise ValueError(f"value dimension must be >= 1, got {self.ell}")
        if self.m**self.depth > MAX_LEAVES:
            raise ValueError(
                f"m^depth = {self.m}^{self.depth} exceeds the cap of {MAX_LEAVES} leaves"
            )

    def atoms_at(self, level: int) -> int:
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside [0, {self.depth}]")
        return self.m**level

    @property
    def leaves(self) -> int:
        return self.m**self.depth

    def truncated(self, depth: int) -> "FiltrationSpec":
        return FiltrationSpec(self.m, depth, self.ell)


@dataclass(frozen=True, slots=True)
class AtomId:
    """Address of one atom: its level and its index in [0, m^level)."""

    level: int
    index: int

    def parent(self, m: int) -> "AtomId":
        if self.level == 0:
            raise ValueError("the root atom has no parent")
        return AtomId(self.level - 1, self.index // m)

    def digits(self, m: int) -> tuple[int, ...]:
        """Base-m expansion of the index, most significant digit first."""
        return atom_digits(self.index, m, self.level)

    def children(self, m: int) -> list["AtomId"]:
        return [AtomId(self.level + 1, m * self.index + j) for j in range(m)]


def atom_digits(index: int, m: int, level: int) -> tuple[int, ...]:
    digits = []
    for _ in range(level):
        digits.append(index % m)
        index //= m
    return tuple(reversed(digits))


def tree_distance(spec: FiltrationSpec, a: AtomId, b: AtomId) -> float:
    """m^{-k} where k is the length of the common digit prefix; 0 if equal."""
    if a.level != spec.depth or b.level != spec.depth:
        raise ValueError("tree_distance expects two leaves at the full depth")
    if a.index == b.index:
        return 0.0
    da, db = a.digits(spec.m), b.digits(spec.m)
    k = 0
    while da[k] == db[k]:
        k += 1
    return float(spec.m) ** (-k)


def vector_norms(x: np.ndarray, in_place: bool = False) -> np.ndarray:
    """Euclidean norm over the last axis of float ``x``, bit for bit as
    ``np.linalg.norm(x, axis=-1)``.

    numpy sums fewer than 8 squares in order, so a short last axis is summed
    column by column, without the reduction's overhead (``in_place``: in x[..., 0],
    which the norms are); from 8 on numpy sums pairwise, and its norm is called.
    """
    x = np.asarray(x, dtype=float)
    if not 0 < x.shape[-1] < 8:
        return np.linalg.norm(x, axis=-1)
    squares = np.multiply(x[..., 0], x[..., 0], out=x[..., 0] if in_place else None)
    for j in range(1, x.shape[-1]):
        squares += x[..., j] * x[..., j]
    return np.sqrt(squares, out=squares)


def _sweep(spec: FiltrationSpec, f0: np.ndarray, diffs, n: int):
    """F_0, ..., F_n from one prefix sweep, yielded level by level; ``diffs``
    may be any iterable of difference levels, read one at a time."""
    values = f0.reshape(1, spec.ell)
    yield values
    for block in islice(diffs, n):
        values = np.repeat(values, spec.m, axis=0)
        values += block.reshape(-1, spec.ell)
        del block  # a level formed as it is read is dropped before the next level is
        yield values


def _read_only(arrays) -> tuple[np.ndarray, ...]:
    arrays = tuple(arrays)
    for a in arrays:
        a.flags.writeable = False
    return arrays


class Martingale:
    """An R^ell-valued martingale stored as F_0 plus per-atom difference blocks.

    ``diffs[n]`` has shape (m^n, m, ell); row block ``diffs[n][i]`` holds the
    values of f_{n+1} on the children of atom i at level n and sums to zero
    along its first axis (each block lies in V^ell).  ``norms``,
    ``diff_norms`` and ``increments`` are computed on their first read and
    kept read-only (see the module docstring); ``f0`` and ``diffs`` must not
    be written after that.
    """

    def __init__(self, spec: FiltrationSpec, f0: np.ndarray, diffs: list[np.ndarray], *, validate: bool = True):
        self.spec = spec
        self.f0 = np.asarray(f0, dtype=float).reshape(spec.ell)
        self.diffs = [np.asarray(d, dtype=float) for d in diffs]
        if validate:
            self._validate()

    def _validate(self):
        m, N, ell = self.spec.m, self.spec.depth, self.spec.ell
        if len(self.diffs) != N:
            raise ValueError(f"expected {N} difference levels, got {len(self.diffs)}")
        for n, block in enumerate(self.diffs):
            if block.shape != (m**n, m, ell):
                raise ValueError(
                    f"diffs[{n}] has shape {block.shape}, expected {(m ** n, m, ell)}"
                )
            scale = max(1.0, float(np.max(np.abs(block))) if block.size else 1.0)
            worst = float(np.max(np.abs(block.sum(axis=1)))) if block.size else 0.0
            if worst > BLOCK_SUM_TOL * scale:
                raise ValueError(
                    f"diffs[{n}] blocks do not sum to zero (residual {worst:.3e})"
                )

    @classmethod
    def zero(cls, spec: FiltrationSpec) -> "Martingale":
        diffs = [np.zeros((spec.m**n, spec.m, spec.ell)) for n in range(spec.depth)]
        return cls(spec, np.zeros(spec.ell), diffs, validate=False)

    def copy(self) -> "Martingale":
        return Martingale(self.spec, self.f0.copy(), [d.copy() for d in self.diffs], validate=False)

    def scaled(self, factors) -> "Martingale":
        """New martingale with diffs[n] multiplied by factors[n]; F_0 unchanged."""
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (self.spec.depth,):
            raise ValueError("need one factor per difference level")
        diffs = [f * d for f, d in zip(factors, self.diffs)]
        return Martingale(self.spec, self.f0.copy(), diffs, validate=False)

    def __add__(self, other: "Martingale") -> "Martingale":
        if other.spec != self.spec:
            raise ValueError("cannot add martingales over different filtrations")
        diffs = [a + b for a, b in zip(self.diffs, other.diffs)]
        return Martingale(self.spec, self.f0 + other.f0, diffs, validate=False)

    def truncated(self, depth: int) -> "Martingale":
        """Restriction to the first ``depth`` levels (stopped martingale)."""
        spec = self.spec.truncated(depth)
        return Martingale(spec, self.f0.copy(), [d.copy() for d in self.diffs[:depth]], validate=False)

    @cached_property
    def norms(self) -> tuple[np.ndarray, ...]:
        """|F_n| on the level-n atoms, n = 0..N, from a sweep that keeps no
        level."""
        return _read_only(map(vector_norms, _sweep(self.spec, self.f0, self.diffs, self.spec.depth)))

    @cached_property
    def diff_norms(self) -> tuple[np.ndarray, ...]:
        """|f_{n+1}| per block entry, shape (m^n, m), n < N."""
        return _read_only(map(vector_norms, self.diffs))

    @cached_property
    def increments(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per level n < N and atom omega: the growth E(|F_{n+1}| - |F_n|)
        chi_omega, the mass E|F_n| chi_omega, and the mean of |F_{n+1}| over
        omega's children."""
        m, mags = self.spec.m, self.norms
        increments, level_masses, child_means = [], [], []
        for n in range(self.spec.depth):
            weight = float(m) ** (-n)
            child_mean = mags[n + 1].reshape(-1, m).mean(axis=1)
            increments.append(weight * (child_mean - mags[n]))
            level_masses.append(weight * mags[n])
            child_means.append(child_mean)
        return _read_only(increments), _read_only(level_masses), _read_only(child_means)


def evaluate(F: Martingale, n: int) -> np.ndarray:
    """Values of F_n on the level-n atoms, shape (m^n, ell), swept to level
    n; nothing is kept."""
    if not 0 <= n <= F.spec.depth:
        raise ValueError(f"level {n} outside [0, {F.spec.depth}]")
    for values in _sweep(F.spec, F.f0, F.diffs, n):
        pass
    return values


def evaluate_at(F: Martingale, n: int, atoms: np.ndarray) -> np.ndarray:
    """Rows ``atoms`` of ``evaluate(F, n)``, bit for bit, without the level:
    each row sums f_1, ..., f_n along its atom's path in the sweep's order.
    Nothing is kept."""
    atoms = np.asarray(atoms, dtype=np.int64)
    m, ell = F.spec.m, F.spec.ell
    ancestors = [atoms]  # at levels n, n - 1, ..., 1
    for _ in range(n - 1):
        ancestors.append(ancestors[-1] // m)
    values = np.repeat(F.f0.reshape(1, ell), len(atoms), axis=0)
    for block, at in zip(F.diffs[:n], reversed(ancestors)):
        values += block.reshape(-1, ell).take(at, axis=0)
    return values


def evaluate_all(F: Martingale) -> list[np.ndarray]:
    """Values of F_0, ..., F_N from one prefix sweep; nothing is kept."""
    return list(_sweep(F.spec, F.f0, F.diffs, F.spec.depth))


@dataclass
class TreeMeasure:
    """A measure on the tree boundary stored by its leaf masses.

    ``leaf_mass`` has shape (m^N,) for scalar measures or (m^N, ell) for
    vector ones.  Masses of coarser atoms are obtained by aggregation, so
    additivity holds by construction.
    """

    spec: FiltrationSpec
    leaf_mass: np.ndarray

    def __post_init__(self):
        self.leaf_mass = np.asarray(self.leaf_mass, dtype=float)
        n_leaves = self.spec.leaves
        if self.leaf_mass.shape not in ((n_leaves,), (n_leaves, self.spec.ell)):
            raise ValueError(
                f"leaf_mass shape {self.leaf_mass.shape} does not match {n_leaves} leaves"
            )

    @property
    def is_scalar(self) -> bool:
        return self.leaf_mass.ndim == 1

    def level_mass(self, n: int) -> np.ndarray:
        """Masses of the level-n atoms (children sums of the leaf masses)."""
        if not 0 <= n <= self.spec.depth:
            raise ValueError(f"level {n} outside [0, {self.spec.depth}]")
        mass = self.leaf_mass
        block = self.spec.m ** (self.spec.depth - n)
        if self.is_scalar:
            return mass.reshape(self.spec.m**n, block).sum(axis=1)
        return mass.reshape(self.spec.m**n, block, self.spec.ell).sum(axis=1)

    def total(self) -> np.ndarray | float:
        t = self.leaf_mass.sum(axis=0)
        return float(t) if self.is_scalar else t

    def truncated(self, depth: int) -> "TreeMeasure":
        spec = self.spec.truncated(depth)
        return TreeMeasure(spec, self.level_mass(depth))


def measure_to_martingale(mu: TreeMeasure) -> Martingale:
    """Martingale of conditional densities: F_n on an atom is mu(atom) * m^n.

    The density normalization makes the L_1 martingale norm equal to the total
    variation of mu, and E F_n chi_atom = mu(atom) for every atom.
    """
    spec = mu.spec
    ell = spec.ell
    if mu.is_scalar and ell != 1:
        raise ValueError("scalar measure over a vector-valued filtration spec")
    masses = [mu.level_mass(n) for n in range(spec.depth + 1)]
    dens = []
    for n, mass in enumerate(masses):
        d = mass * float(spec.m) ** n
        dens.append(d[:, None] if mu.is_scalar else d.reshape(spec.m**n, ell))
    diffs = []
    for n in range(spec.depth):
        child = dens[n + 1].reshape(spec.m**n, spec.m, ell)
        diffs.append(child - dens[n][:, None, :])
    return Martingale(spec, dens[0][0], diffs)


def martingale_to_measure(F: Martingale) -> TreeMeasure:
    """Inverse of measure_to_martingale: leaf mass is m^{-N} F_N."""
    values = evaluate(F, F.spec.depth)
    mass = values / float(F.spec.m) ** F.spec.depth
    if F.spec.ell == 1:
        mass = mass[:, 0]
    return TreeMeasure(F.spec, mass)


class Product:
    """The product martingale G_n = prod_{i <= n} (1 + h_i), h_i = J[v], for v
    in V with v_j >= -1 (checked once, here): the scalar density martingale
    of the product measure with branch weights ``weights`` = (1 + v_j)/m."""

    def __init__(self, m: int, v):
        v = np.asarray(v, dtype=float).reshape(m)
        if abs(v.sum()) > 1e-9 * max(1.0, float(np.max(np.abs(v)))):
            raise ValueError("v must have zero coordinate sum")
        if np.any(v < -1 - 1e-12):
            raise ValueError("v must satisfy v_j >= -1")
        self.m, self.v = m, v

    @property
    def weights(self) -> np.ndarray:
        return (1.0 + self.v) / self.m

    def levels(self, depth: int, scale: float | None = None):
        """G's levels f_1, ..., f_depth, shape (m^{n-1}, m, 1), formed one at a
        time (with ``scale`` = alpha, times m^{-alpha n} in place: those of
        ``riesz_potential(G, alpha)``, bit for bit).  Only G_{n-1} is kept
        between levels, and the last level takes it: a level's one reference is the reader's."""
        held = [np.ones(1)]  # G_{n-1} on the level-(n-1) atoms
        for n in range(1, depth + 1):
            if n > 1:
                held.append((held.pop()[:, None] * (1.0 + self.v)).reshape(-1))
            yield self._level(held.pop() if n == depth else held[0], n, scale)

    def _level(self, values: np.ndarray, n: int, scale: float | None) -> np.ndarray:
        level = (values[:, None] * self.v)[:, :, None]
        if scale is not None:
            level *= float(self.m) ** (-scale * n)
        return level
