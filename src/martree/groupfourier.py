"""Shift-invariant constraint subspaces over a finite abelian group on [0, m).

A commutative group structure on the child labels turns V^ell into functions
G -> C^ell with zero mean, and shift-invariant subspaces W are exactly those
cut out by fibers: W = { f | f_hat(gamma) in W_gamma for gamma != 0 }.  The
delta-direction condition on W becomes the cancellation condition
(the intersection of all fibers is trivial), and the rank-one-free condition
becomes triviality of every W_gamma cap W_{-gamma}.  Complex scalars live in
this module only; cross-checks against the real machinery realify C^ell as
R^{2 ell}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filtration import MAX_LEAVES
from .spacew import SubspaceW

INTERSECT_TOL = 1e-9


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups given by invariant factors; order is their product."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors or any(d < 2 for d in self.factors):
            raise ValueError("factors must be integers >= 2")
        if self.order > MAX_LEAVES:  # the group labels one node's m children; no tree has more leaves
            raise ValueError(f"factors {list(self.factors)} make a group of order {self.order}, "
                             f"beyond the cap of {MAX_LEAVES} leaves")

    @classmethod
    def cyclic(cls, m: int) -> "FiniteAbelianGroup":
        return cls((m,))

    @property
    def order(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out

    def index(self, element: tuple[int, ...]) -> int:
        idx = 0
        for x, d in zip(element, self.factors):
            idx = idx * d + (x % d)
        return idx

    def add(self, a: int, b: int) -> int:
        return self.index(tuple(x + y for x, y in zip(self.element(a), self.element(b))))

    def negate(self, a: int) -> int:
        return self.index(tuple(-x for x in self.element(a)))

    def element(self, a: int) -> tuple[int, ...]:  # the digits that ``index`` reads, from a's own
        return tuple(map(int, np.unravel_index(a, self.factors)))

    def add_table(self) -> np.ndarray:
        m = self.order
        table = np.empty((m, m), dtype=np.int64)
        for a in range(m):
            for b in range(m):
                table[a, b] = self.add(a, b)
        return table

    def character_table(self) -> np.ndarray:
        """chars[gamma, x] = exp(2 pi i sum gamma_k x_k / d_k); rows orthogonal."""
        elems = [self.element(a) for a in range(self.order)]
        m = self.order
        table = np.empty((m, m), dtype=complex)
        for g_idx, gamma in enumerate(elems):
            for x_idx, x in enumerate(elems):
                phase = sum(gk * xk / d for gk, xk, d in zip(gamma, x, self.factors))
                table[g_idx, x_idx] = np.exp(2j * np.pi * phase)
        return table

    def subgroup_generated(self, generators) -> set[int]:
        closure = {0}
        frontier = set(generators) | {0}
        while frontier:
            new = set()
            for a in frontier:
                for b in list(closure):
                    c = self.add(a, b)
                    if c not in closure:
                        new.add(c)
            closure |= new
            frontier = new
        return closure


@dataclass
class FiberFamily:
    """For nonzero gammas an orthonormal complex basis of W_gamma (rows); absent ones are trivial."""

    group: FiniteAbelianGroup
    ell: int
    fibers: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self._trivial = np.zeros((0, self.ell), dtype=complex)  # an ell no array can have fails here
        if not all(0 < gamma < self.group.order for gamma in self.fibers):
            raise ValueError(f"fibers are indexed by nonzero gamma in [1, {self.group.order}) only")
        for gamma, basis in self.fibers.items():
            basis = np.asarray(basis, dtype=complex)
            if basis.ndim != 2 or basis.shape[1] != self.ell:
                raise ValueError(f"fiber {gamma} must be (dim, {self.ell})")
            if basis.shape[0]:
                gram = basis.conj() @ basis.T
                if not np.abs(gram - np.eye(basis.shape[0])).max() <= 1e-9:  # NaN fails too
                    raise ValueError(f"fiber {gamma} basis is not orthonormal")
            self.fibers[gamma] = basis

    def fiber(self, gamma: int) -> np.ndarray:
        return self.fibers.get(gamma, self._trivial)

    def nontrivial(self) -> list[int]:
        """The gammas whose fiber is not trivial, ascending."""
        return sorted(gamma for gamma, basis in self.fibers.items() if basis.shape[0])


def _intersect(basis_a: np.ndarray, basis_b: np.ndarray, ell: int) -> np.ndarray:
    """Orthonormal basis of span(a) cap span(b), by nulling the complement of b.

    A combination x = basis_a.T c lies in span(b) exactly when the residual
    (I - P_b) x vanishes; kernel vectors of that coefficient map span the
    intersection.
    """
    if basis_a.shape[0] == 0 or basis_b.shape[0] == 0:
        return np.zeros((0, ell), dtype=complex)
    a_t = basis_a.T  # (ell, dim_a): columns are the a-basis vectors
    coeff_map = a_t - basis_b.T @ (basis_b.conj() @ a_t)
    u, s, vh = np.linalg.svd(coeff_map)
    null = np.zeros(a_t.shape[1], dtype=bool)
    null[s.size :] = True
    null[: s.size] = s <= INTERSECT_TOL
    if not null.any():
        return np.zeros((0, ell), dtype=complex)
    combos = (a_t @ vh.conj().T[:, null]).T  # rows span the intersection
    q, _ = np.linalg.qr(combos.T)
    return q.T[: int(null.sum())]


def intersect_many(bases: list[np.ndarray], ell: int) -> np.ndarray:
    current = np.eye(ell, dtype=complex)
    for b in bases:
        current = _intersect(current, b, ell)
        if current.shape[0] == 0:
            break
    return current


@dataclass
class ShiftInvariantW:
    group: FiniteAbelianGroup
    ell: int
    basis: np.ndarray        # complex, (k, m, ell), orthonormal, zero mean

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def realify(self) -> SubspaceW:
        """The same subspace over R^{2 ell}: [Re | Im] plus [-Im | Re] blocks."""
        re, im = self.basis.real, self.basis.imag
        first = np.concatenate([re, im], axis=2)
        second = np.concatenate([-im, re], axis=2)
        blocks = np.concatenate([first, second], axis=0)
        return SubspaceW(self.group.order, 2 * self.ell, blocks)


def build_shift_invariant_w(fibers: FiberFamily) -> ShiftInvariantW:
    """W = { f : G -> C^ell | f_hat(gamma) in W_gamma, f_hat(0) = 0 }.

    Basis functions are chi_gamma(x) b / sqrt(m) over fiber basis vectors b;
    dim W = sum of fiber dimensions, and shifts act by unimodular scalars.
    """
    G = fibers.group
    m = G.order
    chars = G.character_table()
    blocks = []
    for gamma in fibers.nontrivial():
        for b in fibers.fibers[gamma]:
            blocks.append(np.outer(chars[gamma], b) / np.sqrt(m))
    basis = np.asarray(blocks, dtype=complex).reshape(-1, m, fibers.ell)
    return ShiftInvariantW(group=G, ell=fibers.ell, basis=basis)


def check_cancellation_fibers(fibers: FiberFamily) -> tuple[bool, np.ndarray | None]:
    """True when the intersection of all fibers is trivial; witness otherwise.

    A common vector a yields the delta block (m delta_0 - 1) (x) a inside W.
    """
    nontrivial = fibers.nontrivial()
    if len(nontrivial) < fibers.group.order - 1:  # a trivial fiber: the intersection is trivial
        return True, None
    common = intersect_many([fibers.fibers[g] for g in nontrivial], fibers.ell)
    if common.shape[0] == 0:
        return True, None
    return False, common[0]


def check_antisymmetry_fibers(fibers: FiberFamily) -> tuple[bool, tuple[int, np.ndarray] | None]:
    """True when W_gamma cap W_{-gamma} = {0} for every nonzero gamma.

    Self-paired gamma (gamma = -gamma) must have a trivial fiber outright.
    """
    for gamma in fibers.nontrivial():  # a trivial W_gamma meets W_{-gamma} trivially
        inter = _intersect(fibers.fibers[gamma], fibers.fiber(fibers.group.negate(gamma)), fibers.ell)
        if inter.shape[0] > 0:
            return False, (gamma, inter[0])
    return True, None


def antisymmetry_subgroup_bound(fibers: FiberFamily, max_order: int = 16) -> tuple[float, int, list]:
    """Least K with every W^{-1}(a) inside a subgroup of size K; bound 1 - log K/log m.

    W^{-1}(a) = {gamma : a in W_gamma cap W_{-gamma}}.  Enumerate maximal sets
    T of nonzero gammas whose pairwise intersections share a common vector;
    the generic a of each such intersection has W^{-1}(a) = T.
    """
    G = fibers.group
    m = G.order
    if m > max_order:
        raise ValueError(f"group order {m} exceeds the enumeration budget {max_order}")
    pair = {
        gamma: _intersect(fibers.fiber(gamma), fibers.fiber(G.negate(gamma)), fibers.ell)
        for gamma in range(1, m)
    }
    nonzero = [g for g in range(1, m) if pair[g].shape[0] > 0]
    maximal: list[tuple[tuple[int, ...], np.ndarray]] = []

    def extendable(T, inter):
        for g in nonzero:
            if g in T:
                continue
            if _intersect(inter, pair[g], fibers.ell).shape[0] > 0:
                return True
        return False

    def dfs(T, inter, start):
        for pos, g in enumerate(nonzero):
            if pos < start:
                continue
            nxt = _intersect(inter, pair[g], fibers.ell)
            if nxt.shape[0] > 0:
                dfs(T + (g,), nxt, pos + 1)
        if T and not extendable(T, inter):
            maximal.append((T, inter))

    dfs((), np.eye(fibers.ell, dtype=complex), 0)
    if not maximal:
        return 1.0, 1, []
    K = 1
    for T, _ in maximal:
        K = max(K, len(G.subgroup_generated(T)))
    return 1.0 - np.log(K) / np.log(m), K, [T for T, _ in maximal]
