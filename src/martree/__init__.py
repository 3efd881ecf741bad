"""Numerical laboratory for m-adic tree martingales.

Finite-depth models of constrained martingale spaces: the tree probability
space, the norm engine, the constraint subspace machinery with its kappa
profile, Riesz-potential embedding experiments, the convex/flat decomposition,
Hausdorff-dimension certificates, shift-invariant subspaces over finite
abelian groups, and trace embeddings against reference measures.
"""

__version__ = "0.1.0"
