"""Numerical laboratory for space-cutoff charged scalar field models.

Modules: `lattice` (momentum grids, each four numbers, and the nested-lattice
mode map), `oneparticle` (potential matrices, pair kernels, the stability
threshold, Weyl quantizer), `quantization` (classical generator and its polar
complex structure), `fock` (truncated two-species Fock space and Wick
assembly), `hamiltonian` (the cutoff Hamiltonian and its kernels), `linalg`
(the solver policy and the self-adjoint operator type), `spectral` (ground
states, gap and convergence experiments), `config`/`cli` (reproducible
experiment plumbing).  Every size is worked out from (v, kappa, n_max) first.
"""

__version__ = "0.1.0"
