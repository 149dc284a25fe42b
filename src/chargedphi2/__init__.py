"""Numerical laboratory for space-cutoff charged scalar field models.

Modules: `lattice` (momentum grids and nested lattice pairs), `oneparticle`
(potential matrices, pair kernels, the stability threshold, Weyl quantizer),
`quantization` (classical generator and its polar complex structure), `fock`
(truncated two-species Fock space and Wick assembly), `hamiltonian` (the
cutoff Hamiltonian and its kernels), `spectral` (ground states, gap and
convergence experiments), `config`/`cli` (reproducible experiment plumbing).
"""

__version__ = "0.1.0"
