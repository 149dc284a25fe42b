"""Truncated two-species bosonic Fock space over lattice modes.

Slots are species-major: slots 0..M-1 are species 1 at ascending momentum,
slots M..2M-1 species 2.  A basis is one occupation array `occ` (dim x 2M,
uint8) holding every state with total particle number at most n_max, ordered
by total number and then lexicographically, so basis enumeration is
deterministic across runs.  `FockBasis.rank` maps occupation rows back to
their indices through the combinatorial number system.

Every operator is expanded by one generator, `_wick_blocks`.  It builds a
normal-ordered monomial leg by leg over blocks of basis columns: annihilator
legs first, each taking one particle out of an occupied slot in its range,
then creator legs, each adding one through the basis's raise table.  Creation
out of the top sector maps to zero, keeping every operator an endomorphism of
one space; canonical-commutation checks therefore restrict to the sector
N <= n_max - 1.  Creators commute, and so do annihilators: a run of adjacent
legs with one species label walks only non-decreasing slot tuples, each
carrying the sum of the coefficients of its distinct orderings
(`WickKernel.fold`, once per kernel; a folded kernel is read as it is).  This
fold is the only place that sums leg orderings; no kernel is put through a
symmetrization before it.  Each block yields the summed entries of whole
columns, keyed column * dim + row, expanded in pieces of about TERM_BUDGET
terms; `wick_operator` is the CSR matrix of all of them.

Every self-adjoint operator built from kernels (H, or Q from its
`charge_kernels`) goes through one rule: the Wick entries of an adjoint-closed
list of kernels with real weights on and above the diagonal are reduced in one
stream to a strictly upper triangle T and a real diagonal d
(`hermitian_parts`); the operator is T and d alone, Hermitian by construction
(`linalg.HermitianTriangle`; `hermitian_operator`: weight 1).  The stream is
column-synchronous: every kernel's blocks advance together over the same
ranges of COLUMN_BLOCK columns of T, and each range is summed and appended to
T's CSC arrays, so no kernel's entries are concatenated and nothing is sorted
beyond one range.  Each kernel's folded tensor is held once, read by the
adjoint-closure check and by its expansion.  A p > q kernel raises the
particle number, so all its entries lie below the diagonal and enter T
transposed and conjugated; p < q ones (their adjoints) are skipped, and so
are those that create more particles than the cap holds.  A balanced kernel is expanded on and above the diagonal
only: its creator legs take no slot below the lowest annihilated slot, and of
what remains the entries with row <= column are kept.  The bound drops no such
entry.  The basis is ordered by number and then lexicographically, slot 0
first.  A term whose lowest created slot lies below every annihilated slot
first changes the occupations at that slot, where it adds a particle, so its
new state comes later in the order: the term lands strictly below the
diagonal.

Matrix elements are a folded coefficient times a single square root of the
exact integer product of the leg occupations, so equal kernels give bitwise
equal matrices, and T^H + diag(d) + T is Hermitian bitwise.  A kernel and its
adjoint fold their runs in one order (label, then length): Wick(k)^H ==
Wick(k.adjoint()) bitwise when each matrix entry gets one term, e.g. when no
creator shares a label with an annihilator.  An operator is float64 when all
its coefficients are real.  The gauge D = diag(i^{N_2}) (i on each species-2
slot) maps A to D^* A D, multiplying a monomial that creates p2 and
annihilates q2 species-2 particles by i^{q2 - p2}; it is applied to kernels
(`gauge_kernel`), before any Wick expansion.  A gauge-frame state psi is D psi
in the lab frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import groupby, permutations
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, ParameterError, ResourceLimitError, ShapeError
from .lattice import MomentumLattice, build_nested
from .linalg import HermitianTriangle, real_if_exact

HARD_DIMENSION_CAP = 200_000
# Basis columns per block of `_wick_blocks` and per range of the `hermitian_parts` stream.
COLUMN_BLOCK = 256
# About the most terms `_wick_blocks` makes at once per creator leg; bounds its working memory.
TERM_BUDGET = 1 << 13


def fock_dimension(n_slots: int, n_max: int) -> int:
    """States with total <= n_max over n_slots slots: C(n_slots + n_max, n_max) (hockey stick), 0 if n_max < 0."""
    return math.comb(n_slots + n_max, n_max) if n_max >= 0 else 0


@dataclass(frozen=True)
class FockBasis:
    """Deterministic occupation-number basis with a particle cap.

    Row i of occ holds the slot occupations of basis state i; rank inverts it.
    """

    lattice: MomentumLattice
    n_max: int
    occ: np.ndarray = field(repr=False, compare=False)

    @property
    def n_modes(self) -> int:
        return self.lattice.size

    @property
    def n_slots(self) -> int:
        return 2 * self.lattice.size

    @property
    def dim(self) -> int:
        return len(self.occ)

    def mode_index(self, gamma: float) -> int:
        """Index of the lattice mode with momentum gamma; errors if absent."""
        j = round(gamma * float(self.lattice.v))
        idx = j + self.lattice.n_half
        if not 0 <= idx < self.n_modes or abs(self.lattice.modes[idx] - gamma) > 1e-12:
            raise ParameterError(f"momentum {gamma} is not a lattice mode")
        return idx

    def totals(self) -> np.ndarray:
        return self.occ.sum(axis=1, dtype=np.int64)

    @cached_property
    def _rank_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(lex, offsets): lex[i, r, x] counts the states that agree with a row
        before slot i, hold r particles from slot i on, and put fewer than x
        at slot i; offsets[n] is the index of the first state of sector n."""
        s, n = self.n_slots, self.n_max
        # comp[r, i]: occupations of the s - 1 - i slots after slot i with total r
        comp = np.array(
            [[math.comb(r + t - 1, r) if t else int(r == 0) for t in range(s)][::-1] for r in range(n + 1)],
            dtype=np.int64,
        )
        lex = np.zeros((s, n + 1, n + 1), dtype=np.int64)
        for r in range(n + 1):
            for x in range(1, r + 1):
                lex[:, r, x] = lex[:, r, x - 1] + comp[r - x + 1]
        offsets = np.array([fock_dimension(s, k - 1) for k in range(n + 1)], dtype=np.int64)
        return lex, offsets

    @cached_property
    def raise_table(self) -> np.ndarray:
        """up[i, s]: the index of state i plus one particle at slot s, for the
        states below the cap, which are a prefix of the basis (creation out of
        the top sector gives zero, so no other state needs a row)."""
        n_low, s = fock_dimension(self.n_slots, self.n_max - 1), self.n_slots
        raised = np.repeat(self.occ[:n_low], s, axis=0)
        raised[np.arange(len(raised)), np.tile(np.arange(s), n_low)] += 1
        up = self.rank(raised).reshape(n_low, s)
        up.flags.writeable = False
        return up

    def raised_overlaps(self, psi: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """c[s, j] = <a*_s psi, v_j> for every slot s and column v_j of vecs: a*_s psi puts
        sqrt(n_s) psi[i] at state up[i, s] of the raise table (n_s counts the raised
        state; the top sector has no image).  For vecs = psi[:, None], c[s, 0] = <psi, a_s psi>."""
        up, psi_low = self.raise_table, psi[: len(self.raise_table)]
        return np.array([psi_low.conj() @ (np.sqrt(self.occ[up[:, s], s], dtype=float)[:, None] * vecs[up[:, s]])
                         for s in range(self.n_slots)])

    @cached_property
    def reflection(self) -> np.ndarray:
        """Momentum parity on the basis: the index of each state with every
        particle's momentum negated (`MomentumLattice.slot_reflection`)."""
        refl = self.rank(self.occ[:, self.lattice.slot_reflection()])
        refl.flags.writeable = False
        return refl

    def rank(self, occ_rows) -> np.ndarray:
        """Basis indices of occupation rows, each 2M long with total <= n_max."""
        rows = np.asarray(occ_rows)
        if rows.ndim != 2 or rows.shape[1] != self.n_slots:
            raise ShapeError(f"occupation rows must have {self.n_slots} columns, got {rows.shape}")
        totals = rows.sum(axis=1, dtype=np.int64)
        if rows.size and (rows.min() < 0 or totals.max() > self.n_max):
            raise ParameterError(f"occupation rows leave the basis with cap {self.n_max}")
        lex, offsets = self._rank_tables
        out = offsets[totals]
        rem = np.zeros(len(rows), dtype=np.int64)
        for i in range(self.n_slots - 1, -1, -1):
            rem += rows[:, i]
            out += lex[i, rem, rows[:, i]]
        return out


def check_dimension(lattice: MomentumLattice, n_max: int, cap: int = HARD_DIMENSION_CAP) -> int:
    """The dimension of the basis over lattice's 2M slots; a resource error naming the cap above it."""
    if n_max < 0:
        raise ParameterError(f"n_max must be nonnegative, got {n_max}")
    dim = fock_dimension(2 * lattice.size, n_max)
    if dim > cap:
        raise ResourceLimitError(dim, cap)
    return dim


def enumerate_basis(lattice: MomentumLattice, n_max: int, cap: int = HARD_DIMENSION_CAP) -> FockBasis:
    """Every occupation with total <= n_max, number-major then lex, once `check_dimension` passes.

    Sector n lists the non-decreasing n-tuples of occupied slots in reverse lex
    order (more particles at the first differing slot come later); the n-tuples
    starting at slot x are x before the suffix of (n-1)-tuples starting at x or later."""
    dim = check_dimension(lattice, n_max, cap)
    slots = np.arange(2 * lattice.size)
    occ = np.zeros((dim, len(slots)), dtype=np.uint8)  # row 0, the vacuum, stays zero
    tuples, start = slots[:, None], 1
    for n in range(1, n_max + 1):
        if n > 1:
            count = len(tuples) - np.searchsorted(tuples[:, 0], slots)
            suffix = np.arange(count.sum()) - np.repeat(np.cumsum(count) - len(tuples), count)
            tuples = np.column_stack([np.repeat(slots, count), tuples[suffix]])
        rows = np.arange(start + len(tuples) - 1, start - 1, -1)
        for slot in tuples.T:
            occ[rows, slot] += 1
        start += len(tuples)
    occ.flags.writeable = False
    return FockBasis(lattice=lattice, n_max=n_max, occ=occ)


@dataclass(frozen=True)
class FockOperator:
    """Sparse operator in a fixed Fock basis."""

    basis: FockBasis
    matrix: sp.csr_matrix = field(repr=False)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


@dataclass(frozen=True)
class WickKernel:
    """Coefficient tensor of a normal-ordered monomial with species labels.

    coeffs has one axis per leg, creators first.  A leg labelled 1 or 2 runs
    over that species' M modes; a leg labelled None runs over all 2M slots.
    Any tensor is valid and none needs a symmetrization: the Wick expansion
    (`_wick_blocks`) alone sums the orderings of equal-label runs.
    """

    p: int
    q: int
    species: tuple
    coeffs: np.ndarray = field(repr=False)
    folded: bool = False

    def __post_init__(self):
        if len(self.species) != self.p + self.q:
            raise ShapeError("species labels must cover all legs")
        if any(s not in (1, 2, None) for s in self.species):
            raise ParameterError("species labels must be 1, 2 or None")
        if np.ndim(self.coeffs) != self.p + self.q:
            raise ShapeError("coefficient tensor rank must equal the leg count")

    def adjoint(self) -> "WickKernel":
        """Kernel of the adjoint operator: legs swap roles, entries conjugate."""
        axes = list(range(self.p, self.p + self.q)) + list(range(self.p))
        coeffs = np.conj(np.transpose(self.coeffs, axes)) if self.p + self.q else np.conj(self.coeffs)
        species = self.species[self.p :] + self.species[: self.p]
        return WickKernel(p=self.q, q=self.p, species=species, coeffs=coeffs)

    def fold(self) -> "WickKernel":
        """The same operator's kernel with every run folded (`_fold_run`), float64 when no
        coefficient has an imaginary part; a folded kernel is its own fold, held once."""
        if self.folded:
            return self
        coeffs = real_if_exact(np.asarray(self.coeffs, dtype=complex if np.iscomplexobj(self.coeffs) else float))
        coeffs = reduce(lambda c, run: _fold_run(c, *run), _runs(self), coeffs)
        return WickKernel(p=self.p, q=self.q, species=self.species, coeffs=coeffs, folded=True)


def _runs(kern: WickKernel) -> list[tuple[int, int]]:
    """(first axis, length) of each run of adjacent legs with one label on one
    side, ordered by label and length so a kernel and its adjoint share it."""
    runs, start = [], 0
    for side in (kern.species[: kern.p], kern.species[kern.p :]):
        for _, legs in groupby(side):
            length = len(list(legs))
            runs += [(start, length)] if length > 1 else []
            start += length
    return sorted(runs, key=lambda run: (str(kern.species[run[0]]), run[1]))


def _fold_run(coeffs: np.ndarray, start: int, length: int) -> np.ndarray:
    """Entry K, non-decreasing along the run's axes, becomes the sum of coeffs
    over the distinct orderings of K (c[i, j] + c[j, i], or c[i, i], for a run
    of two); every other entry becomes zero."""
    axes, rest = list(range(start)), list(range(start + length, coeffs.ndim))
    idx = [np.arange(coeffs.shape[a]).reshape([-1 if b == a else 1 for b in range(coeffs.ndim)])
           for a in range(start, start + length)]
    out = 0
    for perm in permutations(range(length)):
        term = np.transpose(coeffs, axes + [start + k for k in perm] + rest)
        # the ordering was met before when perm swaps two equal adjacent modes
        seen = [idx[i] == idx[i + 1] for i in range(length - 1) if perm[i] > perm[i + 1]]
        out = out + (np.where(reduce(np.logical_or, seen), 0, term) if seen else term)
    return np.where(reduce(np.logical_and, [idx[i] <= idx[i + 1] for i in range(length - 1)]), out, 0)


def _wick_blocks(basis: FockBasis, kern: WickKernel, upper: bool = False):
    """Yield the entries of kern's monomial operator as (keys, vals) blocks, an
    entry (row, col) keyed col * dim + row.

    The first block is empty and carries the dtype of the values.  Block b + 1
    then holds the whole columns b COLUMN_BLOCK to (b + 1) COLUMN_BLOCK - 1, so
    kernels expanded side by side reach the same columns together; every entry
    comes once, in key order, with the nonzero sum of its terms.  The generator
    stops after the block of the last column the monomial does not kill.  With
    upper (for a balanced kernel) only the entries with row <= column are made:
    creator legs take only slots at or above the lowest annihilated slot, since
    every other term lies strictly below the diagonal (module docstring).  The
    coefficients are kern's fold (kern itself when folded).  A creator leg adds
    its terms for whole columns at a time, those whose first new term falls in
    one window of TERM_BUDGET terms: a heavy block is made in pieces of about
    that many terms, a light one whole, and each entry's terms in one piece.
    """
    m, dim, p, q = basis.n_modes, basis.dim, kern.p, kern.q
    widths = tuple(2 * m if s is None else m for s in kern.species)
    if np.shape(kern.coeffs) != widths:
        raise ShapeError(f"kernel axes {np.shape(kern.coeffs)} do not match the {m}-mode lattice: need {widths}")
    kern = kern.fold()
    empty = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=kern.coeffs.dtype)
    yield empty
    totals = basis.totals()
    active = np.flatnonzero((totals >= q) & (totals - q + p <= basis.n_max))
    if not len(active):
        return
    # a leg that continues a run takes only slots >= the previous leg's slot
    follows = np.zeros(p + q, dtype=bool)
    for start, length in _runs(kern):
        follows[start + 1 : start + length] = True
    flat = kern.coeffs.ravel()
    strides = np.cumprod((1,) + widths[:0:-1])[::-1]
    # per leg, the modes where some coefficient is nonzero, and their slots
    legs = range(p + q)
    modes = [np.flatnonzero(np.any(kern.coeffs != 0, axis=tuple(a for a in legs if a != leg))) for leg in legs]
    reach = [(0 if s is None else (s - 1) * m) + mode for s, mode in zip(kern.species, modes)]
    if any(len(mode) == 0 for mode in modes):  # a leg without coefficients
        return
    if upper and q and min(r[-1] for r in reach[:p]) < min(r[0] for r in reach[p:]):  # a creator below every floor
        return
    up = basis.raise_table if p else None

    def created(leg, state, amp, cidx, cols, floor, last) -> list:
        """The summed (keys, vals) pieces, in key order, of these terms with creator legs leg.. added."""
        if leg == p:
            c = flat[cidx]
            keep = np.flatnonzero((c != 0) & (state <= cols)) if upper else np.flatnonzero(c != 0)
            return [_summed([(cols[keep] * dim + state[keep], c[keep] * np.sqrt(amp[keep].astype(float)))])]
        # slots reach[leg][lo:], with lo past the previous leg's slot in a run
        lo = np.searchsorted(reach[leg], last if follows[leg] else floor)
        count = len(reach[leg]) - lo
        before = np.cumsum(count) - count
        first = np.flatnonzero(np.diff(cols, prepend=-1))  # each column's first term
        cuts = np.append(first[np.flatnonzero(np.diff(before[first] // TERM_BUDGET, prepend=-1))], len(cols))
        pieces = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            r = np.repeat(np.arange(a, b), count[a:b])
            j = np.arange(len(r)) - np.repeat(before[a:b] - before[a] - lo[a:b], count[a:b])
            slot = reach[leg][j]
            new = up[state[r], slot]
            pieces += created(leg + 1, new, amp[r] * basis.occ[new, slot], cidx[r] + modes[leg][j] * strides[leg],
                              cols[r], floor[r], slot)
        return pieces

    for start in range(0, active[-1] + 1, COLUMN_BLOCK):
        cols = active[np.searchsorted(active, start) : np.searchsorted(active, start + COLUMN_BLOCK)]
        if not len(cols):
            yield empty
            continue
        occ = basis.occ[cols]
        amp = np.ones(len(cols), dtype=np.int64)
        cidx = np.zeros(len(cols), dtype=np.int64)
        # the lowest slot a creator may take: with upper, the lowest annihilated slot
        floor = np.full(len(cols), basis.n_slots if upper and q else 0)
        last = None  # the slot of the previous leg
        for leg in range(p, p + q):  # annihilators first, on occupation rows
            n = occ[:, reach[leg]]
            if follows[leg]:
                n = np.where(reach[leg] >= last[:, None], n, 0)
            r, j = np.nonzero(n)
            occ = occ[r]
            occ[np.arange(len(r)), reach[leg][j]] -= 1
            amp = amp[r] * n[r, j]
            cidx = cidx[r] + modes[leg][j] * strides[leg]
            cols = cols[r]
            last = reach[leg][j]
            floor = np.minimum(floor[r], last) if upper else floor[r]
        pieces = created(0, basis.rank(occ) if q else cols, amp, cidx, cols, floor, last)
        yield tuple(np.concatenate(part) for part in zip(empty, *pieces))


def wick_operator(basis: FockBasis, kern: WickKernel) -> FockOperator:
    """Assemble a normal-ordered monomial operator from its kernel.

    All creators stand left of all annihilators, so the vacuum expectation
    vanishes whenever p + q > 0.  Columns whose image would exceed the
    particle cap are dropped: creation out of the top sector gives zero.
    A run of adjacent legs with one species label is expanded over
    non-decreasing slot tuples only, each carrying the sum of the coefficients
    of its distinct orderings (`_fold_run`, in a fixed permutation order);
    this is exact for any kernel, without a symmetrization.  The terms landing
    on one matrix entry are then summed in the order the legs generate them, so
    equal kernels give bitwise equal matrices.  The entries come from
    `_wick_blocks`, in column order, so they index a CSC matrix directly.
    """
    dim = basis.dim
    key, val = (np.concatenate(part) for part in zip(*_wick_blocks(basis, kern)))
    indptr = np.r_[0, np.cumsum(np.bincount(key // dim, minlength=dim))]
    mat = sp.csc_matrix((val, key % dim, indptr), shape=(dim, dim)).tocsr()
    return FockOperator(basis=basis, matrix=mat)


def _summed(blocks: list) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys of (keys, values) blocks, ascending, with their values summed
    in list order and zero sums dropped; the list is emptied before the sort."""
    key, val = (np.concatenate(part) for part in zip(*blocks))
    blocks.clear()
    order = np.argsort(key, kind="stable")
    key = key[order]
    val = val[order]
    del order
    first = np.flatnonzero(np.diff(key, prepend=-1))
    val = np.add.reduceat(val, first)
    key = key[first]
    return key[val != 0], val[val != 0]


def streamed(basis: FockBasis, kern: WickKernel) -> bool:
    """Whether `hermitian_parts` expands kern: some coefficient is nonzero and
    q <= p <= n_max.  A p < q kernel is the adjoint of one that is expanded, and
    one with p > n_max creates more particles than the cap holds."""
    return kern.q <= kern.p <= basis.n_max and bool(np.any(kern.coeffs))


def _triangle_ranges(basis: FockBasis, kern: WickKernel):
    """Yield what a p >= q kernel adds to T and the diagonal, unweighted, as
    (key, val) blocks keyed col * dim + row of T: a first empty block carrying the
    dtype, then one block per range of COLUMN_BLOCK columns of T, as far as any
    has entries.

    A balanced kernel's blocks are its own `_wick_blocks`, with row <= col.  A
    p > q kernel's entries lie below the diagonal, so T gets each conjugated at
    the transposed place: its Wick matrix is converted to CSR once, and row r of
    it is column r of T."""
    if kern.p == kern.q:
        yield from _wick_blocks(basis, kern, upper=True)
        return
    dim, w = basis.dim, wick_operator(basis, kern).matrix
    yield np.zeros(0, dtype=np.int64), np.zeros(0, dtype=w.dtype)
    for start in range(0, dim, COLUMN_BLOCK):
        stop = min(start + COLUMN_BLOCK, dim)
        cols = np.repeat(np.arange(start, stop), np.diff(w.indptr[start : stop + 1]))
        lo, hi = w.indptr[start], w.indptr[stop]
        yield cols * dim + w.indices[lo:hi], w.data[lo:hi].conj()


def _check_adjoint_closed(balanced: list):
    """ContractError unless the weighted tensors of balanced (weight, folded
    kernel) terms, summed per label tuple, are adjoint-closed to 1e-12 relative."""
    sums = {}
    for w, kern in balanced:
        sums[kern.species] = sums.get(kern.species, 0) + w * kern.coeffs
    scale = max((np.max(np.abs(c)) for c in sums.values()), default=0.0)
    for labels, c in sums.items():
        adj = WickKernel(p=len(labels) // 2, q=len(labels) // 2, species=labels, coeffs=c).adjoint()
        if np.max(np.abs(sums.get(adj.species, 0) - adj.coeffs)) > 1e-12 * scale:
            raise ContractError(f"balanced kernels labelled {labels} are not closed under adjoints")


def hermitian_parts(basis: FockBasis, terms: Sequence[tuple[float, WickKernel]]) -> tuple[sp.csc_matrix, np.ndarray]:
    """(T, d): the strictly upper triangle, in CSC form, and the real diagonal of
    the sum of w K over (w, K) terms, real weights on an adjoint-closed kernel
    list, from one column-synchronous stream.

    Every kernel that is `streamed` is folded once (`WickKernel.fold`, no copy
    when it is folded already) and gives its `_triangle_ranges`, and all of
    them advance together over the same ranges of COLUMN_BLOCK columns of T.
    Each range's weighted blocks are summed in list order (`_summed`); its
    diagonal entries go to d and the rest are appended to T's CSC arrays, which
    grow in place by realloc, so T is never held as pieces beside their joined
    copy.  No kernel's entries are held whole, apart from a p > q
    kernel's Wick matrix, and nothing is sorted beyond one range.  p > q kernels
    raise the particle number, so their entries lie below the diagonal of the
    number-ordered basis and enter T transposed and conjugated; p < q kernels
    (their adjoints) and all-zero ones are not expanded.  Balanced (p = q) ones
    give only their row <= column entries: their creator legs skip every slot
    below the lowest annihilated slot, which is exact because such a term lies
    strictly below the diagonal (module docstring).  Their weighted folded
    tensors, summed per label tuple, must therefore be adjoint-closed to 1e-12
    relative (else ContractError); the sums are dropped before the stream.  A
    weight scales the expanded entries, never the coefficients; the terms on
    one entry are summed in list order.
    """
    terms = [(w, k.fold()) for w, k in terms if streamed(basis, k)]
    _check_adjoint_closed([(w, k) for w, k in terms if k.p == k.q])
    dim = basis.dim
    streams = [(w, _triangle_ranges(basis, k)) for w, k in terms]
    dtype = np.result_type(np.float64, *(next(ranges)[1] for _, ranges in streams))
    empty = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=dtype)
    rows, vals, size = np.zeros(0, dtype=np.int32), np.zeros(0, dtype=dtype), 0
    indptr, d = np.zeros(dim + 1, dtype=np.int64), np.zeros(dim)
    for start in range(0, dim, COLUMN_BLOCK):
        stop = min(start + COLUMN_BLOCK, dim)
        blocks = [empty]
        for weight, ranges in streams:
            key, val = next(ranges, empty)
            blocks.append((key, val * weight))
        key, val = _summed(blocks)
        col, row = np.divmod(key, dim)
        on_diagonal = row == col
        d[row[on_diagonal]] = val[on_diagonal].real
        off = ~on_diagonal
        end = size + np.count_nonzero(off)
        if end > len(rows):  # realloc: a large buffer is remapped, not copied
            rows.resize(max(end, len(rows) * 5 // 4), refcheck=False)
            vals.resize(len(rows), refcheck=False)
        rows[size:end] = row[off]
        vals[size:end] = val[off]
        indptr[start + 1 : stop + 1] = size + np.cumsum(np.bincount(col[off] - start, minlength=stop - start))
        size = end
    rows.resize(size, refcheck=False)
    vals.resize(size, refcheck=False)
    return sp.csc_matrix((vals, rows, indptr), shape=(dim, dim)), d


def hermitian_operator(basis: FockBasis, kernels: Sequence[WickKernel]) -> HermitianTriangle:
    """The sum of an adjoint-closed kernel list: its `hermitian_parts`, weights 1.0."""
    return HermitianTriangle(*hermitian_parts(basis, [(1.0, kern) for kern in kernels]))


def gauge_kernel(kern: WickKernel) -> WickKernel:
    """The kernel of D^* A D for A the monomial of kern and D = diag(i^{N_2}).

    Each species-2 creator leg gains -i and each species-2 annihilator leg i;
    a leg over all 2M slots gains that factor on its species-2 half.  The
    coefficients are float64 when every gauged one is real.
    """
    coeffs = np.asarray(kern.coeffs, dtype=complex)
    for axis, (s, width) in enumerate(zip(kern.species, coeffs.shape)):
        if s == 1:
            continue
        phase = np.ones(width, dtype=complex)
        phase[width // 2 if s is None else 0 :] = -1j if axis < kern.p else 1j
        coeffs = coeffs * phase.reshape((width,) + (1,) * (coeffs.ndim - axis - 1))
    return WickKernel(p=kern.p, q=kern.q, species=kern.species, coeffs=real_if_exact(coeffs))


def fock_embedding(coarse: FockBasis, fine: FockBasis) -> sp.csr_matrix:
    """Isometry carrying coarse occupations onto the same-momentum fine modes.

    Shape (fine.dim, coarse.dim); columns are distinct basis vectors, so the
    transpose is a left inverse.  Requires nested lattices (`build_nested`)
    and equal particle caps.
    """
    injection = build_nested(coarse.lattice, fine.lattice)
    if coarse.n_max != fine.n_max:
        raise ParameterError("nested bases must share the particle cap")
    slot_map = np.concatenate([injection, injection + fine.n_modes])
    occ = np.zeros((coarse.dim, fine.n_slots), dtype=np.uint8)
    occ[:, slot_map] = coarse.occ
    return sp.coo_matrix(
        (np.ones(coarse.dim), (fine.rank(occ), np.arange(coarse.dim))), shape=(fine.dim, coarse.dim)
    ).tocsr()
