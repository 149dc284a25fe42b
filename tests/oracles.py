"""Independent reference constructions used to pin expected values.

Everything here recomputes quantities from first principles along a different
route than the library (explicit ladder-matrix products, tensor products,
Hermite recursions against matrix powers), so tests compare two independent
derivations rather than a function against itself.
"""

import itertools

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from chargedphi2.errors import ParameterError
from chargedphi2.fock import WickKernel, fock_embedding, hermitian_operator, wick_operator
from chargedphi2.hamiltonian import split_kernel
from chargedphi2.linalg import operator_norm
from chargedphi2.oneparticle import b_matrix
from chargedphi2.potentials import Potential


def _unit_kernel(basis, species, gamma, create):
    coeffs = np.zeros(basis.n_modes, dtype=complex)
    coeffs[basis.mode_index(gamma)] = 1.0
    return WickKernel(p=int(create), q=int(not create), species=(species,), coeffs=coeffs)


def creation(basis, species, gamma):
    """Bosonic creator at the given momentum; kills the top sector."""
    return wick_operator(basis, _unit_kernel(basis, species, gamma, create=True))


def annihilation(basis, species, gamma):
    """Bosonic annihilator at the given momentum."""
    return wick_operator(basis, _unit_kernel(basis, species, gamma, create=False))


def annihilator_of(basis, f):
    """a(f) = sum_s conj(f_s) a_s over all 2M slots (antilinear in f)."""
    coeffs = np.conj(np.asarray(f, dtype=complex))
    return wick_operator(basis, WickKernel(p=0, q=1, species=(None,), coeffs=coeffs))


def ntau_check(basis, f, bmult):
    """Evaluate both sides of the annihilator bound against a weighted number.

    Returns (|| a(f) (dGamma(b) + 1)^{-1/2} ||, || b^{-1/2} f ||); the first
    never exceeds the second for positive slot weights b.
    """
    bmult = np.asarray(bmult, dtype=float)
    if bmult.shape != (basis.n_slots,) or np.any(bmult <= 0):
        raise ParameterError("weights must be positive over all slots")
    f = np.asarray(f, dtype=complex)
    a_f = annihilator_of(basis, f)
    diag = basis.occ @ bmult
    lhs = operator_norm(a_f.matrix @ sp.diags(1.0 / np.sqrt(diag + 1.0)))
    rhs = float(np.linalg.norm(f / np.sqrt(bmult)))
    return lhs, rhs


def monomial_kernels(a1, a2, coeff, g, lattice):
    """Every split's `hamiltonian.split_kernel` of one monomial, p1 then p2
    ascending, the ones g_hat kills left out; the stream builds only some."""
    return [k for p1 in range(a1 + 1) for p2 in range(a2 + 1)
            if (k := split_kernel(a1, a2, p1, p2, coeff, g, lattice)) is not None]


def enumerated_occupations(n_slots, n_max):
    """Every occupation of n_slots slots with total <= n_max, number-major then
    lex: one level per total r of the trailing slots, each grown by prepending a
    slot at a time, which keeps every level lex ordered."""
    level = [np.zeros((int(r == 0), 0), dtype=np.uint8) for r in range(n_max + 1)]
    for _ in range(n_slots):
        level = [
            np.concatenate([np.hstack([np.full((len(rest), 1), x, dtype=np.uint8), rest])
                            for x, rest in enumerate(level[r::-1])])
            for r in range(n_max + 1)
        ]
    return np.concatenate(level)


def interaction_kernels(spec, lattice):
    """Every split's kernel of every monomial of the polynomial, in order."""
    return [k for a1, a2, coeff in spec.monomials if coeff != 0.0
            for k in monomial_kernels(a1, a2, coeff, spec.g, lattice)]


def two_particle_tensor(h, state_pairs):
    """Matrix of h (x) 1 + 1 (x) h between symmetrized two-particle vectors.

    state_pairs is a list of slot pairs (i, j) with i <= j; returns the
    Hermitian matrix of the two-body free sum in that symmetrized basis.
    """
    n = h.shape[0]
    dim = len(state_pairs)

    def sym_vec(i, j):
        v = np.zeros((n, n), dtype=complex)
        if i == j:
            v[i, j] = 1.0
        else:
            v[i, j] = v[j, i] = 1.0 / np.sqrt(2.0)
        return v.ravel()

    big = np.kron(h, np.eye(n)) + np.kron(np.eye(n), h)
    vecs = np.column_stack([sym_vec(i, j) for i, j in state_pairs])
    return vecs.conj().T @ big @ vecs


def hermite_wick_power(phi_mat, n, c):
    """Normal-ordered power of a field matrix via the variance-c Hermite rule.

    :phi^n: equals He_n(phi; c) with c the vacuum variance of phi; valid on
    matrix columns whose particle number stays clear of the truncation cap.
    """
    dim = phi_mat.shape[0]
    eye = sp.identity(dim, dtype=complex, format="csr")
    if n == 0:
        return eye
    if n == 1:
        return phi_mat
    if n == 2:
        return phi_mat @ phi_mat - c * eye
    if n == 3:
        return phi_mat @ phi_mat @ phi_mat - 3 * c * phi_mat
    if n == 4:
        sq = phi_mat @ phi_mat
        return sq @ sq - 6 * c * sq + 3 * c * c * eye
    raise NotImplementedError("oracle covers powers up to 4")


def smeared_interaction(basis, lattice, monomials, g, x_nodes, weights):
    """Interaction assembled from explicit field matrices at quadrature nodes.

    Independent of the kernel route: builds phi_i(x) as Segal fields
    (a*(f) + a(f)) / sqrt(2) of the momentum coefficients f at each node,
    normal-orders through the Hermite rule, and integrates g(x) by quadrature.
    """
    dim = basis.dim
    eps = lattice.dispersion()
    out = sp.csr_matrix((dim, dim), dtype=complex)
    for x, w in zip(x_nodes, weights):
        gw = g.V(x) * w
        if gw == 0.0:
            continue
        f = np.exp(-1j * lattice.modes * x) / np.sqrt(2 * np.pi * float(lattice.v) * eps)
        c = float(np.linalg.norm(f) ** 2) / 2.0
        phi1, phi2 = (hermitian_operator(basis, [WickKernel(p=1, q=0, species=(s,), coeffs=f / np.sqrt(2.0))]).matrix
                      for s in (1, 2))
        acc = sp.csr_matrix((dim, dim), dtype=complex)
        for a1, a2, coeff in monomials:
            acc = acc + coeff * (hermite_wick_power(phi1, a1, c) @ hermite_wick_power(phi2, a2, c))
        out = out + gw * acc
    return out


def compress(fine_mat, fine_basis, coarse_basis):
    """Compress a matrix on the fine-lattice Fock basis onto the coarse basis.

    Uses the occupation-transport isometry E (coarse modes keep their momentum
    value on the fine lattice): compress = E^H . fine_mat . E.  The free
    Hamiltonian compresses exactly; quadrature-weighted kernels compress to
    the coarse assembly up to the documented 1/v re-weighting.
    """
    emb = fock_embedding(coarse_basis, fine_basis)
    return (emb.T.conj() @ fine_mat @ emb).tocsr()


def smeared_field_coefficients(g_hat, lattice):
    """Mode coefficients of the point field smeared against a real profile g.

    f_gamma = g_hat(gamma) / sqrt(2 pi v eps(gamma)); the smeared field is the
    Segal field (a*(f) + a(f)) / sqrt(2) of these coefficients, the
    `hermitian_operator` of the single creator kernel f / sqrt(2).
    """
    eps = lattice.dispersion()
    return np.asarray(g_hat(lattice.modes), dtype=complex) / np.sqrt(
        2 * np.pi * float(lattice.v) * eps
    )


def safe_columns(basis, margin):
    """Indices of basis states whose total occupation is at most n_max - margin."""
    return np.flatnonzero(basis.totals() <= basis.n_max - margin)


def dense_wick(basis, kern):
    """Dense normal-ordered monomial as an explicit product of ladder matrices.

    Each a*_s and a_s is built state by state through a tuple lookup (creation
    out of the top sector has no target and gives zero), and the monomial
    a*_k1 ... a*_kp a_l1 ... a_lq is multiplied out and summed over every mode
    tuple with its coefficient.
    """
    states = [tuple(row) for row in basis.occ.tolist()]
    where = {s: i for i, s in enumerate(states)}

    def ladder(slot, step):
        out = np.zeros((basis.dim, basis.dim))
        for c, s in enumerate(states):
            t = list(s)
            t[slot] += step
            j = where.get(tuple(t))
            if j is not None:
                out[j, c] = np.sqrt(max(s[slot], t[slot]))
        return out

    m = basis.n_modes
    cre = [ladder(s, 1) for s in range(basis.n_slots)]
    ann = [ladder(s, -1) for s in range(basis.n_slots)]
    coeffs = np.asarray(kern.coeffs, dtype=complex)
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for modes in itertools.product(range(m), repeat=kern.p + kern.q):
        mat = np.eye(basis.dim)
        for leg, k in enumerate(modes):
            slot = (kern.species[leg] - 1) * m + k
            mat = mat @ (cre[slot] if leg < kern.p else ann[slot])
        out += coeffs[modes] * mat
    return out


def triangle_entries(basis, kern):
    """(key, val) of what one p >= q kernel adds to the upper triangle T and the
    diagonal, by the conversion the one stream replaces: the whole Wick matrix,
    then sp.triu of it for p = q and its conjugate transpose for p > q.  Keys are
    col * dim + row of T, ascending."""
    w = wick_operator(basis, kern).matrix
    t = (w.getH() if kern.p > kern.q else sp.triu(w)).tocsc()
    cols = np.repeat(np.arange(basis.dim, dtype=np.int64), np.diff(t.indptr))
    return cols * basis.dim + t.indices, t.data


def sorted_hermitian_parts(basis, terms):
    """(T, d) of `fock.hermitian_parts` by the global sort the column-synchronous
    stream replaces: every expanded kernel's `triangle_entries`, weighted, are
    concatenated in list order, stably sorted by key once, and each key's terms
    summed (np.add.reduceat) with zero sums dropped.  T is CSC."""
    dim = basis.dim
    blocks = [(np.zeros(0, dtype=np.int64), np.zeros(0))]
    for weight, kern in terms:
        if kern.q <= kern.p and np.any(kern.coeffs):
            key, val = triangle_entries(basis, kern)
            blocks.append((key, val * weight))
    key, val = (np.concatenate(part) for part in zip(*blocks))
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    key, val = key[first], np.add.reduceat(val, first)
    key, val = key[val != 0], val[val != 0]
    on_diagonal = key % (dim + 1) == 0
    d = np.zeros(dim)
    d[key[on_diagonal] // (dim + 1)] = val[on_diagonal].real
    key, val = key[~on_diagonal], val[~on_diagonal]
    indptr = np.r_[0, np.cumsum(np.bincount(key // dim, minlength=dim))]
    return sp.csc_matrix((val, key % dim, indptr), shape=(dim, dim)), d


def summed_mirror(t, d):
    """T^H + diag(d) + T by two scipy sparse sums from T's CSR conversion."""
    t = sp.csr_matrix(t)
    return t.getH().tocsr() + sp.diags(d, format="csr") + t


def raise_table_frame(bundle, psi0):
    """Orthonormal frame for span{a*_s psi0}, the ground state plus one particle:
    each a*_s psi0 read off the basis's raise table (sqrt(n_s) psi0[i] at state
    up[i, s], n_s counting the raised state; the top sector has no image) as a
    full column, normalized where nonzero, then orthonormalized by QR."""
    basis = bundle.basis
    up = basis.raise_table
    cols = []
    for s in range(basis.n_slots):
        vec = np.zeros_like(psi0)
        vec[up[:, s]] = np.sqrt(basis.occ[up[:, s], s].astype(float)) * psi0[: len(up)]
        nrm = np.linalg.norm(vec)
        if nrm > 1e-12:
            cols.append(vec / nrm)
    if not cols:
        return np.zeros((basis.dim, 0), dtype=psi0.dtype)
    q, _ = np.linalg.qr(np.column_stack(cols))
    return q


def creation_frame(bundle, psi0):
    """The hvz frame from the 2M creation matrices: a*_s psi0 for every slot,
    normalized where nonzero, then orthonormalized by the same QR."""
    basis = bundle.basis
    cols = []
    for species in (1, 2):
        for gamma in basis.lattice.modes:
            vec = creation(basis, species, gamma).matrix @ psi0
            nrm = np.linalg.norm(vec)
            if nrm > 1e-12:
                cols.append(vec / nrm)
    q, _ = np.linalg.qr(np.column_stack(cols))
    return q


def symmetrized(kern):
    """The kernel averaged over every leg permutation that keeps each leg on its
    side (creator or annihilator) and its species label; the operator is the same."""

    def perms(labels):
        return [perm for perm in itertools.permutations(range(len(labels)))
                if all(labels[k] == labels[i] for i, k in enumerate(perm))]

    pairs = list(itertools.product(perms(kern.species[: kern.p]), perms(kern.species[kern.p :])))
    coeffs = sum(np.transpose(kern.coeffs, list(pc) + [kern.p + a for a in pa]) for pc, pa in pairs)
    return WickKernel(p=kern.p, q=kern.q, species=kern.species, coeffs=coeffs / len(pairs))


def dense_resolvent_gap(coarse, fine, emb, beta):
    """||(Hc + beta)^-1 - E^H (Hf + beta)^-1 E||_2 from explicit inverses and SVD."""
    rc = np.linalg.inv(coarse.h.matrix.toarray() + beta * np.eye(coarse.basis.dim))
    rf = np.linalg.inv(fine.h.matrix.toarray() + beta * np.eye(fine.basis.dim))
    e = emb.toarray()
    return float(np.linalg.norm(rc - e.conj().T @ rf @ e, 2))


def lab_frame_phases(basis):
    """i^{N_2} per basis state, each an exact power of 1j from the occupations."""
    return np.array([1j ** int(n2) for n2 in basis.occ[:, basis.n_modes :].sum(axis=1)])


def lab_omega(lam, pot, lat):
    """The dressed one-particle energy [[eps, lam b], [lam b^H, eps]] in the lab
    frame, laid out block by block from `b_matrix` and the dispersion."""
    eps = np.diag(lat.dispersion()).astype(complex)
    b = lam * b_matrix(pot, lat)
    return np.block([[eps, b], [b.conj().T, eps]])


def shifted_gaussian(shift):
    """exp(-(x - shift)^2 / 2): real and not even, so its transform is complex."""

    def v_hat(k):
        k = np.asarray(k, dtype=float)
        return np.sqrt(2 * np.pi) * np.exp(-1j * k * shift - k**2 / 2)

    return Potential(label=f"shifted({shift:g})", V=lambda x: np.exp(-((np.asarray(x, float) - shift) ** 2) / 2),
                     V_hat=v_hat)


def dense_probe(bundle, f, times, psi):
    """Heisenberg probe values in the lab frame from the full eigendecomposition.

    bundle.h and psi are in the gauge frame; they are taken back to the lab
    frame as D H D^* and D psi with D = diag(i^{N_2}), so the field of F_t is
    the plain lab-frame one.  psi is evolved through every eigenpair of H, and
    F_t = expm(-it omega) F by the dense matrix exponential.
    """
    d = lab_frame_phases(bundle.basis)
    he, hv = np.linalg.eigh(d[:, None] * bundle.h.matrix.toarray() * d.conj())
    coords = hv.conj().T @ (d * psi)
    omega = lab_omega(bundle.lam, bundle.pot, bundle.lattice)
    out = []
    for t in times:
        psi_t = hv @ (np.exp(-1j * t * he) * coords)
        f_t = sla.expm(-1j * t * omega) @ f
        field = hermitian_operator(bundle.basis, [WickKernel(p=1, q=0, species=(None,), coeffs=f_t / np.sqrt(2.0))])
        out.append(np.vdot(psi_t, field.matrix @ psi_t))
    return np.array(out)


def generator_blocks(grid):
    """The generator of the classical flow written out block by block.

    In the order (pi_1, pi_2, phi_1, phi_2): d pi = -e2 phi + V-mixing and
    d phi = pi + V-mixing, with e2 the Fourier multiplier k^2 + m^2 on the
    grid and V the diagonal of the potential samples.
    """
    g = grid.points
    k = grid.fft_momenta()
    e2 = np.real(np.fft.ifft((k**2 + grid.m**2)[:, None] * np.fft.fft(np.eye(g), axis=0), axis=0))
    eye, o = np.eye(g), np.zeros((g, g))
    vd = np.diag(grid.v_samples)
    return np.block(
        [
            [o, vd, -e2, o],
            [-vd, o, o, -e2],
            [eye, o, o, vd],
            [o, eye, -vd, o],
        ]
    )


def symplectic_gram(grid):
    """Real symplectic Gram: Re omega(y, y') = sum_i (pi_i|phi_i') - (phi_i|pi_i')."""
    eye, o = np.eye(2 * grid.points), np.zeros((2 * grid.points, 2 * grid.points))
    return grid.dx * np.block([[o, eye], [-eye, o]])


def free_j0(grid):
    """The canonical free complex structure (pi, phi) -> (-eps phi, eps^-1 pi) per
    species, written out as a 4G x 4G matrix block by block."""
    g = grid.points
    eps = np.sqrt(grid.fft_momenta() ** 2 + grid.m**2)
    eye, o = np.eye(g), np.zeros((g, g))
    e, e_inv = (np.real(np.fft.ifft(f[:, None] * np.fft.fft(eye, axis=0), axis=0)) for f in (eps, 1.0 / eps))
    return np.block([[o, o, -e, o], [o, o, o, -e], [e_inv, o, o, o], [o, e_inv, o, o]])


def free_dyn_gram(grid):
    """Hermitian Gram Omega j0 + i Omega of the free dynamical inner product."""
    omega = symplectic_gram(grid)
    return omega @ free_j0(grid) + 1j * omega


def full_polar_decompose(gen):
    """Metric polar decomposition a = j h on the full 4G x 4G matrices.

    The Cholesky congruence and eigendecomposition of the metric-symmetric
    -a^2 run over the whole phase space, with no use of its charge sectors.
    Returns (j, h_v, h_spectrum, dyn_gram) with dyn_gram = Omega j + i Omega,
    the Hermitian Gram of the dynamical inner product.
    """
    a, metric = gen.matrix, gen.metric
    lo = sla.cholesky(metric, lower=True)
    s = metric @ (-(a @ a))
    s = 0.5 * (s + s.T)
    tmp = sla.solve_triangular(lo, s, lower=True)
    b = sla.solve_triangular(lo, tmp.T, lower=True).T
    w, q = np.linalg.eigh(0.5 * (b + b.T))
    sqrt_w = np.sqrt(w)
    lt = lo.T
    h_v = sla.solve_triangular(lt, q @ (sqrt_w[:, None] * q.T) @ lt, lower=False)
    h_inv = sla.solve_triangular(lt, q @ ((1.0 / sqrt_w)[:, None] * q.T) @ lt, lower=False)
    j = a @ h_inv
    omega = symplectic_gram(gen.grid)
    return j, h_v, np.sort(sqrt_w), omega @ j + 1j * omega


def weyl_quantize_loop(symbol, grid):
    """Midpoint Weyl matrix column by column, with the phase exp(i (x_i - x_j) k_l)
    and the symbol at (x_i + x_j)/2 evaluated afresh for every column."""
    x, k = grid.x, grid.k
    n = grid.size
    out = np.empty((n, n), dtype=complex)
    pref = grid.dk * grid.dx / (2 * np.pi)
    for j in range(n):
        mid = 0.5 * (x + x[j])
        vals = np.asarray(symbol(mid[:, None], k[None, :]), dtype=complex)
        phase = np.exp(1j * (x - x[j])[:, None] * k[None, :])
        out[:, j] = pref * (phase * vals).sum(axis=1)
    return out


def scaled(pot, t):
    """Pointwise rescaling t*V (transform scales linearly)."""
    return Potential(
        label=f"{pot.label}*{t:g}",
        V=lambda x, _f=pot.V: t * np.asarray(_f(x)),
        V_hat=lambda k, _f=pot.V_hat: t * np.asarray(_f(k)),
    )


def sampled_potential(x_samples, v_samples, label="sampled"):
    """Potential from equispaced real samples; transform via an FFT table.

    The transform is tabulated at the FFT dual frequencies of the sample grid
    and evaluated elsewhere by linear interpolation of real and imaginary
    parts.  Position values interpolate the samples (zero outside the grid).
    """
    x = np.asarray(x_samples, dtype=float)
    vals = np.asarray(v_samples, dtype=float)
    if x.ndim != 1 or x.shape != vals.shape or x.size < 2:
        raise ParameterError("need matching 1d sample arrays with >= 2 points")
    dx = x[1] - x[0]
    if not np.allclose(np.diff(x), dx):
        raise ParameterError("sample grid must be equispaced")

    # f_hat(k) = dx * sum_j e^{-i k x_j} f(x_j) at the FFT frequencies.
    freqs = 2 * np.pi * np.fft.fftfreq(x.size, d=dx)
    table = dx * np.exp(-1j * freqs * x[0]) * np.fft.fft(vals)
    order = np.argsort(freqs)
    k_tab, f_tab = freqs[order], table[order]

    def v(q):
        return np.interp(np.asarray(q, dtype=float), x, vals, left=0.0, right=0.0)

    def v_hat(k):
        k = np.asarray(k, dtype=float)
        re = np.interp(k, k_tab, f_tab.real, left=0.0, right=0.0)
        im = np.interp(k, k_tab, f_tab.imag, left=0.0, right=0.0)
        return re + 1j * im

    return Potential(label=label, V=v, V_hat=v_hat)
