"""Local measurement statistics, classical mutual information with
optimization over local POVMs, and default informationally complete POVMs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optim import (
    BoundedValue,
    OptimizerConfig,
    check_param_cap,
    minimize_penalized,
    pack_complex,
    psd_factor,
    unpack_complex,
)
from .qcore import (
    PAULI,
    DensityOperator,
    ValidationError,
    a_first_mat,
    expand_mat,
    mutual_information,
    partial_trace_mat,
    shannon_entropy,
)

EFFECT_PSD_TOL = 1e-9
COMPLETENESS_TOL = 1e-9
# PovmParam adds POVM_REG * I to S and floors S's eigenvalues there.
POVM_REG = 1e-12


@dataclass(frozen=True)
class Povm:
    """A list of PSD effects on one subsystem summing to the identity."""

    effects: tuple

    def __post_init__(self):
        effs = tuple(np.asarray(e, dtype=complex) for e in self.effects)
        object.__setattr__(self, "effects", effs)
        if not effs:
            raise ValidationError("POVM must have at least one effect")
        d = effs[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, e in enumerate(effs):
            if e.shape != (d, d):
                raise ValidationError(f"effect {i} has shape {e.shape}, expected ({d},{d})")
            lam = np.linalg.eigvalsh((e + e.conj().T) / 2)
            if lam[0] < -EFFECT_PSD_TOL:
                raise ValidationError(f"effect {i} not PSD (min eigenvalue {lam[0]:.3e})")
            total += e
        if np.abs(total - np.eye(d)).max() > COMPLETENESS_TOL:
            raise ValidationError("effects do not sum to the identity")

    @property
    def dim(self):
        return self.effects[0].shape[0]

    def __len__(self):
        return len(self.effects)

    def gram_rank(self, tol=1e-8):
        """Rank of the Gram matrix Tr[E_i† E_j]; equals dim² iff the POVM is
        informationally complete."""
        g = np.array([[np.vdot(a, b) for b in self.effects] for a in self.effects])
        s = np.linalg.svd(g, compute_uv=False)
        return int((s > tol * s[0]).sum())


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome probabilities p[i, j] of local measurements."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.min() < -1e-12:
            raise ValidationError(f"negative probability {p.min():.3e}")
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValidationError(f"probabilities sum to {p.sum()!r}")
        object.__setattr__(self, "p", p)


def local_statistics(x, effs_a, effs_b):
    """p_ij = Tr[(M_i x N_j) X] for an operator X with its A factors first
    (a_first_mat), together with the Tr_B[(I x N_j) X] it is taken from;
    no M_i x N_j is formed.  effs_a and effs_b are (k, d, d) effect stacks;
    stacks of them (..., k, d, d), or of X, give one table per set or X."""
    da, db = effs_a.shape[-1], effs_b.shape[-1]
    rt_b = np.einsum("...jbc,...acdb->...jad", effs_b, x.reshape(x.shape[:-2] + (da, db) * 2))
    p = np.einsum("...iab,...jba->...ij", effs_a, rt_b).real
    return p, rt_b


def measure_statistics(rho: DensityOperator, m: Povm, n: Povm) -> JointDistribution:
    """Outcome distribution p_ij = Tr[(M_i x N_j) rho] for local POVMs, M on
    the A side and N on the B side."""
    rho_ab, da, db = a_first_mat(rho)
    if m.dim != da or n.dim != db:
        raise ValidationError(
            f"POVM dims ({m.dim},{n.dim}) do not match sides ({da},{db})")
    return JointDistribution(local_statistics(rho_ab, np.array(m.effects),
                                              np.array(n.effects))[0])


def classical_mi_fixed(dist: JointDistribution) -> float:
    """Classical mutual information of a joint distribution, in bits."""
    p = dist.p
    return shannon_entropy(p.sum(1)) + shannon_entropy(p.sum(0)) - shannon_entropy(p.ravel())


def _tetrahedral_sic():
    """Qubit SIC: effects (I + v.sigma)/4 for tetrahedron vertices v."""
    verts = [
        (1, 1, 1),
        (1, -1, -1),
        (-1, 1, -1),
        (-1, -1, 1),
    ]
    sx, sy, sz = PAULI
    effs = []
    for v in verts:
        vv = np.array(v) / np.sqrt(3)
        effs.append((np.eye(2) + vv[0] * sx + vv[1] * sy + vv[2] * sz) / 4)
    return Povm(tuple(effs))


def default_ic_povm(dim: int) -> Povm:
    """An informationally complete POVM with dim² rank-1 effects.

    dim 2 gives the tetrahedral SIC.  Higher dims use the d basis projectors
    plus pairwise real and imaginary superposition projectors, renormalized
    through the inverse square root of their sum; only the Gram-rank
    contract matters, not the particular construction.
    """
    if dim < 2:
        raise ValidationError(f"POVM dimension must be >= 2, got {dim}")
    if dim == 2:
        return _tetrahedral_sic()
    ops = []
    eye = np.eye(dim, dtype=complex)
    for k in range(dim):
        ops.append(np.outer(eye[k], eye[k].conj()))
    for j in range(dim):
        for k in range(j + 1, dim):
            for phase in (1.0, 1j):
                v = (eye[j] + phase * eye[k]) / np.sqrt(2)
                ops.append(np.outer(v, v.conj()))
    total = sum(ops)
    lam, u = np.linalg.eigh(total)
    inv_sqrt = (u / np.sqrt(lam)) @ u.conj().T
    return Povm(tuple(inv_sqrt @ o @ inv_sqrt for o in ops))


class PovmParam:
    """Unconstrained parameterization E_i = (A (x) I) G_i† G_i (A (x) I) of k
    operators on C^dim (x) C^ext, with A = S^{-1/2}.

    S = sum_i Tr_ext G_i† G_i (+ POVM_REG I), so the E_i are PSD and their
    Tr_ext sum to I by construction: a POVM at ext = 1.  The exact gradient
    chain through S^{-1/2} uses the Sylvester-kernel trick in the eigenbasis
    of S^{1/2}.  effects and grad_x also take a stack of vectors (..., n_params).
    """

    def __init__(self, dim, n_outcomes, ext=1):
        self.dim = int(dim)
        self.k = int(n_outcomes)
        self.dims = (self.dim, int(ext))
        de = self.dim * self.dims[1]
        self.shape = (self.k, de, de)
        self.n_params = 2 * self.k * de * de

    def effects(self, x):
        g = unpack_complex(x, self.shape)
        ks = g.conj().swapaxes(-1, -2) @ g  # K_i = G_i† G_i
        s = partial_trace_mat(ks.sum(-3), self.dims, (0,)) + POVM_REG * np.eye(self.dim)
        lam, u = np.linalg.eigh(s)
        lam = np.clip(lam, POVM_REG, None)
        a = (u * lam[..., None, :] ** -0.5) @ u.conj().swapaxes(-1, -2)  # S^{-1/2}
        ax = expand_mat(a, self.dims, (0,))[..., None, :, :]  # against every effect
        effs = ax @ ks @ ax
        cache = (g, ks, a, ax, np.sqrt(lam), u)
        return effs, cache

    def grad_x(self, f_effs, cache):
        """Pull back d f = sum_i Tr[F_i d E_i] to the parameter vector."""
        g, ks, a, ax, beta, u = cache
        # collect the dA terms: Q = sum_i Tr_ext(K_i (A x I) F_i + F_i (A x I) K_i)
        q = partial_trace_mat((ks @ ax @ f_effs + f_effs @ ax @ ks).sum(-3), self.dims, (0,))
        # dA = -A dB A with B = S^{1/2}; dB solves B dB + dB B = dS, which in
        # the eigenbasis of B is elementwise division by beta_i + beta_j.
        uh = u.conj().swapaxes(-1, -2)
        yt = uh @ (-a @ q @ a) @ u
        denom = beta[..., :, None] + beta[..., None, :]
        z = u @ (yt / denom) @ uh
        # Coefficient of dK_i: C_i = (A x I) F_i (A x I) + Z x I.
        c = ax @ f_effs @ ax + expand_mat(z, self.dims, (0,))[..., None, :, :]
        c = (c + c.conj().swapaxes(-1, -2)) / 2
        return pack_complex(2.0 * g @ c, self.shape)

    def init_from_effects(self, effs):
        """x whose effects are effs, PSD matrices whose Tr_ext sum to I.
        More than k of them have their surplus folded into the k-th, so that
        they still sum to I; fewer are padded with near-zero effects."""
        effs = list(effs)
        if len(effs) > self.k:
            effs[self.k - 1:] = [sum(effs[self.k - 1:])]
        g = np.array([psd_factor(e).conj().T for e in effs])
        if g.shape[0] < self.k:
            g = np.concatenate([g, 1e-6 * np.ones((self.k - g.shape[0],) + self.shape[1:])])
        return pack_complex(g, self.shape)


def _classical_mi_and_grads(rho_ab, effs_a, effs_b):
    """I(p_ij) plus gradients with respect to each local effect; rho_ab has
    its A factors first (a_first_mat).  Stacks of effect sets (..., k, d, d)
    give one value and one pair of gradients per set."""
    da, db = effs_a.shape[-1], effs_b.shape[-1]
    # p_ij with Tr_B[(I x N_j) rho], and Tr_A[(M_i x I) rho] likewise.
    p, rt_b = local_statistics(rho_ab, effs_a, effs_b)
    rt_a = np.einsum("...iac,cbad->...ibd", effs_a, rho_ab.reshape(da, db, da, db))
    p = np.clip(p, 1e-15, None)
    pa = p.sum(-1)
    pb = p.sum(-2)
    log_ratio = np.log2(p) - np.log2(pa)[..., :, None] - np.log2(pb)[..., None, :]
    val = (p * log_ratio).sum((-2, -1))
    # rt_b[j] and rt_a[i] are Hermitian, so they serve directly as the
    # effect-space gradients d p_ij = Tr[dE_i rt_b[j]] etc.
    grad_a = np.einsum("...ij,...jab->...iab", log_ratio, rt_b)
    grad_b = np.einsum("...ij,...iab->...jab", log_ratio, rt_a)
    return val, grad_a, grad_b


def classical_mi_max(rho: DensityOperator, outcomes_per_side: int,
                     cfg: OptimizerConfig) -> BoundedValue:
    """Lower bound on the measured (classical) mutual information I_C.

    Maximizes I(p_ij) over local POVMs by multi-start gradient ascent on the
    unconstrained parameterization; local search can only underestimate the
    true maximum, hence direction 'lower'.  Raises ValidationError for
    fewer than 1 outcome per side, and DimensionCapError when the two POVMs'
    2 k (dA² + dB²) parameters exceed those of the largest joint solve
    BQ_MAX_DIM admits.
    """
    rho_ab, da, db = a_first_mat(rho)
    k = outcomes_per_side
    if k < 1:
        raise ValidationError(f"outcomes per side is {k}; a POVM needs at least 1 outcome")
    pa = PovmParam(da, k)
    pb = PovmParam(db, k)
    check_param_cap(pa.n_params + pb.n_params,
                    f"classical_mi_max with {k} outcomes on {da} x {db}")

    def split(x):
        return x[..., :pa.n_params], x[..., pa.n_params:]

    def neg_fun(x):
        xa, xb = split(x)
        ea, ca = pa.effects(xa)
        eb, cb = pb.effects(xb)
        val, ga, gb = _classical_mi_and_grads(rho_ab, ea, eb)
        grad = np.concatenate([pa.grad_x(ga, ca), pb.grad_x(gb, cb)], axis=-1)
        return -val, -grad

    init = np.concatenate([pa.init_from_effects(default_ic_povm(da).effects),
                           pb.init_from_effects(default_ic_povm(db).effects)])
    opt = minimize_penalized(neg_fun, [], pa.n_params + pb.n_params, cfg, inits=[init])
    value = -opt.value
    mi_q = mutual_information(rho)
    diag = opt.summary()
    xa, xb = split(opt.argmin)
    ea, _ = pa.effects(xa)
    eb, _ = pb.effects(xb)
    bv = BoundedValue(
        value=float(min(value, mi_q)),
        direction="lower",
        method="povm-gradient-ascent",
        residuals={"quantum_mi_slack": float(mi_q - value)},
        diagnostics=diag,
    )
    bv.diagnostics["povm_a"] = Povm(tuple(ea))
    bv.diagnostics["povm_b"] = Povm(tuple(eb))
    return bv

