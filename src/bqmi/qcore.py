"""Dense complex linear algebra and quantum-information primitives.

Everything works on plain numpy arrays plus a :class:`SubsystemLayout` that
records how a big matrix factors into labeled subsystems and which side of
the bipartite cut each factor belongs to.  All entropic quantities are in
bits (log base 2).

partial_trace_mat, partial_transpose_mat, expand_mat and eigh_log2 also
accept stacks of matrices with leading batch axes (..., d, d), and
shannon_entropy a stack of spectra (..., n): slice k of a stacked call
equals the call on slice k.  The solvers evaluate all restarts of a descent
as one stack (optim.minimize_penalized).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

LOG2E = np.log2(np.e)
# The Pauli matrices X, Y, Z.
PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))

# Validation tolerances for density operators.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_NEG_TOL = 1e-9
# Eigenvalues at or below this add 0 to entropies (0 log 0 convention).
ENTROPY_CLAMP = 1e-12
# eigh_log2 takes the logarithm of max(eigenvalue, LOG_CLAMP).
LOG_CLAMP = 1e-14
# The eigenvalues above this span a state's support (support).
SUPPORT_CUTOFF = 1e-12


class ValidationError(ValueError):
    """Raised when a matrix fails a density-operator or POVM contract."""


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered labeled tensor factors with an A/B side assignment.

    factors: tuple of (label, dim) pairs, in tensor-product order.
    sides: mapping label -> 'A' or 'B'.
    """

    factors: tuple
    sides: dict = field(compare=False)

    def __post_init__(self):
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate labels in layout: {labels}")
        for lab, d in self.factors:
            if d < 1:
                raise ValidationError(f"factor {lab!r} has non-positive dim {d}")
        for lab in labels:
            if self.sides.get(lab) not in ("A", "B"):
                raise ValidationError(f"label {lab!r} not assigned to side A or B")

    @property
    def labels(self):
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self):
        return tuple(d for _, d in self.factors)

    @property
    def dim(self):
        return math.prod(self.dims)

    def side_labels(self, side):
        return tuple(lab for lab, _ in self.factors if self.sides[lab] == side)

    def indices(self, labels):
        """Positions of the given labels in factor order."""
        pos = {lab: i for i, (lab, _) in enumerate(self.factors)}
        for lab in labels:
            if lab not in pos:
                raise ValidationError(f"unknown label {lab!r}; layout has {self.labels}")
        return tuple(sorted(pos[lab] for lab in labels))

    def side_dims(self):
        """(dA, dB): the dimensions of the A side and of the B side."""
        da = math.prod(d for lab, d in self.factors if self.sides[lab] == "A")
        return da, self.dim // da


def bipartite_layout(da, db, label_a="A", label_b="B"):
    """Standard two-factor layout A (dim da) tensor B (dim db)."""
    return SubsystemLayout(((label_a, da), (label_b, db)), {label_a: "A", label_b: "B"})


@dataclass(frozen=True)
class DensityOperator:
    """A validated Hermitian PSD unit-trace matrix with a subsystem layout."""

    layout: SubsystemLayout
    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", m)
        d = self.layout.dim
        if m.shape != (d, d):
            raise ValidationError(f"matrix shape {m.shape} does not match layout dim {d}")
        herm = np.abs(m - m.conj().T).max()
        if herm > HERMITICITY_TOL:
            i, j = np.unravel_index(np.argmax(np.abs(m - m.conj().T)), m.shape)
            raise ValidationError(
                f"matrix not Hermitian: deviation {herm:.3e} at entry ({i},{j})")
        tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace is {tr!r}, expected 1")
        lam_min = np.linalg.eigvalsh(m)[0]
        if lam_min < -EIG_NEG_TOL:
            raise ValidationError(f"matrix not PSD: minimum eigenvalue {lam_min:.3e}")

    @property
    def dim(self):
        return self.layout.dim


def tensor(a, b):
    """Kronecker product."""
    return np.kron(np.asarray(a), np.asarray(b))


@functools.lru_cache(maxsize=256)
def _split_axes(dims, keep_idx, nb):
    """How partial_trace_mat and expand_mat regroup a stack with nb batch
    axes on the factors dims: the transpose to the kept factors followed by
    the others, its inverse, the factor dims in that order, and the dims dk
    and dd of the two groups."""
    m = len(dims)
    order = list(keep_idx) + [i for i in range(m) if i not in keep_idx]

    def axes(o):
        return tuple(range(nb)) + tuple(nb + i for i in o) + tuple(nb + m + i for i in o)

    dk = math.prod(dims[i] for i in keep_idx)
    return (axes(order), axes(np.argsort(order).tolist()),
            tuple(dims[i] for i in order) * 2, dk, math.prod(dims) // dk)


def partial_trace_mat(mat, dims, keep_idx):
    """Partial trace of a square matrix over the factors not in keep_idx.

    dims: per-factor dimensions; keep_idx: sorted positions to keep.
    Returns the reduced matrix on the kept factors in original order.
    Accepts a stack (..., d, d) and traces each matrix in it.
    """
    mat = np.asarray(mat)
    batch = mat.shape[:-2]
    dims = tuple(dims)
    to_split, _, _, dk, dd = _split_axes(dims, tuple(keep_idx), len(batch))
    if dd == 1:  # nothing to trace; a copy, so no in-place step reaches mat
        return mat.reshape(batch + (dk, dk)).copy()
    t = mat.reshape(batch + dims * 2).transpose(to_split).reshape(batch + (dk, dd, dk, dd))
    return np.einsum("...ijkj->...ik", t)


def expand_mat(mat, dims, keep_idx):
    """Adjoint of the partial trace: place mat on keep_idx, identity elsewhere.

    Returns a full matrix on all factors in original order.  Accepts a
    stack (..., dk, dk) and expands each matrix in it.
    """
    mat = np.asarray(mat)
    batch = mat.shape[:-2]
    dims = tuple(dims)
    _, from_split, split_dims, dk, dd = _split_axes(dims, tuple(keep_idx), len(batch))
    if dd == 1:  # mat (x) I_1 is mat; a float copy, as below
        return mat.reshape(batch + (dk, dk)) * 1.0
    # mat (x) I_dd as a (..., dk, dd, dk, dd) block, built by broadcasting,
    # laid out as the kept factors then the others; permute back.
    big = mat[..., :, None, :, None] * np.eye(dd)[:, None, :]
    t = big.reshape(batch + split_dims).transpose(from_split)
    return t.reshape(batch + (dk * dd, dk * dd))


def permute_factors(mat, dims, perm):
    """Reorder tensor factors: new factor i is old factor perm[i]."""
    m = len(dims)
    t = np.asarray(mat).reshape(tuple(dims) * 2)
    p = list(perm) + [m + i for i in perm]
    d = math.prod(dims)
    return t.transpose(p).reshape(d, d)


def a_first_mat(rho: DensityOperator):
    """rho's matrix with its A-side factors first and its B-side factors
    after them, each side in layout order, plus the side dims (dA, dB).

    Local operators M (x) N, such as measurement effects, act on this
    matrix whatever order the layout lists the factors in.
    """
    layout = rho.layout
    a = layout.indices(layout.side_labels("A"))
    b = layout.indices(layout.side_labels("B"))
    da, db = layout.side_dims()
    return permute_factors(rho.mat, layout.dims, a + b), da, db


def partial_transpose_mat(mat, dims, axes):
    """Transpose the given tensor factors of a square matrix."""
    mat = np.asarray(mat)
    batch, m = mat.shape[:-2], len(dims)
    t = mat.reshape(batch + tuple(dims) * 2)
    for i in axes:  # factor i's row and column axes, counted from the end
        t = t.swapaxes(i - 2 * m, i - m)
    d = math.prod(dims)
    return t.reshape(batch + (d, d))


def shannon_entropy(p):
    """Shannon entropy -sum p log2 p of a probability vector, in bits.

    The one entropy kernel: von Neumann entropies are Shannon entropies of
    spectra.  Entries at or below ENTROPY_CLAMP are replaced by 1 and stay
    in the sum, adding 1 log 1 = 0 (the 0 log 0 = 0 convention).  A vector
    gives a float; a stack (..., n) gives one entropy per vector, by the
    same code, so slice k of a stack is bit-identical to the call on it.
    """
    p = np.asarray(p, dtype=float)
    terms = np.where(p > ENTROPY_CLAMP, p, 1.0)
    terms *= np.log2(terms)
    s = -terms.sum(-1)
    return float(s) if s.ndim == 0 else s


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr rho log2 rho, in bits.  Accepts a DensityOperator or matrix."""
    m = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho)
    lam = np.linalg.eigvalsh(m)
    if lam[0] < -EIG_NEG_TOL:
        raise ValidationError(f"eigenvalue {lam[0]:.3e} too negative for entropy")
    return shannon_entropy(lam)


def mutual_information(rho: DensityOperator) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) across the layout's bipartition, in bits."""
    a = rho.layout.side_labels("A")
    b = rho.layout.side_labels("B")
    if not a or not b:
        raise ValidationError("layout must have factors on both sides")
    dims = rho.layout.dims
    sa = von_neumann_entropy(partial_trace_mat(rho.mat, dims, rho.layout.indices(a)))
    sb = von_neumann_entropy(partial_trace_mat(rho.mat, dims, rho.layout.indices(b)))
    return sa + sb - von_neumann_entropy(rho)


def trace_distance(rho, sigma) -> float:
    """Trace norm ||rho - sigma||_1 of the difference (range [0, 2] for states)."""
    a = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho)
    b = sigma.mat if isinstance(sigma, DensityOperator) else np.asarray(sigma)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def binary_entropy(x) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x)."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"binary_entropy argument {x!r} outside [0, 1]")
    return shannon_entropy([x, 1 - x])


def eigh_log2(mat):
    """Eigenvalues and log2 of a PSD matrix, from one eigendecomposition.

    Eigenvalues are clamped below at LOG_CLAMP inside the logarithm only; the
    returned eigenvalues are as computed.  Accepts a stack (..., d, d) and
    returns (..., d) eigenvalues and (..., d, d) logarithms.
    """
    lam, v = np.linalg.eigh(mat)
    log = (v * np.log2(np.maximum(lam, LOG_CLAMP))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return lam, log


def support(mat):
    """The eigenvalues of the Hermitian mat above SUPPORT_CUTOFF, ascending,
    and their eigenvectors as columns.  Those dropped from a state of
    dimension <= 100 sum to at most 100 * SUPPORT_CUTOFF = TRACE_TOL."""
    lam, v = np.linalg.eigh(mat)
    keep = lam > SUPPORT_CUTOFF
    return lam[keep], v[:, keep]
