"""State-family constructors, ensembles, de Finetti broadcast states, and
the JSON file format for states."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    DensityOperator,
    SubsystemLayout,
    ValidationError,
    bipartite_layout,
    support,
    tensor,
)

STATE_FORMAT = "bq-state-v1"

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def _proj(vec):
    v = np.asarray(vec, dtype=complex).ravel()
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class Ensemble:
    """A list of (probability, DensityOperator) pairs with a common layout."""

    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValidationError("ensemble must have at least one member")
        probs = np.array([p for p, _ in self.members], dtype=float)
        if probs.min() < -1e-12:
            raise ValidationError(f"negative ensemble probability {probs.min()!r}")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValidationError(f"ensemble probabilities sum to {probs.sum()!r}")
        layouts = {m.layout.factors for _, m in self.members}
        if len(layouts) != 1:
            raise ValidationError("ensemble members must share one layout")

    @property
    def layout(self):
        return self.members[0][1].layout

    def average(self) -> DensityOperator:
        avg = sum(p * m.mat for p, m in self.members)
        return DensityOperator(self.layout, avg)

    def probabilities(self):
        return np.array([p for p, _ in self.members], dtype=float)


@dataclass(frozen=True)
class StateSpec:
    """Recipe for a state family: bell, cc, product-mix, werner, isotropic
    or random."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int | None = None


def bell_state() -> DensityOperator:
    """The maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    psi = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
    return DensityOperator(bipartite_layout(2, 2), _proj(psi))


def cc_state(probs) -> DensityOperator:
    """Classical-classical state sum_ij p_ij |i><i| x |j><j| (computational bases)."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2:
        raise ValidationError("cc state needs a 2-d probability table")
    if p.min() < 0 or abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError(f"cc table must be a probability distribution, sum={p.sum()!r}")
    da, db = p.shape
    return DensityOperator(bipartite_layout(da, db), np.diag(p.ravel()).astype(complex))


def product_mix_state(weight=0.5) -> DensityOperator:
    """The separable non-CC mixture w |00><00| + (1-w) |++><++|."""
    if not 0.0 <= weight <= 1.0:
        raise ValidationError(f"weight {weight!r} outside [0, 1]")
    m = weight * _proj(np.kron(KET0, KET0)) + (1 - weight) * _proj(np.kron(KET_PLUS, KET_PLUS))
    return DensityOperator(bipartite_layout(2, 2), m)


def werner_state(p) -> DensityOperator:
    """Two-qubit Werner state p |Psi-><Psi-| + (1-p) I/4.  PPT iff p <= 1/3."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"werner parameter {p!r} outside [0, 1]")
    psi_m = (np.kron(KET0, KET1) - np.kron(KET1, KET0)) / np.sqrt(2)
    m = p * _proj(psi_m) + (1 - p) * np.eye(4) / 4
    return DensityOperator(bipartite_layout(2, 2), m)


def isotropic_state(p) -> DensityOperator:
    """Two-qubit isotropic state p |Phi+><Phi+| + (1-p) I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"isotropic parameter {p!r} outside [0, 1]")
    m = p * bell_state().mat + (1 - p) * np.eye(4) / 4
    return DensityOperator(bipartite_layout(2, 2), m)


def random_density(dim, rank, seed, dims=None) -> DensityOperator:
    """Random state of exact rank via a complex Ginibre factor G: rho = GG†/Tr.

    dims optionally fixes the bipartite split; default is (2, dim//2) for even
    dim, otherwise a single A factor with a trivial B factor.
    """
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank {rank} out of range [1, {dim}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m /= m.trace().real
    if dims is None:
        dims = (2, dim // 2) if dim % 2 == 0 else (dim, 1)
    if dims[0] * dims[1] != dim:
        raise ValidationError(f"dims {dims} do not multiply to {dim}")
    return DensityOperator(bipartite_layout(*dims), m)


def make_state(spec: StateSpec) -> DensityOperator:
    """Construct a state from a StateSpec.  Deterministic given the seed."""
    fam, p = spec.family, spec.params
    if fam == "bell":
        return bell_state()
    if fam == "cc":
        table = p.get("probs", [[0.5, 0.0], [0.0, 0.5]])
        return cc_state(table)
    if fam == "product-mix":
        return product_mix_state(p.get("weight", 0.5))
    if fam in ("werner", "isotropic") and "p" not in p:
        raise ValidationError(f"{fam} state needs the parameter p (--p)")
    if fam == "werner":
        return werner_state(p["p"])
    if fam == "isotropic":
        return isotropic_state(p["p"])
    if fam == "random":
        dim = p.get("dim", 4)
        rank = p.get("rank", dim)
        return random_density(dim, rank, spec.seed if spec.seed is not None else 0)
    raise ValidationError(f"unknown state family {fam!r}")


def canonical_ensembles(spec: StateSpec) -> Ensemble:
    """Product-state (or basis-projector) ensemble averaging to make_state(spec).

    Only families that are separable by construction are supported.
    """
    if spec.family == "cc":
        rho = make_state(spec)
        table = np.asarray(spec.params.get("probs", [[0.5, 0.0], [0.0, 0.5]]), dtype=float)
        da, db = table.shape
        members = []
        for i in range(da):
            for j in range(db):
                if table[i, j] <= 0:
                    continue
                m = tensor(_proj(np.eye(da)[i]), _proj(np.eye(db)[j]))
                members.append((float(table[i, j]), DensityOperator(rho.layout, m)))
        return Ensemble(tuple(members))
    if spec.family == "product-mix":
        w = spec.params.get("weight", 0.5)
        layout = bipartite_layout(2, 2)
        members = []
        if w > 0:
            members.append((float(w), DensityOperator(layout, _proj(np.kron(KET0, KET0)))))
        if w < 1:
            members.append((float(1 - w), DensityOperator(layout, _proj(np.kron(KET_PLUS, KET_PLUS)))))
        return Ensemble(tuple(members))
    raise ValidationError(
        f"no known product ensemble for family {spec.family!r} (entangled or unsupported)")


def spectral_ensemble(rho: DensityOperator) -> Ensemble:
    """Eigendecomposition ensemble {(lambda_i, |v_i><v_i|)} on rho's support.
    Always valid, members need not be product states."""
    lam, v = support(rho.mat)
    total = sum(lam.tolist())
    return Ensemble(tuple((p / total, DensityOperator(rho.layout, _proj(v[:, i])))
                          for i, p in enumerate(lam.tolist())))


def broadcast_layout(base: SubsystemLayout, n: int) -> SubsystemLayout:
    """Layout for n copies: factors A1,B1,...,An,Bn with sides inherited."""
    factors = []
    sides = {}
    for k in range(1, n + 1):
        for lab, d in base.factors:
            new = f"{lab}{k}"
            factors.append((new, d))
            sides[new] = base.sides[lab]
    return SubsystemLayout(tuple(factors), sides)


def definetti_broadcast(ens: Ensemble, n: int) -> DensityOperator:
    """De Finetti broadcast state sum_k p_k rho_k^(x n) on (AB)^n."""
    if n < 1:
        raise ValidationError(f"copy count must be >= 1, got {n}")
    layout = broadcast_layout(ens.layout, n)
    total = np.zeros((layout.dim, layout.dim), dtype=complex)
    for p, m in ens.members:
        power = m.mat
        for _ in range(n - 1):
            power = np.kron(power, m.mat)
        total += p * power
    return DensityOperator(layout, total)


def save_state(path, rho: DensityOperator):
    """Write a state to the JSON file format (exact round-trip)."""
    doc = {
        "format": STATE_FORMAT,
        "labels": [
            {"name": lab, "dim": d, "side": rho.layout.sides[lab]}
            for lab, d in rho.layout.factors
        ],
        "matrix": [[[z.real, z.imag] for z in row] for row in rho.mat],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_state(path) -> DensityOperator:
    """Read and validate a state file.  Raises ValidationError with the
    offending field named on malformed input."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed state file {path}: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != STATE_FORMAT:
        raise ValidationError(
            f"state file {path}: field 'format' must be {STATE_FORMAT!r}")
    try:
        factors = tuple((lab["name"], int(lab["dim"])) for lab in doc["labels"])
        sides = {lab["name"]: lab["side"] for lab in doc["labels"]}
    except (KeyError, TypeError) as e:
        raise ValidationError(f"state file {path}: bad 'labels' entry ({e})") from e
    layout = SubsystemLayout(factors, sides)
    raw = doc.get("matrix")
    d = layout.dim
    if not isinstance(raw, list) or len(raw) != d:
        raise ValidationError(f"state file {path}: field 'matrix' must have {d} rows")
    mat = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(raw):
        if len(row) != d:
            raise ValidationError(f"state file {path}: matrix row {i} has length {len(row)}")
        for j, entry in enumerate(row):
            try:
                re, im = entry
                mat[i, j] = complex(float(re), float(im))
            except (TypeError, ValueError) as e:
                raise ValidationError(
                    f"state file {path}: matrix entry ({i},{j}) malformed ({e})") from e
    return DensityOperator(layout, mat)
