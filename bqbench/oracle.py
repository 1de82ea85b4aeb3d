"""Reference oracle for the benchmark's correctness checks.

Independent of bqmi on purpose: partial traces are numpy ``einsum``
contractions on the (dA, dB, dA, dB) tensor and entropies come from
``scipy.linalg.eigvalsh``.  Every check that needs I(rho) takes it from here.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg

# Eigenvalues below this contribute 0 to an entropy (0 log 0 = 0).
EIG_CUTOFF = 1e-14


def entropy(mat) -> float:
    """Von Neumann entropy in bits."""
    lam = scipy.linalg.eigvalsh(np.asarray(mat, dtype=complex))
    lam = lam[lam > EIG_CUTOFF]
    return float(-(lam * np.log2(lam)).sum())


def marginals(mat, da, db):
    """(rho_A, rho_B) of a state on A (dim da) x B (dim db)."""
    t = np.asarray(mat, dtype=complex).reshape(da, db, da, db)
    return np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)


def mutual_information(mat, da, db) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) in bits."""
    rho_a, rho_b = marginals(mat, da, db)
    return entropy(rho_a) + entropy(rho_b) - entropy(mat)


def read_state(path):
    """(matrix, dA, dB) from a bq-state-v1 file, with the factors reordered
    so that every A-side factor comes before every B-side factor."""
    with open(path) as f:
        doc = json.load(f)
    labels = doc["labels"]
    dims = [int(lab["dim"]) for lab in labels]
    mat = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    order = ([i for i, lab in enumerate(labels) if lab["side"] == "A"]
             + [i for i, lab in enumerate(labels) if lab["side"] == "B"])
    m = len(dims)
    t = mat.reshape(dims * 2).transpose(order + [m + i for i in order])
    d = mat.shape[0]
    da = int(np.prod([dims[i] for i in order if labels[i]["side"] == "A"]))
    return t.reshape(d, d), da, d // da
