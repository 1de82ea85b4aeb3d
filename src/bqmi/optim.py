"""Reusable optimization engines: penalized multi-start L-BFGS descent,
whose line search starts at the full quasi-Newton step, doubles it while
Armijo holds and the slope stays steep, and otherwise halves it until Armijo
holds; finite-difference gradient validation; Dykstra alternating projections
onto convex sets of Hermitian matrices; and solve_marginal_problem, the
constrained-state solver behind the n-copy broadcast bound."""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .qcore import (
    LOG2E,
    ValidationError,
    eigh_log2,
    expand_mat,
    partial_trace_mat,
    shannon_entropy,
    support,
)

DEFAULT_DIM_CAP = 256
# minimize_penalized: the step of a restart's first iteration, as a
# multiple of -grad (later stages start from the curvature of the restart's
# newest L-BFGS pair instead), the number of L-BFGS (s, y) pairs a descent
# keeps, the penalty weights each restart is taken through in turn (with no
# constraint, one descent of len(PENALTY_SCHEDULE) * max_iters iterations
# instead), and the relative decrease below which a descent stops.
STEP_INIT = 0.5
LBFGS_MEMORY = 5
PENALTY_SCHEDULE = (10.0, 100.0, 1000.0, 10000.0)
TOL_OBJECTIVE = 1e-9
# Largest Frobenius marginal deviation of a joint solve_marginal_problem returns.
TOL_RESIDUAL = 1e-8
# DensityParam adds DENSITY_EPS * I to G G† before normalizing, and
# init_from_matrix floors the factor's eigenvalues at it.
DENSITY_EPS = 1e-9
# dykstra_project: the largest residual it returns, and its sweep ceiling.
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_SWEEPS = 5000


def dim_cap():
    """Hard cap on the joint dimension of a constrained-state solve;
    overridable via BQ_MAX_DIM."""
    return int(os.environ.get("BQ_MAX_DIM", DEFAULT_DIM_CAP))


class DimensionCapError(ValueError):
    """Joint dimension would exceed the configured cap."""


class SolverError(RuntimeError):
    """A solver found no result: no convergence, or no feasible candidate."""


# The errors by which a solver fails, rather than its input or a bug: no
# result, a non-finite objective, an eigensolver that did not converge.
SOLVER_FAILURES = (SolverError, FloatingPointError, np.linalg.LinAlgError)


def check_param_cap(n_params, what):
    """Raise DimensionCapError when a descent over n_params real parameters
    is larger than the largest joint solve the cap admits, whose
    DensityParam has 2 cap² parameters."""
    cap = dim_cap()
    if n_params > 2 * cap * cap:
        raise DimensionCapError(
            f"{what} has {n_params} parameters, more than the {2 * cap * cap} of a "
            f"joint solve at the dimension cap {cap} (set BQ_MAX_DIM to raise)")


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 300
    restarts: int = 8
    master_seed: int = 0

    def __post_init__(self):
        if self.max_iters <= 0 or self.restarts <= 0:
            raise ValueError("max_iters and restarts must be positive")


@dataclass
class OptimResult:
    value: float
    argmin: np.ndarray
    residuals: dict
    converged: bool
    iterations_used: int
    restart_index: int

    def summary(self):
        return {
            "value": self.value,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "converged": bool(self.converged),
            "iterations_used": int(self.iterations_used),
            "restart_index": int(self.restart_index),
        }


@dataclass
class BoundedValue:
    """A number plus the direction in which it bounds the true quantity.

    direction 'upper' means the true value is <= value (up to residuals),
    'lower' means the true value is >= value, 'exact' means equality.
    """

    value: float
    direction: str
    method: str
    residuals: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.direction not in ("upper", "lower", "exact"):
            raise ValueError(f"bad bound direction {self.direction!r}")

    def to_dict(self):
        """JSON-safe form; diagnostics entries that are not plain scalars or
        strings (solver objects, matrices) are dropped."""
        diag = {}
        for k, v in self.diagnostics.items():
            if isinstance(v, (bool, str)):
                diag[k] = v
            elif isinstance(v, (int, np.integer)):
                diag[k] = int(v)
            elif isinstance(v, (float, np.floating)):
                diag[k] = float(v)
        return {
            "value": float(self.value),
            "direction": self.direction,
            "method": self.method,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "diagnostics": diag,
        }


def _weigh(val, w):
    """f + w * sum(c) and its gradient, from one evaluation's objective and
    constraint values (f, grad, [(c, grad c), ...])."""
    f, g, cons = val
    for cv, cg in cons:
        f = f + w * cv
        g = g + w * cg
    return f, g


def _lbfgs_direction(g, pairs, gamma):
    """-H g by the L-BFGS two-loop recursion (Nocedal & Wright, Numerical
    Optimization, alg. 7.4) over the stored (s, y, 1 / s.y) pairs, oldest
    first, with gamma I as the initial inverse Hessian; -gamma g when no
    pair is stored."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    q *= gamma
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return -q


def _descend(x, max_iters, w, start=None, gamma=None):
    """L-BFGS descent from x at penalty weight w, written as a generator: it
    yields each point it wants evaluated and is sent that point's unweighted
    (f, grad, [(value, grad), ...]), which it weighs itself.  start, when
    given, is x's own such evaluation, and x is then not yielded: no point
    is asked for twice.

    The direction p comes from the last LBFGS_MEMORY (s, y) pairs of this
    call (_lbfgs_direction) with gamma I as the initial inverse Hessian:
    gamma is the s.y / y.y of the newest pair stored (Nocedal & Wright, eq.
    7.20), on entry the caller's value, and STEP_INIT while it is None.
    While the memory is empty (on the first iteration, and, with the pairs
    cleared, whenever g.p >= 0) p is thus -gamma g.  A pair is stored only
    when s.y > 1e-12 |s| |y|.  The line search tries x + t p from t = 1 and
    accepts a trial that meets Armijo, f(t) <= f + 1e-4 t g.p.  While no
    trial has been halved and the accepted trial's slope g(t).p is still
    below 0.9 g.p, t doubles; the best trial is kept, and the first doubled
    trial that fails Armijo, does no better or is not finite ends the
    expansion.  Otherwise t halves, for at most 40 trials in all; a NaN
    objective at any trial but a doubled one raises FloatingPointError.
    Stops, converged, when |g|^2 <= 1e-30, when no trial is accepted, or
    when f falls by less than TOL_OBJECTIVE max(1, |f|).  Returns (x, penalized f, iterations, converged, x's unweighted
    evaluation, gamma), gamma None while no pair has been stored; the
    accepted-objective trace is monotone."""
    val = (yield x) if start is None else start
    f, g = _weigh(val, w)
    if not np.isfinite(f):
        raise FloatingPointError("objective not finite at start")
    pairs = collections.deque(maxlen=LBFGS_MEMORY)
    it = 0
    for it in range(1, max_iters + 1):
        gnorm2 = float(g @ g)
        if gnorm2 <= 1e-30:
            return x, f, it, True, val, gamma
        h0 = STEP_INIT if gamma is None else gamma
        p = _lbfgs_direction(g, pairs, h0)
        slope = float(g @ p)
        if slope >= 0:
            pairs.clear()
            p = -h0 * g
            slope = -h0 * gnorm2
        best, t, halved = None, 1.0, False
        for _ in range(40):
            xn = x + t * p
            vn = yield xn
            fn, gn = _weigh(vn, w)
            armijo = fn <= f + 1e-4 * t * slope
            if best is not None and not (armijo and fn < best[1]):
                break
            if np.isnan(fn):
                raise FloatingPointError("objective NaN during line search")
            if not armijo:
                halved = True
                t *= 0.5
                continue
            best = (xn, fn, gn, vn)
            if halved or float(gn @ p) >= 0.9 * slope:
                break
            t *= 2.0
        if best is None:
            return x, f, it, True, val, gamma
        xn, fn, gn, vn = best
        s, y = xn - x, gn - g
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            pairs.append((s, y, rho))
            gamma = 1.0 / (rho * float(y @ y))  # s.y / y.y
        df = f - fn
        x, f, g, val = xn, fn, gn, vn
        if df < TOL_OBJECTIVE * max(1.0, abs(f)):
            return x, f, it, True, val, gamma
    return x, f, it, False, val, gamma


def _restart(x, stages):
    """One restart: a _descend per (penalty weight, iteration ceiling) stage,
    each stage starting from the previous one's optimum and its evaluation,
    so that only the restart's first point is evaluated before its first
    stage and the optimum is not evaluated again after its last.  Each stage
    starts with an empty L-BFGS memory and takes its first step along
    -gamma g, gamma being the s.y / y.y of the restart's newest stored pair
    times w_prev / w, since the penalty's curvature grows with its weight;
    before the restart stores its first pair, gamma is STEP_INIT.  A
    generator like _descend.  Returns (penalized value, x, objective value,
    constraint values, converged, iterations)."""
    total, converged, val, gamma, w_prev = 0, True, None, None, None
    for w, iters in stages:
        if gamma is not None:
            gamma *= w_prev / w
        x, f_pen, it, conv, val, gamma = yield from _descend(x, iters, w, val, gamma)
        w_prev = w
        total += it
        converged = converged and conv
    f_obj, _, cons = val
    return f_pen, x, f_obj, [cv for cv, _ in cons], converged, total


def _evaluate(objective, constraints, xs):
    """The objective and every constraint on the stack xs, split per row.  A
    stack whose eigensolver fails (or that raises FloatingPointError) is
    evaluated again one row at a time; a row that fails by itself gives
    None."""
    try:
        f, g = objective(xs)
        cons = [c(xs) for _, c in constraints]
    except (FloatingPointError, np.linalg.LinAlgError):
        if len(xs) == 1:
            return [None]
        return [v for i in range(len(xs)) for v in _evaluate(objective, constraints, xs[i:i + 1])]
    return [(f[i], g[i], [(cv[i], cg[i]) for cv, cg in cons]) for i in range(len(xs))]


def minimize_penalized(objective, constraints, param_dim, cfg: OptimizerConfig,
                       inits=None):
    """Multi-start penalized minimization, all restarts in lockstep.

    objective and each fn of constraints, a list of (name, fn), take a stack
    of points x of shape (m, param_dim) and return (values, grads) of shapes
    (m,) and (m, param_dim), row k belonging to point k alone.  A constraint
    is added as w * value with w ramped over PENALTY_SCHEDULE, each
    restart through its own stages of at most cfg.max_iters iterations.
    Each stage is an L-BFGS descent (_descend) with a fresh memory, since w
    changes the objective; its first step is -gamma g, gamma the curvature
    scale s.y / y.y of the restart's newest pair times w_prev / w
    (STEP_INIT until the restart stores a pair, _restart), and its line
    search starts at the full quasi-Newton step, doubles it while Armijo
    holds and the slope stays steep, and halves it until Armijo holds.
    With no constraint every stage would minimize the same function, so a
    restart is one descent of at most len(PENALTY_SCHEDULE) * cfg.max_iters
    iterations, the same ceiling.
    Each stage starts from the point the previous one ended on, with that
    point's evaluation, and the restart's result is read off its last
    stage's final evaluation, so no point of a restart is evaluated twice.
    Every round, the points that all live restarts ask for are evaluated as
    one stack, so each restart follows the trajectory it would follow alone
    (its L-BFGS memory lives in its own generator).  inits seeds the first restarts; the
    rest start from standard-normal points drawn with master_seed +
    restart_index.  A restart whose objective turns NaN (other than at a
    doubled step, which only ends the doubling) or whose eigensolver fails
    (numpy.linalg.LinAlgError) is dropped: a round that raises is
    evaluated again one point at a time to find it.  Returns the best
    OptimResult (lowest final penalized value, ties broken by restart index).
    """
    inits = list(inits) if inits is not None else []
    if constraints:
        stages = [(w, cfg.max_iters) for w in PENALTY_SCHEDULE]
    else:
        stages = [(0.0, len(PENALTY_SCHEDULE) * cfg.max_iters)]
    runs = []
    for r in range(cfg.restarts):
        if r < len(inits):
            x = np.asarray(inits[r], dtype=float).copy()
            if x.size != param_dim:
                raise ValueError(f"init {r} has size {x.size}, expected {param_dim}")
        else:
            x = np.random.default_rng(cfg.master_seed + r).standard_normal(param_dim)
        runs.append(_restart(x, stages))
    points = {r: next(run) for r, run in enumerate(runs)}
    results = []
    while points:
        live = list(points)
        values = _evaluate(objective, constraints, np.stack([points.pop(r) for r in live]))
        for r, val in zip(live, values):
            if val is None:
                continue  # its eigensolver failed: this restart is dropped
            try:
                points[r] = runs[r].send(val)
            except StopIteration as stop:
                f_pen, x, f_obj, cvals, converged, iters = stop.value
                results.append((f_pen, r, OptimResult(
                    value=float(f_obj), argmin=x,
                    residuals={name: float(cv) for (name, _), cv in zip(constraints, cvals)},
                    converged=converged, iterations_used=iters, restart_index=r)))
            except FloatingPointError:
                continue  # NaN objective: this restart is dropped
        values = val = None  # free this round's stacked arrays before the next
    if not results:
        raise FloatingPointError(
            "all restarts aborted (NaN objective or eigensolver failure)")
    results.sort(key=lambda t: (t[0], t[1]))
    return results[0][2]


def shared_evaluation(evaluate, names):
    """minimize_penalized's objective and named constraints, read off one
    evaluate(x) -> [(values, grads) of the objective, then of each
    constraint].  They are asked in turn on one stack, so evaluate runs once
    per stack: the cache holds it (nothing mutates it in place)."""
    last = [None, None]

    def term(i):
        def fn(x):
            if last[0] is not x:
                last[:] = [None, None]  # free the previous round's gradients first
                last[:] = [x, evaluate(x)]
            return last[1][i]
        return fn

    return term(0), [(name, term(i + 1)) for i, name in enumerate(names)]


def finite_diff_check(fun, x, max_coords=None):
    """Max relative error between fun's gradient and central differences.

    Checks every coordinate, or a random subsample of at least 64 for large
    problems when max_coords is given.
    """
    h = 1e-5
    x = np.asarray(x, dtype=float)
    _, g = fun(x)
    coords = np.arange(x.size)
    if max_coords is not None and x.size > max_coords:
        rng = np.random.default_rng(0)
        coords = rng.choice(x.size, size=min(x.size, max(64, max_coords)),
                            replace=False)
    scale = max(1e-8, float(np.abs(g).max()))
    worst = 0.0
    for i in coords:
        e = np.zeros_like(x)
        e[i] = h
        fp, _ = fun(x + e)
        fm, _ = fun(x - e)
        fd = (fp - fm) / (2 * h)
        worst = max(worst, abs(fd - g[i]) / scale)
    return worst


# ---------------------------------------------------------------------------
# Convex sets for Dykstra projections: the PSD cone and the affine set of
# fixed marginals (the trace among them).


class PsdSet:
    """Positive semidefinite cone; projector clips negative eigenvalues."""

    name = "psd"

    def project(self, x):
        lam, v = np.linalg.eigh(x)
        lam = np.clip(lam, 0.0, None)
        return (v * lam) @ v.conj().T

    def residual(self, x):
        lam = np.linalg.eigvalsh(x)
        return float(max(0.0, -lam[0]))


class MarginalSet:
    """Affine set {X : Tr_rest X = t_k on the kept factors keep_k, for every
    (keep_k, t_k) in targets}; keep_k = () fixes the trace to t_k[0, 0].

    project takes the projection onto each fixed marginal in turn.  For
    disjoint kept groups whose targets share one trace, that is the exact
    projection onto their intersection: the first step sets the trace, so
    every later correction is traceless on the factors it does not keep and
    leaves the earlier marginals as they are."""

    name = "marginal"

    def __init__(self, dims, targets):
        self.dims = tuple(dims)
        self.targets = [(tuple(keep), np.asarray(t, dtype=complex)) for keep, t in targets]

    def _deviations(self, x):
        return [(keep, partial_trace_mat(x, self.dims, keep) - t) for keep, t in self.targets]

    def project(self, x):
        d = math.prod(self.dims)
        for keep, t in self.targets:
            dev = partial_trace_mat(x, self.dims, keep) - t
            x = x - expand_mat(dev, self.dims, keep) / (d // t.shape[0])
        return x

    def residual(self, x):
        """The largest Frobenius deviation of a fixed marginal."""
        return max(float(np.linalg.norm(dev)) for _, dev in self._deviations(x))

    def penalty(self, x):
        """The summed squared Frobenius deviation of the fixed marginals and
        its matrix gradient 2 sum_k (dev_k (x) I).  A stack x (..., d, d)
        gives one of each per matrix."""
        devs = self._deviations(x)
        sq = sum((dev.real ** 2 + dev.imag ** 2).sum((-2, -1)) for _, dev in devs)
        return sq, 2.0 * sum(expand_mat(dev, self.dims, keep) for keep, dev in devs)


def dykstra_project(x, sets):
    """Dykstra's alternating projection onto the intersection of convex sets.

    Each set must expose name, project(X) and residual(X).  Returns a
    Hermitian matrix whose residual against every set is at most DYKSTRA_TOL.
    Raises SolverError with every set's residual after DYKSTRA_MAX_SWEEPS.
    """
    x = np.asarray(x, dtype=complex)
    x = (x + x.conj().T) / 2
    corrections = [np.zeros_like(x) for _ in sets]
    for _ in range(DYKSTRA_MAX_SWEEPS):
        for i, s in enumerate(sets):
            z = x + corrections[i]
            x = s.project(z)
            corrections[i] = z - x
        res = [(s.name, s.residual(x)) for s in sets]  # a list: names may repeat
        if max(r for _, r in res) <= DYKSTRA_TOL:
            return (x + x.conj().T) / 2
    raise SolverError(f"dykstra_project did not converge; residuals {res}")


# ---------------------------------------------------------------------------
# Factor parameterization of density matrices and entropic objectives.


def unpack_complex(x, shape):
    """The complex array of the given shape stored in the real vector x as
    [Re G, Im G], each flattened; leading batch axes of x are kept."""
    n = math.prod(shape)
    g = x[..., :n] + 1j * x[..., n:]
    return g.reshape(x.shape[:-1] + tuple(shape))


def pack_complex(g, shape):
    """Inverse of unpack_complex: the trailing axes of g have the given shape."""
    flat = g.shape[:g.ndim - len(shape)] + (-1,)
    return np.concatenate([g.real.reshape(flat), g.imag.reshape(flat)], axis=-1)


def psd_factor(mat):
    """F = V sqrt(lambda) from the eigendecomposition of the Hermitian mat,
    negative eigenvalues clipped to 0, so that F F† is mat's PSD part."""
    lam, v = np.linalg.eigh(mat)
    return v * np.sqrt(np.clip(lam, 0.0, None))


class DensityParam:
    """Parameterize density matrices as sigma(G) = (G G† + eps I) / Tr(...).

    G is an unconstrained complex dim x dim matrix stored as a flat real
    vector [Re G, Im G].  The eps = DENSITY_EPS regularizer keeps sigma full
    rank so the entropy gradient d S(sigma + t Delta)/dt = -Tr[Delta log2
    sigma] - log2(e) Tr Delta is safe to use.  Every method also takes a
    stack of vectors (..., n_params) and works on each of them.
    """

    def __init__(self, dim):
        self.dim = int(dim)
        self.shape = (self.dim, self.dim)
        self.n_params = 2 * self.dim * self.dim

    def sigma(self, x):
        """Return (sigma, cache) where cache is reused by grad_x."""
        g = unpack_complex(x, self.shape)
        h = g @ g.conj().swapaxes(-1, -2) + DENSITY_EPS * np.eye(self.dim)
        tau = np.trace(h, axis1=-2, axis2=-1).real[..., None, None]
        return h / tau, (g, tau)

    def grad_x(self, f_sigma, sigma, cache):
        """Pull a matrix gradient d f = Tr[F d sigma] back to the x vector."""
        g, tau = cache
        # In-place steps keep fewer (..., dim, dim) temporaries alive at once.
        f_sigma = f_sigma + f_sigma.conj().swapaxes(-1, -2)
        f_sigma /= 2
        # Re Tr[F sigma] for Hermitian F and sigma, one per matrix
        fs = (f_sigma.real * sigma.real + f_sigma.imag * sigma.imag).sum((-2, -1))
        f_sigma /= tau
        f_sigma -= (fs[..., None, None] / tau) * np.eye(self.dim)
        wg = f_sigma @ g
        wg *= 2.0
        return pack_complex(wg, self.shape)

    def init_from_matrix(self, mat):
        """Pick x so that sigma(x) is (close to) the given density matrix:
        G = V sqrt(max(lambda, DENSITY_EPS)) from mat's eigendecomposition.
        grad_x pulls every gradient back as F G, which vanishes on a zero
        column of G, so a descent from a factor with a zero eigenvalue could
        never leave mat's rank; the floor, the size of the regularizer sigma
        already adds, gives every column a gradient."""
        lam, v = np.linalg.eigh(mat)
        return pack_complex(v * np.sqrt(np.maximum(lam, DENSITY_EPS)), self.shape)


class BlockIsometry:
    """W = W_1 (x) ... (x) W_n, an isometry from the product of per-block
    subspaces into the space the blocks' factors span, applied block by
    block so that no full-space matrix of W is formed.

    block_dims: each block's factor dims, in tensor order; bases: per block
    a (d_k, c_k) matrix with orthonormal columns, d_k = prod(block dims).
    A marginal Tr_rest(W sigma W†) on the kept factors maps each block's
    index pair (c_k, c_k') of sigma, laid side by side, in turn; with a the
    block's kept factors, b its traced ones and c its subspace, either by
    two matmuls against W_k and conj W_k that trace b on the way, with
    c_k d_k entries each and c_k d_k (c_k + a_k) multiplications per
    entry of the other blocks, or by one against
    K_k[(c, c'), (a, a')] = sum_b W_k[a b c] conj W_k[a' b c'], with
    c_k² a_k² of both, when that is fewer multiplications and K_k is no
    larger than one joint on W's domain.  pull_back, W† (L (x) I) W, runs the
    same steps in reverse; embed and compress are the marginal and the
    pull-back that keep every factor.  The steps of each set of kept
    factors are made once and kept.  Every method also takes a stack
    (..., n, n), slice k of the result being the call on slice k.
    """

    def __init__(self, block_dims, bases):
        self.block_dims = [tuple(b) for b in block_dims]
        self.bases = [np.asarray(b, dtype=complex) for b in bases]
        self.dims = tuple(d for b in self.block_dims for d in b)
        self.cdims = tuple(b.shape[1] for b in self.bases)
        self._plans = {}

    def _plan(self, keep, forward):
        """The steps of one marginal (forward) or pull-back on the kept
        factors keep: the reshape and transpose that put each block's index
        pair side by side, the (matrix, multiply from the right, shape)
        steps of each block that is not the identity, and the transpose and
        dim that undo the pairing."""
        wts, outer, start = [], [], 0
        for bdims, basis in zip(self.block_dims, self.bases):
            m, c = len(bdims), basis.shape[1]
            kept = [i - start for i in keep if start <= i < start + m]
            traced = [i for i in range(m) if i not in kept]
            start += m
            a = math.prod(bdims[i] for i in kept)
            outer.append(a)
            if not traced and c == a and np.array_equal(basis, np.eye(c)):
                wts.append(None)
            else:  # W_k as (a, b, c)
                wts.append(basis.reshape(bdims + (c,)).transpose(kept + traced + [m])
                           .reshape(a, -1, c))
        ins, outs = (self.cdims, outer) if forward else (outer, self.cdims)
        n = len(wts)
        joint = math.prod(self.cdims) ** 2
        steps, done = [], 1
        for i, wt in enumerate(wts):
            if wt is not None:
                a, b, c = wt.shape
                rest = math.prod(ins[i + 1:]) ** 2
                if c * a * a <= a * b * (c + a) and (c * a) ** 2 <= joint:
                    k = np.einsum("abc,ebd->cdae", wt, wt.conj()).reshape(c * c, a * a)
                    k = k if forward else k.conj().T
                    if rest == 1:
                        steps.append((k, True, (-1, done, ins[i] ** 2)))
                    else:
                        steps.append((np.ascontiguousarray(k.T), False,
                                      (-1, done, ins[i] ** 2, rest)))
                elif forward:  # sum_{b c'} (W_k sigma)[a b, c'] conj W_k[a' b c']
                    steps += [(np.ascontiguousarray(wt.reshape(a * b, c)), False,
                               (-1, done, c, c * rest)),
                              (np.ascontiguousarray(wt.conj().reshape(a, b * c)), False,
                               (-1, done * a, b * c, rest))]
                else:  # sum_{a b} conj W_k[a b c] (L W_k)[a, b c']
                    steps += [(np.ascontiguousarray(wt.reshape(a, b * c).T), False,
                               (-1, done * a, a, rest)),
                              (np.ascontiguousarray(wt.conj().reshape(a * b, c).T), False,
                               (-1, done, a * b, c * rest))]
            done *= outs[i] ** 2
        return ((-1,) + tuple(ins) * 2,
                (0,) + tuple(x for i in range(n) for x in (1 + i, 1 + n + i)),
                steps,
                (-1,) + tuple(x for o in outs for x in (o, o)),
                (0,) + tuple(range(1, 2 * n, 2)) + tuple(range(2, 2 * n + 1, 2)),
                math.prod(outs))

    def _apply(self, mat, keep, forward):
        key = (tuple(keep), forward)
        if key not in self._plans:
            self._plans[key] = self._plan(*key)
        in_shape, pair, steps, out_shape, unpair, dout = self._plans[key]
        t = mat.reshape(in_shape).transpose(pair)
        for k, right, shape in steps:
            t = t.reshape(shape) @ k if right else k @ t.reshape(shape)
        return t.reshape(out_shape).transpose(unpair).reshape(mat.shape[:-2] + (dout, dout))

    def marginal(self, sigma, keep):
        """Tr_rest(W sigma W†) on the kept factors keep (sorted positions in
        dims), for sigma on W's domain."""
        return self._apply(sigma, keep, True)

    def pull_back(self, mat, keep):
        """W† (mat (x) I) W, mat on the kept factors keep: the adjoint of
        marginal."""
        return self._apply(mat, keep, False)

    def embed(self, x):
        """W x W†."""
        return self._apply(x, range(len(self.dims)), True)

    def compress(self, mat):
        """W† mat W."""
        return self._apply(mat, range(len(self.dims)), False)


def entropy_combo(sigma, dims, terms, w=None):
    """Weighted sum of marginal entropies and its matrix gradient.

    terms: list of (coef, keep_idx) with keep_idx None meaning the full
    state.  Returns (value_bits, F) with d f = Tr[F d sigma]; each term
    takes its value and its gradient from one eigendecomposition.  A stack
    sigma (..., d, d) gives a value and an F per matrix, each term taking one
    stacked eigendecomposition.

    w, when given, is a BlockIsometry from sigma's space into the space that
    dims factor: the state is then W sigma W†.  Its full-state entropy is
    S(sigma) itself; each marginal term is taken block by block as
    w.marginal(sigma, keep) and its gradient pulled back with w.pull_back,
    so no full-space matrix is formed.
    """
    d = sigma.shape[-1]
    f = 0.0
    # d S(red) = -Tr[(log2 red + log2(e) I) d red], and the identity parts
    # of all terms expand to one multiple of the identity.
    fmat = np.broadcast_to(-LOG2E * sum(coef for coef, _ in terms) * np.eye(d, dtype=complex),
                           sigma.shape).copy()
    for coef, keep in terms:
        if keep is None:
            lam, log = eigh_log2(sigma)
            fmat -= coef * log
        elif w is None:
            lam, log = eigh_log2(partial_trace_mat(sigma, dims, keep))
            fmat -= coef * expand_mat(log, dims, keep)
        else:
            lam, log = eigh_log2(w.marginal(sigma, keep))
            fmat -= coef * w.pull_back(log, keep)
        f = f + coef * shannon_entropy(lam)
    return f, fmat


def candidate_matrices(candidates, d):
    """Each candidate, a matrix or an object with a .mat, as a complex d x d
    matrix, in a generator; raises ValidationError on any other shape."""
    for c in candidates:
        c = np.asarray(getattr(c, "mat", c), dtype=complex)
        if c.shape != (d, d):
            raise ValidationError(f"warm start has shape {c.shape}, expected {(d, d)}")
        yield c


@dataclass
class MarginalSolution:
    """Best feasible joint found by solve_marginal_problem."""

    value: float  # the entropy combination at joint
    joint: np.ndarray
    residuals: list  # Frobenius marginal deviation, one per copy
    feasible: list  # every projected candidate that met the tolerance
    diagnostics: dict


def solve_marginal_problem(dims, target, n, terms, cfg: OptimizerConfig,
                           candidates) -> MarginalSolution:
    """Minimize an entropy combination over n-copy joint states whose every
    copy has the marginal target.

    dims: one copy's factor dims; the joint's factors are n such copies in
    tensor order.  terms: entropy_combo terms over the joint's factor dims.
    candidates: extra starting joints (matrices or objects with a .mat),
    consumed only after the BQ_MAX_DIM check on the joint dimension; the
    product target^(x)n always comes first.  The first cfg.restarts
    compressed candidates seed one restart each, but a candidate within
    1e-12 (Frobenius) of an earlier seed seeds none: its slot is dropped,
    not given a random start, so the solve runs fewer restarts.  Every
    candidate still enters the projection pool.

    Any PSD joint with these marginals lives in the n-fold product of the
    target's support, the range of W = V^(x)n with V its eigenvectors on
    the support (qcore.support), so the whole solve runs there, where each
    copy's target is diag(lambda), full rank, and the product candidate is
    an interior point.  All n marginals form one constraint, a MarginalSet
    over the compressed copies.  The DensityParam descent from the
    compressed candidates takes it as its one penalty, so each point costs
    two pull-backs (objective and penalty); the Dykstra projection of the
    descent's optimum and of every candidate alternates between the PSD
    cone and that set, whose marginals fix the trace.  W is a BlockIsometry,
    applied copy by copy to compress the candidates, to take the marginal
    entropies and their gradients (entropy_combo) and to embed the
    projected joints back; no full-space matrix of W is formed.
    The feasible embedded joint with the lowest exact value is returned.
    Raises DimensionCapError above the cap and SolverError when no
    candidate meets TOL_RESIDUAL.
    """
    copy_dims = tuple(dims)
    dims = copy_dims * n
    d = math.prod(dims)
    check_param_cap(2 * d * d, f"solve_marginal_problem on a {d}-dim joint")

    target = np.asarray(target, dtype=complex)
    lam, basis = support(target)
    w = BlockIsometry([copy_dims] * n, [basis] * n)
    # compressed candidates; the full-space matrices are dropped as they are
    # compressed
    cands = [w.compress(c) for c in candidate_matrices(
        itertools.chain([functools.reduce(np.kron, [target] * n)], candidates), d)]

    marginals = MarginalSet(w.cdims, [((k,), np.diag(lam)) for k in range(n)])
    par = DensityParam(math.prod(w.cdims))

    def evaluate(x):  # one stacked sigma serves the objective and the penalty
        s, cache = par.sigma(x)
        f, fmat = entropy_combo(s, dims, terms, w)
        cv, cg = marginals.penalty(s)
        return [(f, par.grad_x(fmat, s, cache)), (cv, par.grad_x(cg, s, cache))]

    # a repeat's slot is dropped, not given a random start
    seeds = []
    for c in cands[:cfg.restarts]:
        if all(np.linalg.norm(c - e) > 1e-12 for e in seeds):
            seeds.append(c)
    dropped = min(len(cands), cfg.restarts) - len(seeds)
    objective, constraints = shared_evaluation(evaluate, [marginals.name])
    opt = minimize_penalized(objective, constraints, par.n_params,
                             replace(cfg, restarts=cfg.restarts - dropped),
                             inits=[par.init_from_matrix(c) for c in seeds])
    pool = [par.sigma(opt.argmin)[0]] + cands
    sets = [PsdSet(), marginals]
    copies = [tuple(range(k * len(copy_dims), (k + 1) * len(copy_dims))) for k in range(n)]

    best = None
    feasible = []
    failures = []
    for cand in pool:
        try:
            x = dykstra_project(cand, sets)
        except SOLVER_FAILURES as e:
            failures.append(str(e))
            continue
        val = entropy_combo(x, dims, terms, w)[0]
        x = w.embed(x)
        res = [float(np.linalg.norm(partial_trace_mat(x, dims, idx) - target)) for idx in copies]
        if max(res) > TOL_RESIDUAL:
            continue
        feasible.append(x)
        if best is None or val < best[0]:
            best = (val, x, res)
    if best is None:
        raise SolverError("no candidate could be projected onto the marginal "
                          "constraints: " + "; ".join(failures))
    val, x, res = best
    return MarginalSolution(value=float(val), joint=x, residuals=res,
                            feasible=feasible, diagnostics=opt.summary())
