import dataclasses

import numpy as np
import pytest

import bqmi.entms
from bqmi import optim
from bqmi.broadcast import broadcast_mi_upper
from bqmi.entms import ecsq_upper, eic_lower
from bqmi.measures import default_ic_povm
from bqmi.optim import (
    BlockIsometry,
    BoundedValue,
    DensityParam,
    MarginalSet,
    OptimizerConfig,
    PsdSet,
    dykstra_project,
    entropy_combo,
    finite_diff_check,
    minimize_penalized,
)
from bqmi.qcore import partial_trace_mat, von_neumann_entropy
from bqmi.states import random_density


def random_herm(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def test_bounded_value_direction_contract():
    with pytest.raises(ValueError, match="direction"):
        BoundedValue(1.0, "sideways", "m")
    bv = BoundedValue(1.0, "upper", "m", {"r": 1e-9}, {"note": "x", "obj": object()})
    d = bv.to_dict()
    assert d["direction"] == "upper"
    assert "obj" not in d["diagnostics"]  # non-serializable entries dropped


def quadratic_problem():
    """x'Qx and the penalty (a'x - 1)^2 in the stacked form minimize_penalized
    evaluates: x is (m, 5), values (m,), gradients (m, 5), each row computed
    from its own point alone."""
    rng = np.random.default_rng(0)
    q = rng.standard_normal((5, 5))
    q = q @ q.T + np.eye(5)
    a = rng.standard_normal(5)

    def objective(x):
        return np.array([z @ q @ z for z in x]), np.array([2 * q @ z for z in x])

    def constraint(x):
        r = np.array([a @ z - 1.0 for z in x])
        return r * r, 2 * r[:, None] * a

    return q, a, objective, constraint


def test_penalized_quadratic_matches_lagrangian_oracle(monkeypatch):
    # min x'Qx subject to (a'x - 1)^2 penalty; the exact penalized optimum
    # solves (Q + w a a') x = w a, per penalty weight w.
    q, a, objective, constraint = quadratic_problem()
    monkeypatch.setattr(optim, "PENALTY_SCHEDULE", (10.0, 1000.0))
    cfg = OptimizerConfig(restarts=2, max_iters=2000)
    res = minimize_penalized(objective, [("lin", constraint)], 5, cfg)
    w = optim.PENALTY_SCHEDULE[-1]
    x_star = np.linalg.solve(2 * q + 2 * w * np.outer(a, a), 2 * w * a)
    assert np.linalg.norm(res.argmin - x_star) < 5e-3

    def penalized(x):
        return objective(x[None])[0][0] + w * constraint(x[None])[0][0]

    # the objective gap to the oracle optimum is quadratic in the distance
    assert penalized(res.argmin) - penalized(x_star) < 1e-4
    assert res.residuals["lin"] < 1e-4


def test_lbfgs_solves_ill_conditioned_quadratic():
    # 1/2 x'Ax - b'x with cond(A) = 1e3 has its minimum at A^-1 b.  Within
    # this budget a steepest descent stops unconverged 6.5e-3 away from it,
    # so reaching 1e-3 needs the curvature pairs.
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    a = (u * np.logspace(0, 3, 20)) @ u.T
    b = rng.standard_normal(20)

    def objective(x):
        return 0.5 * np.einsum("ki,ij,kj->k", x, a, x) - x @ b, x @ a - b

    res = minimize_penalized(objective, [], 20, OptimizerConfig(restarts=2, max_iters=500))
    assert res.converged
    assert np.linalg.norm(res.argmin - np.linalg.solve(a, b)) < 1e-3


def test_nan_while_expanding_keeps_the_restart():
    # A Huber function around c = -3u, NaN for ||x|| > 8.  From x0 = 7u the
    # gradient is the unit vector u until 1 from c, so the line search keeps
    # doubling its first step of 0.5: its trials reach -u, 2 from c and still
    # as steep, and then -9u, outside the ball.  That NaN ends the expansion
    # at -u; it does not drop the only restart.
    u = np.full(4, 0.5)
    c = -3 * u
    nan_trials = []

    def objective(x):
        r = np.linalg.norm(x - c, axis=-1)
        f = np.where(r <= 1, 0.5 * r * r, r - 0.5)
        g = (x - c) / np.maximum(r, 1)[:, None]
        outside = np.linalg.norm(x, axis=-1) > 8
        nan_trials.append(int(outside.sum()))
        return np.where(outside, np.nan, f), g

    res = minimize_penalized(objective, [], 4, OptimizerConfig(restarts=1, max_iters=50),
                             inits=[7 * u])
    assert sum(nan_trials) > 0
    assert res.converged
    assert np.linalg.norm(res.argmin - c) < 1e-6


def test_minimize_penalized_deterministic():
    def objective(x):
        return (x ** 2).sum(-1), 2 * x

    cfg = OptimizerConfig(restarts=3, max_iters=50)
    a = minimize_penalized(objective, [], 4, cfg)
    b = minimize_penalized(objective, [], 4, cfg)
    assert np.array_equal(a.argmin, b.argmin)
    assert a.restart_index == b.restart_index


def test_minimize_penalized_drops_restart_whose_eigensolver_fails():
    start_0 = np.random.default_rng(0).standard_normal(4)  # restart 0's start

    def objective(x):
        # fails only on the row that holds restart 0's point
        if any(np.array_equal(row, start_0) for row in x):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return (x ** 2).sum(-1), 2 * x

    res = minimize_penalized(objective, [], 4, OptimizerConfig(restarts=2, max_iters=50))
    assert res.restart_index == 1
    assert res.value < 1e-6

    def broken(x):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    with pytest.raises(FloatingPointError, match="all restarts aborted"):
        minimize_penalized(broken, [], 4, OptimizerConfig(restarts=2, max_iters=50))


def rosenbrock(x):
    a, b = x[:, 0], x[:, 1]
    f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    g = np.stack([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)], -1)
    return f, g


def descend_alone(objective, x, max_iters):
    """Drive one unweighted _descend from x by hand: the points it asked
    for, and its (x, f, iterations, converged)."""
    asked, descent = [], optim._descend(x, max_iters, 0.0)
    point = next(descent)
    try:
        while True:
            asked.append(point)
            f, g = objective(point[None])
            point = descent.send((f[0], g[0], []))
    except StopIteration as stop:
        x, f, iters, converged, _, _ = stop.value
        return asked, (x, f, iters, converged)


def test_unconstrained_restart_is_one_descent_of_the_whole_ceiling():
    # Rosenbrock from (-1.2, 1) is far from converged after 8 iterations.
    # With no constraint a restart is a single descent with a ceiling of
    # len(PENALTY_SCHEDULE) * max_iters, not one descent per penalty stage.
    start = np.array([-1.2, 1.0])
    res = minimize_penalized(rosenbrock, [], 2, OptimizerConfig(restarts=1, max_iters=2),
                             inits=[start])
    assert res.iterations_used == len(optim.PENALTY_SCHEDULE) * 2
    assert res.converged is False
    _, (x, f, iters, converged) = descend_alone(rosenbrock, start, res.iterations_used)
    assert (iters, converged) == (res.iterations_used, False)
    assert np.array_equal(res.argmin, x)
    assert res.value == f


def test_unconstrained_restart_evaluates_only_its_descents_points():
    # A spy sees the points of one converged descent and nothing more: the
    # result is read off the descent's own evaluation of its optimum.
    _, _, objective, _ = quadratic_problem()
    seen = []

    def spy(x):
        seen.extend(x.copy())
        return objective(x)

    start, ceiling = np.full(5, 0.3), len(optim.PENALTY_SCHEDULE) * 300
    res = minimize_penalized(spy, [], 5, OptimizerConfig(restarts=1, max_iters=300),
                             inits=[start])
    asked, (x, f, iters, converged) = descend_alone(objective, start, ceiling)
    assert converged and iters < ceiling
    assert len(seen) == len(asked)
    assert all(np.array_equal(a, b) for a, b in zip(seen, asked))
    assert any(np.array_equal(a, x) for a in seen)
    assert np.array_equal(res.argmin, x)
    assert res.value == f
    assert res.converged


def drive_restart(x, stages, objective, constraint):
    """Drive one _restart by hand: the points it asked for and its result."""
    asked, run = [], optim._restart(x, stages)
    point = next(run)
    try:
        while True:
            asked.append(point)
            (f,), (g,) = objective(point[None])
            (c,), (gc,) = constraint(point[None])
            point = run.send((f, g, [(c, gc)]))
    except StopIteration as stop:
        return asked, stop.value


def test_stage_starts_step_along_the_scaled_curvature_of_the_newest_pair():
    # Before any pair is stored the first trial is x - STEP_INIT g.  Stage 1
    # takes one iteration, x0 -> x1, and stores the pair (s, y) = (x1 - x0,
    # g_10(x1) - g_10(x0)); stage 2's first trial is then x1 - gamma g_100(x1)
    # with gamma = (s.y / y.y) * 10 / 100.
    _, _, objective, constraint = quadratic_problem()

    def grad(x, w):
        return objective(x[None])[1][0] + w * constraint(x[None])[1][0]

    x0 = np.full(5, 0.3)
    asked_1, (_, x1, *_) = drive_restart(x0, [(10.0, 1)], objective, constraint)
    asked_2, _ = drive_restart(x0, [(10.0, 1), (100.0, 1)], objective, constraint)
    assert np.array_equal(asked_1[0], x0)
    assert np.array_equal(asked_1[1], x0 - optim.STEP_INIT * grad(x0, 10.0))
    assert all(np.array_equal(a, b) for a, b in zip(asked_1, asked_2))
    s, y = x1 - x0, grad(x1, 10.0) - grad(x0, 10.0)
    gamma = (s @ y) / (y @ y)
    assert not np.isclose(gamma * 10.0 / 100.0, optim.STEP_INIT)
    trial = asked_2[len(asked_1)]
    assert np.allclose(trial, x1 - gamma * (10.0 / 100.0) * grad(x1, 100.0), rtol=0, atol=1e-12)


def test_constrained_restart_evaluates_no_point_twice():
    # Each penalty stage starts from the previous stage's optimum with its
    # evaluation, and the result is read off the last one, so neither a
    # stage's start nor the optimum is asked for again.
    _, _, objective, constraint = quadratic_problem()
    seen = []

    def spy(x):
        seen.extend(row.tobytes() for row in x)
        return objective(x)

    res = minimize_penalized(spy, [("lin", constraint)], 5,
                             OptimizerConfig(restarts=1, max_iters=60), inits=[np.full(5, 0.3)])
    assert res.iterations_used > len(optim.PENALTY_SCHEDULE)
    assert len(set(seen)) == len(seen)
    assert res.argmin.tobytes() in seen


@pytest.mark.parametrize("start", [np.diag([1.0, 0, 0, 0]), np.diag([0.5, 0.5, 0, 0])])
def test_descent_from_a_rank_deficient_start_leaves_its_rank(start):
    # ||sigma - diag(.4, .3, .2, .1)||_F^2 has its minimum 0 at full rank.
    # grad_x pulls the gradient back as F G, so a factor with a zero column
    # keeps it at every step: the start's factor must have none.
    par = DensityParam(4)
    target = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)

    def objective(x):
        s, cache = par.sigma(x)
        diff = s - target
        return (diff.real ** 2 + diff.imag ** 2).sum((-2, -1)), par.grad_x(2 * diff, s, cache)

    res = minimize_penalized(objective, [], par.n_params, OptimizerConfig(restarts=1, max_iters=50),
                             inits=[par.init_from_matrix(start.astype(complex))])
    assert res.value <= 1e-10


def test_unconstrained_descent_ignores_the_penalty_weights(monkeypatch):
    _, _, objective, _ = quadratic_problem()
    cfg = OptimizerConfig(restarts=3, max_iters=20)
    base = minimize_penalized(objective, [], 5, cfg)
    monkeypatch.setattr(optim, "PENALTY_SCHEDULE", (1.0, 3.0, 7.0, 1e6))
    other = minimize_penalized(objective, [], 5, cfg)
    assert_same_run(other, base)
    assert other.restart_index == base.restart_index


def assert_same_run(together, alone):
    assert np.array_equal(together.argmin, alone.argmin)
    assert together.value == alone.value
    assert together.iterations_used == alone.iterations_used
    assert together.residuals == alone.residuals


def run_alone(objective, constraints, param_dim, cfg, inits, winner):
    """The winning restart of a lockstep run, run again by itself."""
    inits = list(inits or [])
    if winner < len(inits):
        start = inits[winner]
    else:
        start = np.random.default_rng(cfg.master_seed + winner).standard_normal(param_dim)
    return minimize_penalized(objective, constraints, param_dim,
                              dataclasses.replace(cfg, restarts=1), inits=[start])


def test_lockstep_restart_matches_the_same_start_run_alone(monkeypatch):
    _, _, objective, constraint = quadratic_problem()
    monkeypatch.setattr(optim, "PENALTY_SCHEDULE", (10.0, 1000.0))
    cfg = OptimizerConfig(restarts=4, max_iters=60)
    for inits in ([], [np.full(5, 0.3)]):
        together = minimize_penalized(objective, [("lin", constraint)], 5, cfg, inits=inits)
        alone = run_alone(objective, [("lin", constraint)], 5, cfg, inits,
                          together.restart_index)
        assert_same_run(together, alone)


@pytest.mark.parametrize("solve", ["broadcast_n2", "ecsq", "eic"])
def test_lockstep_solver_restart_matches_the_same_start_run_alone(monkeypatch, solve):
    # Capture the stacked objective a solver hands to minimize_penalized,
    # then compare its winning restart with that start run by itself.
    calls = []

    def spy(*args, **kw):
        calls.append((args, kw))
        return minimize_penalized(*args, **kw)

    cfg = OptimizerConfig(restarts=3, max_iters=30)
    rho = random_density(4, 4, seed=3)
    if solve == "broadcast_n2":
        monkeypatch.setattr(optim, "minimize_penalized", spy)
        broadcast_mi_upper(rho, 2, cfg)
    else:
        monkeypatch.setattr(bqmi.entms, "minimize_penalized", spy)
        if solve == "ecsq":
            ecsq_upper(rho, None, cfg)
        else:
            eic_lower(rho, default_ic_povm(2), default_ic_povm(2), cfg)
    (objective, constraints, param_dim, cfg_used), kw = calls[0]
    together = minimize_penalized(objective, constraints, param_dim, cfg_used, **kw)
    alone = run_alone(objective, constraints, param_dim, cfg_used, kw.get("inits"),
                      together.restart_index)
    assert_same_run(together, alone)


def test_broadcast_solve_passes_one_marginal_constraint(monkeypatch):
    # The marginals of all three copies form one constraint, so the descent
    # takes one penalty.
    calls = []

    def spy(objective, constraints, *args, **kw):
        calls.append(constraints)
        return minimize_penalized(objective, constraints, *args, **kw)

    monkeypatch.setattr(optim, "minimize_penalized", spy)
    rho = random_density(4, 2, seed=1)
    broadcast_mi_upper(rho, 3, OptimizerConfig(restarts=1, max_iters=3))
    [constraints] = calls
    assert [name for name, _ in constraints] == ["marginal"]


def test_finite_diff_check_flags_wrong_gradient():
    def good(x):
        return float((x ** 2).sum()), 2 * x

    def bad(x):
        return float((x ** 2).sum()), 3 * x

    x = np.array([0.3, -1.2, 0.7])
    assert finite_diff_check(good, x) < 1e-7
    assert finite_diff_check(bad, x) > 0.2


def test_psd_projection_clips_eigenvalues():
    h = np.diag([1.0, -2.0]).astype(complex)
    p = PsdSet().project(h)
    assert np.allclose(p, np.diag([1.0, 0.0]))
    assert PsdSet().residual(h) == pytest.approx(2.0)


def trace_one(dims):
    """The unit-trace set: a MarginalSet that keeps no factor."""
    return MarginalSet(dims, [((), np.eye(1))])


def test_dykstra_two_sets_matches_simplex_oracle(monkeypatch):
    # Projection onto {PSD, unit trace} acts on eigenvalues as projection
    # onto the simplex (clip below a shift chosen so the total is 1).
    monkeypatch.setattr(optim, "DYKSTRA_TOL", 1e-12)
    h = random_herm(4, 3)
    got = dykstra_project(h, [PsdSet(), trace_one((4,))])
    lam, v = np.linalg.eigh(h)

    def simplex(y):
        u = np.sort(y)[::-1]
        css = np.cumsum(u)
        k = np.nonzero(u - (css - 1) / np.arange(1, y.size + 1) > 0)[0][-1]
        theta = (css[k] - 1) / (k + 1)
        return np.clip(y - theta, 0, None)

    oracle = (v * simplex(lam)) @ v.conj().T
    assert np.abs(got - oracle).max() < 1e-8


def test_dykstra_single_negative_eigenvalue_case(monkeypatch):
    monkeypatch.setattr(optim, "DYKSTRA_TOL", 1e-12)
    h = np.diag([0.9, 0.5, -0.2]).astype(complex)
    got = dykstra_project(h, [PsdSet(), trace_one((3,))])
    # oracle: clip the negative eigenvalue, then shift the rest to trace one
    assert np.allclose(np.sort(np.linalg.eigvalsh(got)),
                       np.sort([0.7, 0.3, 0.0]), atol=1e-8)


def test_marginal_set_projection_fixes_marginal():
    rng = np.random.default_rng(8)
    target = np.diag([0.3, 0.7]).astype(complex)
    h = random_herm(4, 8)
    s = MarginalSet((2, 2), [((0,), target)])
    p = s.project(h)
    assert np.abs(partial_trace_mat(p, (2, 2), (0,)) - target).max() < 1e-12
    # idempotent and norm-minimal direction: projecting twice changes nothing
    assert np.abs(s.project(p) - p).max() < 1e-12


def test_dykstra_reports_failure_residuals(monkeypatch):
    # Empty intersection: trace-one against a marginal of trace 2.  Both sets
    # are named "marginal", and the error reports the residual of each.
    monkeypatch.setattr(optim, "DYKSTRA_TOL", 1e-12)
    monkeypatch.setattr(optim, "DYKSTRA_MAX_SWEEPS", 50)
    s = MarginalSet((2,), [((0,), 2 * np.eye(2, dtype=complex))])
    with pytest.raises(RuntimeError, match="residual") as err:
        dykstra_project(np.eye(2, dtype=complex), [trace_one((2,)), s])
    assert str(err.value).count("'marginal'") == 2


def test_trace_set_projection_shifts_by_identity():
    h = random_herm(6, 11)
    got = trace_one((2, 3)).project(h)
    assert np.abs(got - (h - (h.trace() - 1.0) / 6 * np.eye(6))).max() < 1e-14
    assert abs(got.trace() - 1.0) < 1e-14


def test_density_param_produces_states_and_gradient():
    par = DensityParam(4)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(par.n_params)
    sig, cache = par.sigma(x)
    assert abs(sig.trace().real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(sig)[0] > 0

    def fun(z):
        s, c = par.sigma(z)
        f, fmat = entropy_combo(s, (2, 2), [(1.0, (0,)), (-1.0, None)])
        return f, par.grad_x(fmat, s, c)

    assert finite_diff_check(fun, x, max_coords=16) < 1e-6


def test_entropy_combo_matches_direct_entropies():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sig = g @ g.conj().T
    sig /= sig.trace().real
    val, _ = entropy_combo(sig, (2, 2), [(1.0, (0,)), (1.0, (1,)), (-1.0, None)])
    want = (von_neumann_entropy(partial_trace_mat(sig, (2, 2), (0,)))
            + von_neumann_entropy(partial_trace_mat(sig, (2, 2), (1,)))
            - von_neumann_entropy(sig))
    assert abs(val - want) < 1e-10


def test_marginal_penalty_zero_iff_matched():
    sig = np.kron(np.diag([0.25, 0.75]), np.eye(2) / 2).astype(complex)
    v, g = MarginalSet((2, 2), [((0,), np.diag([0.25, 0.75]))]).penalty(sig)
    assert v < 1e-28
    assert np.abs(g).max() < 1e-14
    unmatched = MarginalSet((2, 2), [((0,), np.eye(2) / 2)])
    v2, g2 = unmatched.penalty(sig)
    assert v2 > 0.1
    # the gradient is the derivative of the penalty along any direction
    delta = random_herm(4, 3)
    h = 1e-6
    fd = (unmatched.penalty(sig + h * delta)[0] - unmatched.penalty(sig - h * delta)[0]) / (2 * h)
    assert abs(fd - np.vdot(g2, delta).real) < 1e-8


def test_entropy_combo_compressed_matches_embedded():
    # sigma lives on a 3-dim subspace of one factor of a 4 x 2 space
    rng = np.random.default_rng(5)
    v, _ = np.linalg.qr(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    w = np.kron(v, np.eye(2))
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    sig = g @ g.conj().T
    sig /= sig.trace().real
    terms = [(1.0, (0,)), (0.5, (1,)), (-1.0, None)]
    val, fmat = entropy_combo(sig, (4, 2), terms, BlockIsometry([(4,), (2,)], [v, np.eye(2)]))
    want, fmat_full = entropy_combo(w @ sig @ w.conj().T, (4, 2), terms)
    assert abs(val - want) < 1e-10
    assert np.abs(fmat - w.conj().T @ fmat_full @ w).max() < 1e-9
