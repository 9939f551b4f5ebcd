import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from contactflow import diagnostics as dg
from contactflow import equilibrium as eq
from contactflow import flow as fl
from contactflow import geometry as geo
from contactflow import heat as ht


def _centered(v):
    v = np.asarray(v, float)
    return v - v.mean()


# ------------------------------------------------------------
# curvature remainder and package exports
# ------------------------------------------------------------

@given(st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=80, deadline=None)
def test_remainder_is_second_order(s0, s):
    # |f''| <= 3*12^-0.5 * (1.2)^-2.5 < 0.86 everywhere
    assert abs(fl.remainder_r(s0, s)) <= 0.43 * s * s + 1e-15
    assert fl.remainder_r(s0, 0.0) == 0.0


def test_package_exports_resolve():
    import contactflow
    for name in contactflow.__all__:
        assert hasattr(contactflow, name), name


# ------------------------------------------------------------
# rest state and structural constraints
# ------------------------------------------------------------

def test_rest_state_is_exact_fixed_point(problem, grid):
    state = fl.zero_flow_state(grid)
    theta = np.zeros((grid.nx + 1, grid.ny + 1))
    for _ in range(5):
        fields = geo.build_geometry(grid, state.eta, state.zdot)
        state = fl.momentum_step(problem, fields, state, theta=theta, dt=0.05)
    assert np.max(np.abs(state.u1)) == 0.0
    assert np.max(np.abs(state.u2)) == 0.0
    assert np.max(np.abs(state.eta)) == 0.0
    assert np.max(np.abs(state.p)) == 0.0


@pytest.mark.parametrize("jump", [0.0, 0.3, -0.5])
def test_initial_data_satisfies_discrete_constraints(params, jump):
    problem = _curved_problem(params, jump)
    grid = problem.grid
    eta0 = _centered(1e-3 * np.cos(math.pi * grid.xc / grid.ell))
    u1 = 1e-2 * np.sin(math.pi * grid.xf[:, None]) * np.ones((1, grid.ny))
    u2 = 1e-2 * np.cos(math.pi * grid.xc[:, None] / 2) * np.ones((1, grid.ny + 1))
    state = fl.construct_flow_initial_data(problem, eta0, u1, u2)
    fields = geo.build_geometry(grid, state.eta, state.zdot)
    res = fl.check_compatibility(problem, fields, state)
    assert res["div"] < 1e-12
    assert res["wall_flux"] == 0.0
    assert res["kinematic"] < 1e-13
    assert res["mean_eta"] < 1e-15


@pytest.mark.parametrize("jump", [0.3, -0.5, 0.9])
def test_even_surface_data_stay_even(params, jump):
    # the rest state is exactly even, so even data excite the odd modes
    # only at rounding level
    problem = _curved_problem(params, jump)
    grid = problem.grid
    flow = fl.construct_flow_initial_data(
        problem, _centered(0.02 * np.cos(math.pi * grid.xc / grid.ell)))
    cold = ht.HeatState(theta=np.zeros((grid.nx + 1, grid.ny + 1)))
    flow, _ = _run_steps(problem, flow, cold, [0.02] * 10, fresh=False)[-1]
    assert np.max(np.abs(flow.eta - flow.eta[::-1])) \
        <= 1e-13 * np.max(np.abs(flow.eta))


def test_step_preserves_constraints_and_volume(problem, grid):
    eta0 = _centered(1e-3 * np.cos(math.pi * grid.xc / grid.ell))
    state = fl.construct_flow_initial_data(problem, eta0)
    theta = np.zeros((grid.nx + 1, grid.ny + 1))
    for _ in range(50):
        fields = geo.build_geometry(grid, state.eta, state.zdot)
        state = fl.momentum_step(problem, fields, state, theta=theta, dt=0.02)
        assert state.div_residual < 1e-12
        assert abs(np.sum(state.eta)) * grid.hx < 1e-13
        assert state.recenter_log < 1e-15
    assert np.max(np.abs(state.u1[0])) == 0.0
    assert np.max(np.abs(state.u1[-1])) == 0.0


def test_perturbation_decays(problem, grid):
    eta0 = _centered(2e-3 * np.cos(math.pi * grid.xc / grid.ell))
    state = fl.construct_flow_initial_data(problem, eta0)
    theta = np.zeros((grid.nx + 1, grid.ny + 1))
    e0 = float(np.sum(eta0 ** 2))
    for _ in range(120):
        fields = geo.build_geometry(grid, state.eta, state.zdot)
        state = fl.momentum_step(problem, fields, state, theta=theta, dt=0.05)
    assert float(np.sum(state.eta ** 2)) < 0.5 * e0


def test_momentum_step_requires_dt(problem, zero_fields, grid):
    with pytest.raises(TypeError):
        fl.momentum_step(problem, zero_fields, fl.zero_flow_state(grid))


def test_cfl_violation_raises(problem, zero_fields, grid):
    state = fl.zero_flow_state(grid)
    state.u1 = state.u1 + 50.0
    with pytest.raises(fl.StabilityError):
        fl.momentum_step(problem, zero_fields, state, dt=0.05)


def test_spill_raises(problem, grid):
    state = fl.zero_flow_state(grid)
    state.eta = _centered(1.4 * np.cos(math.pi * grid.xc / grid.ell))
    fields = geo.build_geometry(grid, state.eta, state.zdot)
    with pytest.raises(fl.SpillError):
        fl.momentum_step(problem, fields, state, dt=1e-3)


@pytest.mark.parametrize("nx,ny", [(12, 8), (24, 16)])
def test_folded_map_raises(params, flat_surface, nx, ny):
    # zeta stays in [0.70, 1.30], inside (0, big_l], so the spill guard
    # passes; but the face Jacobians of this flattening map go negative
    grid = geo.make_grid(flat_surface, nx, ny, params.depth)
    problem = fl.CoupledProblem(params=params, surface=flat_surface,
                                grid=grid)
    state = fl.zero_flow_state(grid)
    state.eta = _centered(0.3 * np.cos(math.pi * grid.xc / grid.ell))
    fields = geo.build_geometry(grid, state.eta, state.zdot)
    with pytest.raises(fl.StabilityError, match="flattening map folds"):
        fl.momentum_step(problem, fields, state, dt=0.02)


def test_nan_velocity_raises(problem, zero_fields, grid):
    # comparisons with NaN are False, so the CFL guard must be a negated <=
    state = fl.zero_flow_state(grid)
    state.u1 = state.u1.copy()
    state.u1[3, 2] = np.nan
    with pytest.raises(fl.StabilityError):
        fl.momentum_step(problem, zero_fields, state, dt=0.05)


# ------------------------------------------------------------
# state bookkeeping
# ------------------------------------------------------------

def test_histories_never_nest(grid):
    state = fl.zero_flow_state(grid)
    for n in range(6):
        state = state.advanced(time=state.time + 0.1, dt=0.1)
    assert len(state.levels) == 2
    for lev in state.levels:
        assert lev.levels == []


def test_backward_difference_fields(grid):
    a = fl.zero_flow_state(grid)
    b = a.advanced(eta=a.eta + 1.0, zdot=a.zdot + 2.0, dt=0.5,
                   time=0.5)
    c = b.advanced(eta=b.eta + 2.0, zdot=b.zdot + 2.0, dt=0.5,
                   time=1.0)
    assert np.allclose(c.dt_field("eta"), 4.0)
    assert np.allclose(c.d2t_field("eta"), 4.0)
    assert np.allclose(c.dt_field("zdot"), 4.0)
    assert np.allclose(c.d2t_field("zdot"), 0.0)


def test_velocity_interpolation_shapes(grid):
    state = fl.zero_flow_state(grid)
    u = fl.velocity_at_nodes(state.u1, state.u2)
    assert u.shape == (2, grid.nx + 1, grid.ny + 1)


def test_node_interpolation_exact_on_affine_data(grid):
    def affine(x, s):
        X, S = np.meshgrid(x, s, indexing="ij")
        return 0.3 - 1.7 * X + 2.9 * S
    Xn, Sn = np.meshgrid(grid.xf, grid.sf, indexing="ij")
    want = 0.3 - 1.7 * Xn + 2.9 * Sn
    u = fl.velocity_at_nodes(affine(grid.xf, grid.sc),
                             affine(grid.xc, grid.sf))
    assert np.max(np.abs(u - want)) < 1e-13
    assert np.max(np.abs(geo.to_nodes(affine(grid.xc, grid.sf), 0)
                         - want)) < 1e-13
    assert np.max(np.abs(dg._cells_to_nodes(affine(grid.xc, grid.sc))
                         - want)) < 1e-13


def test_coupled_step_advances_both_clocks(problem, grid):
    flow = fl.construct_flow_initial_data(
        problem, _centered(1e-3 * np.cos(math.pi * grid.xc / grid.ell)))
    heat_state = ht.HeatState(theta=np.zeros((grid.nx + 1, grid.ny + 1)))
    fields = geo.build_geometry(grid, flow.eta, flow.zdot)
    flow2, heat2, fields2 = fl.coupled_step(problem, fields, flow,
                                            heat_state, 0.02)
    assert flow2.time == pytest.approx(0.02)
    assert heat2.time == pytest.approx(0.02)
    # the returned geometry is the new state's, not the one the step ran on
    assert fields2.grid is grid
    assert np.array_equal(fields2.eta, flow2.eta)
    assert np.array_equal(fields2.deta_dt, flow2.zdot)


# ------------------------------------------------------------
# MAC assembly
# ------------------------------------------------------------

@pytest.mark.parametrize("jump", [0.0, 0.3, -0.5])
def test_assembly_is_symmetric_and_conservative(params, jump, monkeypatch):
    built, heat_built = [], []

    class CountedStencils(fl.MacStencils):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    class CountedHeatPattern(ht.HeatPattern):
        def __init__(self, *args):
            heat_built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(fl, "MacStencils", CountedStencils)
    monkeypatch.setattr(ht, "HeatPattern", CountedHeatPattern)
    problem = _curved_problem(params, jump)
    grid = problem.grid
    eta = _centered(1e-2 * np.cos(math.pi * grid.xc / grid.ell)
                    + 3e-3 * np.sin(2.3 * grid.xc))
    zdot = _centered(1e-2 * np.sin(math.pi * grid.xc / grid.ell))
    ops = fl.FlowOperators(problem, geo.build_geometry(grid, eta, zdot), 0.02)
    A = ops.A_dof
    assert abs(A - A.T).max() <= 1e-14 * abs(A).max()
    # discrete divergence theorem: the cell divergences of any admissible
    # velocity sum to its surface flux
    cells = grid.hs * np.asarray(ops.Div.sum(axis=0)).ravel()
    surface = np.asarray(ops.Ztop.sum(axis=0)).ravel()
    assert np.max(np.abs(cells - surface)) <= 1e-14 * np.max(np.abs(surface))

    flow, heat_state = _perturbed_start(problem)
    fields = geo.build_geometry(grid, flow.eta, flow.zdot)
    for _ in range(3):
        flow, heat_state, fields = fl.coupled_step(problem, fields, flow,
                                                   heat_state, 0.02)
    assert len(built) == 1
    assert len(heat_built) == 1
    # a replaced problem builds its own stencils and saddle factors, while
    # the heat pattern stays with the shared grid
    _run_steps(problem, flow, heat_state, [0.02], fresh=True)
    assert len(built) == 2
    assert len(heat_built) == 1


# ------------------------------------------------------------
# lagged factorization
# ------------------------------------------------------------

def _curved_problem(params, jump):
    params = dataclasses.replace(params, gamma_jump=jump)
    surface = eq.solve_equilibrium(params, 1.0)
    grid = geo.make_grid(surface, 24, 16, params.depth)
    return fl.CoupledProblem(params=params, surface=surface, grid=grid)


def _perturbed_start(problem):
    grid = problem.grid
    flow = fl.construct_flow_initial_data(
        problem, _centered(1e-2 * np.cos(math.pi * grid.xc / grid.ell)))
    X, S = np.meshgrid(grid.xf, grid.sf, indexing="ij")
    theta = 1e-2 * np.sin(math.pi * (X + grid.ell) / (2.0 * grid.ell)) \
        * np.sin(0.5 * math.pi * S)
    return flow, ht.HeatState(theta=theta)


def _run_steps(problem, flow, heat_state, dts, fresh):
    """(flow, heat) after each step; fresh=True factors every system anew."""
    out = []
    fields = geo.build_geometry(problem.grid, flow.eta, flow.zdot)
    for dt in dts:
        stepper = dataclasses.replace(problem) if fresh else problem
        flow, heat_state, fields = fl.coupled_step(stepper, fields, flow,
                                                   heat_state, dt)
        out.append((flow, heat_state))
    return out


def _assert_trajectories_match(lagged, fresh, rel=1e-10):
    for (fa, ha), (fb, hb) in zip(lagged, fresh):
        for name in ("u1", "u2", "p", "eta", "zdot"):
            ref = getattr(fb, name)
            err = np.max(np.abs(getattr(fa, name) - ref))
            assert err <= rel * np.max(np.abs(ref)), name
        assert np.max(np.abs(ha.theta - hb.theta)) \
            <= rel * np.max(np.abs(hb.theta))


@pytest.mark.parametrize("jump", [0.3, -0.5])
def test_lagged_solves_match_fresh_factorizations(params, jump):
    problem = _curved_problem(params, jump)
    grid = problem.grid
    rest = fl.zero_flow_state(grid)
    cold = ht.HeatState(theta=np.zeros((grid.nx + 1, grid.ny + 1)))
    for flow, heat_state in _run_steps(problem, rest, cold, [0.02] * 3,
                                       fresh=False):
        assert not np.any(flow.u1) and not np.any(flow.u2)
        assert not np.any(flow.eta) and not np.any(heat_state.theta)
    assert problem.saddle_solver.factorizations == 0
    assert problem.heat_solver.factorizations == 0

    flow, heat_state = _perturbed_start(problem)
    dts = [0.02] * 20
    lagged = _run_steps(problem, flow, heat_state, dts, fresh=False)
    fresh = _run_steps(problem, flow, heat_state, dts, fresh=True)
    _assert_trajectories_match(lagged, fresh)
    for state, _ in lagged:
        assert state.div_residual < 1e-12
        assert abs(np.sum(state.eta)) * grid.hx < 1e-13
        assert state.recenter_log < 1e-15
    for solver in (problem.saddle_solver, problem.heat_solver):
        assert solver.factorizations == 1
        assert solver.reused_solves == 19
        assert solver.fallbacks == 0


def test_dt_change_keeps_the_held_factor(problem):
    # a factor held from dt = 0.02 still preconditions the systems of
    # dt = 0.01 within CG_MAXITER iterations, so no step refactors
    problem = dataclasses.replace(problem)
    flow, heat_state = _perturbed_start(problem)
    dts = [0.02] * 6 + [0.01] * 6
    lagged = _run_steps(problem, flow, heat_state, dts, fresh=False)
    fresh = _run_steps(problem, flow, heat_state, dts, fresh=True)
    _assert_trajectories_match(lagged, fresh)
    for solver in (problem.saddle_solver, problem.heat_solver):
        assert solver.factorizations == 1
        assert solver.reused_solves == 11
        assert solver.fallbacks == 0


def test_both_solvers_factor_with_the_same_options(problem, monkeypatch):
    # one LaggedLU serves both solves: the same ordering, pivoting and
    # symmetric mode, in float32 for the flow and float64 for the heat
    factored = []

    def recorder(owner):
        def splu(A, **kw):
            factored.append((owner, A.dtype, kw))
            return spla.splu(A, **kw)
        return types.SimpleNamespace(splu=splu)

    monkeypatch.setattr(fl, "spla", recorder("flow"))
    monkeypatch.setattr(ht, "spla", recorder("heat"))
    problem = dataclasses.replace(problem)
    flow, heat_state = _perturbed_start(problem)
    _run_steps(problem, flow, heat_state, [0.02] * 2, fresh=False)
    options = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
               "options": {"SymmetricMode": True}}
    assert factored == [("heat", np.float64, options),
                        ("flow", np.float32, options)]


def _spd(n, rng, density=0.1):
    """A random sparse SPD matrix S S^T + I in CSC form."""
    S = sp.random(n, n, density=density, random_state=rng)
    return (S @ S.T + sp.eye(n)).tocsc()


def test_lagged_lu_falls_back_on_a_distant_system():
    n = 80
    rng = np.random.default_rng(3)
    base = _spd(n, rng)
    near = (base + 1e-3 * sp.diags(rng.random(n))).tocsc()
    # eigenvalues spread over eight decades: the base factor leaves CG far
    # from converged after CG_MAXITER iterations
    far = (base + sp.diags(np.logspace(-4, 4, n))).tocsc()
    b = rng.standard_normal(n)
    solver = fl.LaggedLU(np.float64)
    for A in (base, near, far):
        x = solver.solve(spla, A, b)
        assert np.linalg.norm(b - A @ x) <= fl.LAG_RTOL * np.linalg.norm(b)
    # the near system takes 3 iterations, the far one a full missed solve
    # with the held factor and none with its own
    assert solver.counts() == {"factorizations": 2, "reused_solves": 1,
                               "cg_iterations": 3 + fl.CG_MAXITER,
                               "max_cg_iterations": fl.CG_MAXITER,
                               "fallbacks": 1}
    with pytest.raises(fl.StabilityError):
        solver.solve(spla, far, np.full(n, np.nan))


def test_banded_cholesky_matches_dense_solve():
    # a random SPD band matrix of half-width 3, given in full: the factor
    # reads its upper triangle
    n, bw = 30, 3
    rng = np.random.default_rng(5)
    offsets = range(1, bw + 1)
    upper = sp.diags([rng.standard_normal(n - k) for k in offsets],
                     list(offsets), shape=(n, n))
    S = (upper + upper.T + 8.0 * sp.eye(n)).tocsc()
    b = rng.standard_normal(n)
    chol = fl.BandedCholesky(S)
    want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S.toarray()), b)
    assert np.allclose(chol.solve(b), want, rtol=1e-13, atol=1e-13)
    assert chol.nnz == (bw + 1) * n - bw * (bw + 1) // 2
    with pytest.raises(fl.StabilityError):
        fl.BandedCholesky(-sp.eye(n, format="csc"))


def _scipy_cg(A, precondition, b, atol):
    """The same solve through scipy's cg: (x, iterations)."""
    iterations = []
    M = spla.LinearOperator(A.shape, dtype=float, matvec=precondition)
    x, _ = spla.cg(A, b, rtol=0.0, atol=atol, maxiter=fl.CG_MAXITER, M=M,
                   callback=iterations.append)
    return x, len(iterations)


@pytest.mark.parametrize("shift,converges", [(0.5, True), (20.0, False)])
def test_pcg_matches_scipy_cg(shift, converges):
    # the preconditioner is the LU of A plus a random diagonal: a small one
    # converges within CG_MAXITER iterations, a large one uses them all and
    # misses
    n = 80
    rng = np.random.default_rng(11)
    A = _spd(n, rng)
    near = (A + shift * sp.diags(rng.random(n) ** 4)).tocsc()
    precondition = spla.splu(near).solve
    b = rng.standard_normal(n)
    atol = fl.CG_AIM * np.linalg.norm(b)
    x, iterations = fl._pcg(A, precondition, b, atol)
    ref, ref_iterations = _scipy_cg(A, precondition, b, atol)
    assert iterations == ref_iterations
    assert (iterations < fl.CG_MAXITER) == converges
    assert (np.linalg.norm(b - A @ x) <= fl.LAG_RTOL
            * np.linalg.norm(b)) == converges
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("A", [-sp.eye(6, format="csr"),
                               sp.csr_matrix((6, 6))],
                         ids=["indefinite", "singular"])
def test_pcg_raises_on_non_positive_curvature(A):
    # an indefinite or singular matrix stops CG at its first direction,
    # with no division by zero or NaN along the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fl.StabilityError):
            fl._pcg(A, lambda r: r, np.ones(6), 1e-14)


# ------------------------------------------------------------
# stream-function saddle solver
# ------------------------------------------------------------

def _direct_saddle(ops, solver, f):
    """Reference for FlowOperators.solve: assembles [[A, B^T], [B, 0]] and
    factors it afresh for every system."""
    K = sp.bmat([[ops.A_dof, ops.B_dof.T], [ops.B_dof, None]], format="csc")
    return spla.spsolve(K, np.concatenate([f, np.zeros(K.shape[0] - f.size)]))


def _system(problem, fields, dt, mu=None):
    if mu is not None:
        problem = dataclasses.replace(
            problem, params=dataclasses.replace(problem.params, mu=mu))
    return fl.FlowOperators(problem, fields, dt)


def _momentum_load(ops, seed=5):
    """Random momentum rows, like a step's load."""
    return np.random.default_rng(seed).standard_normal(ops.A_dof.shape[0])


def _saddle_residual(ops, f, x):
    """||[f - A u - B^T p; B u]|| of a solution x = [u, p]."""
    u, p = x[:f.size], x[f.size:]
    return math.hypot(np.linalg.norm(f - ops.A_dof @ u - ops.B_dof.T @ p),
                      np.linalg.norm(ops.B_dof @ u))


@pytest.mark.parametrize("size", [(24, 16), (48, 32)], ids=["24x16", "48x32"])
@pytest.mark.parametrize("jump", [0.0, 0.3, -0.5])
def test_stream_map_spans_divergence_free_velocities(params, jump, size):
    problem = _curved_problem(params, jump)
    grid = geo.make_grid(problem.surface, *size, params.depth)
    problem = dataclasses.replace(problem, grid=grid)
    ops = fl.FlowOperators(problem, geo.build_geometry(
        grid, np.zeros(grid.nx)), 0.02)
    B, T = ops.B_dof, ops.T
    assert abs(B @ T).max() <= 1e-15 * abs(B).max() * abs(T).max()
    # one unknown per free node: the dimension of ker B, as B is onto
    assert T.shape == (B.shape[1], B.shape[1] - B.shape[0])


@pytest.mark.parametrize("jump", [0.3, -0.5])
def test_block_solves_match_direct_saddle_solves(params, jump, monkeypatch):
    problem = _curved_problem(params, jump)
    grid = problem.grid
    reference = dataclasses.replace(problem)
    flow, heat_state = _perturbed_start(problem)
    dts = [0.02] * 20
    block = _run_steps(problem, flow, heat_state, dts, fresh=False)
    monkeypatch.setattr(fl.FlowOperators, "solve", _direct_saddle)
    direct = _run_steps(reference, flow, heat_state, dts, fresh=False)
    _assert_trajectories_match(block, direct)
    for state, _ in block:
        assert state.div_residual < 1e-12
        assert abs(np.sum(state.eta)) * grid.hx < 1e-13
        assert state.recenter_log < 1e-15
    assert problem.saddle_solver.fallbacks == 0


@pytest.mark.parametrize("jump", [0.0, 0.3, -0.5])
def test_accepted_solves_meet_the_saddle_bound(params, jump, monkeypatch):
    problem = dataclasses.replace(_curved_problem(params, jump))
    solve = fl.FlowOperators.solve
    solves = []

    def recording(ops, solver, f):
        x = solve(ops, solver, f)
        solves.append(_saddle_residual(ops, f, x) / np.linalg.norm(f))
        return x

    monkeypatch.setattr(fl.FlowOperators, "solve", recording)
    flow, heat_state = _perturbed_start(problem)
    _run_steps(problem, flow, heat_state, [0.02] * 20, fresh=False)
    assert len(solves) == 20
    assert max(solves) <= fl.LAG_RTOL
    assert problem.saddle_solver.counts()["fallbacks"] == 0


def test_block_saddle_falls_back_once_on_a_distant_system(params, problem,
                                                          zero_fields):
    base = _system(problem, zero_fields, 0.02)
    # thirty times the viscosity: the held factor no longer preconditions
    # CG within CG_MAXITER iterations, a fresh one does
    far = _system(problem, zero_fields, 0.02, mu=30.0 * params.mu)
    f = _momentum_load(base)
    solver = fl.LaggedLU(np.float32)
    assert not np.any(base.solve(solver, np.zeros_like(f)))
    assert solver.factorizations == 0
    for ops in (base, base, far):
        x = ops.solve(solver, f)
        assert _saddle_residual(ops, f, x) <= fl.LAG_RTOL * np.linalg.norm(f)
    # 2 iterations for each base solve, a full missed CG on the far system
    # with the held factor, then 3 with its own
    assert solver.counts() == {"factorizations": 2, "reused_solves": 1,
                               "cg_iterations": 2 * 2 + fl.CG_MAXITER + 3,
                               "max_cg_iterations": fl.CG_MAXITER,
                               "fallbacks": 1}
    assert solver.factor_nnz > 0
    with pytest.raises(fl.StabilityError):
        far.solve(solver, np.full_like(f, np.nan))


def test_block_saddle_raises_when_fresh_factors_miss(problem, zero_fields,
                                                     grid):
    # a stream map of another geometry does not span ker B, so no psi
    # meets the continuity rows and the solve must stop instead of
    # refactoring forever
    ops = _system(problem, zero_fields, 0.02)
    eta = _centered(0.1 * np.cos(math.pi * grid.xc / grid.ell))
    ops.T = _system(problem, geo.build_geometry(grid, eta), 0.02).T
    solver = fl.LaggedLU(np.float32)
    with pytest.raises(fl.StabilityError):
        ops.solve(solver, _momentum_load(ops))
    assert solver.counts()["factorizations"] == 1
    assert solver.counts()["fallbacks"] == 0


@pytest.mark.parametrize("jump", [0.0, 0.3, -0.5])
def test_projection_matches_direct_saddle_solve(params, jump):
    problem = _curved_problem(params, jump)
    grid = problem.grid
    eta0 = 1e-3 * np.cos(math.pi * grid.xc / grid.ell)
    u1 = 1e-2 * np.sin(math.pi * grid.xf[:, None]) * np.ones((1, grid.ny))
    u2 = 1e-2 * np.cos(math.pi * grid.xc[:, None] / 2) * np.ones((1, grid.ny + 1))
    state = fl.construct_flow_initial_data(problem, eta0, u1, u2)

    mac = problem.stencils
    ops = fl.FlowOperators(problem, geo.build_geometry(grid, state.eta), 1.0)
    mass = ops.mass_diag[mac.free]
    K = sp.bmat([[sp.diags(mass), ops.B_dof.T], [ops.B_dof, None]],
                format="csc")
    rhs = np.concatenate([mass * mac.full_vector(u1, u2)[mac.free],
                          np.zeros(ops.B_dof.shape[0])])
    ref = mac.P @ spla.spsolve(K, rhs)[:mac.free.size]
    got = mac.full_vector(state.u1, state.u2)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))



def test_block_solves_keep_divergence_at_direct_level(params):
    # at 48x32 on a curved rest state the velocities u = T psi keep the
    # divergence at rounding level, whatever CG leaves in K's own residual
    params = dataclasses.replace(params, gamma_jump=0.3)
    surface = eq.solve_equilibrium(params, 1.0)
    grid = geo.make_grid(surface, 48, 32, params.depth)
    problem = fl.CoupledProblem(params=params, surface=surface, grid=grid)
    flow = fl.construct_flow_initial_data(
        problem, 0.05 * np.cos(math.pi * grid.xc / grid.ell))
    X, S = np.meshgrid(grid.xf, grid.sf, indexing="ij")
    heat_state = ht.HeatState(
        theta=1e-2 * np.sin(math.pi * (X + grid.ell) / (2.0 * grid.ell))
        * np.sin(0.5 * math.pi * S))
    for flow, _ in _run_steps(problem, flow, heat_state, [0.02] * 20,
                              fresh=False):
        assert flow.div_residual <= 1e-12
    assert problem.saddle_solver.counts()["fallbacks"] == 0


@pytest.mark.parametrize("jump", [0.0, 0.3])
def test_single_precision_factor_solves_a_stiff_system(params, jump,
                                                       monkeypatch):
    # at dt = 1 the viscous blocks outweigh the mass M/dt; a fresh float32
    # LU of K still meets LAG_RTOL on the saddle residual in one attempt
    problem = _curved_problem(params, jump)
    fields = geo.build_geometry(problem.grid, np.zeros(problem.grid.nx))
    ops = _system(problem, fields, 1.0)
    f = _momentum_load(ops)
    dtypes = []

    def splu(A, **kw):
        dtypes.append(A.dtype)
        return spla.splu(A, **kw)

    monkeypatch.setattr(fl, "spla", types.SimpleNamespace(splu=splu))
    solver = problem.saddle_solver
    x = ops.solve(solver, f)
    assert dtypes == [np.float32]
    assert _saddle_residual(ops, f, x) <= fl.LAG_RTOL * np.linalg.norm(f)
    assert solver.counts()["factorizations"] == 1
    assert solver.counts()["fallbacks"] == 0
    assert solver.counts()["max_cg_iterations"] < fl.CG_MAXITER
