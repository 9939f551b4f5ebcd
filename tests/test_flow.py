import dataclasses
import math
import types

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


def test_dt_change_refactors_once(problem):
    problem = dataclasses.replace(problem)
    flow, heat_state = _perturbed_start(problem)
    dts = [0.02] * 6 + [0.01] * 6
    lagged = _run_steps(problem, flow, heat_state, dts, fresh=False)
    fresh = _run_steps(problem, flow, heat_state, dts, fresh=True)
    _assert_trajectories_match(lagged, fresh)
    for solver in (problem.saddle_solver, problem.heat_solver):
        assert solver.factorizations == 2
        assert solver.reused_solves == 10
        assert solver.fallbacks == 0


def test_lagged_lu_falls_back_on_a_distant_system():
    n = 80
    rng = np.random.default_rng(3)
    base = (sp.random(n, n, density=0.1, random_state=rng)
            + 4.0 * sp.eye(n)).tocsc()
    near = (base + 1e-3 * sp.diags(rng.standard_normal(n))).tocsc()
    far = (sp.random(n, n, density=0.1, random_state=rng)
           - 2.0 * sp.eye(n)).tocsc()
    b = rng.standard_normal(n)
    solver = fl.LaggedLU()
    assert not np.any(solver.solve(spla, base, np.zeros(n), 0.1))
    assert solver.factorizations == 0
    for A in (base, near, far):
        x = solver.solve(spla, A, b, 0.1)
        assert np.linalg.norm(b - A @ x) <= fl.LAG_RTOL * np.linalg.norm(b)
    # the near system takes 4 iterations, the far one a full missed cycle
    # with the held factors and none with its own
    assert solver.counts() == {"factorizations": 2, "reused_solves": 1,
                               "gmres_iterations": 4 + fl.LAG_RESTART,
                               "max_gmres_iterations": fl.LAG_RESTART,
                               "fallbacks": 1}
    with pytest.raises(fl.StabilityError):
        solver.solve(spla, far, np.full(n, np.nan), 0.1)


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


def _scipy_gmres_cycle(A, precondition, r, atol):
    """The same cycle through scipy's gmres on A P^-1: (dx, iterations)."""
    iterations = []
    op = spla.LinearOperator(A.shape, dtype=float,
                             matvec=lambda y: A @ precondition(y))
    y, _ = spla.gmres(op, r, atol=atol, rtol=0.0, restart=fl.LAG_RESTART,
                      maxiter=1, callback=iterations.append,
                      callback_type="pr_norm")
    return precondition(y), len(iterations)


@pytest.mark.parametrize("shift,converges", [(0.5, True), (5.0, False)])
def test_gmres_cycle_matches_scipy_gmres(shift, converges):
    # the preconditioner is the LU of A plus a random perturbation: a small
    # one converges within the cycle, a large one uses all LAG_RESTART
    # iterations and misses
    n = 80
    rng = np.random.default_rng(11)
    A = (sp.random(n, n, density=0.1, random_state=rng)
         + 4.0 * sp.eye(n)).tocsc()
    near = A + shift * sp.random(n, n, density=0.05, random_state=rng)
    precondition = spla.splu(near.tocsc()).solve
    r = rng.standard_normal(n)
    atol = fl.GMRES_AIM * np.linalg.norm(r)
    dx, iterations = fl._gmres_cycle(A, precondition, r, atol)
    ref, ref_iterations = _scipy_gmres_cycle(A, precondition, r, atol)
    assert iterations == ref_iterations
    assert (iterations < fl.LAG_RESTART) == converges
    assert (np.linalg.norm(r - A @ dx) <= atol) == converges
    assert np.linalg.norm(dx - ref) <= 1e-12 * np.linalg.norm(ref)


# ------------------------------------------------------------
# block saddle solver
# ------------------------------------------------------------

class _DirectSaddle:
    """Reference saddle solver: assembles [[A, B^T], [B, 0]] and factors it
    afresh for every system."""

    def solve(self, linalg, saddle, b, dt, start=None):
        K = sp.bmat([[saddle.A, saddle.B.T], [saddle.B, None]], format="csc")
        return spla.spsolve(K, b)


def _saddle(problem, fields, dt, mu=None):
    ops = fl.FlowOperators(problem, fields, dt)
    return fl.SaddleSystem(ops.A_dof, ops.B_dof,
                           ops.mass_diag[problem.stencils.free],
                           ops.cell_measure,
                           problem.params.mu if mu is None else mu)


def _momentum_load(saddle, seed=5):
    """Random momentum rows and zero continuity rows, like a step's load."""
    b = np.zeros(saddle.shape[0])
    b[:saddle.A.shape[0]] = np.random.default_rng(seed).standard_normal(
        saddle.A.shape[0])
    return b


@pytest.mark.parametrize("jump", [0.3, -0.5])
def test_block_solves_match_direct_saddle_solves(params, jump):
    problem = _curved_problem(params, jump)
    grid = problem.grid
    reference = dataclasses.replace(problem)
    reference.saddle_solver = _DirectSaddle()
    flow, heat_state = _perturbed_start(problem)
    dts = [0.02] * 20
    block = _run_steps(problem, flow, heat_state, dts, fresh=False)
    direct = _run_steps(reference, flow, heat_state, dts, fresh=False)
    _assert_trajectories_match(block, direct)
    for state, _ in block:
        assert state.div_residual < 1e-12
        assert abs(np.sum(state.eta)) * grid.hx < 1e-13
        assert state.recenter_log < 1e-15
    assert problem.saddle_solver.fallbacks == 0


def test_block_saddle_falls_back_once_on_a_distant_system(params, problem,
                                                          zero_fields):
    base = _saddle(problem, zero_fields, 0.02)
    # thirty times the viscosity: the held factors no longer precondition
    # within one cycle, fresh ones do
    viscous = dataclasses.replace(
        problem, params=dataclasses.replace(params, mu=30.0 * params.mu))
    far = _saddle(viscous, zero_fields, 0.02)
    b = _momentum_load(base)
    solver = fl.LaggedBlockSaddle()
    assert not np.any(solver.solve(spla, base, np.zeros_like(b), 0.02))
    assert solver.factorizations == 0
    for saddle in (base, base, far):
        x = solver.solve(spla, saddle, b, 0.02)
        assert np.linalg.norm(b - saddle @ x) \
            <= fl.LAG_RTOL * np.linalg.norm(b)
    # 17 iterations for each base solve, a full missed cycle on the far
    # system with the held factors, then 16 with its own
    assert solver.counts() == {"factorizations": 2, "reused_solves": 1,
                               "gmres_iterations": 2 * 17 + fl.LAG_RESTART
                               + 16,
                               "max_gmres_iterations": fl.LAG_RESTART,
                               "fallbacks": 1}
    assert solver.factor_nnz > 0
    with pytest.raises(fl.StabilityError):
        solver.solve(spla, far, np.full_like(b, np.nan), 0.02)


class _ColdStartSaddle(fl.LaggedBlockSaddle):
    """Block saddle solver that starts every cycle from P^-1 b."""

    def solve(self, linalg, saddle, b, dt, start=None):
        return super().solve(linalg, saddle, b, dt)


def test_extrapolated_start_saves_iterations(params):
    problem = _curved_problem(params, 0.3)
    cold = dataclasses.replace(problem)
    cold.saddle_solver = _ColdStartSaddle()
    flow, heat_state = _perturbed_start(problem)
    dts = [0.02] * 20
    warm_steps = _run_steps(problem, flow, heat_state, dts, fresh=False)
    cold_steps = _run_steps(cold, flow, heat_state, dts, fresh=False)
    _assert_trajectories_match(warm_steps, cold_steps)
    warm, cold = problem.saddle_solver.counts(), cold.saddle_solver.counts()
    assert warm["gmres_iterations"] < cold["gmres_iterations"]
    assert warm["factorizations"] == cold["factorizations"] == 1
    assert warm["fallbacks"] == cold["fallbacks"] == 0


def test_extrapolated_start_falls_back_when_worse_than_zero(problem,
                                                            zero_fields):
    saddle = _saddle(problem, zero_fields, 0.02)
    b = _momentum_load(saddle)
    solver = fl.LaggedBlockSaddle()
    x = solver.solve(spla, saddle, b, 0.02)
    first = solver.gmres_iterations
    # solutions x and -x extrapolate to -3x, whose residual 4b is larger
    # than that of the zero start: the cycle starts from P^-1 b instead
    again = solver.solve(spla, saddle, b, 0.02, start=-3.0 * x)
    assert solver.gmres_iterations == 2 * first
    assert np.array_equal(again, x)


def test_saddle_start_needs_two_levels_at_this_dt(problem):
    # momentum_step extrapolates the state's two time levels only when both
    # were taken at the step's dt; the solver holds no history of its own
    problem = dataclasses.replace(problem)
    solver = problem.saddle_solver
    solve = solver.solve
    starts = []

    def recording(linalg, saddle, b, dt, start=None):
        starts.append(start)
        return solve(linalg, saddle, b, dt, start=start)

    solver.solve = recording
    flow, heat_state = _perturbed_start(problem)
    steps = _run_steps(problem, flow, heat_state, [0.02] * 3 + [0.01] * 3,
                       fresh=False)
    assert [start is not None for start in starts] == [False, False, True,
                                                       False, False, True]
    mac = problem.stencils

    def levels(state):
        return np.concatenate([mac.full_vector(state.u1, state.u2)[mac.free],
                               state.p.ravel()])

    (f1, _), (f2, _), _, (f4, _), (f5, _), _ = steps
    assert np.array_equal(starts[2], 2.0 * levels(f2) - levels(f1))
    assert np.array_equal(starts[5], 2.0 * levels(f5) - levels(f4))


def test_block_saddle_raises_when_fresh_factors_miss(problem, zero_fields):
    # the viscosity enters only the Schur approximation; a wildly wrong one
    # leaves the preconditioned matrix too far from the identity for one
    # cycle, so the solve must stop instead of refactoring forever
    bad = _saddle(problem, zero_fields, 0.02, mu=1e6)
    solver = fl.LaggedBlockSaddle()
    with pytest.raises(fl.StabilityError):
        solver.solve(spla, bad, _momentum_load(bad), 0.02)
    assert solver.counts()["factorizations"] == 1
    assert solver.counts()["max_gmres_iterations"] == fl.LAG_RESTART


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
                          np.zeros(mac.ncell)])
    ref = mac.P @ spla.spsolve(K, rhs)[:mac.free.size]
    got = mac.full_vector(state.u1, state.u2)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))



def test_block_solves_keep_divergence_at_direct_level(params):
    # at 48x32 on a curved rest state a GMRES stop at LAG_RTOL leaves up to
    # 2e-12 in the divergence; the solver's tighter stop keeps it near 1e-13
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


# ------------------------------------------------------------
# single-precision velocity factor
# ------------------------------------------------------------

class _DoubleSaddle(fl.LaggedBlockSaddle):
    """Block saddle solver holding its velocity-block LU in float64."""
    factor_dtype = np.float64


def _record_splu(monkeypatch, module):
    """dtypes of the matrices that module's spla handle factors from now on."""
    dtypes = []

    def splu(A, **kw):
        dtypes.append(A.dtype)
        return spla.splu(A, **kw)

    monkeypatch.setattr(module, "spla", types.SimpleNamespace(splu=splu))
    return dtypes


def _run_counted(problem, flow, heat_state, dts):
    """(flow, heat) after each step and each step's saddle GMRES count."""
    out, counts = [], []
    fields = geo.build_geometry(problem.grid, flow.eta, flow.zdot)
    solver = problem.saddle_solver
    for dt in dts:
        before = solver.gmres_iterations
        flow, heat_state, fields = fl.coupled_step(problem, fields, flow,
                                                   heat_state, dt)
        out.append((flow, heat_state))
        counts.append(solver.gmres_iterations - before)
    return out, counts


@pytest.mark.parametrize("jump", [0.0, 0.3])
def test_single_precision_factor_keeps_iterations(params, jump,
                                                  monkeypatch):
    problem = _curved_problem(params, jump)
    double = dataclasses.replace(problem)
    double.saddle_solver = _DoubleSaddle()
    flow, heat_state = _perturbed_start(problem)
    dts = [0.02] * 20
    dtypes = _record_splu(monkeypatch, fl)
    single_steps, single_counts = _run_counted(problem, flow, heat_state, dts)
    double_steps, double_counts = _run_counted(double, flow, heat_state, dts)
    assert dtypes == [np.float32, np.float64]
    assert single_counts == double_counts
    assert min(single_counts) > 0
    _assert_trajectories_match(single_steps, double_steps)
    for state, _ in single_steps:
        assert state.div_residual <= 1e-12
    for solver in (problem.saddle_solver, double.saddle_solver):
        assert solver.counts()["factorizations"] == 1
        assert solver.counts()["fallbacks"] == 0


@pytest.mark.parametrize("jump", [0.0, 0.3])
def test_single_precision_factor_solves_a_stiff_system(params, jump):
    # at dt = 1 the viscous blocks outweigh the mass M/dt; fresh float32
    # factors still meet LAG_RTOL within the one cycle, in as many
    # iterations as float64 ones
    problem = _curved_problem(params, jump)
    fields = geo.build_geometry(problem.grid, np.zeros(problem.grid.nx))
    saddle = _saddle(problem, fields, 1.0)
    b = _momentum_load(saddle)
    solver, double = fl.LaggedBlockSaddle(), _DoubleSaddle()
    x = solver.solve(spla, saddle, b, 1.0)
    double.solve(spla, saddle, b, 1.0)
    assert np.linalg.norm(b - saddle @ x) <= fl.LAG_RTOL * np.linalg.norm(b)
    assert solver.counts() == double.counts()
    assert solver.counts()["factorizations"] == 1
    assert solver.counts()["fallbacks"] == 0
    assert solver.counts()["max_gmres_iterations"] < fl.LAG_RESTART
