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

from contactflow import cli
from contactflow import diagnostics as dg
from contactflow import equilibrium as eq
from contactflow import flow as fl
from contactflow import geometry as geo
from contactflow import heat as ht

from _blocks import velocity_block


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

@pytest.mark.parametrize("jump", [0.0, 0.3, -0.5, 0.9])
def test_rest_state_is_exact_fixed_point(params, jump):
    problem = _curved_problem(params, jump)
    grid = problem.grid
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
    ops = fl.FlowOperators(problem, geo.build_geometry(grid, eta, zdot))
    A = velocity_block(ops, 0.02)
    assert abs(A - A.T).max() <= 1e-14 * abs(A).max()
    # discrete divergence theorem: the cell divergences of any admissible
    # velocity sum to its surface flux
    cells = -np.asarray(ops.B_dof.sum(axis=0)).ravel() / grid.hx
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


@pytest.mark.parametrize("jump", [0.0, 0.3, -0.5])
def test_surface_stiffness_is_the_surface_energy(params, jump):
    problem = dataclasses.replace(_curved_problem(params, jump), eps=0.1)
    grid, nx, hx = problem.grid, problem.grid.nx, problem.grid.hx
    G0, G = (M.toarray() for M in problem.surface_stiffness)
    for M in (G0, G):
        assert np.max(np.abs(M - M.T)) <= 1e-14 * np.max(np.abs(M))
    assert np.min(np.linalg.eigvalsh(G)) > 0.0
    # 1/2 eta^T G eta is the surface energy, written out cell by cell
    inv32 = (1.0 + grid.dzeta0_f[1:-1] ** 2) ** -1.5
    for eta in np.random.default_rng(3).standard_normal((4, nx)):
        energy = (0.5 * params.sigma1 * hx
                  * np.sum(inv32 * (np.diff(eta) / hx) ** 2)
                  + 0.5 * params.g * hx * np.sum(eta ** 2))
        assert abs(0.5 * eta @ G @ eta - energy) <= 1e-13 * energy
    # G0 is eps times the curvature part plus the contact law at the two
    # node ends of the surface
    D = np.diff(np.eye(nx), axis=0) / hx
    curvature = params.sigma1 * D.T @ np.diag(hx * inv32) @ D
    E = geo.to_nodes(np.eye(nx), 0)[[0, -1]]
    contact = G0 - problem.eps * curvature
    assert np.max(np.abs(contact - params.kappa * E.T @ E)) \
        <= 1e-14 * np.max(np.abs(G0))


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


def _record_systems(solver):
    """The list of K that solver.solve receives from now on."""
    solve, systems = solver.solve, []

    def recording(linalg, K, b):
        systems.append(K)
        return solve(linalg, K, b)

    solver.solve = recording
    return systems


def test_heat_factors_in_minimum_degree_and_the_flow_in_dissection(
        problem, monkeypatch):
    # one LaggedLU serves both solves with diagonal pivots and symmetric
    # mode, in float64 for the heat and float32 for the flow: the heat
    # factors its held Crank-Nicolson matrix as given, in minimum-degree
    # order, and the flow factors the step's K as formed, in the natural
    # order, which is the nested dissection of its nodes
    factored = []

    def recorder(owner):
        def splu(A, **kw):
            factored.append((owner, A, kw,
                             [x.copy() for x in (A.data, A.indices,
                                                 A.indptr)]))
            return spla.splu(A, **kw)
        return types.SimpleNamespace(splu=splu)

    monkeypatch.setattr(fl, "spla", recorder("flow"))
    monkeypatch.setattr(ht, "spla", recorder("heat"))
    problem = dataclasses.replace(problem)
    heat_systems = _record_systems(problem.heat_solver)
    flow_systems = _record_systems(problem.saddle_solver)
    flow, heat_state = _perturbed_start(problem)
    _run_steps(problem, flow, heat_state, [0.02] * 2, fresh=False)

    (heat, heat_A, heat_kw, held), (flow, flow_A, flow_kw, _) = factored
    pivots = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
    assert (heat, flow) == ("heat", "flow")
    assert heat_kw == dict(pivots, permc_spec="MMD_AT_PLUS_A")
    assert flow_kw == dict(pivots, permc_spec="NATURAL")
    assert heat_A.dtype == np.float64 and flow_A.dtype == np.float32
    assert heat_A is heat_systems[0]
    # splu sums duplicates in place, and the canonical Crank-Nicolson
    # matrix, held for later steps, keeps its arrays
    assert all(np.array_equal(x, y) for x, y in
               zip(held, (heat_A.data, heat_A.indices, heat_A.indptr)))
    K = flow_systems[0].astype(np.float32)
    assert np.array_equal(flow_A.toarray(), K.toarray())
    # K taken to x-major node order by the nodes its columns read, then
    # gathered into the nested dissection of the node grid, factors with
    # the same fill
    grid = problem.grid
    xmajor = np.argsort(_stream_nodes(flow_systems[0].T, grid))
    order = fl.nested_dissection(grid.nx - 1, grid.ny, 3)
    gathered = K[xmajor][:, xmajor][order][:, order].tocsc()
    lu = spla.splu(gathered, permc_spec="NATURAL", **pivots)
    assert problem.saddle_solver.factor_nnz == lu.nnz


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (4, 4), (13, 5),
                                   (47, 32)],
                         ids=lambda shape: "%dx%d" % shape)
def test_nested_dissection_is_a_permutation(shape):
    order = fl.nested_dissection(*shape, 3)
    assert np.array_equal(np.sort(order), np.arange(shape[0] * shape[1]))


def _stream_nodes(T, grid):
    """The x-major free node (i, j), i < nx - 1 and j < ny, that each column
    of the stream map T reads. u1 = d_s psi / Jvol, so a node feeds the u1
    dofs of its x face on the cells below and above it, and the lower one,
    i ny + j, is its own x-major index."""
    u1 = T[:(grid.nx - 1) * grid.ny].tocsc()
    return np.array([u1.indices[a:b].min()
                     for a, b in zip(u1.indptr[:-1], u1.indptr[1:])])


def _first_step_system(problem):
    """The K that the first momentum step of a perturbed start hands its
    saddle solver."""
    grid = problem.grid
    state = fl.construct_flow_initial_data(
        problem, _centered(1e-2 * np.cos(math.pi * grid.xc / grid.ell)))
    systems = _record_systems(problem.saddle_solver)
    fl.momentum_step(problem, geo.build_geometry(grid, state.eta, state.zdot),
                     state, dt=0.02)
    K, = systems
    return K


@pytest.mark.parametrize("jump", [0.0, 0.3])
def test_step_matrix_reaches_three_nodes(params, jump):
    # the separators of MacStencils.order are 3 nodes wide: no entry of K
    # couples two nodes further apart along either axis. K's row and column
    # k is the x-major node order[k]
    problem = _curved_problem(params, jump)
    grid = geo.make_grid(problem.surface, 12, 8, params.depth)
    problem = dataclasses.replace(problem, grid=grid)
    K = _first_step_system(problem).astype(np.float64).tocoo()
    assert K.shape == ((grid.nx - 1) * grid.ny,) * 2
    order = problem.stencils.order
    for node in (lambda k: order[k] // grid.ny, lambda k: order[k] % grid.ny):
        assert np.max(np.abs(node(K.row) - node(K.col))) == 3


@pytest.mark.parametrize("jump", [0.0, 0.3])
def test_step_operator_applies_the_formed_matrix(params, jump, monkeypatch):
    # the K that a step hands its solver applies T^T A T matrix-free, with
    # the transposes held as CSC views of R, Ztop and T, so a product builds
    # no sparse matrix; it is the formed matrix's product to rounding
    problem = _curved_problem(params, jump)
    grid = geo.make_grid(problem.surface, 12, 8, params.depth)
    problem = dataclasses.replace(problem, grid=grid)
    K = _first_step_system(problem)
    for M, Mt in ((K.R, K.Rt), (K.Ztop, K.Ztopt), (K.T, K.Tt)):
        assert Mt.format == "csc" and Mt.shape == M.shape[::-1]
        assert all(np.shares_memory(x, y) for x, y in
                   zip((M.data, M.indices, M.indptr),
                       (Mt.data, Mt.indices, Mt.indptr)))
    built = []
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        def counted(self, *args, _init=cls.__init__, **kw):
            built.append(type(self))
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", counted)
    psi = np.random.default_rng(7).standard_normal((grid.nx - 1) * grid.ny)
    got = K @ psi
    assert built == []
    monkeypatch.undo()
    want = K.astype(np.float64) @ psi
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_stream_columns_follow_the_dissection_order(params):
    # T's column k reads the x-major node order[k]: its u1 entries are the
    # d_s psi of that node's x face on the cells below and above it
    problem = _curved_problem(params, 0.3)
    grid = geo.make_grid(problem.surface, 12, 8, params.depth)
    problem = dataclasses.replace(problem, grid=grid)
    ops = fl.FlowOperators(problem, geo.build_geometry(grid,
                                                       np.zeros(grid.nx)))
    u1 = ops.T[:(grid.nx - 1) * grid.ny].tocsc()
    for k, node in enumerate(problem.stencils.order):
        want = [node] if node % grid.ny == grid.ny - 1 else [node, node + 1]
        assert sorted(u1.indices[u1.indptr[k]:u1.indptr[k + 1]]) == want


@pytest.mark.parametrize("jump,eps", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.4)],
                         ids=["flat", "curved", "eps0.4"])
def test_default_decay_takes_one_cg_attempt_per_solve(jump, eps, tmp_path,
                                                      monkeypatch):
    # every flow solve keeps its first CG attempt under the backward-error
    # bound, on flat and curved rest states and at eps = 0.4
    pcg, attempts = fl._pcg, []

    def counted(A, *args):
        if isinstance(A, fl.StreamSystem):
            attempts.append(1)
        return pcg(A, *args)

    monkeypatch.setattr(fl, "_pcg", counted)
    cfg = cli.load_config(environ={}, overrides={
        "eps": eps, "time": {"t_end": 0.4}, "params": {"gamma_jump": jump}})
    report, _ = cli.run_coupled(cfg, cli.validate_config(cfg), str(tmp_path))
    solver = report["saddle_solver"]
    assert solver["factorizations"] + solver["reused_solves"] == 20
    assert len(attempts) == 20


def test_dissection_cuts_the_flow_lu_fill(params):
    # the step's K of a curved 48x32 rest state: its LU in nested
    # dissection keeps fewer L+U entries than in minimum-degree order
    params = dataclasses.replace(params, gamma_jump=0.3)
    surface = eq.solve_equilibrium(params, 1.0)
    grid = geo.make_grid(surface, 48, 32, params.depth)
    problem = fl.CoupledProblem(params=params, surface=surface, grid=grid)
    K = _first_step_system(problem)
    mmd = spla.splu(K.astype(np.float32), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    assert 0 < problem.saddle_solver.factor_nnz < mmd.nnz


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


def test_release_drops_the_factor_and_keeps_the_counts():
    n = 80
    rng = np.random.default_rng(4)
    A = _spd(n, rng)
    b = rng.standard_normal(n)
    solver = fl.LaggedLU(np.float64)
    solver.solve(spla, A, b)
    solver.solve(spla, A, b)
    counts, nnz = solver.counts(), solver.factor_nnz
    solver.release()
    assert solver.counts() == counts
    assert solver.factor_nnz == nnz
    # the next solve factors afresh, as a new solver would
    x = solver.solve(spla, A, b)
    assert solver.counts() == dict(counts,
                                   factorizations=counts["factorizations"] + 1)
    assert np.array_equal(x, fl.LaggedLU(np.float64).solve(spla, A, b))


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

def _direct_saddle(ops, solver, f, dt):
    """Reference for FlowOperators.solve: assembles [[A, B^T], [B, 0]] and
    factors it afresh for every system."""
    K = sp.bmat([[velocity_block(ops, dt), ops.B_dof.T], [ops.B_dof, None]],
                format="csc")
    return spla.spsolve(K, np.concatenate([f, np.zeros(K.shape[0] - f.size)]))


def _system(problem, fields, mu=None):
    if mu is not None:
        problem = dataclasses.replace(
            problem, params=dataclasses.replace(problem.params, mu=mu))
    return fl.FlowOperators(problem, fields)


def _momentum_load(ops, seed=5):
    """Random momentum rows, like a step's load."""
    return np.random.default_rng(seed).standard_normal(ops.mass.size)


def _saddle_residual(ops, f, x, dt):
    """||[f - A u - B^T p; B u]|| of a solution x = [u, p], A = A(dt)."""
    u, p = x[:f.size], x[f.size:]
    A = velocity_block(ops, dt)
    return math.hypot(np.linalg.norm(f - A @ u - ops.B_dof.T @ p),
                      np.linalg.norm(ops.B_dof @ u))


@pytest.mark.parametrize("size", [(24, 16), (48, 32)], ids=["24x16", "48x32"])
@pytest.mark.parametrize("jump", [0.0, 0.3, -0.5])
def test_stream_map_spans_divergence_free_velocities(params, jump, size):
    problem = _curved_problem(params, jump)
    grid = geo.make_grid(problem.surface, *size, params.depth)
    problem = dataclasses.replace(problem, grid=grid)
    ops = fl.FlowOperators(problem, geo.build_geometry(grid,
                                                       np.zeros(grid.nx)))
    B, T = ops.B_dof, ops.T
    assert abs(B @ T).max() <= 1e-15 * abs(B).max() * abs(T).max()
    # one unknown per free node: the dimension of ker B, as B is onto
    assert T.shape == (B.shape[1], B.shape[1] - B.shape[0])


@pytest.mark.parametrize("size", [(12, 8), (24, 16)], ids=["12x8", "24x16"])
@pytest.mark.parametrize("jump", [0.0, 0.3])
def test_pressure_back_substitutes_the_y_face_rows(params, jump, size,
                                                   monkeypatch):
    problem = _curved_problem(params, jump)
    grid = geo.make_grid(problem.surface, *size, params.depth)
    problem = dataclasses.replace(problem, grid=grid)
    nx, ny = grid.nx, grid.ny
    eta = _centered(1e-2 * np.cos(math.pi * grid.xc / grid.ell)
                    + 3e-3 * np.sin(2.3 * grid.xc))
    zdot = _centered(1e-2 * np.sin(math.pi * grid.xc / grid.ell))
    fields = geo.build_geometry(grid, eta, zdot)
    ops = fl.FlowOperators(problem, fields)
    # the y-face columns of B_dof, the last nx ny dofs, hold no metric:
    # -hx times a lower bidiagonal (1, -1) in each cell column
    want = -grid.hx * sp.kron(sp.eye(nx), sp.eye(ny) - sp.eye(ny, k=-1))
    got = ops.B_dof.toarray()[:, -nx * ny:]
    assert np.max(np.abs(got - want.toarray())) <= 1e-15 * grid.hx
    p0 = np.random.default_rng(3).standard_normal(nx * ny)
    p = problem.stencils.pressure(ops.B_dof.T @ p0)
    assert np.linalg.norm(p - p0) <= 1e-13 * np.linalg.norm(p0)

    # a momentum step factors nothing but the held LU of K
    built = []

    class CountedCholesky(fl.BandedCholesky):
        def __init__(self, S):
            built.append(1)
            super().__init__(S)

    monkeypatch.setattr(fl, "BandedCholesky", CountedCholesky)
    state = fl.construct_flow_initial_data(problem, eta)
    state = fl.momentum_step(problem, fields, state, dt=0.02)
    assert np.any(state.p) and state.div_residual <= 1e-12
    assert built == []
    # the counter sees the band factor of the initial projection
    fl.construct_flow_initial_data(problem, eta, state.u1, state.u2)
    assert built == [1]


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

    def recording(ops, solver, f, dt):
        x = solve(ops, solver, f, dt)
        solves.append(_saddle_residual(ops, f, x, dt) / np.linalg.norm(f))
        return x

    monkeypatch.setattr(fl.FlowOperators, "solve", recording)
    flow, heat_state = _perturbed_start(problem)
    _run_steps(problem, flow, heat_state, [0.02] * 20, fresh=False)
    assert len(solves) == 20
    assert max(solves) <= fl.LAG_RTOL
    assert problem.saddle_solver.counts()["fallbacks"] == 0


def test_block_saddle_falls_back_once_on_a_distant_system(params, problem,
                                                          zero_fields):
    base = _system(problem, zero_fields)
    # thirty times the viscosity: the held factor no longer preconditions
    # CG within CG_MAXITER iterations, a fresh one does
    far = _system(problem, zero_fields, mu=30.0 * params.mu)
    f = _momentum_load(base)
    solver = fl.LaggedLU(np.float32)
    assert not np.any(base.solve(solver, np.zeros_like(f), 0.02))
    assert solver.factorizations == 0
    for ops in (base, base, far):
        x = ops.solve(solver, f, 0.02)
        assert (_saddle_residual(ops, f, x, 0.02)
                <= fl.LAG_RTOL * np.linalg.norm(f))
    # 2 iterations for each base solve, a full missed CG on the far system
    # with the held factor, then 3 with its own
    assert solver.counts() == {"factorizations": 2, "reused_solves": 1,
                               "cg_iterations": 2 * 2 + fl.CG_MAXITER + 3,
                               "max_cg_iterations": fl.CG_MAXITER,
                               "fallbacks": 1}
    assert solver.factor_nnz > 0
    with pytest.raises(fl.StabilityError):
        far.solve(solver, np.full_like(f, np.nan), 0.02)


def test_lagged_lu_raises_when_a_fresh_factor_misses():
    # K applies one matrix and factors another far from it, so CG on a
    # fresh factor misses: the solve must stop instead of refactoring
    # forever
    n = 80
    rng = np.random.default_rng(3)
    base = _spd(n, rng)
    far = (base + sp.diags(np.logspace(-4, 4, n))).tocsc()

    class Mismatched:
        def __matmul__(self, x):
            return far @ x

        def astype(self, dtype, copy=True):
            return base.astype(dtype, copy=copy)

    solver = fl.LaggedLU(np.float64)
    with pytest.raises(fl.StabilityError):
        solver.solve(spla, Mismatched(), rng.standard_normal(n))
    assert solver.counts()["factorizations"] == 1
    assert solver.counts()["fallbacks"] == 0


@pytest.mark.parametrize("size", [(12, 8), (24, 16)], ids=["12x8", "24x16"])
@pytest.mark.parametrize("jump", [0.0, 0.3])
def test_initial_projection_factors_a_band(params, jump, size, monkeypatch):
    # the projection takes T's columns back to x-major node order, where
    # T^T M T is a band of half-width ny + 2: a row of T reads a node's x
    # neighbours and, through ubar1, nodes two s steps away. In
    # MacStencils.order the band would span most of the matrix
    problem = _curved_problem(params, jump)
    grid = geo.make_grid(problem.surface, *size, params.depth)
    problem = dataclasses.replace(problem, grid=grid)
    factored = []

    class RecordedCholesky(fl.BandedCholesky):
        def __init__(self, S):
            factored.append(S)
            super().__init__(S)

    monkeypatch.setattr(fl, "BandedCholesky", RecordedCholesky)
    eta0 = _centered(1e-2 * np.cos(math.pi * grid.xc / grid.ell))
    u1, u2 = cli.initial_velocity({"initial": {"stream_amp": 0.3}}, grid)
    state = fl.construct_flow_initial_data(problem, eta0, u1, u2)
    S, = factored
    upper = sp.triu(S).tocoo()
    assert np.max(upper.col - upper.row) == grid.ny + 2

    # the same projection solved densely, in any node order
    mac = problem.stencils
    fields = geo.build_geometry(grid, state.eta, state.zdot)
    ops = fl.FlowOperators(problem, fields)
    T = ops.T.toarray()
    MT = ops.mass[:, None] * T
    psi = np.linalg.solve(T.T @ MT,
                          MT.T @ mac.full_vector(u1, u2)[mac.free])
    want = mac.P @ (T @ psi)
    got = mac.full_vector(state.u1, state.u2)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert fl.check_compatibility(problem, fields, state)["div"] <= 1e-12


@pytest.mark.parametrize("jump", [0.0, 0.3, -0.5])
def test_projection_matches_direct_saddle_solve(params, jump):
    problem = _curved_problem(params, jump)
    grid = problem.grid
    eta0 = 1e-3 * np.cos(math.pi * grid.xc / grid.ell)
    u1 = 1e-2 * np.sin(math.pi * grid.xf[:, None]) * np.ones((1, grid.ny))
    u2 = 1e-2 * np.cos(math.pi * grid.xc[:, None] / 2) * np.ones((1, grid.ny + 1))
    state = fl.construct_flow_initial_data(problem, eta0, u1, u2)

    mac = problem.stencils
    ops = fl.FlowOperators(problem, geo.build_geometry(grid, state.eta))
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
    ops = _system(problem, fields)
    f = _momentum_load(ops)
    dtypes = []

    def splu(A, **kw):
        dtypes.append(A.dtype)
        return spla.splu(A, **kw)

    monkeypatch.setattr(fl, "spla", types.SimpleNamespace(splu=splu))
    solver = problem.saddle_solver
    x = ops.solve(solver, f, 1.0)
    assert dtypes == [np.float32]
    assert _saddle_residual(ops, f, x, 1.0) <= fl.LAG_RTOL * np.linalg.norm(f)
    assert solver.counts()["factorizations"] == 1
    assert solver.counts()["fallbacks"] == 0
    assert solver.counts()["max_cg_iterations"] < fl.CG_MAXITER
