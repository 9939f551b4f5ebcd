import dataclasses
import math
import types

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from contactflow import equilibrium as eq
from contactflow import flow as fl
from contactflow import geometry as geo
from contactflow import heat as ht

from _reference import HEAT_NU, HEAT_EIGS

MU = math.pi / 2.0  # slowest wall-compatible horizontal wavenumber, ell = 1


def _flat_fields(flat_surface, params, nx, ny):
    grid = geo.make_grid(flat_surface, nx, ny, params.depth)
    return geo.build_geometry(grid, np.zeros(nx))


def _slowest_mode(met, t, depth):
    # the exact slowest conduction mode: it vanishes on walls and bottom and
    # meets the Robin condition at the surface, so it needs no forcing
    return (math.exp(-HEAT_EIGS[0] * t) * np.cos(MU * met["x1"])[:, None]
            * np.sin(HEAT_NU[0] * (met["x2"] + depth)))


def _mode_run(flat_surface, params, nx, ny, dt, t_end):
    fields = _flat_fields(flat_surface, params, nx, ny)
    met = fields.at("nodes")
    state = ht.HeatState(theta=_slowest_mode(met, 0.0, params.depth))
    solver = fl.LaggedLU(np.float64)
    for _ in range(int(round(t_end / dt))):
        state = ht.step_fd(fields, params.k, state, dt, solver)
    return state, met


# ------------------------------------------------------------
# frozen-value sanity
# ------------------------------------------------------------

def test_frozen_robin_roots_satisfy_equation(params):
    H = 1.0 + params.depth
    for nu in HEAT_NU:
        assert abs(params.k * nu * math.cos(nu * H) + math.sin(nu * H)) < 1e-12


def test_frozen_rates_compose_from_roots(params):
    # third-slowest mode pairs the lowest horizontal with the second root
    lam = params.k * ((math.pi / 2.0) ** 2 + HEAT_NU[1] ** 2)
    assert abs(lam - HEAT_EIGS[2]) < 1e-12
    assert HEAT_EIGS == sorted(HEAT_EIGS)


# ------------------------------------------------------------
# spectrum of the discrete operator
# ------------------------------------------------------------

def test_eigenvalues_converge_to_continuum(flat_surface, params):
    rels = []
    for nx, ny in ((32, 24), (64, 48)):
        fields = _flat_fields(flat_surface, params, nx, ny)
        lam = ht.lowest_eigenvalues(fields, params.k, m=6)
        rels.append(np.max(np.abs(lam - np.array(HEAT_EIGS))
                           / np.array(HEAT_EIGS)))
    assert rels[0] < 2e-2
    assert rels[1] < 5e-3
    assert rels[0] / rels[1] > 3.4


def test_sparse_and_dense_eigenpaths_agree(params):
    # shift-invert on the banded Cholesky factor of B, on the flat and
    # on two curved rest states
    for jump in (0.0, 0.3, -0.5):
        jumped = dataclasses.replace(params, gamma_jump=jump)
        surface = eq.solve_equilibrium(jumped, 1.0)
        grid = geo.make_grid(surface, 24, 18, jumped.depth)
        fields = geo.build_geometry(grid, np.zeros(grid.nx))
        ops = ht.heat_operators(fields, jumped.k)
        dense = scipy.linalg.eigh(ops.B.toarray(), ops.M.toarray(),
                                  eigvals_only=True)      # full spectrum
        sparse = ht.lowest_eigenvalues(fields, jumped.k, m=4)
        assert np.max(np.abs(dense[:4] - sparse)) < 1e-9


def test_lowest_eigenvalues_are_reproducible(flat_surface, params):
    # the heat report's eigenvalue must not change between reruns
    fields = _flat_fields(flat_surface, params, 24, 18)
    lams = [ht.lowest_eigenvalues(fields, params.k, m=6) for _ in range(3)]
    assert np.array_equal(lams[0], lams[1])
    assert np.array_equal(lams[0], lams[2])


# ------------------------------------------------------------
# convergence to the exact slowest mode
# ------------------------------------------------------------

def test_mms_second_order_in_space(flat_surface, params):
    errs = []
    for nx, ny in ((12, 9), (24, 18), (48, 36)):
        state, met = _mode_run(flat_surface, params, nx, ny, 2e-3, 0.1)
        errs.append(np.max(np.abs(state.theta
                                  - _slowest_mode(met, 0.1, params.depth))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.9


def test_mms_second_order_in_time(flat_surface, params):
    t_end = 0.5
    ref, _ = _mode_run(flat_surface, params, 24, 18, t_end / 640, t_end)
    errs = []
    for steps in (10, 20, 40):
        state, _ = _mode_run(flat_surface, params, 24, 18, t_end / steps,
                             t_end)
        errs.append(np.max(np.abs(state.theta - ref.theta)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.9


def test_elliptic_solve_second_order(flat_surface, params):
    # steady Robin problem k (grad theta, grad psi)_J + <theta psi |N|>
    # = lambda (theta_exact, psi)_J for the slowest mode, solved with the
    # stepper's own operators
    errs = []
    for nx, ny in ((24, 18), (48, 36)):
        fields = _flat_fields(flat_surface, params, nx, ny)
        want = _slowest_mode(fields.at("nodes"), 0.0, params.depth)
        ops = ht.heat_operators(fields, params.k)
        load = HEAT_EIGS[0] * (ops.M @ want.ravel()[ops.free])
        got = ops.embed(spla.splu(ops.B).solve(load))
        errs.append(np.max(np.abs(got.reshape(want.shape) - want)))
    assert errs[0] < 5e-3
    assert errs[0] / errs[1] > 3.4


# ------------------------------------------------------------
# structural identities of the stepper
# ------------------------------------------------------------

def test_crank_nicolson_energy_identity(flat_surface, params):
    fields = _flat_fields(flat_surface, params, 24, 18)
    met = fields.at("nodes")
    ops = ht.heat_operators(fields, params.k)
    theta0 = (np.sin(math.pi * (met["x1"][:, None] + 1.0) / 2.0)
              * np.sin(math.pi * (met["x2"] + params.depth) / 1.5))
    state = ht.HeatState(theta=theta0)
    dt = 0.05
    solver = fl.LaggedLU(np.float64)
    for _ in range(20):
        nxt = ht.step_fd(fields, params.k, state, dt, solver)
        a = state.theta.ravel()[ops.free]
        b = nxt.theta.ravel()[ops.free]
        mid = 0.5 * (a + b)
        res = ((b @ (ops.M @ b) - a @ (ops.M @ a)) / (2.0 * dt)
               + mid @ (ops.B @ mid))
        assert abs(res) < 1e-3 * dt * dt * (a @ (ops.M @ a))
        state = nxt


def test_unforced_solution_decays_at_slowest_rate(flat_surface, params):
    fields = _flat_fields(flat_surface, params, 48, 36)
    ops = ht.heat_operators(fields, params.k)
    _, modes = ht.build_basis(fields, params.k, 1)
    theta0 = ops.embed(modes[:, 0]).reshape(49, 37)
    state = ht.HeatState(theta=theta0)
    dt, steps = 0.01, 60
    solver = fl.LaggedLU(np.float64)
    for _ in range(steps):
        state = ht.step_fd(fields, params.k, state, dt, solver)
    ratio = (np.linalg.norm(state.theta.ravel())
             / np.linalg.norm(theta0.ravel()))
    rate = -math.log(ratio) / (dt * steps)
    assert abs(rate - HEAT_EIGS[0]) < 3e-3 * HEAT_EIGS[0]


def test_transport_moves_profile_downstream(flat_surface, params):
    fields = _flat_fields(flat_surface, params, 32, 24)
    met = fields.at("nodes")
    theta0 = np.exp(-20.0 * met["x1"][:, None] ** 2
                    - 20.0 * (met["x2"] - 0.25) ** 2)
    u = np.array([np.full_like(theta0, 0.5), np.zeros_like(theta0)])
    state = ht.HeatState(theta=theta0)
    solver = fl.LaggedLU(np.float64)
    for _ in range(10):
        state = ht.step_fd(fields, params.k, state, 0.01, solver,
                           transport=u)
    w0 = np.sum(theta0 * met["x1"][:, None]) / np.sum(theta0)
    w1 = np.sum(state.theta * met["x1"][:, None]) / np.sum(state.theta)
    assert w1 > w0 + 0.02


def _rebuilt_step(fields, k, state, dt):
    """A frozen-geometry Crank-Nicolson step that builds its CSC matrix
    afresh and solves it with a fresh LaggedLU."""
    ops = ht.heat_operators(fields, k)
    th = state.theta.ravel()[ops.free]
    rhs = ops.M @ th / dt - 0.5 * (ops.B @ th)
    mat = sp.csc_matrix((ops.M.data / dt + ops.B.data * 0.5,
                         ops.M.indices, ops.M.indptr), shape=ops.M.shape)
    sol = fl.LaggedLU(np.float64).solve(spla, mat, rhs)
    return state.advanced(theta=ops.embed(sol).reshape(state.theta.shape),
                          time=state.time + dt, dt=dt)


def test_crank_nicolson_system_is_held_per_dt(flat_surface, params):
    # on frozen geometry every step hands the solver one matrix object,
    # and the result is bitwise that of rebuilding the matrix each step
    fields = _flat_fields(flat_surface, params, 24, 16)
    met = fields.at("nodes")
    theta0 = (np.cos(MU * met["x1"])[:, None]
              * np.sin(met["x2"] + params.depth))
    solver = fl.LaggedLU(np.float64)
    solve = solver.solve
    systems = []

    def recording(linalg, K, b, attempt=None):
        systems.append(K)
        return solve(linalg, K, b, attempt)

    solver.solve = recording
    state = rebuilt = ht.HeatState(theta=theta0)
    for _ in range(20):
        state = ht.step_fd(fields, params.k, state, 0.02, solver)
        rebuilt = _rebuilt_step(fields, params.k, rebuilt, 0.02)
    assert len(systems) == 20
    assert all(system is systems[0] for system in systems)
    assert np.array_equal(state.theta, rebuilt.theta)

    ops = ht.heat_operators(fields, params.k)
    other = ops.cn_system(0.01)
    assert other is not systems[0]
    assert np.array_equal(other.data,
                          ops.M.data / 0.01 + ops.B.data * 0.5)
    assert ht.HeatOperators(fields, params.k).cn_system(0.02) \
        is not systems[0]


def test_step_ignores_theta_on_fixed_nodes(flat_surface, params):
    # theta = 0 on walls and bottom: values a state holds there, such as
    # rounding residue of initial data, do not enter the step
    fields = _flat_fields(flat_surface, params, 24, 16)
    theta0 = _slowest_mode(fields.at("nodes"), 0.0, params.depth)
    walled = theta0.copy()
    walled[0], walled[-1], walled[:, 0] = 0.3, -0.7, 1.1
    clean, dirty = (ht.step_fd(fields, params.k, ht.HeatState(theta=th),
                               0.02, fl.LaggedLU(np.float64))
                    for th in (theta0, walled))
    assert np.array_equal(clean.theta, dirty.theta)
    assert not np.any(clean.theta[0]) and not np.any(clean.theta[:, 0])


def test_heat_lu_ordering_cuts_fill_and_stays_exact(params, monkeypatch):
    # the Crank-Nicolson matrix of a curved 48x32 rest state: minimum degree
    # on A^T + A keeps fewer L+U entries than scipy's default COLAMD, and
    # on frozen geometry, as in a heat-mode run, the held factor still
    # solves every later step with no CG iteration
    params = dataclasses.replace(params, gamma_jump=0.3)
    surface = eq.solve_equilibrium(params, 1.0)
    grid = geo.make_grid(surface, 48, 32, params.depth)
    problem = fl.CoupledProblem(params=params, surface=surface, grid=grid)
    fields = geo.build_geometry(grid, np.zeros(grid.nx))
    met = fields.at("nodes")
    state = ht.HeatState(theta=np.cos(MU * met["x1"])[:, None]
                         * np.sin(met["x2"] + params.depth))
    factored = []

    def splu(A, **kw):
        factored.append(A)
        return spla.splu(A, **kw)

    monkeypatch.setattr(ht, "spla", types.SimpleNamespace(splu=splu))
    solver = problem.heat_solver
    for _ in range(20):
        state = ht.step_fd(fields, params.k, state, 0.02, solver)
    A, = factored
    assert solver.factor_nnz < spla.splu(A).nnz
    assert solver.counts() == {"factorizations": 1, "reused_solves": 19,
                               "cg_iterations": 0,
                               "max_cg_iterations": 0, "fallbacks": 0}


# ------------------------------------------------------------
# state bookkeeping
# ------------------------------------------------------------

def test_state_history_and_derivatives():
    a = np.full((3, 3), 1.0)
    b = np.full((3, 3), 2.0)
    c = np.full((3, 3), 4.0)
    s = ht.HeatState(theta=a).advanced(theta=b, time=0.5, dt=0.5)
    s = s.advanced(theta=c, time=1.0, dt=0.5)
    assert s.time == 1.0
    assert len(s.levels) <= 2
    assert np.allclose(s.dt_field("theta"), (c - b) / 0.5)
    assert np.allclose(s.d2t_field("theta"), (c - 2 * b + a) / 0.25)
