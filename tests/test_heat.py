import dataclasses
import math
import types

import numpy as np
import scipy.linalg
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


def _manufactured(met, t, depth):
    # Dirichlet-exact on walls and bottom, Robin-defective at the surface
    return (math.exp(-t) * np.cos(MU * met["x1"])[:, None]
            * np.sin(met["x2"] + depth))


def _mms_run(flat_surface, params, nx, ny, dt, t_end):
    k, d = params.k, params.depth
    fields = _flat_fields(flat_surface, params, nx, ny)
    grid = fields.grid
    met = fields.at("nodes")
    lam_f8 = -1.0 + k * (MU * MU + 1.0)
    rob = k * math.cos(1.0 + d) + math.sin(1.0 + d)
    state = ht.HeatState(theta=_manufactured(met, 0.0, d))
    solver = fl.LaggedLU()
    for n in range(int(round(t_end / dt))):
        # Crank-Nicolson keeps second order with midpoint forcing data
        amp = math.exp(-(n + 0.5) * dt)
        f8 = (lam_f8 * amp * np.cos(MU * met["x1"])[:, None]
              * np.sin(met["x2"] + d))
        f9 = rob * amp * np.cos(MU * grid.xf)
        state = ht.step_fd(fields, k, state, dt, solver, f8=f8, f9=f9)
    return state, fields, met


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


def test_sparse_and_dense_eigenpaths_agree(flat_surface, params):
    fields = _flat_fields(flat_surface, params, 24, 18)
    ops = ht.heat_operators(fields, params.k)
    dense = scipy.linalg.eigh(ops.B_ff.toarray(), ops.M_ff.toarray(),
                              eigvals_only=True)      # full spectrum
    sparse = ht.lowest_eigenvalues(fields, params.k, m=4)
    assert np.max(np.abs(dense[:4] - sparse)) < 1e-9


def test_lowest_eigenvalues_are_reproducible(flat_surface, params):
    # the heat report's eigenvalue must not change between reruns
    fields = _flat_fields(flat_surface, params, 24, 18)
    lams = [ht.lowest_eigenvalues(fields, params.k, m=6) for _ in range(3)]
    assert np.array_equal(lams[0], lams[1])
    assert np.array_equal(lams[0], lams[2])


# ------------------------------------------------------------
# manufactured-solution convergence
# ------------------------------------------------------------

def test_mms_second_order_in_space(flat_surface, params):
    errs = []
    for nx, ny in ((12, 9), (24, 18), (48, 36)):
        state, _, met = _mms_run(flat_surface, params, nx, ny, 2e-3, 0.1)
        errs.append(np.max(np.abs(state.theta
                                  - _manufactured(met, 0.1, params.depth))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.9


def test_mms_second_order_in_time(flat_surface, params):
    t_end = 0.5
    ref, _, _ = _mms_run(flat_surface, params, 24, 18, t_end / 640, t_end)
    errs = []
    for steps in (10, 20, 40):
        state, _, _ = _mms_run(flat_surface, params, 24, 18, t_end / steps,
                               t_end)
        errs.append(np.max(np.abs(state.theta - ref.theta)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.9


def test_elliptic_solve_second_order(flat_surface, params):
    # steady Robin problem k (grad theta, grad psi)_J + <theta psi |N|>
    # = (F8, psi)_J + <F9, psi>, solved with the stepper's own operators
    k, d = params.k, params.depth
    lam = k * (MU * MU + 1.0)
    rob = k * math.cos(1.0 + d) + math.sin(1.0 + d)
    errs = []
    for nx, ny in ((24, 18), (48, 36)):
        fields = _flat_fields(flat_surface, params, nx, ny)
        met = fields.at("nodes")
        want = _manufactured(met, 0.0, d)
        f8 = lam * want
        f9 = rob * np.cos(MU * fields.grid.xf)
        ops = ht.heat_operators(fields, k)
        load = ht._load_vector(ops, f8, f9)
        got = ops.embed(spla.splu(ops.B_ff).solve(load))
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
    solver = fl.LaggedLU()
    for _ in range(20):
        nxt = ht.step_fd(fields, params.k, state, dt, solver)
        a = state.theta.ravel()[ops.free]
        b = nxt.theta.ravel()[ops.free]
        mid = 0.5 * (a + b)
        res = ((b @ (ops.M_ff @ b) - a @ (ops.M_ff @ a)) / (2.0 * dt)
               + mid @ (ops.B_ff @ mid))
        assert abs(res) < 1e-3 * dt * dt * (a @ (ops.M_ff @ a))
        state = nxt


def test_unforced_solution_decays_at_slowest_rate(flat_surface, params):
    fields = _flat_fields(flat_surface, params, 48, 36)
    ops = ht.heat_operators(fields, params.k)
    _, modes = ht.build_basis(fields, params.k, 1)
    theta0 = ops.embed(modes[:, 0]).reshape(49, 37)
    state = ht.HeatState(theta=theta0)
    dt, steps = 0.01, 60
    solver = fl.LaggedLU()
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
    solver = fl.LaggedLU()
    for _ in range(10):
        state = ht.step_fd(fields, params.k, state, 0.01, solver,
                           transport=u)
    w0 = np.sum(theta0 * met["x1"][:, None]) / np.sum(theta0)
    w1 = np.sum(state.theta * met["x1"][:, None]) / np.sum(state.theta)
    assert w1 > w0 + 0.02


def test_heat_lu_ordering_cuts_fill_and_stays_exact(params, monkeypatch):
    # the Crank-Nicolson matrix of a curved 48x32 rest state: minimum degree
    # on A^T + A keeps fewer L+U entries than scipy's default COLAMD, and
    # on frozen geometry, as in a heat-mode run, the held factor still
    # solves every later step with no GMRES iteration
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
                               "gmres_iterations": 0,
                               "max_gmres_iterations": 0, "fallbacks": 0}


# ------------------------------------------------------------
# state bookkeeping
# ------------------------------------------------------------

def test_state_history_and_derivatives():
    a = np.full((3, 3), 1.0)
    b = np.full((3, 3), 2.0)
    c = np.full((3, 3), 4.0)
    s = ht.HeatState(theta=a).advanced(b, 0.5).advanced(c, 0.5)
    assert s.time == 1.0
    assert len(s.levels) <= 3
    assert np.allclose(s.dtheta_dt(), (c - b) / 0.5)
    assert np.allclose(s.d2theta_dt2(), (c - 2 * b + a) / 0.25)
