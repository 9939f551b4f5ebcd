import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from contactflow import diagnostics as dg
from contactflow import flow as fl
from contactflow import geometry as geo
from contactflow import heat as ht
from contactflow.params import select_exponents

from _reference import GS_CASES


# ------------------------------------------------------------
# fractional surface norms
# ------------------------------------------------------------

def test_calibration_matches_tail_integral():
    # C(sigma) = 4 * int_0^inf (1 - cos u) / u^(1+2 sigma) du; the truncated
    # quadrature gets an analytic 1/u tail, the oscillatory remainder is
    # O(X^-(1+2 sigma))
    X = 400.0 * math.pi
    for sigma in (0.2, 0.5, 0.8):
        val, _ = quad(lambda u: (1.0 - math.cos(u)) / u ** (1.0 + 2 * sigma),
                      0.0, X, limit=4000)
        val += X ** (-2.0 * sigma) / (2.0 * sigma)
        assert abs(dg.gs_calibration(sigma) - 4.0 * val) < 1e-3
    with pytest.raises(ValueError):
        dg.gs_calibration(1.0)


@pytest.mark.parametrize("s,k,amp,want", GS_CASES)
def test_cosine_norms_match_continuum(s, k, amp, want):
    n = 256
    x = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    vals = amp * np.cos(k * math.pi * x)
    got = dg.surface_norm(vals, [(s, 2.0)], 1.0)[0] ** 2
    assert abs(got - want) / want < 0.02


def test_surface_norm_zero_and_homogeneity():
    n = 128
    x = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    vals = np.cos(math.pi * x)
    assert dg.surface_norm(np.zeros(n), [(1.5, 2.0)], 1.0) == [0.0]
    a, = dg.surface_norm(vals, [(1.5, 2.0)], 1.0)
    b, = dg.surface_norm(3.0 * vals, [(1.5, 2.0)], 1.0)
    assert abs(b - 3.0 * a) < 1e-10 * a


@given(st.floats(min_value=0.1, max_value=2.9),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_surface_norm_triangle_inequality(s, k):
    n = 64
    x = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    f = np.cos(k * math.pi * x)
    g = np.sin(math.pi * x) ** 2
    nf, = dg.surface_norm(f, [(s, 2.0)], 1.0)
    ng, = dg.surface_norm(g, [(s, 2.0)], 1.0)
    nfg, = dg.surface_norm(f + g, [(s, 2.0)], 1.0)
    assert nfg <= nf + ng + 1e-12 * (nf + ng)


def _gs_double_loop(g, hx, sigma, q):
    """Reference Gagliardo sum: one term per ordered pair of samples."""
    n = len(g)
    acc = 0.0
    for k in range(1, n):
        d = hx * min(k, n - k)
        for i in range(n):
            acc += abs(g[(i + k) % n] - g[i]) ** q / d ** (1.0 + sigma * q)
    acc *= hx * hx
    if q == 2.0:
        acc /= dg.gs_calibration(sigma)
    return acc ** (1.0 / q)


_EXPS = select_exponents(1.876)


@pytest.mark.parametrize("q", [2.0, _EXPS.q_plus, _EXPS.q_minus])
@pytest.mark.parametrize("n", [7, 64])
def test_gs_seminorm_matches_double_loop(n, q):
    rng = np.random.default_rng(n)
    g = rng.standard_normal(n)
    hx = 2.0 / n
    for sigma in (0.2, 0.5, 0.85):
        want = _gs_double_loop(g, hx, sigma, q)
        got = dg.gs_seminorm(g, hx, sigma, q)
        assert abs(got - want) <= 1e-13 * want


def test_integer_order_matches_derivative_stack():
    # s = 1, q = 2: norm^2 = |f|_L2^2 + |f'|_L2^2 on the period-4 extension
    n = 512
    x = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    vals = np.cos(math.pi * x)
    got = dg.surface_norm(vals, [(1, 2.0)], 1.0)[0] ** 2
    want = 0.5 * 4.0 * (1.0 + math.pi ** 2)
    assert abs(got - want) / want < 1e-3


def test_bulk_norm_homogeneity_and_zero(zero_fields):
    met = zero_fields.at("nodes")
    f = np.cos(met["x1"])[:, None] * (met["x2"] + 0.5)
    for s in (0, 1, 1.3):
        n1, = dg.bulk_norm(zero_fields, f, [(s, 2.0)])
        n2, = dg.bulk_norm(zero_fields, 2.0 * f, [(s, 2.0)])
        assert abs(n2 - 2.0 * n1) < 1e-11 * max(n1, 1.0)
    assert dg.bulk_norm(zero_fields, np.zeros_like(f), [(1.3, 2.0)]) == [0.0]


def test_bulk_norm_fractional_interpolates_integer_orders(zero_fields):
    met = zero_fields.at("nodes")
    u = np.array([np.cos(met["x1"])[:, None] * (met["x2"] + 0.5),
                  np.sin(2.0 * met["x1"])[:, None] * met["x2"] ** 2])
    for s, q in ((1.3, 2.0), (0.6, 1.5), (2.25, 2.0)):
        m, t = int(s), s - int(s)
        lo, = dg.bulk_norm(zero_fields, u, [(m, q)])
        hi, = dg.bulk_norm(zero_fields, u, [(m + 1, q)])
        want = lo ** (1.0 - t) * hi ** t
        got, = dg.bulk_norm(zero_fields, u, [(s, q)])
        assert abs(got - want) <= 1e-13 * want


def test_bulk_norm_constant_is_weighted_volume(zero_fields):
    # rest rectangle has area 2 ell * (hbar + d) = 3
    val, = dg.bulk_norm(zero_fields, np.ones((25, 17)), [(0, 2.0)])
    assert abs(val - math.sqrt(3.0)) < 1e-12


def test_slip_trace_norm_matches_per_component_sums(zero_fields, grid):
    u = np.random.default_rng(5).standard_normal((2, grid.nx + 1,
                                                  grid.ny + 1))
    wb = np.full(grid.nx + 1, grid.hx)
    wb[[0, -1]] *= 0.5
    ww = np.full(grid.ny + 1, grid.hs)
    ww[[0, -1]] *= 0.5
    acc = 0.0
    for g in u:
        acc += np.sum(g[:, 0] ** 2 * wb)
        for x, wall in ((-grid.ell, g[0]), (grid.ell, g[-1])):
            acc += (np.sum(wall ** 2 * ww)
                    * (grid.depth + float(grid.zeta0_fn(x))))
    assert dg.trace_norm_slip(zero_fields, u) == pytest.approx(
        math.sqrt(acc), rel=1e-14)


def test_multi_order_norms_equal_single_order_calls(grid, cos_eta):
    fields = geo.build_geometry(grid, 30.0 * cos_eta)
    met = fields.at("nodes")
    u = np.array([np.cos(met["x1"])[:, None] * (met["x2"] + 0.5),
                  np.sin(2.0 * met["x1"])[:, None] * met["x2"] ** 2])
    qp, qm, al = _EXPS.q_plus, _EXPS.q_minus, _EXPS.alpha
    # out of order, with repeats, several orders per q
    orders = [(2, qp), (0, 2.0), (1.3, 2.0), (1, qm), (0, 2.0), (2.25, 2.0),
              (1, 2.0), (2, qm), (1.3, 2.0)]
    got = dg.bulk_norm(fields, u, orders)
    assert got == [dg.bulk_norm(fields, u, [o])[0] for o in orders]
    vals = np.cos(math.pi * grid.xc) + 0.3 * np.sin(3.0 * grid.xc)
    orders = [(3.0 - 1.0 / qp, qp), (1, 2.0), (0.5 - al, 2.0),
              (3.0 - 1.0 / qp, qp), (1.5 - al, 2.0), (0, 2.0),
              (3.0 - 1.0 / qm, qm), (1, 2.0)]
    got = dg.surface_norm(vals, orders, grid.ell)
    assert got == [dg.surface_norm(vals, [o], grid.ell)[0] for o in orders]


def test_bracket_term_quadratic():
    v = np.array([1.0, 3.0, -2.0, 4.0])
    left = 1.5 * 1.0 - 0.5 * 3.0
    right = 1.5 * 4.0 - 0.5 * (-2.0)
    assert dg.bracket_term(2.0, v) == 2.0 * (left ** 2 + right ** 2)


# ------------------------------------------------------------
# decay fits
# ------------------------------------------------------------

def test_fit_recovers_pure_exponential():
    t = np.linspace(0.0, 3.0, 40)
    fit = dg.fit_decay(t, 3.0 * np.exp(-2.0 * t))
    assert abs(fit.lam - 2.0) < 1e-6
    assert fit.r2 > 1.0 - 1e-12
    assert fit.n_used == 40


def test_fit_tolerates_modulation():
    t = np.linspace(0.0, 6.0, 120)
    fit = dg.fit_decay(t, np.exp(-t) * (1.0 + 0.01 * np.sin(5.0 * t)))
    assert abs(fit.lam - 1.0) < 0.02
    assert fit.r2 > 0.999


def test_fit_flags_constant_as_non_decaying():
    t = np.linspace(0.0, 5.0, 30)
    fit = dg.fit_decay(t, np.full(30, 0.7))
    assert abs(fit.lam) < 1e-12


def test_fit_skip_discards_transient():
    t = np.linspace(0.0, 4.0, 50)
    e = np.exp(-2.0 * t)
    e[:10] += 0.5  # impulsive-start pollution
    fit = dg.fit_decay(t, e, skip=10)
    assert fit.n_used == 40
    assert abs(fit.lam - 2.0) < 1e-6


def test_cumulative_bound_closed_form():
    # E = e^{-2t}, D = 2 e^{-2t}: E(t) + int_0^t D = E(0) exactly, so the
    # bound constant is 1 + O(trapezoid error)
    t = np.linspace(0.0, 4.0, 400)
    e = np.exp(-2.0 * t)
    c = dg.cumulative_bound(t, e, 2.0 * e)
    assert 1.0 <= c < 1.0 + 1e-3


def test_cumulative_bound_detects_growth():
    t = np.linspace(0.0, 1.0, 50)
    e = np.exp(t)
    assert dg.cumulative_bound(t, e, np.zeros_like(t)) > math.e - 0.1


# ------------------------------------------------------------
# state differences
# ------------------------------------------------------------

def test_flow_difference_componentwise(grid):
    a = fl.zero_flow_state(grid)
    b = fl.zero_flow_state(grid)
    b.eta = b.eta + 1e-3
    b.u1 = b.u1 + 2.0
    d = dg.flow_difference(a, b)
    assert np.all(d.eta == -1e-3)
    assert np.all(d.u1 == -2.0)
    assert np.all(d.u2 == 0.0)
    same = dg.flow_difference(b, b)
    for name in ("u1", "u2", "p", "eta", "zdot"):
        assert np.max(np.abs(getattr(same, name))) == 0.0


def test_flow_difference_pairs_history_levels(grid):
    a = fl.zero_flow_state(grid).advanced(time=0.1, dt=0.1)
    b = fl.zero_flow_state(grid).advanced(time=0.1, dt=0.1)
    b.levels[0].u1 = b.levels[0].u1 + 1e-4
    d = dg.flow_difference(a, b)
    assert len(d.levels) == 1
    assert np.max(np.abs(d.levels[0].u1)) == pytest.approx(1e-4)
    assert np.max(np.abs(d.u1)) == 0.0


# ------------------------------------------------------------
# energy report
# ------------------------------------------------------------

def test_energy_report_zero_at_rest(problem, zero_fields, grid):
    flow = fl.zero_flow_state(grid)
    heat_state = ht.HeatState(theta=np.zeros((grid.nx + 1, grid.ny + 1)))
    rep = dg.energy_report(problem, zero_fields, flow, heat_state)
    assert rep.energy == 0.0
    assert rep.dissipation == 0.0
    assert rep.energy_eps == 0.0
    assert rep.dissipation_eps == 0.0
    assert set(rep.terms) == set(dg.ALL_KEYS)


def _moving_flow(grid, cos_eta):
    """A flow state with two history levels and nonzero fields."""
    flow = fl.zero_flow_state(grid)
    for n in range(1, 3):
        flow = flow.advanced(u1=flow.u1 + 1e-3 * n, p=flow.p + 1e-2 * n,
                             eta=n * cos_eta, zdot=0.5 * n * n * cos_eta,
                             time=0.1 * n, dt=0.1)
    return flow


def test_absent_heat_state_reports_as_zero_heat_state(problem, zero_fields,
                                                      grid, cos_eta):
    flow = _moving_flow(grid, cos_eta)
    zero = ht.HeatState(theta=np.zeros((grid.nx + 1, grid.ny + 1)))
    absent = dg.energy_report(problem, zero_fields, flow)
    assert absent.terms == dg.energy_report(problem, zero_fields, flow,
                                            zero).terms
    assert absent.terms["E_u_L2"] > 0.0
    assert absent.terms["D_d3eta_Hlo"] > 0.0


def test_energy_report_measures_each_nonzero_field_once(problem, zero_fields,
                                                        grid, monkeypatch):
    calls = []

    def counted(norm):
        def wrapper(*args, **kwargs):
            calls.append(norm.__name__)
            return norm(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dg, "bulk_norm", counted(dg.bulk_norm))
    monkeypatch.setattr(dg, "surface_norm", counted(dg.surface_norm))
    X, S = np.meshgrid(grid.xf, grid.sf, indexing="ij")
    heat_state = ht.HeatState(theta=np.cos(X) * S)
    # conduction only: the flow and the theta histories are zero
    rep = dg.energy_report(problem, zero_fields, fl.zero_flow_state(grid),
                           heat_state)
    assert calls == ["bulk_norm"]
    assert rep.terms["E_th_L2"] > 0.0
    assert rep.terms["E_u_W2qp"] == rep.terms["E_dtth_L2"] == 0.0


def test_energy_report_builds_no_zero_flow(problem, zero_fields, grid,
                                           cos_eta, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("velocity_at_nodes", "_cells_to_nodes", "trace_norm_slip"):
        monkeypatch.setattr(dg, name, counted(getattr(dg, name)))
    X, S = np.meshgrid(grid.xf, grid.sf, indexing="ij")
    heat_state = ht.HeatState(theta=np.cos(X) * S)
    # conduction only: the resting flow is neither interpolated nor measured
    rep = dg.energy_report(problem, zero_fields, fl.zero_flow_state(grid),
                           heat_state)
    assert calls == []
    assert rep.terms["D_u_L2slip"] == rep.terms["D_d2u_L2slip"] == 0.0
    assert rep.terms["E_th_L2"] > 0.0

    # a moving flow keeps the slip terms it had when every field was built
    rep = dg.energy_report(problem, zero_fields, _moving_flow(grid, cos_eta))
    assert calls.count("velocity_at_nodes") == 3
    assert calls.count("_cells_to_nodes") == 2
    assert calls.count("trace_norm_slip") == 3
    want = {"D_u_L2slip": 4.500000000000001e-05,
            "D_dtu_L2slip": 0.0019999999999999996,
            "D_d2u_L2slip": 0.049999999999999975}
    for key, value in want.items():
        assert rep.terms[key] == pytest.approx(value, rel=1e-14)


def test_energy_eps_collapses_at_zero_eps(problem, zero_fields, grid, cos_eta):
    flow = fl.zero_flow_state(grid)
    flow.eta = cos_eta
    flow.zdot = 0.5 * cos_eta
    rep = dg.energy_report(problem, zero_fields, flow)
    assert rep.energy > 0.0
    # problem.eps = 0: the eps block must add nothing
    assert rep.energy_eps == rep.energy
    assert rep.dissipation_eps == rep.dissipation


def test_energy_report_uses_latest_clock(problem, zero_fields, grid):
    flow = fl.zero_flow_state(grid)
    heat_state = ht.HeatState(theta=np.zeros((grid.nx + 1, grid.ny + 1)),
                              time=1.5)
    rep = dg.energy_report(problem, zero_fields, flow, heat_state)
    assert rep.time == 1.5


def test_series_row_matches_columns(problem, zero_fields, grid):
    flow = fl.zero_flow_state(grid)
    rep = dg.energy_report(problem, zero_fields, flow)
    row = rep.row()
    assert len(row) == len(dg.SERIES_COLUMNS)
    assert row[dg.SERIES_COLUMNS.index("E_total")] == rep.energy
