import math

import numpy as np
import pytest

from contactflow import corner as co


MIXED = lambda om, j: (2 * j + 1) * math.pi / (2.0 * om)
DIRICHLET = lambda om, j: (j + 1) * math.pi / om


Q_STAR = {  # capped thresholds 2/(2 - gamma_min)
    ("mixed", math.pi / 4): 2.0,
    ("mixed", math.pi / 2): 2.0,
    ("mixed", 3 * math.pi / 4): 1.5,
    ("dirichlet", math.pi / 4): 2.0,
    ("dirichlet", math.pi / 2): 2.0,
    ("dirichlet", 3 * math.pi / 4): 2.0,
}


@pytest.mark.parametrize("omega", [math.pi / 4, math.pi / 2, 3 * math.pi / 4])
@pytest.mark.parametrize("boundary,closed", [("mixed", MIXED),
                                             ("dirichlet", DIRICHLET)])
def test_angular_spectrum_closed_form(omega, boundary, closed):
    spec = co.angular_eigenvalues(omega, count=5, boundary=boundary)
    want = np.array([closed(omega, j) for j in range(5)])
    assert np.max(np.abs(spec.eigenvalues - want)) < 1e-10
    assert np.max(np.abs(spec.residuals)) < 1e-8
    assert np.all(np.diff(spec.eigenvalues) > 0)
    assert abs(co.regularity_threshold(spec) - Q_STAR[boundary, omega]) < 1e-9


def test_spectrum_sorted_generic_angle():
    spec = co.angular_eigenvalues(2.0, count=6, boundary="mixed")
    assert np.all(np.diff(spec.eigenvalues) > 0)
    assert np.max(np.abs(spec.residuals)) < 1e-8


def _rk4_end(lam, omega, nsteps, boundary):
    """Reference shot: plain RK4 stages for v'' = -lam^2 v, v(0)=0, v'(0)=1."""
    h = omega / nsteps
    v, w = 0.0, 1.0
    for _ in range(nsteps):
        k1v, k1w = w, -lam * lam * v
        k2v, k2w = w + 0.5 * h * k1w, -lam * lam * (v + 0.5 * h * k1v)
        k3v, k3w = w + 0.5 * h * k2w, -lam * lam * (v + 0.5 * h * k2v)
        k4v, k4w = w + h * k3w, -lam * lam * (v + h * k3v)
        v += h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        w += h / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
    return w if boundary == "mixed" else v


@pytest.mark.parametrize("omega", [math.pi / 4, 2.0, 2.8])
@pytest.mark.parametrize("boundary", ["mixed", "dirichlet"])
def test_shoot_end_matches_rk4_stages_and_central_difference(omega, boundary):
    lams = np.array([0.7, 2.3, 5.1])
    nsteps, dlam = 800, 1e-5
    f, df = co._shoot_end(lams, omega, nsteps, boundary)
    want = [_rk4_end(lam, omega, nsteps, boundary) for lam in lams]
    assert np.max(np.abs(f - want)) < 1e-12
    # the lambda derivative is that of the discrete residual itself
    fd = (co._shoot_end(lams + dlam, omega, nsteps, boundary)[0]
          - co._shoot_end(lams - dlam, omega, nsteps, boundary)[0]) / (2 * dlam)
    assert np.max(np.abs(df - fd) / np.abs(df)) < 1e-6


def test_rejects_unknown_boundary():
    with pytest.raises(ValueError):
        co.angular_eigenvalues(1.0, boundary="periodic")


def test_threshold_uncapped_branch():
    # gamma = pi/(2 omega) < 1 exactly when omega > pi/2
    om = 2.8
    spec = co.angular_eigenvalues(om, boundary="mixed")
    gamma = math.pi / (2.0 * om)
    assert abs(co.regularity_threshold(spec) - 2.0 / (2.0 - gamma)) < 1e-9


def test_wedge_probe_splits_at_obtuse_angle():
    om = 3 * math.pi / 4  # mixed threshold q* = 1.5
    low, high = co.wedge_poisson_probe(om, [1.2, 1.8], 16)
    assert low.verdict == "bounded"
    assert high.verdict == "divergent"
    assert low.growth_rate < 0.05 < 0.1 < high.growth_rate
    assert len(low.norms) == len(low.n_list)
    # norms of the divergent family grow along the whole ladder
    assert np.all(np.diff(high.norms) > 0)


def test_wedge_probe_right_angle_subcritical():
    # q* = 2 at omega = pi/2: anything strictly below 2 stays bounded
    rep, = co.wedge_poisson_probe(math.pi / 2, [1.2], 16)
    assert rep.verdict == "bounded"


def test_wedge_probe_solves_each_grid_once(monkeypatch):
    # the wedge solution does not depend on q: one solve per refined grid
    # serves every q, and each q gets the norms of a call of its own
    om, qs, refine = 3 * math.pi / 4, [1.2, 1.5, 1.8], (1.0, 1.5, 2.0)
    single = [co.wedge_poisson_probe(om, [q], 12, refine)[0] for q in qs]
    solves = []
    solve = co._wedge_solve
    monkeypatch.setattr(co, "_wedge_solve",
                        lambda *args: solves.append(args) or solve(*args))
    joint = co.wedge_poisson_probe(om, qs, 12, refine)
    assert len(solves) == len(refine)
    assert [rep.q for rep in joint] == qs
    for rep, ref in zip(joint, single):
        assert rep.norms == ref.norms
        assert rep.n_list == ref.n_list == [12, 18, 24]
        assert rep.growth_rate == ref.growth_rate
        assert rep.verdict == ref.verdict
