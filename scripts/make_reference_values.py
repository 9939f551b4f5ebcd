#!/usr/bin/env python3
"""Regenerate tests/_reference.py from first principles.

Everything here is computed with mpmath at 40 significant digits and written
out as plain float literals. The point is independence: no import of the
package under test, no shared helper code, just the defining formulas.

  * J_PROBES / A_PROBES: the flattening-map metric evaluated by direct
    symbolic composition at hand-picked reference-grid nodes, for a flat rest
    surface and a single-cosine perturbation. The perturbation is band
    limited, so the discrete harmonic extension agrees with the continuum
    mode to roundoff and the comparison is exact in spirit.
  * HEAT_NU / HEAT_EIGS: vertical Robin wavenumbers nu solving
    k nu cos(nu H) + sin(nu H) = 0 and the sorted conduction decay rates
    k ((m pi / 2 ell)^2 + nu_j^2) on the rest rectangle.
  * GS_CASES: closed-form fractional Sobolev norms of single cosine modes
    under the even-extension Gagliardo convention with wrapped distance,
    including the finite-period truncation factor I(pi m, sigma)/I(inf).
  * LIN_EQ: the small-slope equilibrium profile evaluated at the wall and
    the center.

Run from the repository root:

    python3 scripts/make_reference_values.py
"""

import pathlib

import mpmath as mp

mp.mp.dps = 40

ELL = mp.mpf(1)
DEPTH = mp.mpf("0.5")
HBAR = mp.mpf(1)
K_COND = mp.mpf("0.35")
GRAV = mp.mpf(1)
SIGMA1 = mp.mpf(1)


# ------------------------------------------------------------
# metric probes
# ------------------------------------------------------------

def smoothstep(t):
    if t <= 0:
        return mp.mpf(0), mp.mpf(0)
    if t >= 1:
        return mp.mpf(1), mp.mpf(0)
    return t**3 * (10 - 15 * t + 6 * t**2), 30 * t**2 * (1 - t) ** 2


def phi_quintic(z, zmin):
    a, b = zmin / 4, zmin / 2
    s, ds = smoothstep((z - a) / (b - a))
    return z * s, s + z * ds / (b - a)


def metric_probes():
    """J and A at five nodes of a 16 x 12 reference grid.

    Flat rest surface zeta0 = 1 over depth 1/2, eta = delta cos(pi x),
    delta = 1e-3. The harmonic extension of that mode is
    etabar = delta cos(pi x) exp(pi (x2 - 1)), d2 etabar = pi etabar,
    d1 etabar = -delta pi sin(pi x) exp(pi (x2 - 1)), and with zeta0' = 0

        J = 1 + phi'(x2) etabar + phi(x2) pi etabar
        A = phi(x2) d1 etabar.

    Probe indices (i, j) index xf = -1 + i/8 and s = j/12; x2 = -1/2 + 3s/2.
    The set covers: below the cutoff band (identity map), the band interior,
    above the band, and the free surface itself.
    """
    delta = mp.mpf("1e-3")
    probes = [(8, 12), (10, 9), (5, 7), (2, 10), (8, 4)]
    out = []
    for i, j in probes:
        x1 = -ELL + mp.mpf(i) / 8
        s = mp.mpf(j) / 12
        x2 = -DEPTH + (DEPTH + HBAR) * s
        phi, dphi = phi_quintic(x2, HBAR)
        ebar = delta * mp.cos(mp.pi * x1) * mp.exp(mp.pi * (x2 - HBAR))
        d1 = -delta * mp.pi * mp.sin(mp.pi * x1) * mp.exp(mp.pi * (x2 - HBAR))
        J = 1 + dphi * ebar + phi * mp.pi * ebar
        A = phi * d1
        out.append(((i, j), float(J), float(A)))
    return out


# ------------------------------------------------------------
# conduction decay rates
# ------------------------------------------------------------

def robin_roots(n_roots):
    """Positive roots of k nu cos(nu H) + sin(nu H) = 0, ascending."""
    H = HBAR + DEPTH
    roots = []
    for j in range(1, n_roots + 1):
        lo = (2 * j - 1) * mp.pi / (2 * H)
        hi = j * mp.pi / H
        f = lambda nu: K_COND * nu * mp.cos(nu * H) + mp.sin(nu * H)
        roots.append(mp.findroot(f, (lo + hi) / 2, solver="secant"))
    return roots


def heat_rates(nus, count):
    rates = []
    for m in range(1, 7):
        mu = m * mp.pi / (2 * ELL)
        for nu in nus:
            rates.append(K_COND * (mu**2 + nu**2))
    return sorted(float(r) for r in rates)[:count]


# ------------------------------------------------------------
# fractional surface norms of cosine modes
# ------------------------------------------------------------

def gs_tail_integral(X, sigma):
    """I(X) = int_0^X (1 - cos u) / u^(1 + 2 sigma) du, X a multiple of pi."""
    pieces = [mp.quad(lambda u: (1 - mp.cos(u)) / u ** (1 + 2 * sigma),
                      [j * mp.pi, (j + 1) * mp.pi])
              for j in range(int(X / mp.pi))]
    return mp.fsum(pieces)


def gs_infinite(sigma):
    return mp.pi / (2 * mp.gamma(1 + 2 * sigma) * mp.sin(mp.pi * sigma))


def gs_cases():
    """Continuum H^s norms (squared) of a cos(k pi x / ell) on the surface.

    Convention: even reflection into a period 4 ell function, full integer
    derivative stack plus one Gagliardo seminorm of the top derivative with
    wrapped distance and the q = 2 calibration that reproduces the Fourier
    multiplier |xi|^(2 sigma) on the line. On the period-L torus the distance
    truncates at L/2, shrinking each mode's seminorm by the explicit factor
    I(pi m_per, sigma) / I(inf, sigma) with m_per = 2 k the mode index.
    """
    L = 4 * ELL
    cases = []
    for s, k, amp in [("0.5", 1, "1.0"), ("0.5", 2, "0.7"), ("1.5", 1, "1.0"),
                      ("0.31", 1, "1.0"), ("1.31", 2, "0.25"),
                      ("2.5", 1, "0.05")]:
        s = mp.mpf(s)
        amp = mp.mpf(amp)
        m = int(mp.floor(s))
        sigma = s - m
        w = k * mp.pi / ELL
        total = mp.fsum([(amp * w**r) ** 2 / 2 * L for r in range(m + 1)])
        trunc = gs_tail_integral(2 * k * mp.pi, sigma) / gs_infinite(sigma)
        total += (amp * w**m) ** 2 / 2 * L * w ** (2 * sigma) * trunc
        cases.append((float(s), k, float(amp), float(total)))
    return cases


# ------------------------------------------------------------
# small-slope equilibrium profile
# ------------------------------------------------------------

def linearized_profiles():
    """eta_lin = a [cosh(m x)/(m sinh(m ell)) - 1/(m^2 ell)], a = jump/sigma1."""
    m = mp.sqrt(GRAV / SIGMA1)
    out = []
    for jump in ("1e-3", "1e-2"):
        a = mp.mpf(jump) / SIGMA1
        prof = lambda x: a * (mp.cosh(m * x) / (m * mp.sinh(m * ELL))
                              - 1 / (m**2 * ELL))
        out.append((float(mp.mpf(jump)), float(prof(0)), float(prof(ELL))))
    return out


def render():
    """The text of tests/_reference.py."""
    lines = [
        '"""Frozen oracle values. Generated by scripts/make_reference_values.py."""',
        "",
        "# (i, j) node on the 16 x 12 probe grid -> (J, A) by symbolic composition",
        "J_PROBES = [",
    ]
    for (i, j), J, A in metric_probes():
        lines.append(f"    (({i}, {j}), {J!r}, {A!r}),")
    lines.append("]")

    nus = robin_roots(4)
    lines += ["", "# vertical Robin wavenumbers, k nu cos(nu H) + sin(nu H) = 0",
              "HEAT_NU = ["]
    for nu in nus:
        lines.append(f"    {float(nu)!r},")
    lines += ["]", "", "# six slowest conduction decay rates on the rest rectangle",
              "HEAT_EIGS = ["]
    for r in heat_rates(nus, 6):
        lines.append(f"    {r!r},")
    lines += ["]", "",
              "# (s, mode k, amplitude, squared H^s surface norm of a cos(k pi x/ell))",
              "GS_CASES = ["]
    for s, k, amp, val in gs_cases():
        lines.append(f"    ({s!r}, {k}, {amp!r}, {val!r}),")
    lines += ["]", "",
              "# (tension jump, eta_lin(0), eta_lin(ell)) for the small-slope profile",
              "LIN_EQ = ["]
    for jump, at0, atl in linearized_profiles():
        lines.append(f"    ({jump!r}, {at0!r}, {atl!r}),")
    lines += ["]", ""]
    return "\n".join(lines)


def main():
    target = pathlib.Path(__file__).resolve().parents[1] / "tests" / "_reference.py"
    target.parent.mkdir(exist_ok=True)
    target.write_text(render())
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
