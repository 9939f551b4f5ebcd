"""Physical constants and corner-regularity exponent bookkeeping.

The contact-point problem is posed in a vessel with vertical walls at
x1 = +-ell, flat bottom at x2 = -depth, and a free surface meeting the walls
at corner angle omega in (0, pi). The regularity theory at those corners is
governed by a tuple of exponents:

    eps_max = min{1, pi/omega - 1}
    0 < alpha < eps_minus < eps_plus < eps_max
    alpha < min{eps_minus/2, (eps_plus - eps_minus)/2}
    eps_plus <= (eps_minus + 1)/2
    q_delta = 2/(2 - eps_delta)  for delta in {-, +, max}

Everything downstream (fractional norm orders, L^q integrability indices of
the energy functional) reads off this tuple, so selection is deterministic:
no solver state, no randomness.
"""

import math
from dataclasses import dataclass, field


class ConstraintError(ValueError):
    """A physical or exponent constraint is violated."""


# ============================================================
# physical constants
# ============================================================

@dataclass(frozen=True)
class PhysicalParams:
    """Fluid, thermal and contact-line constants.

    gamma_jump is the solid-vapor minus solid-fluid interfacial energy
    difference at the contact point; the Young relation |gamma_jump| < sigma1
    keeps the equilibrium contact angle inside (0, pi). sigma(theta) =
    sigma1 - sigma2*theta must stay positive over theta_range, the
    temperature range the run is configured for: validate_config in the CLI
    sets it to (-T, T) with T = max(1, |initial.theta_amp|), which bounds
    the initial temperature.
    """

    mu: float = 0.35          # viscosity
    k: float = 0.35           # heat conduction
    g: float = 1.0            # gravity
    sigma1: float = 1.0       # base surface tension
    sigma2: float = 0.1       # thermal tension coefficient
    beta: float = 1.0         # Navier slip coefficient
    kappa: float = 1.0        # linearized contact response W'(0)
    gamma_jump: float = 0.0   # interfacial energy jump at the contact point
    ell: float = 1.0          # half-width of the vessel
    big_l: float = 2.0        # channel height (spill guard)
    depth: float = 0.5        # vessel bottom depth d
    theta_range: tuple = (-1.0, 1.0)  # range over which sigma(theta) > 0 is enforced

    def validate(self):
        """Return a list of violated-constraint descriptions (empty if valid)."""
        bad = []
        for name in ("mu", "k", "g", "sigma1", "kappa", "ell", "big_l", "depth"):
            if not getattr(self, name) > 0:
                bad.append("%s > 0 violated (%r)" % (name, getattr(self, name)))
        if self.beta < 0:
            bad.append("beta >= 0 violated (%r)" % self.beta)
        if not abs(self.gamma_jump) < self.sigma1:
            bad.append("Young relation |gamma_jump| < sigma1 violated "
                       "(|%g| >= %g)" % (self.gamma_jump, self.sigma1))
        tlo, thi = min(self.theta_range), max(self.theta_range)
        for t in (tlo, thi):
            if not self.sigma1 - self.sigma2 * t > 0:
                bad.append("sigma(theta) = sigma1 - sigma2*theta > 0 violated "
                           "at theta = %g" % t)
        return bad

    def require_valid(self):
        bad = self.validate()
        if bad:
            raise ConstraintError("; ".join(bad))
        return self


# ============================================================
# regularity exponents
# ============================================================

def compute_eps_max(omega):
    """eps_max = min{1, pi/omega - 1} for a corner of angle omega in (0, pi)."""
    if not 0.0 < omega < math.pi:
        raise ConstraintError("corner angle must lie in (0, pi), got %r" % omega)
    return min(1.0, math.pi / omega - 1.0)


@dataclass(frozen=True)
class RegularityExponents:
    omega: float
    eps_max: float
    eps_minus: float
    eps_plus: float
    alpha: float
    q_minus: float = field(default=0.0)
    q_plus: float = field(default=0.0)
    q_max: float = field(default=0.0)

    def validate(self):
        """Return violated constraints, each cited by its defining inequality."""
        bad = []
        e, em, ep, a = self.eps_max, self.eps_minus, self.eps_plus, self.alpha
        if not abs(e - compute_eps_max(self.omega)) < 1e-14:
            bad.append("eps_max = min{1, -1 + pi/omega} violated")
        if not (0.0 < a and a < em and em < ep and ep < e):
            bad.append("0 < alpha < eps_minus < eps_plus < eps_max violated")
        if not a < min(em / 2.0, (ep - em) / 2.0):
            bad.append("alpha < min{eps_minus/2, (eps_plus - eps_minus)/2} violated")
        if not ep <= (em + 1.0) / 2.0:
            bad.append("eps_plus <= (eps_minus + 1)/2 violated")
        for qname, eps in (("q_minus", em), ("q_plus", ep), ("q_max", e)):
            if abs(getattr(self, qname) - 2.0 / (2.0 - eps)) > 1e-14:
                bad.append("%s = 2/(2 - eps) violated" % qname)
        if not (1.0 < self.q_minus < self.q_plus < self.q_max <= 2.0):
            bad.append("1 < q_minus < q_plus < q_max <= 2 violated")
        return bad

    def require_valid(self):
        bad = self.validate()
        if bad:
            raise ConstraintError("; ".join(bad))
        return self


def select_exponents(omega, safety=0.9):
    """Deterministic exponent selection for a corner angle omega.

    eps_plus = safety*eps_max capped at 3/4 (the cap is forced by
    eps_plus <= (eps_minus + 1)/2 once eps_minus = (2/3) eps_plus; without it
    any safety > 3/4 would violate that constraint whenever eps_max = 1),
    eps_minus = (2/3) eps_plus, alpha = a quarter of its own upper bound.
    """
    if not 0.0 < safety < 1.0:
        raise ConstraintError("safety must lie in (0, 1), got %r" % safety)
    eps_max = compute_eps_max(omega)
    eps_plus = min(safety * eps_max, 0.75)
    eps_minus = 2.0 * eps_plus / 3.0
    alpha = 0.25 * min(eps_minus / 2.0, (eps_plus - eps_minus) / 2.0)
    exps = RegularityExponents(
        omega=omega,
        eps_max=eps_max,
        eps_minus=eps_minus,
        eps_plus=eps_plus,
        alpha=alpha,
        q_minus=2.0 / (2.0 - eps_minus),
        q_plus=2.0 / (2.0 - eps_plus),
        q_max=2.0 / (2.0 - eps_max),
    )
    return exps.require_valid()
