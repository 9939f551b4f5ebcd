"""The blocks of a flow step's saddle system as matrices, for the tests that
compare them or solve with them whole: the velocity block A(dt) and the
divergence block B. The solver itself forms neither; it applies A through
its rows and B as the cell divergence of the face flux Z."""

import scipy.sparse as sp

from contactflow.flow import _diff


def velocity_block(ops, dt):
    """A(dt) = R^T diag(w) R + Ztop^T (G0 + dt G) Ztop of the
    flow.FlowOperators ops, w = ops.weights(dt)."""
    G0, G = ops.surface_stiffness
    return (ops.R.T @ sp.diags(ops.weights(dt)) @ ops.R
            + ops.Ztop.T @ (G0 + dt * G) @ ops.Ztop).tocsr()


def divergence_block(ops):
    """B = -hx hs [kron(d_x, I) | kron(I, d_s)] Z of the flow.FlowOperators
    ops: the reference differences of the face flux Z across each cell,
    scaled by the cell area, so that B u = -hx hs ops.divergence(u)."""
    mac = ops.stencils
    nx, ny, hx, hs = mac.nx, mac.ny, mac.hx, mac.hs
    D = sp.hstack([sp.kron(_diff(nx, hx), sp.eye(ny)),
                   sp.kron(sp.eye(nx), _diff(ny, hs))])
    return ((-hx * hs) * (D @ ops.Z)).tocsr()
