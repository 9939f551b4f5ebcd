"""The velocity block of a flow step as one matrix, for the tests that
compare it or solve with it whole; the solver itself never forms it."""

import scipy.sparse as sp


def velocity_block(ops, dt):
    """A(dt) = R^T diag(w) R + Ztop^T (G0 + dt G) Ztop of the
    flow.FlowOperators ops, w = ops.weights(dt)."""
    G0, G = ops.surface_stiffness
    return (ops.R.T @ sp.diags(ops.weights(dt)) @ ops.R
            + ops.Ztop.T @ (G0 + dt * G) @ ops.Ztop).tocsr()
