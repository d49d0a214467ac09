"""Tracking regularization node by node: one scalar CG per time node.

tikhonov_temporal runs all nodes in one lock-step CG over the stacked
systems; it must reproduce this reference bit for bit.
"""

import math

import numpy as np

from dynreg import DivergenceError


def scalar_cg(operator, rhs, tol, max_iter):
    """CG on one SPD system: (solution, iterations, stop reason, relative residuals)."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rhs_norm = finite(math.sqrt(float(r.ravel() @ r.ravel())), "right-hand side norm")
    if rhs_norm == 0.0:
        return x, 0, "tolerance", [0.0]
    p = r.copy()
    rs = float(r.ravel() @ r.ravel())
    history = []
    for k in range(1, max_iter + 1):
        Ap = operator(p)
        pAp = finite(float(p.ravel() @ Ap.ravel()), "p.Ap")
        if pAp <= 0.0:
            return x, k - 1, "breakdown", history
        step = rs / pAp
        x = x + step * p
        r = r - step * Ap
        rs_next = finite(float(r.ravel() @ r.ravel()), "squared residual")
        rel = math.sqrt(rs_next) / rhs_norm
        history.append(rel)
        if rel <= tol:
            return x, k, "tolerance", history
        p = r + (rs_next / rs) * p
        rs = rs_next
    return x, max_iter, "max_iter", history


def finite(value, what):
    if not math.isfinite(value):
        raise DivergenceError(f"CG met a non-finite {what} ({value})")
    return value


def tracking_by_node(forward, data, alphas, tol, max_iter, truth=None):
    """(snapshots, trace, stop reason) of the per-node Tikhonov solves
    (A_i* A_i + alphas[i] I) x_i = A_i* y(t_i), each through the family's row
    forms as a one-row stack at node i."""
    fam = forward.static
    snapshots = np.empty((len(alphas), fam.n_in))
    trace, reasons = [], set()
    for i, a_i in enumerate(alphas):
        y_i = data.values[i : i + 1]

        def normal_op(v, i=i, a=a_i):
            return fam.adjoint_rows(i, fam.apply_rows(i, v)) + a * v

        x, _, reason, _ = scalar_cg(normal_op, fam.adjoint_rows(i, y_i), tol, max_iter)
        reasons.add(reason)
        r = (fam.apply_rows(i, x) - y_i)[0]
        x = snapshots[i] = x[0]
        res = math.sqrt(fam.out_weight * float(r @ r))
        node_err = math.nan
        if truth is not None:
            diff = x - truth.values[i]
            denom = math.sqrt(fam.in_weight * float(truth.values[i] @ truth.values[i]))
            node_err = math.sqrt(fam.in_weight * float(diff @ diff)) / denom if denom else math.nan
        trace.append((i, i, res, a_i, node_err))
    reason = next(r for r in ("breakdown", "max_iter", "tolerance") if r in reasons)
    return snapshots, trace, reason
