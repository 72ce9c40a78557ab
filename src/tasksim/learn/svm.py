"""Linear SVM trained with sequential minimal optimization, one-vs-rest.

Each binary dual, min 1/2 a'Qa - e'a subject to 0 <= a <= C and y'a = 0,
is solved by one loop in the style of LIBSVM (Fan, Chen & Lin, JMLR 2005).
A step picks the maximal-violating pair with second-order working-set
selection: i maximises -y G over I_up, and j maximises the guaranteed
decrease b^2 / a over I_low, with the curvature a floored at _TAU for flat
directions such as duplicated rows. The pair moves by the clipped Newton
step. The loop stops when the KKT gap m - M drops below svm_tol, which
keeps every margin within svm_tol of its KKT condition. A solve that takes
more than _MAX_STEPS steps (scaled up past 100 000 samples, as LIBSVM does)
raises instead of returning a model that never converged. Features are
standardized internally on training statistics.

A step does vector work only where every entry changes. It keeps the
violations -y G themselves and updates them in O(n) from two Gram rows;
since y = +-1 and rounding is symmetric, they equal -y G of the updated
gradient up to the sign of a zero. I_up and I_low are kept as additive
masks (0 inside, -inf or +inf outside) that change only at i and j, so a
step rewrites just those two entries, and it does the pair's box
arithmetic in Python floats. The floored curvature of a pair depends on
the Gram matrix alone, so `fit` builds the n x n table once, every class
machine shares it, and a step reads one row. Each machine records its step
count and final KKT gap.
"""

from __future__ import annotations

import numpy as np

_TAU = 1e-12
_MAX_STEPS = 10_000_000


def _curvature(K: np.ndarray) -> np.ndarray:
    """K_ii + K_jj - 2 K_ij for every pair, floored at _TAU."""
    diag = np.diag(K)
    return np.maximum(diag[:, None] + diag - 2.0 * K, _TAU)


def _solve(K: np.ndarray, curv: np.ndarray, y: np.ndarray, C: float, tol: float, label: int):
    """Multipliers, bias, step count and final KKT gap of one binary machine
    on the Gram matrix K with curvature table curv."""
    n = len(y)
    max_steps = max(_MAX_STEPS, _MAX_STEPS * n // 100_000)
    pos = (y > 0).tolist()
    signs = y.tolist()
    alpha = [0.0] * n
    # I_up and I_low as additive masks, 0 inside and -inf / +inf outside; at
    # alpha = 0 (and C > 0) they hold the positive and the negative rows
    out_up = np.where(y > 0, 0.0, -np.inf)
    out_low = np.where(y > 0, np.inf, 0.0)
    viol = y.copy()  # -y G, with G = Q alpha - e and Q = y y' * K
    steps = 0
    while True:
        i = int((viol + out_up).argmax())
        viol_low = viol + out_low
        m, M = viol.item(i), viol.item(viol_low.argmin())
        if m - M < tol:
            break
        if steps == max_steps:
            raise RuntimeError(
                f"SMO did not converge for class {label} within {max_steps} steps "
                f"(KKT gap {m - M:.3g} > tol {tol:g})"
            )
        steps += 1
        gain = m - viol_low  # -inf outside I_low
        curv_i = curv[i]
        j = int(np.where(gain > 0.0, gain * gain / curv_i, -np.inf).argmax())
        # move y_i a_i up and y_j a_j down by lam, clipped to the box
        a_i, a_j = alpha[i], alpha[j]
        room_i = C - a_i if pos[i] else a_i
        room_j = a_j if pos[j] else C - a_j
        lam = min(gain.item(j) / curv_i.item(j), room_i, room_j)
        # a multiplier whose room ran out lands exactly on its bound, so it
        # leaves I_up or I_low instead of being picked again for a null step
        a_i = alpha[i] = (C if pos[i] else 0.0) if lam == room_i else a_i + signs[i] * lam
        a_j = alpha[j] = (0.0 if pos[j] else C) if lam == room_j else a_j - signs[j] * lam
        for k, a in ((i, a_i), (j, a_j)):
            out_up[k] = 0.0 if (a < C if pos[k] else a > 0.0) else -np.inf
            out_low[k] = 0.0 if (a > 0.0 if pos[k] else a < C) else np.inf
        viol -= lam * (K[i] - K[j])  # K is symmetric: rows are columns
    alpha = np.array(alpha, dtype=float)
    yg = -viol
    free = (alpha > 0.0) & (alpha < C)
    rho = yg[free].mean() if free.any() else -(m + M) / 2.0
    return alpha, -rho, steps, m - M


def fit(rows: np.ndarray, y_idx: np.ndarray, n_classes: int, config) -> dict:
    """One-vs-rest machines on the standardized rows. A column whose mean
    or standard deviation overflows raises FloatingPointError: dividing by
    an infinite deviation would silently zero the column."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
        raise FloatingPointError("feature mean or standard deviation overflows")
    std = np.where(std > 0.0, std, 1.0)
    standardized = (rows - mean) / std
    gram = standardized @ standardized.T
    curv = _curvature(gram)
    machines = []
    for c in range(n_classes):
        y = np.where(y_idx == c, 1.0, -1.0)
        alpha, b, steps, kkt_gap = _solve(gram, curv, y, config.svm_C, config.svm_tol, c)
        w = (alpha * y) @ standardized
        machines.append(
            {"w": w, "b": float(b), "alpha": alpha, "y": y, "steps": steps, "kkt_gap": kkt_gap}
        )
    return {
        "mean": mean,
        "std": std,
        "machines": machines,
        "n_features": rows.shape[1],
    }


def scores(params: dict, rows: np.ndarray) -> np.ndarray:
    """Per-class decision values of the one-vs-rest machines."""
    standardized = (rows - params["mean"]) / params["std"]
    out = np.empty((rows.shape[0], len(params["machines"])))
    for c, machine in enumerate(params["machines"]):
        out[:, c] = standardized @ machine["w"] + machine["b"]
    return out
