"""Linear SVM trained with sequential minimal optimization, one-vs-rest.

Each binary dual, min 1/2 a'Qa - e'a subject to 0 <= a <= C and y'a = 0,
is solved by one loop in the style of LIBSVM (Fan, Chen & Lin, JMLR 2005).
A step picks the maximal-violating pair with second-order working-set
selection: i maximises -y G over I_up, and j maximises the guaranteed
decrease b^2 / a over I_low, with the curvature a floored at _TAU for flat
directions such as duplicated rows. The pair moves by the clipped Newton
step and the gradient G is updated in O(n) from two Gram columns. The loop
stops when the KKT gap m - M drops below svm_tol, which keeps every margin
within svm_tol of its KKT condition. A solve that takes more than
_MAX_STEPS steps (scaled up past 100 000 samples, as LIBSVM does) raises
instead of returning a model that never converged. Features are
standardized internally on training statistics.
"""

from __future__ import annotations

import numpy as np

_TAU = 1e-12
_MAX_STEPS = 10_000_000


def _solve(K: np.ndarray, y: np.ndarray, C: float, tol: float, label: int):
    """Multipliers and bias of one binary machine on the Gram matrix K."""
    n = len(y)
    max_steps = max(_MAX_STEPS, _MAX_STEPS * n // 100_000)
    diag = np.diag(K)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # G = Q alpha - e with Q = y y' * K
    pos = y > 0
    steps = 0
    while True:
        viol = -y * grad
        up = np.where(pos, alpha < C, alpha > 0.0)
        low = np.where(pos, alpha > 0.0, alpha < C)
        i = np.argmax(np.where(up, viol, -np.inf))
        m, M = viol[i], viol[low].min()
        if m - M < tol:
            break
        if steps == max_steps:
            raise RuntimeError(
                f"SMO did not converge for class {label} within {max_steps} steps "
                f"(KKT gap {m - M:.3g} > tol {tol:g})"
            )
        steps += 1
        gain = m - viol
        curv = np.maximum(diag[i] + diag - 2.0 * K[i], _TAU)
        j = np.argmax(np.where(low & (gain > 0.0), gain**2 / curv, -np.inf))
        # move y_i a_i up and y_j a_j down by lam, clipped to the box
        room_i = C - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else C - alpha[j]
        lam = min(gain[j] / curv[j], room_i, room_j)
        # a multiplier whose room ran out lands exactly on its bound, so it
        # leaves I_up or I_low instead of being picked again for a null step
        alpha[i] = (C if pos[i] else 0.0) if lam == room_i else alpha[i] + y[i] * lam
        alpha[j] = (0.0 if pos[j] else C) if lam == room_j else alpha[j] - y[j] * lam
        grad += y * (lam * (K[i] - K[j]))  # K is symmetric: rows are columns
    yg = y * grad
    free = (alpha > 0.0) & (alpha < C)
    rho = yg[free].mean() if free.any() else -(m + M) / 2.0
    return alpha, -rho


def fit(rows: np.ndarray, y_idx: np.ndarray, n_classes: int, config) -> dict:
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    standardized = (rows - mean) / std
    gram = standardized @ standardized.T
    machines = []
    for c in range(n_classes):
        y = np.where(y_idx == c, 1.0, -1.0)
        alpha, b = _solve(gram, y, config.svm_C, config.svm_tol, c)
        w = (alpha * y) @ standardized
        machines.append({"w": w, "b": float(b), "alpha": alpha, "y": y})
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
