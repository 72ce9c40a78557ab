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

A step does vector work only where every entry changes, and allocates
nothing: each vector result goes into one preallocated buffer. It keeps the
violations -y G themselves, in two bounded copies: `up` holds them on I_up
and -inf elsewhere, `low` on I_low and +inf elsewhere, so i is an argmax of
`up` and M a min of `low`. Both are updated in O(n) from two Gram rows;
since y = +-1 and rounding is symmetric, they equal -y G of the updated
gradient up to the sign of a zero. The sets change only at i and j, so a
step rewrites just those entries of each copy; as C > 0 every row is in
I_up or I_low, and a row entering one set takes its -y G from the other.
Gains of at most 0 clamp to 0, which never wins, as the best gain is at
least svm_tol. The pair's box arithmetic is done in Python floats. The
floored curvature of a pair depends on the Gram matrix alone, so `fit`
builds the n x n table once, every class machine shares it, and a step
reads one row. Each machine records its step count and final KKT gap.
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
    # -y G (G = Q alpha - e, Q = y y' * K) on I_up and -inf elsewhere, and
    # on I_low and +inf elsewhere; at alpha = 0 (and C > 0) I_up holds the
    # positive rows and I_low the negative ones
    up = np.where(y > 0, y, -np.inf)
    low = np.where(y > 0, np.inf, y)
    buf = np.empty(n)
    steps = 0
    while True:
        i, lo = int(up.argmax()), int(low.argmin())
        m, M = up.item(i), low.item(lo)
        # with one class only, I_up or I_low is empty: read -y G from the
        # other copy, so that the gap is 0
        if m == -np.inf:
            m = low.item(i)
        if M == np.inf:
            M = up.item(lo)
        if m - M < tol:
            break
        if steps == max_steps:
            raise RuntimeError(
                f"SMO did not converge for class {label} within {max_steps} steps "
                f"(KKT gap {m - M:.3g} > tol {tol:g})"
            )
        steps += 1
        # second-order choice of j; gains of at most 0, those outside I_low
        # among them, clamp to 0
        curv_i = curv[i]
        np.subtract(m, low, out=buf)
        np.maximum(buf, 0.0, out=buf)
        np.multiply(buf, buf, out=buf)
        np.divide(buf, curv_i, out=buf)
        j = int(buf.argmax())
        # move y_i a_i up and y_j a_j down by lam, clipped to the box
        v_j = low.item(j)
        a_i, a_j = alpha[i], alpha[j]
        room_i = C - a_i if pos[i] else a_i
        room_j = a_j if pos[j] else C - a_j
        lam = min((m - v_j) / curv_i.item(j), room_i, room_j)
        # a multiplier whose room ran out lands exactly on its bound, so it
        # leaves I_up or I_low instead of being picked again for a null step
        a_i = alpha[i] = (C if pos[i] else 0.0) if lam == room_i else a_i + signs[i] * lam
        a_j = alpha[j] = (0.0 if pos[j] else C) if lam == room_j else a_j - signs[j] * lam
        # i was in I_up and j in I_low, so their -y G is m and v_j
        for k, a, v in ((i, a_i, m), (j, a_j, v_j)):
            up[k] = v if (a < C if pos[k] else a > 0.0) else -np.inf
            low[k] = v if (a > 0.0 if pos[k] else a < C) else np.inf
        np.subtract(K[i], K[j], out=buf)  # K is symmetric: rows are columns
        np.multiply(buf, lam, out=buf)
        up -= buf
        low -= buf
    alpha = np.array(alpha, dtype=float)
    free = (alpha > 0.0) & (alpha < C)
    # a free row is in both sets; up holds its -y G
    rho = (-up[free]).mean() if free.any() else -(m + M) / 2.0
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
