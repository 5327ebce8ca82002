"""Closed forms and output checks for the benchmark's workloads.

The oracles are written out here from the geometry of the bearing-only
system (x' = u, y = (l - x)/|l - x|), not taken from `obsmhe.bearing`, so
a fault in the program's own oracle cannot hide a fault in its numerics.
Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import math

import numpy as np

# Relative agreement of the computed Grammian eigenvalues with the closed
# forms. RK4 at h = 0.0025 with Simpson quadrature reproduces them to
# about 1e-10; the margins are those of the program's acceptance tests.
CIRC_REL = 1e-6
SPI_REL = 1e-5
# A PMHE error may exceed the first-order bound T*nu*sup|H|/lambda_min by
# this share, to leave room for the second-order terms the bound drops.
SECOND_ORDER_ALLOWANCE = 0.1
# A PMHE error vector may differ from its first-order prediction by this
# share of the prediction (second-order terms measure below 0.2% at
# nu = 1e-2), plus the solver's stopping tolerance |grad| / (2 lambda_min).
FIRST_ORDER_REL = 0.02
# Accepted log-log slope of the PMHE error against the noise amplitude.
SLOPE_RANGE = (0.9, 1.1)
# |cos| of the angle between the cst witness and the motion direction.
WITNESS_ALIGNMENT = 1.0 - 1e-6


def circ_eigs(r0: float, omega: float, T: float) -> tuple[float, float]:
    """Grammian eigenvalues of a circle of radius r0 at angular rate omega.

    Along the circle H^T H = n n^T / r0^2 with n the unit normal to the
    bearing, which turns at rate omega; integrating over a window of
    length T gives (T -+ |sin(omega T)|/omega) / (2 r0^2).
    """
    s = abs(math.sin(omega * T)) / omega
    return (T - s) / (2.0 * r0 ** 2), (T + s) / (2.0 * r0 ** 2)


def spi_eigs(r0: float, omega: float, alpha: float, T: float,
             t: float) -> tuple[float, float]:
    """Grammian eigenvalues on the window [t-T, t] of the outward spiral
    r(s) = r0 e^{alpha s}, angle omega s:
    (e^{2 alpha T} - 1 -+ b) / (4 alpha r(t)^2), with
    b = alpha/sqrt(alpha^2 + omega^2) * |e^{2 alpha T} - e^{2 i omega T}|.
    """
    e2 = math.exp(2.0 * alpha * T)
    b = alpha / math.hypot(alpha, omega) * math.sqrt(
        e2 * e2 - 2.0 * e2 * math.cos(2.0 * omega * T) + 1.0)
    d = 4.0 * alpha * (r0 * math.exp(alpha * t)) ** 2
    return (e2 - 1.0 - b) / d, (e2 - 1.0 + b) / d


def _close(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


def check_close(label: str, got: float, want: float, rel: float) -> list[str]:
    if not _close(got, want, rel):
        return [f"{label}: {got!r} differs from the closed form {want!r}"]
    return []


def check_eigs(label: str, got: list[tuple[float, float]],
               want: list[tuple[float, float]], rel: float) -> list[str]:
    problems = []
    for (glo, ghi), (wlo, whi) in zip(got, want):
        if not (_close(glo, wlo, rel) and _close(ghi, whi, rel)):
            problems.append(f"{label}: eigenvalues ({glo!r}, {ghi!r}) differ "
                            f"from the closed form ({wlo!r}, {whi!r})")
    if len(got) != len(want):
        problems.append(f"{label}: {len(got)} windows, expected {len(want)}")
    return problems


def check_witness(label: str, direction, motion) -> list[str]:
    d = np.asarray(direction, dtype=float)
    m = np.asarray(motion, dtype=float)
    cos = abs(float(d @ m)) / (np.linalg.norm(d) * np.linalg.norm(m))
    if not cos >= WITNESS_ALIGNMENT:
        return [f"{label}: witness {d.tolist()} is not along the motion "
                f"direction {m.tolist()} (|cos| = {cos!r})"]
    return []


def pmhe_first_order_bound(T: float, nu: float, sup_h: float,
                           lambda_min: float) -> float:
    """First-order PMHE error bound: C d = int H^T v, |v| <= nu, Phi = I."""
    return T * nu * sup_h / lambda_min


def bearing_path(r0: float, psi: float, omega: float, alpha: float, s) -> np.ndarray:
    """Positions, relative to the landmark, at times s of the path that
    starts at r0 (cos psi, sin psi), turns at rate omega and grows at rate
    alpha (alpha = 0 is the circle)."""
    s = np.asarray(s, dtype=float)
    r = r0 * np.exp(alpha * s)
    return np.stack([r * np.cos(omega * s + psi), r * np.sin(omega * s + psi)], axis=1)


def pmhe_first_order_error(xs: np.ndarray, vs: np.ndarray, h: float) -> np.ndarray:
    """First-order PMHE error C^-1 int H^T v on a window of the bearing system.

    xs are the window's node positions relative to the landmark, vs the
    measurement noise at the nodes; Phi = I, H(x) = -(e e^T)/|x|^3 with
    e = (x2, -x1), and the integrals use composite Simpson weights.
    """
    e = np.stack([xs[:, 1], -xs[:, 0]], axis=1)
    hs = -np.einsum("ni,nj->nij", e, e) / np.linalg.norm(xs, axis=1)[:, None, None] ** 3
    w = np.ones(len(xs))
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= h / 3.0
    c = np.einsum("n,nji,njk->ik", w, hs, hs)
    return np.linalg.solve(c, np.einsum("n,nji,nj->i", w, hs, vs))


def check_first_order(label: str, error, predicted, slack: float) -> list[str]:
    miss = float(np.linalg.norm(np.asarray(error) - predicted))
    allowed = FIRST_ORDER_REL * float(np.linalg.norm(predicted)) + slack
    if not miss <= allowed:
        return [f"{label}: error vector is {miss!r} from its first-order "
                f"prediction, more than {allowed!r}"]
    return []


def check_pmhe_error(label: str, error: float, bound: float) -> list[str]:
    if not (math.isfinite(error) and error <= bound * (1.0 + SECOND_ORDER_ALLOWANCE)):
        return [f"{label}: error {error!r} exceeds the first-order bound "
                f"{bound!r} (allowance {SECOND_ORDER_ALLOWANCE})"]
    return []


def check_slope(label: str, nus: list[float], errors: list[float]) -> list[str]:
    if min(errors) <= 0.0:
        return [f"{label}: a zero error cannot be fitted on a log scale"]
    slope = float(np.polyfit(np.log(nus), np.log(errors), 1)[0])
    lo, hi = SLOPE_RANGE
    if not lo <= slope <= hi:
        return [f"{label}: log-log slope of error against nu is {slope!r}, "
                f"outside [{lo}, {hi}]"]
    return []


def check_increasing(label: str, values: list[float]) -> list[str]:
    if not all(b > a for a, b in zip(values, values[1:])):
        return [f"{label}: {values!r} does not strictly increase"]
    return []
