"""Translation-coordinate machinery and certified absorbing wedge domains.

Near the parabolic point the chart w = -1/(m*a*z^m) conjugates f to
F(w) = w + 1 + o(1). Controlling the o(1) remainder on the exterior of a disk
lets us pick a truncated-disk sector (a disk with an angular gap, the classic
"pacman" shape) that the dynamics provably cannot leave; two nested tangent
line constructions give an inner pacman whose whole forward orbit stays in the
outer one. These domains drive basin membership tests and the verifier's
radius recipes.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngle, NoConvergence, OriginInput
from .kobayashi import wrap_angle
from .parabolic import ParabolicMap, attraction_vectors


@dataclass(frozen=True)
class FatouChartValue:
    """Chart value w = -1/(m*a*z^m) plus the branch index of arg z."""

    omega: complex
    sheet: int


def fatou_chart(fm: ParabolicMap, z: complex) -> FatouChartValue:
    """Send z to the translation coordinate; the conjugated map is w + 1 + o(1).

    The normalization -1/(m*a*z^m) makes the translation constant exactly one
    for every (m, a). The sheet index records which of the m preimage branches
    z lives on, so the chart inverts exactly.
    """
    if z == 0:
        raise OriginInput("chart undefined at the fixed point")
    m, a = fm.m, fm.a
    w = -1.0 / (m * a * z ** m)
    pref = -1.0 / (m * a * w)
    theta_pref = math.atan2(pref.imag, pref.real)
    sheet = round((m * math.atan2(z.imag, z.real) - theta_pref) / math.tau) % m
    return FatouChartValue(w, sheet)


def fatou_chart_inverse(fm: ParabolicMap, value: FatouChartValue) -> complex:
    m, a = fm.m, fm.a
    target = -1.0 / (m * a * value.omega)
    r = abs(target) ** (1.0 / m)
    phi = (math.atan2(target.imag, target.real) + math.tau * value.sheet) / m
    return r * cmath.exp(1j * phi)


def conjugated_map(fm: ParabolicMap, omega: complex, sheet: int = 0) -> complex:
    """F(w): push w back to z, apply f, return to the chart."""
    z = fatou_chart_inverse(fm, FatouChartValue(omega, sheet))
    return fatou_chart(fm, fm(z)).omega


def estimate_remainder(fm: ParabolicMap, rho: float) -> float:
    """Sup of |F(w) - w - 1| over |w| >= rho, from one circle, with a 2x safety factor.

    Over every chart sheet at once, |w| >= rho is the punctured disc
    0 < |z| <= r, r = (m|a| rho)^(-1/m), where the remainder is
    R(z) = 1/(m a z^m) - 1/(m a f(z)^m) - 1. As f(z) = z (1 + a z^m + ...),
    R is analytic at z = 0 (R = O(z)), so its only poles are the zeros of
    f(z)/z. If sum_{k>=2} |c_k| r^(k-1) < 1, then |f(z)/z - 1| < 1 on the
    closed disc, so R is analytic there and, by the maximum-modulus
    principle, its sup is its max on the circle |z| = r. That max is sampled
    at 128 angles and doubled; a disc that fails the test gives inf.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    m, a = fm.m, fm.a
    r = (1.0 / (m * abs(a) * rho)) ** (1.0 / m)
    try:  # a term past double range fails the test, as a sum >= 1 does
        if sum(abs(c) * r ** (k - 1) for k, c in enumerate(fm.coefficients[2:], 2)) >= 1.0:
            return math.inf
    except OverflowError:
        return math.inf
    angles = math.tau * (np.arange(128) + 0.5) / 128
    z = r * np.exp(1j * angles)
    with np.errstate(divide="ignore", invalid="ignore"):
        sup = float(np.max(np.abs(-1.0 / (m * a * fm(z) ** m) + 1.0 / (m * a * z ** m) - 1.0)))
    return 2.0 * sup if math.isfinite(sup) else math.inf


def remainder_radius(fm: ParabolicMap, target: float) -> float:
    """A chart radius rho with estimate_remainder(fm, rho) < target.

    Doubles rho from 2 until the estimate passes, then bisects geometrically
    between the last failing and the first passing radius for 60 rounds and
    returns the passing end, so the result lies just above the threshold.
    """
    hi = 2.0
    while estimate_remainder(fm, hi) >= target:
        hi *= 2.0
        if hi > 2.0 ** 60:
            raise NoConvergence(f"remainder never fell below {target:.6g}")
    lo = hi / 2.0
    if estimate_remainder(fm, lo) >= target:
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if estimate_remainder(fm, mid) < target:
                hi = mid
            else:
                lo = mid
    return hi


@dataclass(frozen=True)
class PacManConstruction:
    """Radii certified by the two-stage tangent-line construction.

    In the chart plane the three concentric scales are rho0 (remainder control)
    and rho1, rho2 from intersecting the slope gap/2 tangent lines with the
    sector edge and the real axis. Back in the dynamical plane these become
    r0 > R0 > R0_prime; forward orbits started in the inner pacman of radius
    R0_prime stay inside the one of radius R0.
    """

    theta0: float
    m: int
    gap_omega: float
    rho0: float
    rho1: float
    rho2: float
    r0: float
    R0: float
    R0_prime: float
    remainder_bound: float
    tangent_points: dict

    def to_json_dict(self) -> dict:
        return {
            "theta0": self.theta0,
            "r0": self.r0,
            "R0": self.R0,
            "R0_prime": self.R0_prime,
            "remainder_bound": self.remainder_bound,
            "tangent_points": {k: [v.real, v.imag] for k, v in sorted(self.tangent_points.items())},
            "gap_omega": self.gap_omega,
            "m": self.m,
        }


def construct_pacman(fm: ParabolicMap, theta0: float) -> PacManConstruction:
    """Pick radii so the remainder stays below theta0/3 and nest two pacmen.

    The chart-plane gap is m*theta0 and the tangent lines run at half that
    slope, which makes both intersection distances equal rho/sin(gap/2); two
    rounds of the construction give rho1 and rho2 with rho0 < rho1 < rho2 and
    hence r0 > R0 > R0_prime in the dynamical plane.
    """
    if not (0.0 < theta0 < math.pi / 6.0):
        raise DegenerateAngle("theta0 must lie in (0, pi/6)")
    m, a = fm.m, fm.a
    gap = m * theta0
    if gap >= math.pi / 2.0:
        raise DegenerateAngle("m*theta0 must stay below pi/2")
    rho0 = remainder_radius(fm, theta0 / 3.0)
    bound = estimate_remainder(fm, rho0)

    s = math.sin(gap / 2.0)
    rho1 = rho0 / s
    rho2 = rho1 / s

    def z_radius(r: float) -> float:
        return (1.0 / (m * abs(a) * r)) ** (1.0 / m)

    tangents = {
        "A0": rho1 * cmath.exp(1j * (math.pi - gap)),
        "B0": complex(rho1, 0.0),
        "A": rho2 * cmath.exp(1j * (math.pi - gap)),
        "B": complex(rho2, 0.0),
    }
    return PacManConstruction(theta0, m, gap, rho0, rho1, rho2,
                              z_radius(rho0), z_radius(rho1), z_radius(rho2),
                              bound, tangents)


@dataclass(frozen=True)
class InvarianceReport:
    violations: int
    worst_margin: float
    samples: int
    n_steps: int


def check_petal_invariance(fm: ParabolicMap, pm: PacManConstruction,
                           n_steps: int = 1000, samples: int = 10000,
                           seed: int = 0) -> InvarianceReport:
    """Iterate quasi-random points of the inner pacman of direction 0, count
    exits from the outer.

    Sample set is a Halton sequence over (radius, angle) plus 10% of points
    offset 1e-6 (relative) inside the circular and angular boundaries, where
    violations would show first. The margin is the minimum over all iterates of
    the distance to the outer pacman's boundary (radial or arc, whichever is
    tighter).
    """
    from scipy.stats import qmc  # deferred: slow to import, and only this function uses it

    axis = attraction_vectors(fm).attraction_args[0]
    half = math.pi / pm.m - pm.theta0
    n_bulk = samples - samples // 10
    eng = qmc.Halton(d=2, scramble=True, seed=np.random.default_rng(seed))
    u = eng.random(n_bulk)
    r = pm.R0_prime * np.maximum(u[:, 0], 1e-9)
    psi = (2.0 * u[:, 1] - 1.0) * half

    n_edge = samples - n_bulk
    n_rad = n_edge // 2
    tt = np.linspace(-1.0, 1.0, max(n_rad, 2))
    r_edge = np.full(tt.size, pm.R0_prime * (1.0 - 1e-6))
    psi_edge = tt * half
    ss = np.linspace(1e-3, 1.0, max(n_edge - n_rad, 2))
    r_ang = pm.R0_prime * ss
    psi_ang = np.where(np.arange(ss.size) % 2 == 0, 1.0, -1.0) * half * (1.0 - 1e-6)

    r_all = np.concatenate([r, r_edge, r_ang])
    psi_all = np.concatenate([psi, psi_edge, psi_ang])
    z = r_all * np.exp(1j * (axis + psi_all))

    alive = np.ones(z.size, dtype=bool)
    violations = 0
    worst = math.inf
    for _ in range(n_steps):
        if not alive.any():
            break
        z[alive] = fm(z[alive])
        za = z[alive]
        ra = np.abs(za)
        off = np.abs(wrap_angle(np.angle(za) - axis))
        margin = np.minimum(pm.R0 - ra, ra * (half - off))
        out = margin <= 0.0
        if out.any():
            violations += int(out.sum())
            rest = margin[~out]
            if rest.size:
                worst = min(worst, float(rest.min()))
            idx = np.flatnonzero(alive)
            alive[idx[out]] = False
        else:
            worst = min(worst, float(margin.min()))
    return InvarianceReport(violations, worst, int(z.size), n_steps)


@functools.lru_cache(maxsize=64)
def membership_petal(fm: ParabolicMap) -> PacManConstruction:
    """Certified absorbing petal used for basin membership classification,
    built once per map.

    classify_batch's gate is the union of two absorbing sets of each chart
    sheet: this petal's sector, |w| >= rho2 with |arg w| <= pi - gap_omega,
    which is exactly absorption into the certified inner pacman, and the
    half-plane Re w >= half_plane_radius(fm). The gap is wide (0.5, scaled
    down for larger m) so the sector's entry radius stays small; any certified
    gap would do, since absorption characterizes the basin direction. The
    sector's soundness rests on estimate_remainder at rho0, as the
    half-plane's rests on it at rho_h; ROADMAP item 2 makes both rigorous.
    """
    return construct_pacman(fm, min(0.5, 1.2 / fm.m))


@functools.lru_cache(maxsize=64)
def half_plane_radius(fm: ParabolicMap) -> float:
    """rho_h, the radius beyond which estimate_remainder is below 1/2, built
    once per map.

    On |w| >= rho_h, |F(w) - w - 1| <= 1/2, so Re F(w) >= Re w + 1/2: the
    half-plane Re w >= rho_h of every chart sheet is forward invariant, and
    an orbit in it converges to the attracting direction of its sheet
    (Milnor, Dynamics in One Complex Variable, section 10). It is far
    shallower than the petal's rho2 (5.0 against 212 on z + z^2), so
    classify_batch labels basin orbits after a few steps instead of a crawl
    of about rho2 chart steps. Its soundness rests on estimate_remainder at
    rho_h, as the petal's does at rho0.
    """
    return remainder_radius(fm, 0.5)
