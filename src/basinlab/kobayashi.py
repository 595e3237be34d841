"""Hyperbolic (= Kobayashi) metric machinery on elementary model domains.

Every domain here is a simply connected angular region with vertex at the
origin: the upper half-plane (opening pi), the plane slit along a ray
(opening 2pi), sectors of arbitrary opening, and "double sectors" whose
opening exceeds 2pi and whose points therefore carry an explicit lifted
argument. The power chart written in log coordinates,

    u + i v = (pi / h) * (ln r + i (theta - lo)),   w = exp(u + i v),

is a biholomorphism onto the upper half-plane for any opening h, immune to
branch-cut issues. Distances come from the closed form

    d = 2 asinh( sqrt( (sinh^2((u1-u2)/2) + sin^2((v1-v2)/2)) / (sin v1 sin v2) ) ),

which is the half-plane geodesic distance with the overall exp factor
cancelled, so it never overflows for desk-scale inputs. The numerator is
cosh(u1-u2) - cos(v1-v2) halved, written as a sum of two squares so that
nearby points do not cancel to a spurious 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadRadii, NonPositiveImaginary, NumericOverflow,
                     OutsideDomain, PathExitsDomain, SmallRealPart)

_ANG_GUARD = 1e-12  # absolute margin (radians) from each boundary ray
# The Gauss-Kronrod pair G2/K5 on [-1, 1], tried once before G7/K15: the 5
# Kronrod nodes (+-sqrt(6/7), +-1/sqrt(3), 0), the K5 weights (98/495, 27/55,
# 28/45), and the G2 weights, zero on the 3 Kronrod-only nodes.
_GK5_NODES = (
    0.9258200997725514615665667765839995225293, 0.5773502691896257645091487805019574556476,
    0.0,
    -0.5773502691896257645091487805019574556476, -0.9258200997725514615665667765839995225293)
_K5_WEIGHTS = (
    0.1979797979797979797979797979797979797980, 0.4909090909090909090909090909090909090909,
    0.6222222222222222222222222222222222222222,
    0.4909090909090909090909090909090909090909, 0.1979797979797979797979797979797979797980)
_G2_WEIGHTS = (0.0, 1.0, 0.0, 1.0, 0.0)
# The Gauss-Kronrod pair G7/K15 of QUADPACK's qk15 on [-1, 1]: the 15 Kronrod
# nodes, the K15 weights, and the G7 weights, zero on the 8 Kronrod-only nodes.
_GK15_NODES = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
    -0.207784955007898467600689403773245, -0.405845151377397166906606412076961,
    -0.586087235467691130294144838258730, -0.741531185599394439863864773280788,
    -0.864864423359769072789712788640926, -0.949107912342758524526189684047851,
    -0.991455371120812639206854697526329)
_K15_WEIGHTS = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970)
_G7_WEIGHTS = (
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.129484966168869693270611432679082, 0.0)
# Bound on the summed |K5 - G2| or |K15 - G7| of a polyline. On the 64
# metric-paths polylines every polyline meets it at K5, with the lengths
# within 3.6e-16 relative of the G7/K15 ones.
_PATH_RTOL, _PATH_ATOL = 1e-11, 1e-12
_PATH_MAX_DEPTH = 12  # at most 2**12 subintervals per segment


def wrap_angle(x):
    """Reduce an angle (float or array) to [-pi, pi)."""
    return (x + math.pi) % math.tau - math.pi


def lift_angle(ang, low: float, flag=None, wrap=None):
    """low + (ang - low) mod 2pi, in [low, low + 2pi). A float stays in Python
    arithmetic; an array is overwritten and returned, flag (bool) and wrap
    (float) being optional scratch of its shape. np.fmod plus 2pi times the
    sign flag of the remainder equals Python's %, bit for bit, also for a zero
    remainder of either sign, and is several times faster. fmod is skipped
    when the shifted block lies in (-2pi, 2pi), where it is the identity."""
    if not isinstance(ang, np.ndarray):
        return low + (ang - low) % math.tau
    np.subtract(ang, low, out=ang)
    if not (ang.size and -math.tau < ang.min() and ang.max() < math.tau):
        np.fmod(ang, math.tau, out=ang)
    flag = np.less(ang, 0.0, out=flag)
    ang += np.multiply(flag, math.tau, out=wrap)
    ang += low
    return ang


@dataclass(frozen=True)
class LiftedPoint:
    """Point r*e^(i*theta) with an unrestricted lift of the argument."""

    r: float
    theta: float

    @classmethod
    def from_complex(cls, z: complex, low: float = 0.0) -> "LiftedPoint":
        """Lift z with argument chosen in [low, low + 2pi)."""
        return cls(abs(z), lift_angle(math.atan2(z.imag, z.real), low))

    def to_complex(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class ModelDomain:
    """Angular model domain (arg_low, arg_high) with vertex at the origin."""

    tag: str
    arg_low: float
    arg_high: float

    @classmethod
    def half_plane(cls) -> "ModelDomain":
        return cls("half_plane", 0.0, math.pi)

    @classmethod
    def slit_plane(cls) -> "ModelDomain":
        return cls("slit_plane", 0.0, math.tau)

    @classmethod
    def sector(cls, arg_low: float, arg_high: float) -> "ModelDomain":
        w = arg_high - arg_low
        if not (0.0 < w <= math.tau):
            raise ValueError("sector opening must lie in (0, 2pi]")
        return cls("sector", arg_low, arg_high)

    @classmethod
    def double_sector(cls, arg_low: float, arg_high: float) -> "ModelDomain":
        if not (math.tau < arg_high - arg_low < math.inf):
            raise ValueError("double sector opening must be finite and exceed 2pi")
        return cls("double_sector", arg_low, arg_high)

    @property
    def width(self) -> float:
        return self.arg_high - self.arg_low

    def to_json_dict(self) -> dict:
        return {"variant": self.tag, "params": [self.arg_low, self.arg_high]}

    # -- point handling ----------------------------------------------------

    def to_rtheta(self, p) -> tuple[float, float]:
        """Normalize a point to (r, theta) strictly inside, or raise."""
        if isinstance(p, LiftedPoint):
            r, theta = p.r, p.theta
        else:
            z = complex(p)
            if self.tag == "double_sector":
                raise OutsideDomain("double sector points must carry a lifted argument")
            r, theta = abs(z), lift_angle(math.atan2(z.imag, z.real), self.arg_low)
        if not self.contains_rtheta(r, theta):
            raise OutsideDomain(f"(r, theta) = ({r}, {theta}) is not inside "
                                f"({self.arg_low}, {self.arg_high}) by the guard distance")
        return r, theta

    def contains_rtheta(self, r, theta):
        """Whether (r, theta) lies inside, elementwise; a nan is outside."""
        return ((r > 0.0)
                & (theta - self.arg_low > _ANG_GUARD)
                & (self.arg_high - theta > _ANG_GUARD))


def density(domain: ModelDomain, p) -> float:
    """Infinitesimal metric |dz| multiplier at p.

    Half-plane: 1/Im z. Slit plane: 1/(2 r sin(theta/2)). General opening h:
    (pi/h) / (r sin(pi (theta - lo) / h)), the pullback of 1/Im w through the
    power chart.
    """
    r, theta = domain.to_rtheta(p)
    return float(_density_into(domain, r, np.array(theta), np.empty(())))


def _density_into(domain: ModelDomain, r, theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """density at (r, theta), elementwise, written into out; theta is
    overwritten. With d = min(theta - lo, hi - theta), the distance to the
    nearer boundary ray, c = pi/(2h) and s = tan(c d), 1/sin(2 c d) =
    (s + 1/s)/2, so the density is c (s + 1/s) / r, evaluated in that order.
    Each difference is exact near its own ray, where 1/sin amplifies the
    rounding of its argument; the tangent costs a fraction of a sine."""
    c = math.pi / (2.0 * domain.width)
    np.subtract(theta, domain.arg_low, out=out)
    np.subtract(domain.arg_high, theta, out=theta)
    np.minimum(out, theta, out=out)
    np.multiply(c, out, out=out)
    np.tan(out, out=out)
    np.reciprocal(out, out=theta)
    np.add(out, theta, out=out)
    np.multiply(c, out, out=out)
    np.divide(out, r, out=out)
    return out


def _uv(domain: ModelDomain, log_r, theta):
    """The chart's log-coordinates (pi/h) (ln r, theta - lo), float or array."""
    scale = math.pi / domain.width
    return scale * log_r, scale * (theta - domain.arg_low)


def chart_uv(domain: ModelDomain, p) -> tuple[float, float]:
    """Log-coordinates (u, v) of the half-plane chart value w = e^u e^(iv)."""
    r, theta = domain.to_rtheta(p)
    return _uv(domain, math.log(r), theta)


def chart(domain: ModelDomain, p) -> complex:
    """Chart value in the upper half-plane (may overflow for extreme radii)."""
    u, v = chart_uv(domain, p)
    if abs(u) > 700.0:
        raise NumericOverflow("chart value outside double-precision range")
    return cmath.exp(complex(u, 0.0)) * cmath.exp(1j * v)


@dataclass(frozen=True)
class DistanceBound:
    """An exact chart distance, as distance_exact reports it."""

    value: float

    def to_json_dict(self) -> dict:
        return {"value": self.value, "kind": "exact", "method": "chart"}


def dist_uv_arrays(u1, v1, u2, v2):
    """Half-plane distance between chart log-coordinates, scalar or array."""
    x = np.sinh((u1 - u2) / 2.0) ** 2 + np.sin((v1 - v2) / 2.0) ** 2
    return 2.0 * np.arcsinh(np.sqrt(x / (np.sin(v1) * np.sin(v2))))


def _dist_uv(u1: float, v1: float, u2: float, v2: float) -> float:
    if math.sin(v1) <= 0.0 or math.sin(v2) <= 0.0:
        raise OutsideDomain("points must map strictly inside the half-plane")
    if abs(u1 - u2) > 700.0:
        raise NumericOverflow("radial separation too large for double precision")
    with np.errstate(over="ignore", invalid="ignore"):
        d = float(dist_uv_arrays(u1, v1, u2, v2))
    if not math.isfinite(d):
        raise NumericOverflow("distance argument left the representable range")
    return d


def distance_exact(domain: ModelDomain, p1, p2) -> DistanceBound:
    """Geodesic distance through the chart; exact on these simply connected
    domains, hence equal to the Kobayashi distance."""
    u1, v1 = chart_uv(domain, p1)
    u2, v2 = chart_uv(domain, p2)
    return DistanceBound(_dist_uv(u1, v1, u2, v2))


def chart_distances(domain: ModelDomain, p0, r: np.ndarray,
                    ang: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact distances from p0 to the points r e^(i ang), 0 <= ang <= 2pi, each
    the least over the lifts ang + 2pi k that lie in the domain. Returns
    (distances, inside): inside marks the points with some lift in the domain
    (not read off the distances, so a nan or inf distance stays inside); the
    others get inf."""
    u0, v0 = chart_uv(domain, p0)
    dist = np.full(r.shape, np.inf)
    inside = np.zeros(r.shape, dtype=bool)
    # the lift with this k lies in [2pi k, 2pi (k + 1)]
    ks = range(math.floor(domain.arg_low / math.tau), math.ceil(domain.arg_high / math.tau))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in ks:
            th = ang + math.tau * k
            ok = domain.contains_rtheta(r, th)
            if not ok.any():
                continue
            u, v = _uv(domain, np.log(r[ok]), th[ok])
            dist[ok] = np.minimum(dist[ok], dist_uv_arrays(u, v, u0, v0))
            inside[ok] = True
    return dist, inside


# ---------------------------------------------------------------------------
# Polylines: validation, length by quadrature, geodesic sampling
# ---------------------------------------------------------------------------

def _vertex_arrays(domain: ModelDomain, vertices) -> tuple[np.ndarray, np.ndarray]:
    """Complex positions and argument lifts of the polyline vertices.

    Off the double sector the vertices are taken as one complex array and
    lifted into the domain's window (the window's cut is where path_length's
    segment test sees a chord cross). A double sector needs a declared lift
    per vertex.
    """
    if domain.tag != "double_sector":
        if not isinstance(vertices, np.ndarray):
            vertices = [p.to_complex() if isinstance(p, LiftedPoint) else p for p in vertices]
        zs = np.asarray(vertices, dtype=complex)
        return zs, lift_angle(np.angle(zs), domain.arg_low)
    if not all(isinstance(p, LiftedPoint) for p in vertices):
        raise PathExitsDomain("double sector paths need lifted vertices")
    if not all(p.r > 0.0 for p in vertices):  # |to_complex()| would hide the sign
        raise PathExitsDomain("polyline vertex outside the domain: radius not positive")
    zs = np.array([p.to_complex() for p in vertices], dtype=complex)
    thetas = np.array([p.theta for p in vertices], dtype=float)
    return zs, thetas


def _chord_rtheta(domain: ModelDomain, za, zb, tha, t: np.ndarray,
                  z: np.ndarray, r: np.ndarray, theta: np.ndarray, flag: np.ndarray) -> None:
    """(r, theta) at parameters t along every chord, written into the row
    buffers r and theta, arguments lifted rowwise; z and flag are scratch."""
    np.multiply((zb - za)[:, None], t[None, :], out=z)
    np.add(za[:, None], z, out=z)
    np.arctan2(z.imag, z.real, out=theta)  # np.angle, in place
    if domain.tag != "double_sector":
        lift_angle(theta, domain.arg_low, flag, r)  # r is free until the moduli land
    else:
        d0 = wrap_angle(theta[:, 0] - np.angle(za))
        steps = wrap_angle(np.diff(theta, axis=1))
        theta[:, 0] = 0.0
        np.cumsum(steps, axis=1, out=theta[:, 1:])
        theta += (tha + d0)[:, None]
    np.abs(z, out=r)


# Quadrature nodes per block (fewer when one segment has more nodes). The 64
# metric-paths polylines all pass at K5, 5 nodes per segment; there (Xeon,
# 2 MB L2 per core; median of 9 passes, in each of 3 processes) a pass takes
# 0.060-0.068 s at 2 K nodes with about 560 minor faults per pass,
# 0.051-0.058 s at 4 K with about 950, 0.063-0.068 s at 8 K with about 7.1 K
# and 0.062-0.073 s at 16 K with about 10.5 K. With G7/K15 alone, 15 nodes
# per segment, 8 K is faster: 0.107-0.123 s against 0.138-0.143 s at 4 K.
_NODE_BLOCK = 1 << 12


def path_length(domain: ModelDomain, vertices) -> float:
    """Length of the polyline under the domain metric.

    A chord from za to zb that misses the origin turns its argument
    monotonically through angle(zb * conj(za)), which lies in (-pi, pi). So a
    segment lies in the domain exactly when both vertices do (with the
    boundary guard), zb * conj(za) is not a non-positive real, and the start
    lift plus that turn lands on the end lift within 1e-6.

    Segments are integrated all together, following one schedule: the
    Gauss-Kronrod pair G2/K5 over each whole segment, then the composite pair
    G7/K15 over 2**depth equal pieces, from depth 0 up. Each pass gives the
    Kronrod and the embedded Gauss integral of every segment, from 5 or 15
    densities per piece; the Kronrod total is returned once the summed
    |Kronrod - Gauss| over all segments, each times its chord length, is at
    most max(_PATH_ATOL, _PATH_RTOL * |total|). That sum of absolute
    differences cannot cancel across segments. A fine polyline passes at K5,
    with 5 densities per segment; a coarse one costs at most 5 more per
    segment than G7/K15 alone, whose totals it returns bit for bit. Past
    _PATH_MAX_DEPTH the last total is returned unconverged. The nodes are
    evaluated over blocks of about _NODE_BLOCK and every node is checked to
    lie in the domain. The block size does not change a bit of the result:
    rows are independent, and the densities of all segments meet in one
    product with the weights.
    """
    if len(vertices) < 2:
        raise ValueError("polyline needs at least two vertices")
    zs, thetas = _vertex_arrays(domain, vertices)
    if not np.all(domain.contains_rtheta(np.abs(zs), thetas)):
        raise PathExitsDomain("polyline vertex outside the domain or on its boundary")
    za, zb, tha, thb = zs[:-1], zs[1:], thetas[:-1], thetas[1:]
    turn = zb * np.conj(za)
    if np.any((turn.imag == 0.0) & (turn.real <= 0.0)):
        raise PathExitsDomain("segment passes through the origin")
    if np.any(np.abs(tha + np.angle(turn) - thb) > 1e-6):
        raise PathExitsDomain("segment crosses a boundary ray")
    chord = np.abs(zb - za)
    n_seg = za.size

    k5 = np.array(_GK5_NODES), np.array((_K5_WEIGHTS, _G2_WEIGHTS)).T
    k15 = np.array(_GK15_NODES), np.array((_K15_WEIGHTS, _G7_WEIGHTS)).T
    for (nodes, kg), depth in [(k5, 0)] + [(k15, d) for d in range(_PATH_MAX_DEPTH + 1)]:
        pieces = 2 ** depth
        edges = np.linspace(0.0, 1.0, pieces + 1)
        mid = (edges[:-1, None] + edges[1:, None]) / 2.0
        half = (edges[1:, None] - edges[:-1, None]) / 2.0
        t = (mid + half * nodes[None, :]).ravel()
        wts = (half[:, :, None] * kg).reshape(-1, 2)
        rows = min(n_seg, max(1, _NODE_BLOCK // t.size))
        z = np.empty((rows, t.size), dtype=complex)
        r, theta = np.empty((rows, t.size)), np.empty((rows, t.size))
        flag = np.empty((rows, t.size), dtype=bool)
        dens = np.empty((n_seg, t.size))
        for lo in range(0, n_seg, rows):
            blk = slice(lo, min(lo + rows, n_seg))
            k = blk.stop - lo
            rk, thk = r[:k], theta[:k]
            _chord_rtheta(domain, za[blk], zb[blk], tha[blk], t, z[:k], rk, thk, flag[:k])
            # each test of contains_rtheta is monotone in r or theta, so the
            # block is inside exactly when its extremes are (nan fails both)
            r_min = rk.min()
            if not (domain.contains_rtheta(r_min, thk.min())
                    and domain.contains_rtheta(r_min, thk.max())):
                raise PathExitsDomain("quadrature node left the domain")
            _density_into(domain, rk, thk, dens[blk])
        kq, gq = (dens @ wts).T
        total = float(np.sum(chord * kq))
        err = float(np.sum(chord * np.abs(kq - gq)))
        if err <= max(_PATH_ATOL, _PATH_RTOL * abs(total)):
            return total
    return total


def _geodesic_w(domain: ModelDomain, p1, p2, n: int) -> np.ndarray:
    """Chart values of n+1 equal-arclength samples along the geodesic."""
    w1, w2 = chart(domain, p1), chart(domain, p2)
    x1, y1, x2, y2 = w1.real, w1.imag, w2.real, w2.imag
    if abs(x1 - x2) <= 1e-14 * max(abs(w1), abs(w2), 1.0):
        ts = np.linspace(0.0, 1.0, n + 1)
        return x1 + 1j * y1 * (y2 / y1) ** ts
    c = (abs(w2) ** 2 - abs(w1) ** 2) / (2.0 * (x2 - x1))
    rad = abs(w1 - c)
    phi1 = math.atan2(y1, x1 - c)
    phi2 = math.atan2(y2, x2 - c)
    ss = np.linspace(math.log(math.tan(phi1 / 2.0)),
                     math.log(math.tan(phi2 / 2.0)), n + 1)
    # at phi = 2 atan(e^s): cos phi = -tanh s and sin phi = 1/cosh s
    ws = np.empty(n + 1, dtype=complex)
    ws.real = c - rad * np.tanh(ss)
    ws.imag = rad / np.cosh(ss)
    return ws


def geodesic_polyline(domain: ModelDomain, p1, p2, n: int) -> list | np.ndarray:
    """n+1 points along the chart geodesic, equally spaced in arc length: a
    list of LiftedPoint on a double sector, else a complex array."""
    ws = _geodesic_w(domain, p1, p2, n)
    inv_scale = domain.width / math.pi
    r = np.exp(inv_scale * np.log(np.abs(ws)))
    theta = domain.arg_low + inv_scale * np.angle(ws)
    if domain.tag == "double_sector":
        pts: list = [LiftedPoint(float(a), float(b)) for a, b in zip(r, theta)]
        pts[0], pts[-1] = p1, p2
        return pts
    # e^(i theta) from t = tan(theta/2), which stays finite in floats
    t = np.tan(theta / 2.0)
    t2 = t * t
    scale = r / (1.0 + t2)
    pts = np.empty(n + 1, dtype=complex)
    pts.real = scale * (1.0 - t2)
    pts.imag = scale * (2.0 * t)
    pts[0], pts[-1] = (p.to_complex() if isinstance(p, LiftedPoint) else p for p in (p1, p2))
    return pts


# ---------------------------------------------------------------------------
# Closed-form lower bounds used by the verifier as cross-checks
# ---------------------------------------------------------------------------

def bound_case1(eps: float, R: float, m: int) -> float:
    """Radial growth bound: any path from |z| <= eps to |z| >= R costs at
    least (m/2)(ln R - ln eps) in a sector of opening 2pi/m."""
    if not (0.0 < eps < R):
        raise BadRadii("need 0 < eps < R")
    return 0.5 * m * (math.log(R) - math.log(eps))


def kappa_infimum(m: int, theta_range: tuple[float, float]) -> tuple[float, float, float]:
    """Certified infima over the angular range, in closed form.

    kappa is the infimum of the exact ratio density*Im = g(theta) =
    m sin(theta) / (2 sin(m theta / 2)); c1 and c2 are the separate classical
    infima of (m theta/2)/sin(m theta/2) and sin(theta)/theta. kappa >= c1*c2
    and kappa is the constant that keeps the log-height bound sound.

    All three are monotone on the whole admissible range (0, min(pi, 2pi/m)),
    because x cot x decreases on (0, pi): theta (ln g)' = theta cot theta -
    (m theta/2) cot(m theta/2) is positive for m >= 3 (m theta/2 > theta),
    zero for m = 2 and negative for m = 1; c1 = x/sin x with x = m theta/2 in
    (0, pi) increases and c2 decreases. So each infimum is the smaller of the
    two values at the ends of the range, which is clamped to [1e-9,
    cap - 1e-12] away from the removable singularity at 0 and the pole at
    the cap. The end values are evaluated in double precision, so each
    infimum is returned one ulp toward 0: rounded to nearest, m = 1 on
    (0, 1e-6) reads one ulp above cos(5e-7). This absorbs a one-ulp error; it
    is not an interval enclosure.
    """
    lo, hi = theta_range
    cap = min(math.pi, math.tau / m)
    if not (0.0 <= lo < hi <= cap + 1e-12):
        raise ValueError("theta range must sit inside (0, min(pi, 2pi/m))")
    hi = min(hi, cap - 1e-12) if hi >= cap else hi
    ends = np.array([max(lo, 1e-9), hi])
    kappa = float(np.min(m * np.sin(ends) / (2.0 * np.sin(m * ends / 2.0))))
    c1 = float(np.min((m * ends / 2.0) / np.sin(m * ends / 2.0)))
    c2 = float(np.min(np.sin(ends) / ends))
    return math.nextafter(kappa, 0.0), math.nextafter(c1, 0.0), math.nextafter(c2, 0.0)


def bound_case2(z0_tilde: complex, z1_tilde: complex, m: int,
                theta_range: tuple[float, float]) -> float:
    """Log-height bound kappa * |ln Im z' - ln Im z0| for paths confined to
    the sector over theta_range (where density*Im >= kappa pointwise)."""
    if z0_tilde.imag <= 0.0 or z1_tilde.imag <= 0.0:
        raise NonPositiveImaginary("both points need positive imaginary part")
    kappa = kappa_infimum(m, theta_range)[0]
    return kappa * abs(math.log(z1_tilde.imag) - math.log(z0_tilde.imag))


def bound_case2_horizontal(z0_tilde: complex, C: float) -> float:
    """In-band crossing cost 1/(2 e^C |Im z0|) of reaching the vertical axis
    from a normalized point with Re > 1/2 while the height stays within a
    factor e^C of the start."""
    if z0_tilde.real <= 0.5:
        raise SmallRealPart("normalized point needs Re > 1/2")
    y = abs(z0_tilde.imag)
    if y == 0.0:
        raise NonPositiveImaginary("crossing band is empty at zero height")
    return 1.0 / (2.0 * math.exp(C) * y)


def kobayashi_disk_clearance(domain: ModelDomain, center, C: float) -> float:
    """Largest angle a such that the rays at arguments in (arg_low, arg_low + a)
    miss the closed hyperbolic disk of radius C about center.

    The least distance d from the center to the ray at chart angle v < v_c
    is to that ray's point at the center's radius. With t = tan(v/2) and
    t_c = tan(v_c/2), the half-plane formula gives sinh(d/2) = (t_c - t) /
    (2 sqrt(t_c t)), so d = ln(t_c/t), and d = C exactly where t = e^(-C) t_c.
    The result is rounded to nearest, not an enclosure.
    """
    if C < 0.0:
        raise ValueError("C must be non-negative")
    _, v_c = chart_uv(domain, center)
    return 2.0 * math.atan(math.exp(-C) * math.tan(v_c / 2.0)) * domain.width / math.pi
