"""Parameter recipes and machine-checkable far-point certificates.

Given a target distance C, the recipe picks a gap angle theta0 below the cap
1/(2 C e^C), certifies a nested wedge construction at that angle, and places
the far point at (epsilon, theta_star) = (R0_prime exp(-2C/m), 1.5 theta0) in
the frame rotated by `rotation`, where the comparison domain sits; z0 is that
point in the original frame. The radial growth bound alone then forces
distance >= C to every enumerated point outside the inner wedge.
Certification measures the exact chart distance from (epsilon, theta_star)
on an elementary comparison domain that contains the immediate basin; domain
monotonicity makes every such value a sound lower bound for the basin
distance. The classical closed-form bounds are recorded alongside as
cross-checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import parabolic
from .errors import ConstructionFailed, NonPositiveImaginary, SmallRealPart
from .kobayashi import (DistanceBound, LiftedPoint, ModelDomain, bound_case1,
                        bound_case2_horizontal, chart_distances, kappa_infimum,
                        kobayashi_disk_clearance, lift_angle, wrap_angle)
from .parabolic import ParabolicMap, QEnumeration, attraction_vectors, enumerate_Q
from .petals import PacManConstruction, construct_pacman

_CLOSURE_RESIDUAL_TOL = 1e-8  # |f^d(w) - z0| on preimages w of z0, |f(v) - value[parent]| on Q


@dataclass(frozen=True)
class TheoremParams:
    """Chosen parameters for one certificate run. The far point is
    (epsilon, theta_star) in polar form in the frame rotated by `rotation`."""

    C: float
    m: int
    direction: int
    theta0: float
    theta0_prime: float
    epsilon: float
    theta_star: float
    rotation: float
    comparison_domain: ModelDomain
    pacman: PacManConstruction
    kappa: float
    kappa_constants: dict

    @property
    def z0(self) -> complex:
        """The far point in the original frame."""
        angle = self.rotation + self.theta_star
        return self.epsilon * complex(math.cos(angle), math.sin(angle))

    @property
    def z0_normalized(self) -> complex:
        """The far point's direction e^(i theta_star) in the rotated frame."""
        return complex(math.cos(self.theta_star), math.sin(self.theta_star))

    def to_json_dict(self) -> dict:
        return {
            "C": self.C,
            "m": self.m,
            "direction": self.direction,
            "theta0": self.theta0,
            "theta0_prime": self.theta0_prime,
            "epsilon": self.epsilon,
            "z0": [self.z0.real, self.z0.imag],
            "z0_normalized": [self.z0_normalized.real, self.z0_normalized.imag],
            "theta_star": self.theta_star,
            "rotation": self.rotation,
            "comparison_domain": self.comparison_domain.to_json_dict(),
            "pacman": self.pacman.to_json_dict(),
            "kappa": self.kappa,
            "kappa_constants": dict(sorted(self.kappa_constants.items())),
        }


def choose_parameters(fm: ParabolicMap, C: float, direction: int = 0) -> TheoremParams:
    """Run the parameter recipe for target distance C in one direction.

    theta0 is half of min(cap, pi/6), cap = 1/(2 C e^C) (ConstructionFailed
    once e^C overflows); the wedge construction at theta0 yields R0_prime and
    eps = R0_prime e^(-2C/m). The far point is (eps, theta*) in polar form in
    the frame rotated by `rotation`, which puts the attracting direction on
    the ray pi/m; every bound is a distance from that point. theta* = 1.5
    theta0 puts e^(i theta*) at Re > 1/2 below the cap; the bound
    0.9 asin(min(1, cap)) never binds, as 0.9 asin(cap) >= 0.9 cap > 0.75 cap
    for cap <= pi/6 and 0.9 asin(pi/6) = 0.496 > 0.393 = 0.75 pi/6.
    theta0_prime is the disk clearance at radius C about e^(i theta*) in the
    unwidened domain (the slit plane, or sector (0, 2pi/m)).
    """
    if C <= 0.0:
        raise ValueError("C must be positive")
    m = fm.m
    vs = attraction_vectors(fm)
    if not (0 <= direction < m):
        raise ValueError("direction index out of range")
    try:
        cap = 1.0 / (2.0 * C * math.exp(C))
    except OverflowError as exc:
        raise ConstructionFailed(f"e^C overflows double precision at C={C}") from exc
    theta0 = 0.5 * min(cap, math.pi / 6.0)
    try:
        pm = construct_pacman(fm, theta0)
    except Exception as exc:  # noqa: BLE001 - surface as recipe failure
        raise ConstructionFailed(f"wedge construction rejected theta0={theta0}") from exc
    eps = pm.R0_prime * math.exp(-2.0 * C / m)
    theta_star = 1.5 * theta0
    rotation = lift_angle(vs.attraction_args[direction] - math.pi / m, 0.0)

    opening = math.tau / m
    unwidened = ModelDomain.slit_plane() if m == 1 else ModelDomain.sector(0.0, opening)
    if fm.degree == m + 1:
        comparison = unwidened
    elif m == 1:
        comparison = ModelDomain.double_sector(-theta0, math.tau + theta0)
    else:
        comparison = ModelDomain.sector(-theta0, opening + theta0)
    unit_star = complex(math.cos(theta_star), math.sin(theta_star))
    theta0_prime = min(kobayashi_disk_clearance(unwidened, unit_star, C), 0.999 * theta0)

    kappa, c1, c2 = kappa_infimum(m, (0.0, math.pi / (2.0 * m)))
    return TheoremParams(C, m, direction, theta0, theta0_prime, eps, theta_star,
                         rotation, comparison, pm, kappa,
                         {"c1": c1, "c2": c2})


def _rotated_polar(params: TheoremParams, values) -> tuple[np.ndarray, np.ndarray]:
    """Modulus and argument in [0, 2pi] of the values in the frame rotated by
    -params.rotation, where the comparison domain sits (an argument just below
    0 rounds up to 2pi)."""
    zeta = values * complex(math.cos(-params.rotation), math.sin(-params.rotation))
    return np.abs(zeta), lift_angle(np.angle(zeta), 0.0)


def certify_points(params: TheoremParams, values: np.ndarray, polar):
    """Exact comparison-domain distance from the far point (epsilon,
    theta_star) to every value, as (distances, inside_mask) of
    chart_distances in the frame rotated by `rotation`. The values are read
    through `polar` = _rotated_polar(params, values), which the caller
    computes once. The least distance over several lifts can only
    under-state the bound, so it stays sound."""
    base = LiftedPoint(params.epsilon, params.theta_star)
    return chart_distances(params.comparison_domain, base, *polar)


@dataclass
class TheoremCertificate:
    params: TheoremParams
    q: complex
    enumeration: QEnumeration
    point_bounds: np.ndarray
    certified_mask: np.ndarray
    excluded_outside: int
    uncertifiable: int
    global_min: float
    witness_index: int
    passed: bool
    cross_checks: dict
    cross_check_violations: int
    interior_offaxis_points: int
    runtime_ms: int = 0

    @property
    def n_points(self) -> int:
        return int(self.enumeration.value.size)

    @property
    def n_certified(self) -> int:
        return int(self.certified_mask.sum())

    def witness(self) -> dict:
        i, qe = self.witness_index, self.enumeration
        return {
            "point": [float(qe.value[i].real), float(qe.value[i].imag)],
            "k": int(qe.k[i]),
            "l": int(qe.l[i]),
            "bound": DistanceBound(float(self.point_bounds[i])).to_json_dict(),
        }

    def to_json_dict(self) -> dict:
        # runtime_ms stays out of the JSON so identical inputs give identical bytes.
        return {
            "pass": bool(self.passed),
            "C": self.params.C,
            "global_min": None if not math.isfinite(self.global_min) else self.global_min,
            "q": [self.q.real, self.q.imag],
            "k_max": self.enumeration.k_max,
            "l_max": self.enumeration.l_max,
            "n_points": self.n_points,
            "n_certified": self.n_certified,
            "excluded": {
                "outside_comparison_sector": self.excluded_outside,
                "uncertifiable": self.uncertifiable,
            },
            "witness": self.witness() if self.n_certified else None,
            "counts": [[k, l, n] for (k, l), n in self.enumeration.counts_by_kl().items()],
            "params": self.params.to_json_dict(),
            "cross_checks": {k: v for k, v in sorted(self.cross_checks.items())},
            "cross_check_violations": self.cross_check_violations,
            "interior_offaxis_points": self.interior_offaxis_points,
        }

    def to_table(self) -> str:
        gmin = f"{self.global_min:.6f}" if math.isfinite(self.global_min) else "inf"
        lines = [
            "far-point certificate",
            f"  m={self.params.m}  direction={self.params.direction}",
            f"  C={self.params.C}  theta0={self.params.theta0:.6g}  "
            f"theta0'={self.params.theta0_prime:.6g}  eps={self.params.epsilon:.6g}",
            f"  z0={self.params.z0:.6g}  comparison={self.params.comparison_domain.tag}",
            f"  points={self.n_points}  certified={self.n_certified}  "
            f"excluded_outside={self.excluded_outside}  uncertifiable={self.uncertifiable}",
            f"  global_min={gmin}  pass={self.passed}  "
            f"runtime_ms={self.runtime_ms}",
            "  k  l  count  min_bound",
        ]
        ok, qe = self.certified_mask, self.enumeration
        if ok.any():
            # points are sorted by (k, l), so each level is one contiguous run
            width = qe.l_max + 1
            kl, start, counts = np.unique(qe.k[ok] * width + qe.l[ok],
                                          return_index=True, return_counts=True)
            mins = np.minimum.reduceat(self.point_bounds[ok], start)
            for key, cnt, mn in zip(kl.tolist(), counts.tolist(), mins.tolist()):
                k, l = divmod(key, width)
                lines.append(f"  {k:2d} {l:2d} {cnt:6d}  {mn:.6f}")
        return "\n".join(lines) + "\n"


def _witness_index(dist: np.ndarray, values: np.ndarray, certified: np.ndarray) -> int:
    """The certified point first in np.lexsort((im, re, dist)) order, nan
    last in each key and ties kept in index order, without sorting them all:
    only the points at the least distance are sorted. certified has a True."""
    cand = np.flatnonzero(certified)
    d = dist[cand]
    low = np.fmin.reduce(d)  # nan only when every distance is nan
    ties = cand[d == low] if low == low else cand
    order = np.lexsort((values[ties].imag, values[ties].real))
    return int(ties[order[0]])


def verify_theorem(fm: ParabolicMap, C: float, q: complex, k_max: int = 20,
                   l_max: int = 10) -> TheoremCertificate:
    """Produce a certificate that min over the truncated Q of the exact
    comparison-domain distance from z0 is at least C.

    The certificate is for the direction q classifies into; enumerate_Q
    raises NotInBasin when q converges into none, and PointCapExceeded when
    Q would pass its point cap."""
    t_start = time.perf_counter()
    qe = enumerate_Q(fm, q, k_max, l_max)
    params = choose_parameters(fm, C, qe.direction)

    values = qe.value
    r, ang = polar = _rotated_polar(params, values)
    dist, inside = certify_points(params, values, polar)

    higher = fm.degree > fm.m + 1
    excluded_outside = 0 if higher else int(np.sum(~inside))
    uncertifiable = int(np.sum(~inside)) if higher else 0

    certified = inside
    if certified.any():
        global_min = float(dist[certified].min())
        witness = _witness_index(dist, values, certified)
    else:
        global_min = math.inf
        witness = 0

    # the closed-form cases, each counted where it applies and checked there
    far = r >= params.pacman.R0_prime
    narrow = ang < params.theta0_prime
    axis = math.pi / params.m
    case1 = bound_case1(params.epsilon, params.pacman.R0_prime, params.m)
    crosses = {
        "case1": case1,
        "case1_applicable": int(np.sum(far)),
        "case3": params.C,
        "case3_applicable": int(np.sum(narrow)),
        "case2": params.kappa * params.C,
        "case2_applicable": int(np.sum(np.abs(wrap_angle(ang - axis)) < 1e-9)),
    }
    try:
        crosses["horizontal"] = bound_case2_horizontal(params.z0_normalized, params.C)
    except (SmallRealPart, NonPositiveImaginary):  # recorded only when defined
        crosses["horizontal"] = None
    violations = int(np.sum(dist[certified & far] < case1 - 1e-12))
    violations += int(np.sum(dist[certified & narrow] < params.C - 1e-9))

    offaxis = np.abs(np.sin(ang - axis)) * r > 1e-12
    interior_offaxis = int(np.sum((r < params.pacman.R0_prime) & offaxis))

    passed = bool(certified.any() and math.isfinite(global_min)
                  and global_min >= C and uncertifiable == 0)
    runtime_ms = int(1000.0 * (time.perf_counter() - t_start))
    return TheoremCertificate(params, complex(q), qe, dist, certified, excluded_outside,
                              uncertifiable, global_min, witness, passed, crosses,
                              violations, interior_offaxis, runtime_ms)


@dataclass
class ClosureReport:
    depth: int
    status: str
    n_preimages: int = 0
    residual_failures: int = 0
    max_residual: float = 0.0
    checked_images: int = 0
    image_misses: int = 0
    image_outside_sector: int = 0
    frontier_skips: int = 0

    def to_json_dict(self) -> dict:
        return asdict(self)


def corollary_d_closure(fm: ParabolicMap, cert: TheoremCertificate,
                        depth: int) -> ClosureReport:
    """Mechanical premises of the preimage-closure argument on computed data.

    The preimages of z0 to depth d come from Q's level loop
    (parabolic._preimage_levels), z0 being an orbit the cap does not charge,
    and each must iterate onto z0 within the residual tolerance, checked on
    arrays as Q is (parabolic._residuals); a level that would pass POINT_CAP
    raises PointCapExceeded first. A certified point v's image is its
    recorded parent p, which must be certified (else image_outside_sector),
    lie within the residual tolerance of f(v) and carry a bound >= C (else
    image_misses). The orbit end (k_max, 0) has no image: a frontier skip, not a failure.
    """
    if not cert.passed:
        return ClosureReport(depth, "precondition_failed")
    z0 = cert.params.z0
    value, _, level, _ = parabolic._preimage_levels(fm, np.array([z0]), depth, 0,
                                                    f"closure depth {depth}")
    res = parabolic._residuals(fm, value, level, depth, z0)
    report = ClosureReport(depth, "ok", n_preimages=value.size - 1,
                           residual_failures=int(np.count_nonzero(res >= _CLOSURE_RESIDUAL_TOL)),
                           max_residual=float(res.max()))

    # The immediate component is forward invariant inside its sector, so a
    # point whose image leaves the sector was never in it and is out of scope.
    ok, parent, values = cert.certified_mask, cert.enumeration.parent, cert.enumeration.value
    report.frontier_skips = int(np.sum(ok & (parent < 0)))
    src = np.flatnonzero(ok & (parent >= 0))
    inside = ok[parent[src]]
    report.image_outside_sector = int(np.sum(~inside))
    src = src[inside]
    dst = parent[src]
    miss = ((np.abs(fm(values[src]) - values[dst]) >= _CLOSURE_RESIDUAL_TOL)
            | (cert.point_bounds[dst] < cert.params.C))
    report.checked_images = int(src.size)
    report.image_misses = int(np.sum(miss))
    return report
