"""Parameter recipes and machine-checkable far-point certificates.

Given a target distance C, the recipe picks a gap angle theta0 below the cap
1/(2 C e^C), certifies a nested wedge construction at that angle, and places
z0 = eps * e^(i theta*) with eps = R0_prime * exp(-2C/m), so that the radial
growth bound alone already forces distance >= C to every enumerated point
outside the inner wedge. Certification itself uses the exact chart distance on
an elementary comparison domain that contains the immediate basin; domain
monotonicity makes every such value a sound lower bound for the basin
distance. The classical closed-form bounds are recorded alongside as
cross-checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConstructionFailed, NonPositiveImaginary, OutsideComparisonDomain,
                     SmallRealPart)
from .kobayashi import (DistanceBound, ModelDomain, bound_case1, bound_case2_horizontal,
                        dist_uv_arrays, kappa_infimum, kobayashi_disk_clearance)
from .parabolic import (ParabolicMap, QEnumeration, attraction_vectors, enumerate_Q,
                        preimages_batch)
from .petals import PacManConstruction, construct_pacman

_TWO_PI = 2.0 * math.pi
_CLOSURE_RESIDUAL_TOL = 1e-8  # |f^d(w) - z0| on preimages w of z0, |f(v) - value[parent]| on Q


@dataclass(frozen=True)
class TheoremParams:
    """Chosen parameters for one certificate run (normalized frame data)."""

    C: float
    m: int
    direction: int
    theta0: float
    theta0_prime: float
    epsilon: float
    z0: complex
    z0_normalized: complex
    theta_star: float
    rotation: float
    comparison_domain: ModelDomain
    pacman: PacManConstruction
    kappa: float
    kappa_constants: dict

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

    theta0 is half of min(1/(2 C e^C), pi/6); the wedge construction at theta0
    yields R0_prime and eps = R0_prime e^(-2C/m); theta* = min(1.5 theta0,
    0.9 asin(min(1, cap))) keeps the normalized point at Re > 1/2 with height
    below the cap; theta0_prime comes from the hyperbolic disk clearance at
    radius C about the normalized point.
    """
    if C <= 0.0:
        raise ValueError("C must be positive")
    m = fm.m
    vs = attraction_vectors(fm)
    if not (0 <= direction < m):
        raise ValueError("direction index out of range")
    cap = 1.0 / (2.0 * C * math.exp(C))
    theta0 = 0.5 * min(cap, math.pi / 6.0)
    try:
        pm = construct_pacman(fm, theta0)
    except Exception as exc:  # noqa: BLE001 - surface as recipe failure
        raise ConstructionFailed(f"wedge construction rejected theta0={theta0}") from exc
    eps = pm.R0_prime * math.exp(-2.0 * C / m)
    theta_star = min(1.5 * theta0, 0.9 * math.asin(min(1.0, cap)))
    rotation = (vs.attraction_args[direction] - math.pi / m) % _TWO_PI
    z0 = eps * complex(math.cos(rotation + theta_star), math.sin(rotation + theta_star))
    z0n = complex(math.cos(theta_star), math.sin(theta_star))

    opening = _TWO_PI / m
    higher = fm.degree > m + 1
    if not higher:
        comparison = ModelDomain.slit_plane() if m == 1 else ModelDomain.sector(0.0, opening)
    elif m == 1:
        comparison = ModelDomain.double_sector(-theta0, _TWO_PI + theta0)
    else:
        comparison = ModelDomain.sector(-theta0, opening + theta0)

    clearance_domain = ModelDomain.slit_plane() if m == 1 else ModelDomain.sector(0.0, opening)
    theta0_prime = kobayashi_disk_clearance(clearance_domain, z0n, C)
    theta0_prime = min(theta0_prime, 0.999 * theta0)

    kappa, c1, c2 = kappa_infimum(m, (0.0, math.pi / (2.0 * m)))
    return TheoremParams(C, m, direction, theta0, theta0_prime, eps, z0, z0n,
                         theta_star, rotation, comparison, pm, kappa,
                         {"c1": c1, "c2": c2})


def _candidate_lifts(params: TheoremParams, ang: np.ndarray) -> list:
    """Angular lifts theta + 2 pi k admissible in the comparison domain."""
    dom = params.comparison_domain
    lo, hi = dom.arg_low, dom.arg_high
    guard = 1e-12
    out = []
    for k in (-1, 0, 1):
        th = ang + _TWO_PI * k
        ok = (th - lo > guard) & (hi - th > guard)
        out.append((th, ok))
    return out


def _rotated_polar(params: TheoremParams, values) -> tuple[np.ndarray, np.ndarray]:
    """Modulus and argument in [0, 2pi) of the values in the frame rotated by
    -params.rotation, where the comparison domain sits."""
    zeta = values * complex(math.cos(-params.rotation), math.sin(-params.rotation))
    return np.abs(zeta), np.angle(zeta) % _TWO_PI


def certify_points(params: TheoremParams, values: np.ndarray, polar):
    """Exact comparison-domain distance from z0 to every value.

    `polar` is _rotated_polar(params, values), computed once by the caller.
    Returns (distances, inside_mask); points admitting several lifts into the
    domain get the minimum over lifts, which can only under-state the bound
    and therefore stays sound.
    """
    dom = params.comparison_domain
    scale = math.pi / dom.width
    r, ang = polar
    z0n_rot = params.z0 * complex(math.cos(-params.rotation), math.sin(-params.rotation))
    r0 = abs(z0n_rot)
    th0 = math.atan2(z0n_rot.imag, z0n_rot.real) % _TWO_PI
    u0 = scale * math.log(r0)
    v0 = scale * (th0 - dom.arg_low)

    dist = np.full(values.shape, np.inf)
    inside = np.zeros(values.shape, dtype=bool)
    positive = r > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        logr = np.where(positive, np.log(np.where(positive, r, 1.0)), -np.inf)
        for th, ok in _candidate_lifts(params, ang):
            ok = ok & positive
            if not ok.any():
                continue
            u = scale * logr[ok]
            v = scale * (th[ok] - dom.arg_low)
            d = dist_uv_arrays(u, v, u0, v0)
            cur = dist[ok]
            dist[ok] = np.minimum(cur, d)
            inside[ok] = True
    return dist, inside


def certify_pair(params: TheoremParams, q_tilde: complex) -> tuple[DistanceBound, dict]:
    """Certified bound for a single point plus the recorded cross-checks."""
    values = np.array([q_tilde], dtype=complex)
    polar = _rotated_polar(params, values)
    d, ok = certify_points(params, values, polar)
    if not ok[0]:
        raise OutsideComparisonDomain(f"{q_tilde} admits no lift into the comparison domain")
    bound = DistanceBound(float(d[0]), "exact", "chart")
    return bound, _cross_checks(params, *polar)


def _cross_checks(params: TheoremParams, r: np.ndarray, ang: np.ndarray) -> dict:
    axis = math.pi / params.m
    on_ray = np.abs(((ang - axis + math.pi) % _TWO_PI) - math.pi) < 1e-9
    out = {
        "case1": bound_case1(params.epsilon, params.pacman.R0_prime, params.m).value,
        "case1_applicable": int(np.sum(r >= params.pacman.R0_prime)),
        "case3": params.C,
        "case3_applicable": int(np.sum(ang < params.theta0_prime)),
        "case2": params.kappa * params.C,
        "case2_applicable": int(np.sum(on_ray)),
    }
    try:
        out["horizontal"] = bound_case2_horizontal(params.z0_normalized, params.C).value
    except (SmallRealPart, NonPositiveImaginary):  # recorded only when defined
        out["horizontal"] = None
    return out


@dataclass
class TheoremCertificate:
    params: TheoremParams
    q: complex
    enumeration: QEnumeration
    point_values: np.ndarray
    point_k: np.ndarray
    point_l: np.ndarray
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
        return int(self.point_values.size)

    @property
    def n_certified(self) -> int:
        return int(self.certified_mask.sum())

    def witness(self) -> dict:
        i = self.witness_index
        return {
            "point": [float(self.point_values[i].real), float(self.point_values[i].imag)],
            "k": int(self.point_k[i]),
            "l": int(self.point_l[i]),
            "bound": DistanceBound(float(self.point_bounds[i]), "exact", "chart").to_json_dict(),
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
        ok = self.certified_mask
        if ok.any():
            # points are sorted by (k, l), so each level is one contiguous run
            width = self.enumeration.l_max + 1
            kl, start, counts = np.unique(self.point_k[ok] * width + self.point_l[ok],
                                          return_index=True, return_counts=True)
            mins = np.minimum.reduceat(self.point_bounds[ok], start)
            for key, cnt, mn in zip(kl.tolist(), counts.tolist(), mins.tolist()):
                k, l = divmod(key, width)
                lines.append(f"  {k:2d} {l:2d} {cnt:6d}  {mn:.6f}")
        return "\n".join(lines) + "\n"

    def bounds_to_csv(self, path) -> None:
        lines = ["re,im,k,l,bound,certified"]
        for v, k, l, b, ok in zip(self.point_values.tolist(), self.point_k.tolist(),
                                  self.point_l.tolist(), self.point_bounds.tolist(),
                                  self.certified_mask.tolist()):
            btxt = repr(b) if math.isfinite(b) else "inf"
            lines.append(f"{v.real!r},{v.imag!r},{k},{l},{btxt},{int(ok)}")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")


def verify_theorem(fm: ParabolicMap, C: float, q: complex, k_max: int = 20,
                   l_max: int = 10, direction: int | None = 0, *,
                   z0_override: complex | None = None) -> TheoremCertificate:
    """Produce a certificate that min over the truncated Q of the exact
    comparison-domain distance from z0 is at least C.

    direction=None certifies the direction q classifies into; enumerate_Q
    raises NotInBasin when q does not converge into the requested one, and
    PointCapExceeded when Q would pass its point cap."""
    t_start = time.perf_counter()
    qe = enumerate_Q(fm, q, k_max, l_max, direction)
    params = choose_parameters(fm, C, qe.direction)
    if z0_override is not None:
        zr = z0_override * complex(math.cos(-params.rotation), math.sin(-params.rotation))
        params = replace(params, z0=complex(z0_override), z0_normalized=zr / abs(zr))

    values = qe.value
    r, ang = polar = _rotated_polar(params, values)
    dist, inside = certify_points(params, values, polar)

    higher = fm.degree > fm.m + 1
    excluded_outside = 0 if higher else int(np.sum(~inside))
    uncertifiable = int(np.sum(~inside)) if higher else 0

    certified = inside
    if certified.any():
        dvals = dist[certified]
        global_min = float(dvals.min())
        cand = np.flatnonzero(certified)
        order = np.lexsort((values[cand].imag, values[cand].real, dist[cand]))
        witness = int(cand[order[0]])
    else:
        global_min = math.inf
        witness = 0

    crosses = _cross_checks(params, r, ang)
    case1_mask = certified & (r >= params.pacman.R0_prime)
    violations = int(np.sum(dist[case1_mask] < crosses["case1"] - 1e-12))
    case3_mask = certified & (ang < params.theta0_prime)
    violations += int(np.sum(dist[case3_mask] < params.C - 1e-9))

    axis = math.pi / params.m
    offaxis = np.abs(np.sin(ang - axis)) * r > 1e-12
    interior_offaxis = int(np.sum((r < params.pacman.R0_prime) & offaxis))

    passed = bool(certified.any() and math.isfinite(global_min)
                  and global_min >= C and uncertifiable == 0)
    runtime_ms = int(1000.0 * (time.perf_counter() - t_start))
    return TheoremCertificate(params, complex(q), qe, values, qe.k, qe.l, dist,
                              certified, excluded_outside, uncertifiable,
                              global_min, witness, passed, crosses, violations,
                              interior_offaxis, runtime_ms)


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
        return {
            "depth": self.depth,
            "status": self.status,
            "n_preimages": self.n_preimages,
            "residual_failures": self.residual_failures,
            "max_residual": self.max_residual,
            "checked_images": self.checked_images,
            "image_misses": self.image_misses,
            "image_outside_sector": self.image_outside_sector,
            "frontier_skips": self.frontier_skips,
        }


def corollary_d_closure(fm: ParabolicMap, cert: TheoremCertificate,
                        depth: int) -> ClosureReport:
    """Mechanical premises of the preimage-closure argument on computed data.

    Every depth-d preimage of z0 must iterate forward onto z0 within the
    residual tolerance. A certified point v's image is its recorded parent
    p, which must be certified (else image_outside_sector), lie within the
    residual tolerance of f(v) and carry a bound >= C (else image_misses).
    The orbit end (k_max, 0) has no image: a frontier skip, not a failure.
    """
    if not cert.passed:
        return ClosureReport(depth, "precondition_failed")
    report = ClosureReport(depth, "ok")
    z0 = cert.params.z0

    frontier = np.array([z0], dtype=complex)
    nodes: list[tuple[int, complex]] = []
    for level in range(1, depth + 1):
        if frontier.size == 0:
            break
        frontier = preimages_batch(fm, frontier).ravel()
        nodes.extend((level, complex(w)) for w in frontier)
    report.n_preimages = len(nodes)
    for level, w in nodes:
        cur = w
        for _ in range(level):
            cur = fm(cur)
        res = abs(cur - z0)
        report.max_residual = max(report.max_residual, res)
        if res >= _CLOSURE_RESIDUAL_TOL:
            report.residual_failures += 1

    # The immediate component is forward invariant inside its sector, so a
    # point whose image leaves the sector was never in it and is out of scope.
    ok, parent, values = cert.certified_mask, cert.enumeration.parent, cert.point_values
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
