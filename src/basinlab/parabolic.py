"""Polynomial iteration engine around a parabolic fixed point at the origin.

Maps are polynomials f(z) = z + a*z^(m+1) + ... with f(0) = 0 and f'(0) = 1.
This module extracts the parabolic data (m, a, invariant directions), iterates
orbits forward with direction classification, enumerates polynomial preimages
with an Aberth-style simultaneous solver, and builds the truncated set
Q = union over (k, l) of f^{-l}(f^k(q)) with per-point provenance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (LinearMap, NoConvergence, NotInBasin, NotParabolic, NumericOverflow,
                     PointCapExceeded)

# Labels used by the vectorized classifier. Nonnegative values are direction
# indices; the negative values are terminal non-direction states.
LABEL_UNDECIDED = -2
LABEL_ESCAPED = -1

DEDUP_QUANTUM = 1e-10
ROOT_TOL = 1e-12  # largest residual |f(z) - w| a root returned by preimages_batch may have
PROBE_STEPS = 20000  # step budget of the one classification of q per enumeration
_TWO_PI = 2.0 * math.pi


def _wrap_angle(x):
    """Reduce an angle (scalar or array) to [-pi, pi)."""
    return (x + math.pi) % _TWO_PI - math.pi


@dataclass(frozen=True)
class ParabolicMap:
    """Polynomial with a parabolic fixed point at 0, multiplier exactly 1.

    coefficients are ascending (index 0 = constant term), coefficients[0] = 0,
    coefficients[1] = 1, the first nonlinear term has degree m+1 and leading
    coefficient a != 0.
    """

    coefficients: tuple
    m: int
    a: complex
    degree: int

    @property
    def escape_radius(self) -> float:
        # For |z| > R >= 1: |f(z)| >= |z|^(d-1) (|c_d| |z| - sum_{k<d} |c_k|) > 2|z|,
        # so every orbit that leaves the disc of radius R escapes.
        *lower, lead = self.coefficients
        return max(1.0, (2.0 + sum(abs(c) for c in lower)) / abs(lead))

    def __call__(self, z, out=None):
        """f(z) for a Python complex or a numpy array; an array result is
        written into `out` when given (it must not overlap z)."""
        return _horner(reversed(self.coefficients), z, out)

    def derivative(self, z):
        """f'(z) for a Python complex or a numpy array."""
        return _horner([self.coefficients[k] * k for k in range(self.degree, 0, -1)], z)


def _horner(coefficients_desc, z, out=None):
    # A Python scalar stays in Python complex arithmetic: the orbit of q is
    # computed that way, and numpy's complex multiply rounds differently. An
    # array result is accumulated in place, in `out` when the caller reuses a
    # buffer. Seeding r with the leading coefficient skips the step 0*z + c
    # from r = 0, which gives the same bits for finite z unless c has a
    # negative-zero part, and saves two passes over an array.
    lead, *rest = coefficients_desc
    if not isinstance(z, np.ndarray):
        r = lead
    elif out is None:
        r = np.full(z.shape, lead, np.result_type(z, 0j))  # a real array gives a complex f(z)
    else:
        r = out
        r.fill(lead)
    for c in rest:
        r *= z
        r += c
    return r


@dataclass(frozen=True)
class AttractionVectorSet:
    """The m invariant directions: m*a*v^m = -1 (attraction), = +1 (repulsion)."""

    attraction: tuple
    repulsion: tuple

    @property
    def attraction_args(self) -> tuple:
        return tuple(cmath.phase(v) % _TWO_PI for v in self.attraction)


class OrbitStatus(Enum):
    CONVERGED = "converged"
    ESCAPED = "escaped"
    UNDECIDED = "undecided"


@dataclass
class OrbitRecord:
    points: list
    status: OrbitStatus
    direction: int | None = None

    @property
    def converged(self) -> bool:
        return self.status is OrbitStatus.CONVERGED


def parse_polynomial(text: str) -> list:
    """Parse comma-separated ascending coefficients, e.g. "0,1,0,1"."""
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("empty coefficient list")
    coeffs = [complex(float(p), 0.0) for p in parts]
    if not all(cmath.isfinite(c) for c in coeffs):
        raise ValueError("coefficients must be finite")
    return coeffs


def analyze_parabolic(coefficients) -> tuple[ParabolicMap, AttractionVectorSet]:
    """Extract (m, a) and the invariant directions from ascending coefficients.

    Raises NotParabolic unless f(0) = 0 and f'(0) = 1, LinearMap if every
    nonlinear coefficient vanishes. Directions are sorted by argument in
    [0, 2pi).
    """
    coeffs = [complex(c) for c in coefficients]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2 or coeffs[0] != 0:
        raise NotParabolic("constant term must be exactly 0")
    if coeffs[1] != 1:
        raise NotParabolic("multiplier f'(0) must be exactly 1")
    if len(coeffs) == 2:
        raise LinearMap("no nonlinear terms")
    nonlin = [k for k in range(2, len(coeffs)) if coeffs[k] != 0]
    if not nonlin:
        raise LinearMap("all nonlinear coefficients vanish")
    m = nonlin[0] - 1
    a = coeffs[nonlin[0]]
    fm = ParabolicMap(tuple(coeffs), m, a, len(coeffs) - 1)
    return fm, attraction_vectors(fm)


def _snap_axis(v: complex) -> complex:
    # drop rounding dust so axis-aligned vectors come out exactly real/imaginary
    re = 0.0 if abs(v.real) < 1e-14 * abs(v) else v.real
    im = 0.0 if abs(v.imag) < 1e-14 * abs(v) else v.imag
    return complex(re, im)


def attraction_vectors(fm: ParabolicMap) -> AttractionVectorSet:
    m, a = fm.m, fm.a
    rad = (1.0 / (m * abs(a))) ** (1.0 / m)
    base_att = (math.pi - cmath.phase(a)) / m
    base_rep = (-cmath.phase(a)) / m
    att = [_snap_axis(rad * cmath.exp(1j * (base_att + _TWO_PI * j / m))) for j in range(m)]
    rep = [_snap_axis(rad * cmath.exp(1j * (base_rep + _TWO_PI * j / m))) for j in range(m)]
    att.sort(key=lambda v: cmath.phase(v) % _TWO_PI)
    rep.sort(key=lambda v: cmath.phase(v) % _TWO_PI)
    return AttractionVectorSet(tuple(att), tuple(rep))


def forward_orbit(fm: ParabolicMap, z0: complex, n: int) -> OrbitRecord:
    """Iterate z0 for n steps; halts early with ESCAPED past the escape radius."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    pts = [complex(z0)]
    r_esc = fm.escape_radius
    z = complex(z0)
    for _ in range(n):
        z = fm(z)
        pts.append(z)
        if abs(z) > r_esc:
            return OrbitRecord(pts, OrbitStatus.ESCAPED)
    return OrbitRecord(pts, OrbitStatus.UNDECIDED)


def classify_direction(fm: ParabolicMap, z0: complex, n_max: int) -> OrbitRecord:
    """Classify the orbit of z0 into an attraction direction with classify_batch.

    CONVERGED(j) once an iterate lies in the certified absorbing petal of
    direction j, ESCAPED past the escape radius, UNDECIDED after n_max steps.
    The points are forward_orbit's scalar re-iteration up to the deciding
    step; they can differ in the last bits from the array iterates judged.
    """
    if n_max < 100:
        raise ValueError("n_max must be at least 100")
    labels, steps = classify_batch(fm, [z0], n_max)
    label = int(labels[0])
    points = forward_orbit(fm, z0, int(steps[0])).points
    if label >= 0:
        return OrbitRecord(points, OrbitStatus.CONVERGED, label)
    if label == LABEL_ESCAPED:
        return OrbitRecord(points, OrbitStatus.ESCAPED)
    return OrbitRecord(points, OrbitStatus.UNDECIDED)


def classify_batch(fm: ParabolicMap, points: np.ndarray,
                   n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized direction labeling by absorption into the certified petal.

    Returns (labels, steps): labels holds a direction index j >= 0,
    LABEL_ESCAPED or LABEL_UNDECIDED; steps is the step count at which each
    point resolved (n_max if it never did). Absorption is a sticky criterion,
    so labels are stable under any larger n_max.

    The gate is membership_petal's |w| >= rho2 and |arg w| <= pi - gap_omega
    in the chart w = -1/u, u = m a z^m, tested in the z plane without a
    division: |w| >= rho2 is |z|^2 <= (|ma| rho2)^(-2/m), and
    |arg w| <= pi - gap_omega is Re u <= cos(gap_omega) |ma| |z|^m. Escape
    is |z|^2 > escape_radius^2 from step 1 on, and an iterate that overflowed
    to inf or nan counts as escaped at that step. An orbit on the fixed point
    (z = 0 at the start, |z|^2 = 0 after a step, as for f(z) = 0) is never
    judged: it is dropped at once and stays LABEL_UNDECIDED with n_max steps.

    Orbits are iterated in place between two buffers. A resolved orbit is
    parked at 0, which f fixes, and the live orbits are compacted only once
    fewer than half of the slots hold one.
    """
    from .petals import membership_petal  # deferred: petals imports this module

    gate = membership_petal(fm)
    v_args = np.array(attraction_vectors(fm).attraction_args)
    m, ma = fm.m, fm.m * fm.a
    r_esc2 = fm.escape_radius ** 2
    entry2 = (abs(ma) * gate.rho2) ** (-2.0 / m)
    cos_lim = math.cos(gate.gap_omega) * abs(ma)
    start = np.asarray(points, dtype=complex).flatten()
    size = start.size
    labels = np.full(size, LABEL_UNDECIDED, dtype=np.int32)
    steps = np.full(size, n_max, dtype=np.int32)
    idx = np.arange(size)
    a2, rhs = np.empty(size), np.empty(size)
    alive, hit, ang = (np.empty(size, dtype=bool) for _ in range(3))

    def views(k, *buffers):
        # per complex buffer: the first k slots, as complex, as interleaved
        # floats, and their real and imaginary parts
        bufs = [(c, c.view(float), c.real, c.imag) for c in (b[:k] for b in buffers)]
        return (*bufs, a2[:k], rhs[:k], alive[:k], hit[:k], ang[:k], idx[:k])

    def retire(sel, label):  # record slots sel at this step and park them at 0
        labels[idxv[sel]] = label
        steps[idxv[sel]] = step
        zv[sel] = 0
        alivev[sel] = False

    slots = size
    cur, nxt, a2v, rhsv, alivev, hitv, angv, idxv = views(slots, start, np.empty_like(start))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow to inf/nan is escape
        for step in range(n_max + 1):
            if step:
                fm(cur[0], out=nxt[0])
                cur, nxt = nxt, cur
            zv = cur[0]
            np.multiply(cur[1], cur[1], out=nxt[1])  # |z|^2 = re*re + im*im, via the free buffer
            np.add(nxt[2], nxt[3], out=a2v)
            if step == 0:
                np.not_equal(zv, 0, out=alivev)
            else:
                np.greater(a2v, 0.0, out=alivev)
                if not np.max(a2v) <= r_esc2:  # np.max propagates nan
                    np.less_equal(a2v, r_esc2, out=hitv)
                    retire(np.flatnonzero(np.logical_not(hitv, out=hitv)), LABEL_ESCAPED)
            live = np.count_nonzero(alivev)
            np.less_equal(a2v, entry2, out=hitv)
            hitv &= alivev
            if hitv.any():
                u = nxt[0]
                if m == 1:
                    np.multiply(zv, ma, out=u)
                    np.sqrt(a2v, out=rhsv)
                else:
                    np.square(zv, out=u) if m == 2 else np.power(zv, m, out=u)
                    u *= ma
                    np.power(a2v, m / 2, out=rhsv)
                rhsv *= cos_lim
                hitv &= np.less_equal(nxt[2], rhsv, out=angv)
                sel = np.flatnonzero(hitv)
                if sel.size:
                    if m == 1:
                        retire(sel, 0)
                    else:
                        diff = np.abs(_wrap_angle(np.angle(zv[sel])[:, None] - v_args[None, :]))
                        retire(sel, np.argmin(diff, axis=1))
                    live -= sel.size
            if live == 0:
                break
            if 2 * live < slots:
                np.compress(alivev, zv, out=nxt[0][:live])
                idx = np.compress(alivev, idxv)
                slots = live
                cur, nxt, a2v, rhsv, alivev, hitv, angv, idxv = views(slots, nxt[0].base,
                                                                      zv.base)
    return labels, steps


# ---------------------------------------------------------------------------
# Simultaneous polynomial root finding (Aberth iteration)
# ---------------------------------------------------------------------------

def preimages_batch(fm: ParabolicMap, ws: np.ndarray) -> np.ndarray:
    """Row i holds the deg(f) solutions of f(z) = ws[i], sorted by (re, im).

    Aberth simultaneous iteration to a residual a decade below ROOT_TOL
    (relative for |w| > 1), then one Newton polish; NoConvergence if a
    residual stays above ROOT_TOL. A multiple root comes out as a cluster of
    simple roots that each meet the target (the double root of z + z^2 at
    w = -1/4 as two roots about 1e-7 apart). Deterministic and
    row-independent: fixed initial circle, perturbation restarts drawn from a
    seeded generator keyed by the attempt number, so row i does not depend on
    the other targets.
    """
    ws = np.asarray(ws, dtype=complex).ravel()
    deg = fm.degree
    B = ws.size

    inner = max(abs(c) for c in fm.coefficients[:-1])
    radius = 1.0 + (inner + np.abs(ws)) / abs(fm.coefficients[-1])
    angles = _TWO_PI * (np.arange(deg) + 0.37) / deg
    z = radius[:, None] * 0.9 * np.exp(1j * (angles[None, :] + 0.1))

    target = 1e-13 * np.maximum(1.0, np.abs(ws))
    best = np.full(B, np.inf)
    stale = np.zeros(B, dtype=np.int32)
    attempt = np.zeros(B, dtype=np.int32)
    rows = np.arange(B)  # rows still above target; a converged row never moves again
    for _ in range(400):
        zr = z[rows]
        pv = fm(zr) - ws[rows, None]
        res = np.max(np.abs(pv), axis=1)
        active = res > target[rows]
        if not active.all():
            rows, zr, pv, res = rows[active], zr[active], pv[active], res[active]
        if rows.size == 0:
            break
        improved = res < 0.5 * best[rows]
        best[rows] = np.minimum(best[rows], res)
        stale[rows] = np.where(improved, 0, stale[rows] + 1)
        restart = stale[rows] > 40
        if restart.any():
            attempt[rows[restart]] += 1
            for n in np.unique(attempt[rows[restart]]):
                sel = restart & (attempt[rows] == n)
                rng = np.random.default_rng((12345, int(n)))
                jitter = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
                zr[sel] += 1e-3 * radius[rows[sel], None] * jitter * n
            stale[rows[restart]] = 0
        dp = fm.derivative(zr)
        dp = np.where(dp == 0, 1e-300, dp)
        newton = pv / dp
        diff = zr[:, :, None] - zr[:, None, :]
        np.einsum("bii->bi", diff)[:] = 1.0
        sums = np.sum(1.0 / diff, axis=2) - 1.0
        corr = newton / (1.0 - newton * sums)
        corr = np.where(np.isfinite(corr), corr, newton)
        z[rows] = zr - corr
    res = np.max(np.abs(fm(z) - ws[:, None]), axis=1)
    if np.any(res > np.maximum(ROOT_TOL, target)):
        raise NoConvergence(f"root residual {res.max():.3e} above tolerance {ROOT_TOL:.3e}")

    dp = fm.derivative(z)
    safe = np.abs(dp) > 1e-280
    z = np.where(safe, z - (fm(z) - ws[:, None]) / np.where(safe, dp, 1.0), z)
    order = np.lexsort((z.imag, z.real), axis=-1)
    return np.take_along_axis(z, order, axis=-1)


def preimages(fm: ParabolicMap, w: complex) -> list:
    """All deg(f) solutions of f(z) = w (with multiplicity), residual below ROOT_TOL."""
    return [complex(r) for r in preimages_batch(fm, np.array([w], dtype=complex))[0]]


# ---------------------------------------------------------------------------
# Truncated backward/forward orbit set Q
# ---------------------------------------------------------------------------

_KEY = np.dtype([("re", np.int64), ("im", np.int64)])
_KEY_LIMIT = 2.0 ** 62


def quantize(values: np.ndarray) -> np.ndarray:
    """Grid-cell keys (round(re/DEDUP_QUANTUM), round(im/DEDUP_QUANTUM)) as
    sortable int64 pairs.

    Rounding is half-to-even, like Python's round(). Raises NumericOverflow
    for a value whose key would not fit in int64.
    """
    re = np.rint(values.real / DEDUP_QUANTUM)
    im = np.rint(values.imag / DEDUP_QUANTUM)
    if not (np.all(np.abs(re) < _KEY_LIMIT) and np.all(np.abs(im) < _KEY_LIMIT)):
        raise NumericOverflow(f"value outside the int64 range of the {DEDUP_QUANTUM:g} grid")
    keys = np.empty(values.shape, dtype=_KEY)
    keys["re"] = re
    keys["im"] = im
    return keys


@dataclass(frozen=True)
class QPoint:
    value: complex
    k: int
    l: int
    residual: float


@dataclass
class QEnumeration:
    """Deduplicated truncation of the forward orbit plus its preimage trees.

    Parallel arrays sorted by (k, l, re, im): value[i] satisfies
    f^l[i](value[i]) = f^k[i](root) up to residual[i]. Every point lies in the
    basin of `direction`, the direction root classified into. parent[i] is
    the index of f(value[i]), recorded by enumerate_Q; it is -1 only for the
    orbit end (k_max, 0), whose image was never enumerated.
    """

    root: complex
    direction: int
    value: np.ndarray
    k: np.ndarray
    l: np.ndarray
    residual: np.ndarray
    parent: np.ndarray
    k_max: int
    l_max: int

    @property
    def points(self) -> list:
        return [QPoint(v, k, l, r) for v, k, l, r in
                zip(self.value.tolist(), self.k.tolist(), self.l.tolist(),
                    self.residual.tolist())]

    def values(self) -> np.ndarray:
        return self.value

    def counts_by_kl(self) -> dict:
        kl, counts = np.unique(self.k * (self.l_max + 1) + self.l, return_counts=True)
        return {divmod(int(key), self.l_max + 1): int(n) for key, n in zip(kl, counts)}

    def to_csv(self, path) -> None:
        lines = ["re,im,k,l,residual"]
        for v, k, l, r in zip(self.value.tolist(), self.k.tolist(), self.l.tolist(),
                              self.residual.tolist()):
            lines.append(f"{v.real!r},{v.imag!r},{k},{l},{r!r}")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")


def enumerate_Q(fm: ParabolicMap, q: complex, k_max: int, l_max: int,
                direction: int | None = None, point_cap: int = 10 ** 6) -> QEnumeration:
    """Breadth-first preimage expansion of each forward iterate of q.

    q is classified once (classify_direction, PROBE_STEPS steps); NotInBasin
    is raised unless it converges, and into `direction` when one is given.
    Every enumerated point inherits that direction by provenance: the full
    basin of an attracting direction is completely invariant, so f(z) = w
    with w in the basin puts z in it too (the orbit of z is z followed by the
    orbit of w), and by induction every f^{-l}(f^k(q)) lies in the basin of
    q. No point is classified again.

    Expansion runs level by level: one preimages_batch call solves level l
    for every k. The result is sorted by (k, l, re, im) and deduplicated on
    the quantized grid keeping first occurrences, so it is independent of
    expansion order. A point's parent is the target it was solved from, or
    the next orbit point, taken through the same dedup. Raises
    PointCapExceeded as soon as a level would take the raw count past
    point_cap, so no caller ever sees part of the levels it asked for.
    """
    probe = classify_direction(fm, q, PROBE_STEPS)
    if not probe.converged or direction not in (None, probe.direction):
        target = "any direction" if direction is None else f"direction {direction}"
        raise NotInBasin(f"q={q} does not classify into {target}")

    orbit = [complex(q)]
    for _ in range(k_max):
        orbit.append(fm(orbit[-1]))
    orbit = np.array(orbit, dtype=complex)

    # ups[i] is the raw index of f(vals[i]); -1 at the orbit end
    frontier, frontier_k = orbit, np.arange(k_max + 1)
    vals, ks, ls = [frontier], [frontier_k], [np.zeros(k_max + 1, dtype=int)]
    ups = [np.r_[1:k_max + 1, -1]]
    count = frontier.size  # raw points so far; the frontier is the last frontier.size
    for l in range(1, l_max + 1):
        if count + frontier.size * fm.degree > point_cap:
            raise PointCapExceeded(f"Q for k_max={k_max}, l_max={l_max} passes the point "
                                   f"cap of {point_cap} at level l={l}")
        roots = preimages_batch(fm, frontier).ravel()
        roots_k = np.repeat(frontier_k, fm.degree)
        vals.append(roots)
        ks.append(roots_k)
        ls.append(np.full(roots.size, l))
        ups.append(np.repeat(np.arange(count - frontier.size, count), fm.degree))
        count += roots.size
        frontier, frontier_k = roots, roots_k

    vals, ks, ls, ups = (np.concatenate(x) for x in (vals, ks, ls, ups))
    order = np.lexsort((vals.imag, vals.real, ls, ks))
    keys = quantize(vals[order])
    by_key = np.lexsort((keys["im"], keys["re"]))  # stable: ties stay in (k, l, re, im) order
    sorted_keys = keys[by_key]
    new_cell = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    first = np.zeros(vals.size, dtype=bool)  # over sorted positions: first of its cell
    first[by_key[new_cell]] = True
    kept = order[first]
    # rep[i]: output index of the cell of raw point i, cells numbered by the
    # cumulative sum of new-cell flags; rep[-1] = -1 passes the orbit end on.
    cell_out = (np.cumsum(first) - 1)[by_key[new_cell]]
    rep = np.full(vals.size + 1, -1)
    rep[order[by_key]] = cell_out[np.cumsum(new_cell) - 1]
    vals, ks, ls, parent = vals[kept], ks[kept], ls[kept], rep[ups[kept]]

    # Independent residual verification: iterate each point forward l steps
    # and compare against the stored orbit target.
    residuals = np.zeros(vals.size)
    cur = vals.copy()
    for step in range(l_max + 1):
        sel = ls == step
        residuals[sel] = np.abs(cur[sel] - orbit[ks[sel]])
        if step < l_max:
            cur = fm(cur)

    return QEnumeration(complex(q), probe.direction, vals, ks, ls, residuals, parent,
                        k_max, l_max)
