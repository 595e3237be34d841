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

import numpy as np

from .errors import (LinearMap, NoConvergence, NotInBasin, NotParabolic, NumericOverflow,
                     PointCapExceeded)
from .kobayashi import lift_angle, wrap_angle

# Labels used by the vectorized classifier. Nonnegative values are direction
# indices; the negative values are terminal non-direction states.
LABEL_UNDECIDED = -2
LABEL_ESCAPED = -1

DEDUP_QUANTUM = 1e-10
# preimages_batch accepts a root of f(z) = w whose residual |f(z) - w| is at
# most max(ROOT_TOL, 1e-13 * max(1, |w|)): absolute up to |w| = 10, relative past it
ROOT_TOL = 1e-12
PROBE_STEPS = 20000  # step budget of the one classification of q per enumeration
POINT_CAP = 10 ** 6  # most raw points enumerate_Q or a closure may solve for
_BLOCK = 1 << 15  # classify_batch block: 16 K and 32 K points tie, 64 K is slower on render 512²
_GROUP = 64  # most steps classify_batch takes in one group while few orbits are live
_GROUP_ROOM = 2048  # iterates one group may hold; a live set above half of it steps alone
_NO_EVENT = np.empty(0, dtype=np.intp)


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
    # A Python scalar stays in Python complex arithmetic: forward_orbit and
    # the iterates of a classify_batch live set of one slot are computed that
    # way. numpy's complex multiply gives Python's bits on a one-element
    # array, so a lone orbit keeps the bits it had in one, but not on longer
    # arrays, where the same operands can round otherwise. An array result is
    # accumulated in place, in `out` when the caller reuses a buffer.
    # Seeding r with the leading coefficient skips the step 0*z + c from
    # r = 0, which gives the same bits for finite z unless c has a negative-
    # zero part, and saves two passes over an array.
    coefficients = iter(coefficients_desc)
    lead = next(coefficients)
    if not isinstance(z, np.ndarray):
        r = lead
    elif out is None:
        r = np.full(z.shape, lead, np.result_type(z, 0j))  # a real array gives a complex f(z)
    else:
        r = out
        r.fill(lead)
    for c in coefficients:
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
        return tuple(lift_angle(cmath.phase(v), 0.0) for v in self.attraction)


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
    # math.atan2, not cmath.phase: phase raises OverflowError where the angle
    # underflows (a = 2 + 5e-324j)
    arg_a = math.atan2(a.imag, a.real)
    base_att = (math.pi - arg_a) / m
    base_rep = -arg_a / m
    att = [_snap_axis(rad * cmath.exp(1j * (base_att + math.tau * j / m))) for j in range(m)]
    rep = [_snap_axis(rad * cmath.exp(1j * (base_rep + math.tau * j / m))) for j in range(m)]
    att.sort(key=lambda v: lift_angle(cmath.phase(v), 0.0))
    rep.sort(key=lambda v: lift_angle(cmath.phase(v), 0.0))
    return AttractionVectorSet(tuple(att), tuple(rep))


def forward_orbit(fm: ParabolicMap, z0: complex, n: int) -> tuple[int, list]:
    """Iterate z0 for n steps: (label, points), points[0] = z0.

    The label is LABEL_ESCAPED at the first iterate that fails
    abs(z) <= escape_radius, where the orbit stops; an overflow to inf or nan
    fails it too, as in classify_batch. Otherwise it is LABEL_UNDECIDED.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    pts = [complex(z0)]
    r_esc = fm.escape_radius
    for _ in range(n):
        pts.append(fm(pts[-1]))
        if not abs(pts[-1]) <= r_esc:
            return LABEL_ESCAPED, pts
    return LABEL_UNDECIDED, pts


def classify_direction(fm: ParabolicMap, z0: complex, n_max: int) -> tuple[int, list]:
    """Classify the orbit of z0 with classify_batch: (label, points).

    The label is classify_batch's: a direction j >= 0 once an iterate lies in
    a certified absorbing set of direction j, LABEL_ESCAPED past the escape
    radius, LABEL_UNDECIDED after n_max steps. The points are forward_orbit's
    iteration up to the deciding step, and they are the iterates judged:
    classify_batch steps a lone start in the same Python complex arithmetic
    from step 1 on, in whole groups, so the orbit is iterated twice, the
    second time only up to the deciding step.
    """
    if n_max < 100:
        raise ValueError("n_max must be at least 100")
    labels, steps = classify_batch(fm, [z0], n_max)
    return int(labels[0]), forward_orbit(fm, z0, int(steps[0]))[1]


def classify_batch(fm: ParabolicMap, points: np.ndarray,
                   n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized direction labeling by absorption into a certified
    absorbing set.

    Returns (labels, steps): labels holds a direction index j >= 0,
    LABEL_ESCAPED or LABEL_UNDECIDED; steps is the step count at which each
    point resolved (n_max if it never did). Absorption is a sticky criterion,
    so labels are stable under any larger n_max.

    The gate is the union of two absorbing sets in the chart w = -1/u,
    u = m a z^m, both tested in the z plane without a division:
    membership_petal's sector, |w| >= rho2 and |arg w| <= pi - gap_omega,
    which is |z|^2 <= (|ma| rho2)^(-2/m) and
    Re u <= cos(gap_omega) |ma| |z|^m; and the half-plane Re w >= rho_h
    (petals.half_plane_radius), which is Re u <= -rho_h |ma|^2 |z|^(2m).
    The radius screen is the larger of the two entry radii, which is the
    half-plane's (|ma| rho_h)^(-1/m) for every certified petal; the sector
    keeps its own radius. The half-plane's soundness rests on
    estimate_remainder at rho_h, as the sector's rests on it at rho0
    (ROADMAP item 2 makes both rigorous). Each set holds orbits converging
    to the direction of its sheet, so the union decides the same label as
    the sector alone, only sooner: 2 steps instead of 206 for -0.5 on
    z + z^2. The label is the attracting direction nearest in argument.
    Escape is |z|^2 > escape_radius^2 from step 1 on, and an iterate that
    overflowed to inf or nan counts as escaped at that step. An orbit on the
    fixed point (z = 0 at the start, |z|^2 = 0 after a step, as for
    f(z) = 0) is never judged: it is dropped at once and stays
    LABEL_UNDECIDED with n_max steps.

    Points are classified in blocks of _BLOCK, one block at a time, so the
    working set stays in cache and the scratch memory is bounded by the block,
    not the input: two complex buffers and the float, bool and index scratch
    are allocated once, at min(size, _BLOCK) but at least _GROUP_ROOM, and
    reused by every block. Each block is copied into a buffer, so the caller's
    array is never written. A resolved orbit is parked at 0, which f fixes,
    and the live orbits are compacted only once fewer than half of the slots
    hold one, or one orbit is left.

    After f, a step reads every slot only to form |z|^2, to screen
    max |z|^2 <= escape_radius^2 and to test |z|^2 <= entry^2 against the
    live mask. The gate's two tests and the test for the fixed point run on
    the candidates that pass the radius test alone. While few orbits are
    live, one pass covers a group of up to _GROUP steps: f is applied that
    many times into consecutive rows of a
    buffer (at most _GROUP_ROOM iterates, never past step n_max), every row is
    tested at once, and each orbit is retired at its first event in step
    order: escape, entry into the gate, or landing on the fixed point. A full
    block steps one step at a time. A lone live orbit is compacted into one
    slot, and its group's rows are filled with f of a Python complex, which
    costs no ufunc call per step and gives a one-element array's bits (see
    _horner); the rows are then tested like any other group's. A one-point
    batch steps that way from step 1 on. Every orbit is iterated and tested
    with the same elementwise operations whatever its block, group or live
    set, but not always to the same bits: numpy may round a complex multiply
    on a longer array differently from a one-element array or Python, so an
    orbit left alone can drift by rounding from the same orbit in a larger
    set. A label is decided by entry into an absorbing set, and no label or
    step count has been seen to move by this drift.
    """
    from . import petals  # deferred: petals imports this module

    gate = petals.membership_petal(fm)
    rho_h = petals.half_plane_radius(fm)
    v_args = np.array(attraction_vectors(fm).attraction_args)
    m, ma = fm.m, fm.m * fm.a
    try:
        r_esc2 = fm.escape_radius ** 2
        sector2 = (abs(ma) * gate.rho2) ** (-2.0 / m)
        entry2 = max(sector2, (abs(ma) * rho_h) ** (-2.0 / m))
        half_lim = -rho_h * abs(ma) ** 2
    except OverflowError:
        raise NumericOverflow("classifier threshold outside double-precision range") from None
    inner2 = min(entry2, r_esc2)  # from step 1 on, an escaping iterate is no candidate
    cos_lim = math.cos(gate.gap_omega) * abs(ma)
    start = np.asarray(points, dtype=complex).ravel()
    size = start.size
    labels = np.full(size, LABEL_UNDECIDED, dtype=np.int32)
    steps = np.full(size, n_max, dtype=np.int32)
    width = min(size, _BLOCK)
    room = max(width, _GROUP_ROOM)
    buffers = np.empty(room, dtype=complex), np.empty(room, dtype=complex)
    a2, rhs, hit = np.empty(room), np.empty(room), np.empty(room, dtype=bool)
    alive = np.empty(width, dtype=bool)
    block_idx = np.arange(width)

    def retire(flat, label):  # record the orbits of these iterates, park them at 0
        nonlocal live
        row, col = np.divmod(flat, slots) if group > 1 else (0, flat)
        if label is not None:  # None: on the fixed point, left undecided
            at = idx[col]
            block_labels[at] = label
            block_steps[at] = step + row
        live_mask[col] = False
        last[col] = 0
        live -= col.size

    with np.errstate(over="ignore", invalid="ignore"):  # overflow to inf/nan is escape
        for lo in range(0, size, _BLOCK):
            slots = live = min(_BLOCK, size - lo)
            home, spare = buffers
            cur = home[:slots]
            cur[:] = start[lo:lo + slots]
            block_labels, block_steps = labels[lo:lo + slots], steps[lo:lo + slots]
            idx, live_mask = block_idx[:slots], alive[:slots]
            live_mask.fill(True)
            step, group, rows = 0, 1, cur  # step 0 judges the starts themselves
            while live and step <= n_max:
                if step:  # rows[t] holds the iterates of step + t
                    group = min(_GROUP, max(1, _GROUP_ROOM // slots), n_max + 1 - step)
                    home, spare = spare, home
                    rows = home[:group * slots]
                    if slots == 1:  # a lone orbit steps in Python complex arithmetic
                        z = complex(cur[0])
                        for t in range(group):
                            rows[t] = z = fm(z)
                    else:
                        for t in range(0, rows.size, slots):
                            cur = fm(cur, out=rows[t:t + slots])
                n = rows.size
                last = rows[n - slots:]
                # |z|^2 = re*re + im*im, via the spare buffer
                sq = spare[:n]
                np.square(rows.view(float), out=sq.view(float))
                a2v, hv = a2[:n], hit[:n]
                np.add(sq.real, sq.imag, out=a2v)
                esc = on0 = inside = _NO_EVENT
                if step and not np.max(a2v) <= r_esc2:  # np.max propagates nan
                    np.less_equal(a2v, r_esc2, out=hv)
                    esc = np.flatnonzero(np.logical_not(hv, out=hv))
                np.less_equal(a2v, inner2 if step else entry2, out=hv)
                hit_rows = hv.reshape(group, slots)
                hit_rows &= live_mask
                cand = np.flatnonzero(hv)
                if cand.size:
                    zc, rc = sq[:cand.size], rhs[:cand.size]
                    np.take(rows, cand, out=zc, mode="clip")
                    np.take(a2v, cand, out=rc, mode="clip")
                    if not rc.all():  # an orbit on the fixed point is dropped, never judged
                        fixed = zc == 0 if step == 0 else rc == 0
                        on0 = cand[fixed]
                        judged = np.logical_not(fixed, out=fixed)
                        cand, zc, rc = cand[judged], zc[judged], rc[judged]
                    u, k = zc, cand.size  # u = m a z^m, in place
                    if m == 1:
                        np.multiply(zc, ma, out=u)
                    else:
                        np.square(zc, out=u) if m == 2 else np.power(zc, m, out=u)
                        u *= ma
                    # half-plane: Re u <= -rho_h |ma|^2 |z|^(2m), in a2's free slots
                    lim = a2[:k]
                    if m == 1:
                        np.multiply(rc, half_lim, out=lim)
                    else:
                        np.square(rc, out=lim) if m == 2 else np.power(rc, m, out=lim)
                        lim *= half_lim
                    # sector: Re u <= cos(gap) |ma| |z|^m, inside its own radius
                    far = np.greater(rc, sector2, out=hit[:k])
                    np.sqrt(rc, out=rc) if m == 1 else np.power(rc, m / 2, out=rc)
                    rc *= cos_lim
                    rc[far] = -np.inf
                    # in either set: Re u at most the larger bound
                    np.maximum(lim, rc, out=lim)
                    inside = cand[np.less_equal(u.real, lim, out=hit[:k])]
                if group > 1 and esc.size + on0.size + inside.size:
                    # keep each orbit's first event in step order
                    first = np.full(slots, n)
                    for flat in (esc, on0, inside):
                        np.minimum.at(first, flat % slots, flat)
                    esc, on0, inside = (flat[first[flat % slots] == flat]
                                        for flat in (esc, on0, inside))
                if esc.size:
                    retire(esc, LABEL_ESCAPED)
                if on0.size:
                    retire(on0, None)
                if inside.size:
                    retire(inside, 0 if m == 1 else _nearest_direction(rows[inside], v_args))
                step += group
                cur = last
                if live and (2 * live < slots or live == 1 < slots):
                    np.compress(live_mask, cur, out=spare[:live])
                    idx = np.compress(live_mask, idx)
                    home, spare = spare, home
                    cur, slots = home[:live], live
                    live_mask = alive[:slots]
                    live_mask.fill(True)
    return labels, steps


def _nearest_direction(z: np.ndarray, v_args: np.ndarray) -> np.ndarray:
    """Index of the attracting direction nearest in argument to each iterate."""
    return np.argmin(np.abs(wrap_angle(np.angle(z)[:, None] - v_args[None, :])), axis=1)


# ---------------------------------------------------------------------------
# Simultaneous polynomial root finding (Aberth iteration)
# ---------------------------------------------------------------------------

def _aberth(fm: ParabolicMap, z: np.ndarray, ws: np.ndarray, target: np.ndarray,
            radius: np.ndarray) -> np.ndarray:
    """Iterate the rows of z (rows, deg) in place until max |f(z) - ws| is at
    most target, for at most 400 steps; radius scales the restart jitter.

    The iteration is root-major: column r of the live state holds one row,
    and zc[i] holds root i of every live row, so a per-row reduction is an
    operation between deg columns, and max |f(z_i) - w| is exact in any
    order. The live state (roots, target, jitter radius, best residual, stale
    count, attempt) is compacted only when some rows converge, and a
    converged row is written back once; a row whose residual is nan leaves
    too, for the caller's check. Each pair i < j takes one reciprocal
    t = 1/(z_i - z_j), and root j uses -t, which is the quotient numpy's
    division gives for z_j - z_i = -(z_i - z_j). Each Aberth sum adds its deg
    terms, 1 at j = i, in sequence from j = 0, then -1.
    """
    deg = fm.degree
    rows = np.arange(ws.size)  # rows[r]: the row of z held in column r
    zc, w, tgt, rad = np.ascontiguousarray(z.T), ws, target, radius
    best = np.full(ws.size, np.inf)
    stale = np.zeros(ws.size, dtype=np.int32)
    attempt = np.zeros(ws.size, dtype=np.int32)
    left, right = np.triu_indices(deg, 1)
    diag = np.arange(deg)
    terms_buf = np.empty(deg * deg * ws.size, dtype=complex)
    for _ in range(400):
        pv = fm(zc)
        pv -= w
        res = np.max(np.abs(pv), axis=0)
        active = res > tgt
        if not active.all():
            z[rows[~active]] = zc[:, ~active].T
            live = np.flatnonzero(active)
            rows, w, tgt, rad, best, stale, attempt, res, zc, pv = (
                np.take(a, live, axis=-1)
                for a in (rows, w, tgt, rad, best, stale, attempt, res, zc, pv))
        if rows.size == 0:
            return z
        improved = res < 0.5 * best
        np.minimum(best, res, out=best)
        stale = np.where(improved, 0, stale + 1)
        restart = stale > 40
        if restart.any():
            attempt[restart] += 1
            for n in np.unique(attempt[restart]):
                sel = restart & (attempt == n)
                rng = np.random.default_rng((12345, int(n)))
                jitter = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
                zc[:, sel] += 1e-3 * rad[sel] * jitter[:, None] * n
            stale[restart] = 0
        dp = fm.derivative(zc)
        dp[dp == 0] = 1e-300
        newton = np.divide(pv, dp, out=pv)
        # terms[j, i]: term j of root i's sum, 1 / (z_i - z_j) or 1 at j = i
        terms = terms_buf[:deg * deg * rows.size].reshape(deg, deg, rows.size)
        t = np.subtract(zc[left], zc[right])
        np.divide(1.0, t, out=t)
        terms[right, left] = t
        terms[left, right] = np.negative(t, out=t)
        terms[diag, diag] = 1.0
        corr = terms[0]  # the sum lands in terms[0]
        for row in terms[1:]:
            corr += row
        corr += -1 + 0j
        np.multiply(newton, corr, out=corr)
        np.subtract(1.0, corr, out=corr)
        np.divide(newton, corr, out=corr)
        np.copyto(corr, newton, where=~np.isfinite(corr))
        zc -= corr
    z[rows] = zc.T
    return z


# an overflowing iterate is judged by the checks on the result, not by a warning
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def preimages_batch(fm: ParabolicMap, ws: np.ndarray) -> np.ndarray:
    """Row i holds the deg(f) solutions of f(z) = ws[i], sorted by (re, im).

    Aberth simultaneous iteration (_aberth) to a residual of
    1e-13 * max(1, |w|), then one Newton polish; NoConvergence if a residual
    stays above max(ROOT_TOL, 1e-13 * max(1, |w|)) or is nan, NumericOverflow
    if a root left the range of double precision (z + z^2 = 1e300 starts the
    iteration on a circle of radius 1e300). A multiple root comes out as a
    cluster of simple roots that each meet the target (the double root of
    z + z^2 at w = -1/4 as two roots about 1e-7 apart). Deterministic and
    row-independent: fixed initial circle, perturbation restarts drawn from a
    seeded generator keyed by the attempt number, so row i does not depend on
    the other targets.
    """
    ws = np.asarray(ws, dtype=complex).ravel()
    deg = fm.degree

    inner = max(abs(c) for c in fm.coefficients[:-1])
    radius = 1.0 + (inner + np.abs(ws)) / abs(fm.coefficients[-1])
    angles = math.tau * (np.arange(deg) + 0.37) / deg
    z = radius[:, None] * 0.9 * np.exp(1j * (angles[None, :] + 0.1))
    target = 1e-13 * np.maximum(1.0, np.abs(ws))
    z = _aberth(fm, z, ws, target, radius)
    pv = fm(z) - ws[:, None]
    res = np.max(np.abs(pv), axis=1)
    if not np.all(np.isfinite(z)):
        raise NumericOverflow("root iteration left the range of double precision")
    tol = np.maximum(ROOT_TOL, target)
    if not np.all(res <= tol):  # a nan residual fails too
        worst = int(np.argmax(np.nan_to_num(res / tol, nan=np.inf)))
        raise NoConvergence(f"root residual {res[worst]:.3e} above its tolerance "
                            f"{tol[worst]:.3e} for target {complex(ws[worst])}")

    dp = fm.derivative(z)
    safe = np.abs(dp) > 1e-280
    z = np.where(safe, z - pv / np.where(safe, dp, 1.0), z)
    order = np.lexsort((z.imag, z.real), axis=-1)
    return np.take_along_axis(z, order, axis=-1)


def preimages(fm: ParabolicMap, w: complex) -> list:
    """All deg(f) solutions of f(z) = w (with multiplicity), residual within
    preimages_batch's tolerance."""
    return [complex(r) for r in preimages_batch(fm, np.array([w], dtype=complex))[0]]


# ---------------------------------------------------------------------------
# Truncated backward/forward orbit set Q
# ---------------------------------------------------------------------------

def quantize(values: np.ndarray) -> np.ndarray:
    """Grid cells rint(re/DEDUP_QUANTUM) + 1j*rint(im/DEDUP_QUANTUM), one
    complex number per value.

    Rounding is half-to-even, like Python's round(). The parts are assigned,
    not summed, so no arithmetic touches either; -0.0 == 0.0, so a small
    negative part shares the zero cell.
    """
    cells = np.empty(values.shape, dtype=complex)
    cells.real = np.rint(values.real / DEDUP_QUANTUM)
    cells.imag = np.rint(values.imag / DEDUP_QUANTUM)
    return cells


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
    def points(self) -> np.ndarray:
        """The value array under its older name, read by the benchmark's
        enumerate_Q hook as len(result.points)."""
        return self.value

    def counts_by_kl(self) -> dict:
        kl, counts = np.unique(self.k * (self.l_max + 1) + self.l, return_counts=True)
        return {divmod(int(key), self.l_max + 1): int(n) for key, n in zip(kl, counts)}


def _preimage_levels(fm, orbit, l_max, counted, name):
    """Levels 0..l_max of the preimage trees of a forward orbit (level 0),
    one preimages_batch call per level, as raw parallel arrays (value,
    origin, level, up): origin[i] indexes the orbit point value[i] descends
    from, up[i] is the raw index of f(value[i]) (-1 at the orbit end). With
    `counted` points charged already, PointCapExceeded (naming `name` and
    the level) is raised before a level that would take them past POINT_CAP.
    """
    frontier, origin = orbit, np.arange(orbit.size)
    vals, origins, ls = [orbit], [origin], [np.zeros(orbit.size, dtype=int)]
    for l in range(1, l_max + 1):
        if counted + frontier.size * fm.degree > POINT_CAP:
            raise PointCapExceeded(f"{name} passes the point cap of {POINT_CAP} at level l={l}")
        frontier = preimages_batch(fm, frontier).ravel()
        origin = np.repeat(origin, fm.degree)
        vals.append(frontier)
        origins.append(origin)
        ls.append(np.full(frontier.size, l))
        counted += frontier.size
    value = np.concatenate(vals)
    # raw point orbit.size + j is a root of f(z) = value[j // deg(f)]
    up = np.r_[1:orbit.size, -1, np.repeat(np.arange(value.size - frontier.size), fm.degree)]
    return value, np.concatenate(origins), np.concatenate(ls), up


def _residuals(fm, value, level, l_max, target):
    """|f^level(value) - target| on arrays; step s = 1..l_max maps the points of level >= s."""
    cur = value.copy()
    for step in range(1, l_max + 1):
        live = level >= step
        cur[live] = fm(cur[live])
    return np.abs(cur - target)


def enumerate_Q(fm: ParabolicMap, q: complex, k_max: int, l_max: int,
                direction: int | None = None) -> QEnumeration:
    """Breadth-first preimage expansion of each forward iterate of q.

    q is classified once, by classify_batch in PROBE_STEPS steps, and only
    its label is read; NotInBasin is raised unless it converges, and into
    `direction` when one is given. Every enumerated point inherits that
    direction by provenance: the full basin of an attracting direction is
    completely invariant, so f(z) = w with w in the basin puts z in it too
    (the orbit of z is z followed by the orbit of w), and by induction every
    f^{-l}(f^k(q)) lies in the basin of q. No point is classified again.

    Expansion is _preimage_levels: one preimages_batch call solves level l
    for every k. The result is sorted by (k, l, re, im) and deduplicated by
    one np.unique over the complex grid cells of quantize: points sharing a
    cell keep the first in (k, l, re, im) order, so the result is independent
    of expansion order. A point's parent is the target it was solved from, or
    the next orbit point, taken through the same cell; its residual, from
    _residuals, is |f^l(value) - f^k(q)|. PointCapExceeded comes before the
    orbit or a level that would pass POINT_CAP, the orbit charged too, so
    no caller sees part of the levels it asked for.
    """
    if k_max + 1 > POINT_CAP:
        raise PointCapExceeded(f"Q for k_max={k_max} passes the point cap of {POINT_CAP}")
    labels, _ = classify_batch(fm, [q], PROBE_STEPS)
    label = int(labels[0])
    if label < 0 or direction not in (None, label):
        target = "any direction" if direction is None else f"direction {direction}"
        raise NotInBasin(f"q={q} does not classify into {target}")

    orbit = [complex(q)]
    for _ in range(k_max):
        orbit.append(fm(orbit[-1]))
    orbit = np.array(orbit, dtype=complex)

    vals, ks, ls, ups = _preimage_levels(fm, orbit, l_max, k_max + 1,
                                         f"Q for k_max={k_max}, l_max={l_max}")
    order = np.lexsort((vals.imag, vals.real, ls, ks))
    # return_index takes a stable sort, so first[c] is cell c's first point in
    # (k, l, re, im) order: that copy is kept, and every copy maps to it
    _, first, cell = np.unique(quantize(vals[order]), return_index=True, return_inverse=True)
    keep = np.zeros(vals.size, dtype=bool)
    keep[first] = True
    kept = order[keep]
    out = np.full(vals.size + 1, -1)  # out[-1] = -1 passes the orbit end on
    out[order] = (np.cumsum(keep) - 1)[first][cell]  # a kept point's rank among the kept
    vals, ks, ls, parent = vals[kept], ks[kept], ls[kept], out[ups[kept]]

    residuals = _residuals(fm, vals, ls, l_max, orbit[ks])
    return QEnumeration(complex(q), label, vals, ks, ls, residuals, parent,
                        k_max, l_max)
