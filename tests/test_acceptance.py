"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Expensive artifacts (the full certificates) are computed once and
shared across criteria.
"""

import cmath
import math
import time

import numpy as np
import pytest

from basinlab import (ModelDomain, LiftedPoint, analyze_parabolic, bound_case1,
                      bound_case2, bound_case2_horizontal, check_petal_invariance,
                      choose_parameters, corollary_d_closure, distance_exact,
                      estimate_remainder, geodesic_polyline, kobayashi,
                      path_length, prop3_disjointness, verify_theorem)
from basinlab.petals import conjugated_map

LN2 = math.log(2.0)
SLIT = ModelDomain.slit_plane()
_cache: dict = {}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _theorem_a_certificate():
    if "thmA" not in _cache:
        fm, _ = analyze_parabolic([0, 1, 1])
        t0 = time.perf_counter()
        cert = verify_theorem(fm, 2.0, -0.5, 20, 10)
        _cache["thmA"] = (fm, cert, time.perf_counter() - t0)
    return _cache["thmA"]


def _random_slit_pairs(n, seed, min_sep=0.02):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n:
        r = np.exp(rng.uniform(-2.0, 2.0, 2))
        th = rng.uniform(0.05, 2.0 * math.pi - 0.05, 2)
        z1 = r[0] * cmath.exp(1j * th[0])
        z2 = r[1] * cmath.exp(1j * th[1])
        if abs(z1 - z2) > min_sep:
            pairs.append((z1, z2))
    return pairs


def test_criterion_01_theorem_a_certificate():
    fm, cert, elapsed = _theorem_a_certificate()
    ok = (cert.passed and cert.global_min >= 2.0
          and cert.n_certified == cert.n_points
          and cert.n_points > 2 * 10 ** 4
          and cert.uncertifiable == 0
          and cert.params.comparison_domain.tag == "slit_plane"
          and cert.cross_check_violations == 0
          and cert.interior_offaxis_points == 0
          and elapsed < 60.0)
    cert4 = verify_theorem(fm, 4.0, -0.5, 20, 10)
    ok = ok and cert4.passed and cert4.global_min >= 4.0
    ok = ok and cert4.params.epsilon < cert.params.epsilon
    ok = ok and cert4.params.theta0 < cert.params.theta0
    _report(1, ok,
            f"far-point certificate C=2: min={cert.global_min:.3f} over "
            f"{cert.n_points} points in {elapsed:.1f}s, exact slit-plane bounds; "
            f"C=4: min={cert4.global_min:.3f}")


def test_criterion_02_theorem_b_sector_certificate():
    fm, _ = analyze_parabolic([0, 1, 0, 1])
    cert = verify_theorem(fm, 2.0, 0.3j, 15, 8)
    dom = cert.params.comparison_domain
    ok = (cert.passed and cert.global_min >= 2.0
          and dom.tag == "sector" and abs(dom.width - math.pi) < 1e-12
          and cert.uncertifiable == 0)
    _report(2, ok,
            f"two-petal certificate m=2, opening-pi sector: min={cert.global_min:.3f}, "
            f"{cert.n_certified}/{cert.n_points} certified "
            f"({cert.excluded_outside} outside the immediate-basin sector)")


def test_criterion_03_closed_form_metric_suite():
    H = ModelDomain.half_plane()
    d1 = distance_exact(H, 1j, 2j).value
    q1 = path_length(H, geodesic_polyline(H, 1j, 2j, 8192))
    d2 = distance_exact(SLIT, -1, -4).value
    q2 = path_length(SLIT, geodesic_polyline(SLIT, -1, -4, 8192))
    ok = (abs(d1 - LN2) < 1e-12 and abs(q1 - LN2) < 1e-9
          and abs(d2 - LN2) < 1e-12 and abs(q2 - LN2) < 1e-9)
    worst = 0.0
    for z1, z2 in _random_slit_pairs(1000, seed=101):
        d = distance_exact(SLIT, z1, z2).value
        n = min(6000, max(256, int(d * 1500)))
        length = path_length(SLIT, geodesic_polyline(SLIT, z1, z2, n))
        worst = max(worst, abs(length - d))
    ok = ok and worst < 1e-6
    _report(3, ok,
            f"d_H(i,2i) and d_slit(-1,-4) = ln2 to 1e-12, quadrature to 1e-9; "
            f"1000 random pairs chart-vs-quadrature worst {worst:.2e}")


def test_metric_paths_density_evaluations(monkeypatch):
    # the work count of the metric-paths workload at its default inputs: 64
    # polylines, 200,839 segments, each passing at G2/K5 (5 densities)
    seen = []
    density_into = kobayashi._density_into

    def counting(domain, r, theta, out):
        seen.append(out.size)
        return density_into(domain, r, theta, out)

    monkeypatch.setattr(kobayashi, "_density_into", counting)
    segments = 0
    for z1, z2 in _random_slit_pairs(64, seed=101):
        n = min(6000, max(256, int(distance_exact(SLIT, z1, z2).value * 1500)))
        path_length(SLIT, geodesic_polyline(SLIT, z1, z2, n))
        segments += n
    assert (segments, sum(seen)) == (200_839, 1_004_195)


def test_criterion_04_homogeneity_and_monotonicity():
    rng = np.random.default_rng(202)
    pairs = _random_slit_pairs(1000, seed=202)
    worst_h = 0.0
    for z1, z2 in pairs:
        lam = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        d0 = distance_exact(SLIT, z1, z2).value
        d1 = distance_exact(SLIT, lam * z1, lam * z2).value
        worst_h = max(worst_h, abs(d1 - d0))
    wide = ModelDomain.double_sector(-0.1, 2.0 * math.pi + 0.1)
    strict = True
    min_gap = math.inf
    for z1, z2 in pairs:
        ds = distance_exact(SLIT, z1, z2).value
        dw = distance_exact(wide, LiftedPoint.from_complex(z1),
                            LiftedPoint.from_complex(z2)).value
        strict = strict and dw < ds
        min_gap = min(min_gap, ds - dw)
    ok = worst_h < 1e-12 and strict and min_gap > 1e-12
    _report(4, ok,
            f"scaling invariance worst {worst_h:.2e}; widened-domain distance "
            f"strictly below slit distance on 1000 pairs (min gap {min_gap:.2e})")


def test_criterion_05_orbit_asymptotics():
    fm, _ = analyze_parabolic([0, 1, 1])
    z = -0.5
    for _ in range(10 ** 4):
        z = fm(z)
    err = abs(10 ** 4 * z + 1.0)
    bound = 2.0 * math.log(10 ** 4) / 10 ** 4
    ok = err <= bound
    _report(5, ok, f"|k z_k + 1| = {err:.3e} <= {bound:.3e} at k=1e4 "
                   f"(expected ~9.2e-4)")


def test_criterion_06_translation_chart_oracle():
    fm, _ = analyze_parabolic([0, 1, 1])
    rng = np.random.default_rng(66)
    mags = np.exp(rng.uniform(math.log(2.0), math.log(1e6), 10 ** 4))
    args = rng.uniform(-math.pi, math.pi, 10 ** 4)
    worst = 0.0
    for mag, arg in zip(mags, args):
        w = mag * cmath.exp(1j * arg)
        target = w * w / (w - 1.0)
        rel = abs(conjugated_map(fm, w) - target) / max(1.0, abs(target))
        worst = max(worst, rel)
    est = estimate_remainder(fm, 31.0)
    brackets = (1.0 / 30.0) <= est <= (2.0 / 30.0) * (1 + 1e-9)
    ok = worst <= 1e-12 and brackets
    _report(6, ok,
            f"conjugated map matches w^2/(w-1) to {worst:.2e} relative on 1e4 "
            f"samples; remainder estimate {est:.5f} brackets true sup 1/30")


def test_criterion_07_wedge_invariance():
    fm, _ = analyze_parabolic([0, 1, 1])
    params = choose_parameters(fm, 2.0)
    assert abs(params.theta0 - 0.0169) < 2e-4
    rep = check_petal_invariance(fm, params.pacman, n_steps=10 ** 3,
                                 samples=10 ** 4)
    ok = rep.violations == 0 and rep.worst_margin > 0.0
    _report(7, ok,
            f"certified wedge at theta0={params.theta0:.4f}: {rep.violations} exits "
            f"over {rep.samples} points x {rep.n_steps} steps")


def test_criterion_08_bound_soundness():
    rng = np.random.default_rng(88)
    worst = math.inf

    for _ in range(1000):  # radial growth bound on the slit plane
        eps = math.exp(rng.uniform(-8, -2))
        R = eps * math.exp(rng.uniform(0.5, 5.0))
        z0 = eps * rng.uniform(0.2, 1.0) * cmath.exp(1j * rng.uniform(0.05, 2 * math.pi - 0.05))
        z1 = R * math.exp(rng.uniform(0.0, 1.0)) * cmath.exp(1j * rng.uniform(0.05, 2 * math.pi - 0.05))
        margin = distance_exact(SLIT, z0, z1).value - bound_case1(eps, R, 1)
        worst = min(worst, margin)

    theta_range = (0.0, math.pi / 2.0)
    sec = ModelDomain.sector(*theta_range)
    for _ in range(1000):  # log-height bound on the range-restricted sector
        th = rng.uniform(0.01, math.pi / 2 - 0.01, 2)
        z0 = cmath.exp(1j * th[0])
        z1 = math.exp(rng.uniform(-3, 3)) * cmath.exp(1j * th[1])
        margin = (distance_exact(sec, z0, z1).value
                  - bound_case2(z0, z1, 1, theta_range))
        worst = min(worst, margin)

    for _ in range(1000):  # axis-crossing bound at the recipe's operating point
        C = rng.uniform(0.5, 4.0)
        cap = 1.0 / (2.0 * C * math.exp(C))
        theta_star = min(1.5 * 0.5 * min(cap, math.pi / 6.0),
                         0.9 * math.asin(min(1.0, cap)))
        z0 = cmath.exp(1j * theta_star)
        y1 = z0.imag * math.exp(rng.uniform(-C, C))
        margin = (distance_exact(SLIT, z0, 1j * y1).value
                  - bound_case2_horizontal(z0, C))
        worst = min(worst, margin)

    ok = worst >= -1e-12
    _report(8, ok, f"case1/case2/horizontal never exceed the exact distance on "
                   f"3x1000 scenarios (worst margin {worst:.3e})")


def test_criterion_09_wedge_disjointness_raster():
    fm, _ = analyze_parabolic([0, 1, 1, 1])
    rep = prop3_disjointness(fm, 0.3, 0.3, 1024, n_max=10 ** 4)
    rep2 = prop3_disjointness(fm, 0.3, 0.3, 2048, n_max=10 ** 4)
    ok = (rep.disjoint and rep.overlap_pixels == 0
          and rep.s1_pixels > 0 and rep.s2_pixels > 0
          and rep2.disjoint and rep2.overlap_pixels == 0)
    _report(9, ok,
            f"edge lobes disjoint at 1024 (s1={rep.s1_pixels}, s2={rep.s2_pixels}, "
            f"overlap=0), verdict unchanged at 2048")


def test_criterion_10_preimage_closure():
    fm, cert, _ = _theorem_a_certificate()
    rep = corollary_d_closure(fm, cert, 3)
    ok = (rep.status == "ok" and rep.n_preimages == 14
          and rep.residual_failures == 0 and rep.max_residual < 1e-8
          and rep.image_misses == 0)
    _report(10, ok,
            f"depth-3 preimages of z0: {rep.n_preimages} nodes, max forward "
            f"residual {rep.max_residual:.2e}, {rep.image_misses} image misses")
