import dataclasses
import math

import numpy as np
import pytest

from basinlab import (ModelDomain, certify_pair, choose_parameters,
                      corollary_d_closure, distance_exact, path_length,
                      verify_theorem)
from basinlab.errors import NotInBasin


@pytest.fixture(scope="module")
def small_cert(quad_map):
    fm, _ = quad_map
    return verify_theorem(fm, 2.0, -0.5, 6, 5, 0)


class TestChooseParameters:
    def test_gap_angle_values(self, quad_map):
        fm, _ = quad_map
        p2 = choose_parameters(fm, 2.0)
        assert p2.theta0 == pytest.approx(0.5 / (4.0 * math.e ** 2), rel=1e-9)
        assert p2.theta0 == pytest.approx(0.016917, abs=5e-6)
        p3 = choose_parameters(fm, 3.0)
        assert p3.theta0 == pytest.approx(0.0041490, abs=5e-7)

    def test_small_C_caps_at_pi_twelfth(self, quad_map):
        fm, _ = quad_map
        p = choose_parameters(fm, 1e-6)
        assert p.theta0 == pytest.approx(math.pi / 12.0)

    def test_invariants(self, quad_map):
        fm, _ = quad_map
        for C in (0.5, 2.0, 4.0):
            p = choose_parameters(fm, C)
            cap = 1.0 / (2.0 * C * math.exp(C))
            assert p.theta0 < cap
            assert 0.0 < p.theta0_prime < p.theta0
            assert p.epsilon <= p.pacman.R0_prime * math.exp(-2.0 * C / p.m) * (1 + 1e-12)
            assert p.z0_normalized.real > 0.5
            assert p.z0_normalized.imag < cap
            assert p.theta0 < p.theta_star < 2.0 * math.pi / p.m - p.theta0

    def test_epsilon_recipe_hits_C_exactly(self, quad_map):
        from basinlab import bound_case1
        fm, _ = quad_map
        for C in (1.0, 2.0, 4.0):
            p = choose_parameters(fm, C)
            assert bound_case1(p.epsilon, p.pacman.R0_prime, p.m).value == pytest.approx(
                C, abs=1e-12)

    def test_sector_comparison_for_two_petals(self, cubic_map):
        fm, _ = cubic_map
        p = choose_parameters(fm, 2.0, direction=0)
        assert p.comparison_domain.tag == "sector"
        assert p.comparison_domain.width == pytest.approx(math.pi)

    def test_double_sector_for_higher_terms(self, perturbed_map):
        fm, _ = perturbed_map
        p = choose_parameters(fm, 1.0)
        assert p.comparison_domain.tag == "double_sector"
        assert p.comparison_domain.width == pytest.approx(2 * math.pi + 2 * p.theta0)


class TestCertifyPair:
    def test_exact_bound_dominates_case1(self, quad_map):
        fm, _ = quad_map
        params = choose_parameters(fm, 2.0)
        for q in (-0.5, -4.0, -0.25 + 0.1j):
            bound, crosses = certify_pair(params, q)
            assert bound.kind == "exact" and bound.method == "chart"
            assert bound.value >= crosses["case1"] - 1e-12
            assert crosses["case1"] == pytest.approx(2.0, abs=1e-12)

    def test_self_distance_zero(self, quad_map):
        fm, _ = quad_map
        params = choose_parameters(fm, 2.0)
        bound, _ = certify_pair(params, params.z0)
        assert bound.value == pytest.approx(0.0, abs=1e-9)

    def test_matches_slit_distance(self, quad_map):
        fm, _ = quad_map
        params = choose_parameters(fm, 2.0)
        q = -0.3 + 0.2j
        bound, _ = certify_pair(params, q)
        direct = distance_exact(ModelDomain.slit_plane(), params.z0, q).value
        assert bound.value == pytest.approx(direct, rel=1e-12)


class TestVerifyTheorem:
    def test_single_pair_run(self, quad_map):
        fm, _ = quad_map
        cert = verify_theorem(fm, 2.0, -0.5, 0, 0, 0)
        assert cert.n_points == 1 and cert.passed
        assert cert.global_min >= 2.0

    def test_small_truncation_passes(self, small_cert):
        assert small_cert.passed
        assert small_cert.global_min >= 2.0
        assert small_cert.uncertifiable == 0
        assert small_cert.cross_check_violations == 0

    def test_far_set_empty_near_origin(self, small_cert):
        # no enumerated point with nonzero imaginary part inside the inner wedge
        assert small_cert.interior_offaxis_points == 0

    def test_override_detector(self, quad_map):
        fm, _ = quad_map
        cert = verify_theorem(fm, 2.0, -0.5, 2, 1, 0, z0_override=-0.5)
        assert cert.global_min == pytest.approx(0.0, abs=1e-12)
        assert not cert.passed
        assert cert.cross_checks["horizontal"] is None  # Re z0_normalized = -1

    def test_monotone_in_truncation(self, quad_map):
        fm, _ = quad_map
        m1 = verify_theorem(fm, 2.0, -0.5, 3, 2, 0).global_min
        m2 = verify_theorem(fm, 2.0, -0.5, 5, 3, 0).global_min
        m3 = verify_theorem(fm, 2.0, -0.5, 7, 5, 0).global_min
        assert m2 <= m1 + 1e-12
        assert m3 <= m2 + 1e-12

    def test_rejects_bad_reference(self, quad_map):
        fm, _ = quad_map
        with pytest.raises(NotInBasin):
            verify_theorem(fm, 1.0, 0.5, 2, 2, 0)

    def test_bound_below_any_polyline(self, small_cert, quad_map):
        # spot-check: recorded bound <= length of arbitrary polylines joining
        # the pair inside the comparison domain (100 random polylines)
        rng = np.random.default_rng(17)
        dom = small_cert.params.comparison_domain
        z0 = small_cert.params.z0
        idx = rng.choice(np.flatnonzero(small_cert.certified_mask), 100, replace=True)
        checked = 0
        for i in idx:
            q = small_cert.point_values[i]
            mid = np.sqrt(abs(z0) * abs(q)) * np.exp(
                1j * (0.5 * (np.angle(z0) % (2 * np.pi) + np.angle(q) % (2 * np.pi))
                      + rng.uniform(-0.3, 0.3)))
            try:
                length = path_length(dom, [z0, complex(mid), complex(q)])
            except Exception:
                continue
            checked += 1
            assert length >= small_cert.point_bounds[i] - 1e-9
        assert checked >= 80

    def test_json_round_trip(self, small_cert):
        import json

        payload = small_cert.to_json_dict()
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert back["pass"] is True
        assert back["n_points"] == small_cert.n_points
        assert "runtime_ms" not in back

    def test_table_renders(self, small_cert):
        table = small_cert.to_table()
        assert "pass=True" in table
        assert "global_min" in table

    def test_csv_dump(self, small_cert, tmp_path):
        path = tmp_path / "bounds.csv"
        small_cert.bounds_to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "re,im,k,l,bound,certified"
        assert len(lines) == small_cert.n_points + 1
        for line in lines[1:]:
            x, y, *_ = line.split(",")
            float(x), float(y)  # plain floats, not numpy reprs


class TestTwoPetalCertificate:
    def test_immediate_basin_exclusions(self, cubic_map):
        fm, _ = cubic_map
        cert = verify_theorem(fm, 1.0, 0.3j, 4, 3, 0)
        assert cert.passed
        # lower half-plane preimages are direction-0 basin points but lie
        # outside the immediate component, hence outside the sector
        assert cert.excluded_outside > 0
        assert cert.uncertifiable == 0


class TestClosure:
    def test_depth_one(self, quad_map, small_cert):
        fm, _ = quad_map
        rep = corollary_d_closure(fm, small_cert, 1)
        assert rep.status == "ok"
        assert rep.n_preimages == 2
        assert rep.residual_failures == 0
        assert rep.image_misses == 0

    def test_tampered_parent_is_a_miss(self, quad_map, small_cert):
        # every image is read off the recorded parent, so one wrong entry
        # pointing at a certified point far from f(v) must count as a miss
        fm, _ = quad_map
        qe, ok = small_cert.enumeration, small_cert.certified_mask
        parent = qe.parent.copy()
        i = int(np.flatnonzero(ok & (parent >= 0))[0])
        parent[i] = int(np.argmax(np.where(ok, np.abs(qe.value - fm(qe.value[i])), -1.0)))
        tampered = dataclasses.replace(small_cert,
                                       enumeration=dataclasses.replace(qe, parent=parent))
        assert corollary_d_closure(fm, small_cert, 1).image_misses == 0
        assert corollary_d_closure(fm, tampered, 1).image_misses >= 1

    def test_depth_zero_trivial(self, quad_map, small_cert):
        fm, _ = quad_map
        rep = corollary_d_closure(fm, small_cert, 0)
        assert rep.n_preimages == 0 and rep.residual_failures == 0

    def test_failed_cert_precondition(self, quad_map):
        fm, _ = quad_map
        bad = verify_theorem(fm, 2.0, -0.5, 2, 1, 0, z0_override=-0.5)
        rep = corollary_d_closure(fm, bad, 2)
        assert rep.status == "precondition_failed"
