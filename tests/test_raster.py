import hashlib

import numpy as np
import pytest

from basinlab import (Window, analyze_parabolic, classify_grid, construct_pacman,
                      immediate_component, prop3_disjointness, write_image)
from basinlab.errors import SeedNotInBasin
from basinlab.parabolic import LABEL_ESCAPED
from basinlab.raster import RasterGrid

STD_WINDOW = Window(complex(-0.25, 0.0), 1.5, 1.5)


@pytest.fixture(scope="module")
def quad_grid(quad_map):
    fm, _ = quad_map
    return classify_grid(fm, STD_WINDOW, 192, 10 ** 4)


class TestClassifyGrid:
    def test_known_pixels(self, quad_grid):
        assert quad_grid.labels[quad_grid.pixel_index(-0.5)] == 0
        assert quad_grid.labels[quad_grid.pixel_index(0.5)] == LABEL_ESCAPED

    def test_exact_fixed_point_undecided(self, quad_map):
        from basinlab import classify_direction
        fm, _ = quad_map
        rec = classify_direction(fm, 0.0, 1000)
        assert rec.status.value == "undecided"

    def test_conjugation_symmetry_exact(self, quad_grid):
        assert np.array_equal(quad_grid.labels, quad_grid.labels[::-1, :])

    def test_two_petal_symmetry_swaps_directions(self, cubic_map):
        fm, _ = cubic_map
        g = classify_grid(fm, Window(0j, 2.0, 2.0), 128, 4000)
        flipped = g.labels[::-1, :]
        swap = flipped.copy()
        swap[flipped == 0] = 1
        swap[flipped == 1] = 0
        assert np.array_equal(g.labels, swap)

    def test_labels_stable_at_higher_budget(self, quad_map, quad_grid):
        fm, _ = quad_map
        again = classify_grid(fm, STD_WINDOW, 192, 2 * 10 ** 4)
        decided = quad_grid.labels >= 0
        assert np.array_equal(quad_grid.labels[decided], again.labels[decided])

    def test_resolution_stability(self, quad_map, quad_grid):
        fm, _ = quad_map
        fine = classify_grid(fm, STD_WINDOW, 384, 10 ** 4)
        coarse_on_fine = fine.labels[::2, ::2]
        changed = np.mean(quad_grid.labels != coarse_on_fine)
        assert changed < 0.02

    def test_petal_consistency(self, quad_map):
        # every pixel inside a certified inner wedge is labeled Direction(0)
        fm, _ = quad_map
        pm = construct_pacman(fm, 0.45)
        R = pm.R0_prime
        window = Window(complex(-R / 2.0, 0.0), 1.2 * R, 1.2 * R)
        g = classify_grid(fm, window, 128, 10 ** 4)
        xs, ys = g.pixel_centers()
        z = xs[None, :] + 1j * ys[:, None]
        inside = pm.domain(0).contains(z)
        assert inside.sum() > 100
        assert np.all(g.labels[inside] == 0)


class TestImmediateComponent:
    def test_contains_reference_points(self, quad_grid):
        mask = immediate_component(quad_grid, -0.1)
        assert mask[quad_grid.pixel_index(-0.5)]
        assert mask[quad_grid.pixel_index(-0.1)]
        assert mask.sum() > 100

    def test_mask_subset_of_direction(self, quad_grid):
        mask = immediate_component(quad_grid, -0.1)
        assert np.all(quad_grid.labels[mask] == 0)

    def test_bad_seed_rejected(self, quad_grid):
        with pytest.raises(SeedNotInBasin):
            immediate_component(quad_grid, 0.5)


class TestWedgeDisjointness:
    def test_disjoint_lobes(self, perturbed_map):
        fm, _ = perturbed_map
        rep = prop3_disjointness(fm, 0.3, 0.3, 256, n_max=6000)
        assert rep.disjoint and rep.overlap_pixels == 0
        assert rep.s1_pixels > 0 and rep.s2_pixels > 0

    def test_detector_fires_on_attracting_axis(self):
        # z - z^2 - z^3 attracts along the positive real axis, so the wedge
        # about it holds one basin lobe that touches both edge rays
        fm, _ = analyze_parabolic([0, 1, -1, -1])
        rep = prop3_disjointness(fm, 0.3, 0.3, 256, n_max=6000)
        assert not rep.disjoint
        assert rep.overlap_pixels == 18850

    def test_stable_under_doubling(self, perturbed_map):
        fm, _ = perturbed_map
        r1 = prop3_disjointness(fm, 0.3, 0.3, 128, n_max=6000)
        r2 = prop3_disjointness(fm, 0.3, 0.3, 256, n_max=6000)
        assert r1.disjoint == r2.disjoint


class TestWriteImage:
    def test_header_and_size(self, quad_grid, tmp_path):
        path = tmp_path / "basin.ppm"
        write_image(quad_grid, path)
        data = path.read_bytes()
        h, w = quad_grid.labels.shape
        header = f"P6\n{w} {h}\n255\n".encode()
        assert data.startswith(header)
        assert len(data) == len(header) + 3 * h * w

    def test_byte_reproducible(self, quad_grid, tmp_path):
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_image(quad_grid, p1)
        write_image(quad_grid, p2)
        assert p1.read_bytes() == p2.read_bytes()

    # sha256 of the PPM written by the per-label mask painter, for every label
    # from -2 to m - 1 (m = 7 cycles the six direction colors) with and
    # without a component mask
    @pytest.mark.parametrize("m,masked,digest", [
        (2, True, "b521b8ef10726b5a5046e37b4456abfe6724fd551f3ddd8f0936faad20aa82c2"),
        (2, False, "4ba8aee04b4a4b5e158039b029d5f69bc6831328f94b5a49ec7a5ea8907f832e"),
        (7, True, "190b4d778809be1a4687bf1f86bdef6afb749f2cccaf20cae4c47103bb747462"),
        (7, False, "d1195836f7844a9865b717513349f04b4ef8422ab20a69f6f3d2ab8ab8203d15")])
    def test_pinned_bytes(self, tmp_path, m, masked, digest):
        labels = (np.arange(6 * 9, dtype=np.int32).reshape(6, 9) % (m + 2)) - 2
        mask = (np.add.outer(np.arange(6), np.arange(9)) % 3 == 0) if masked else None
        path = tmp_path / "p.ppm"
        write_image(RasterGrid(STD_WINDOW, 9, 6, labels, m, 100, mask), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_256_grid_size_formula(self, quad_map, tmp_path):
        fm, _ = quad_map
        g = classify_grid(fm, STD_WINDOW, 256, 500)
        path = tmp_path / "s.ppm"
        write_image(g, path)
        assert len(path.read_bytes()) == 15 + 3 * 256 ** 2
