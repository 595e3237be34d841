"""Grid classification of parabolic basins and image output.

Pixel centers are iterated in bulk with the same absorbing-petal criterion the
pointwise classifier uses; pixels that neither escape nor get absorbed within
the iteration budget stay Undecided rather than being guessed. Connected
components are extracted with a 4-connected flood fill.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import IoFailure, SeedNotInBasin
from .parabolic import LABEL_ESCAPED, LABEL_UNDECIDED, ParabolicMap, classify_batch

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

# One fixed color per label; directions cycle through the palette.
_DIRECTION_COLORS = [(51, 102, 204), (204, 102, 51), (51, 170, 85),
                     (170, 51, 170), (204, 170, 51), (51, 170, 204)]
_ESCAPED_COLOR = (16, 16, 24)
_UNDECIDED_COLOR = (128, 128, 128)


@dataclass(frozen=True)
class Window:
    center: complex
    width: float
    height: float


@dataclass
class RasterGrid:
    window: Window
    nx: int
    ny: int
    labels: np.ndarray  # int32, shape (ny, nx); >= 0 direction, -1 escaped, -2 undecided
    m: int
    n_max: int
    component_mask: np.ndarray | None = None

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        w, h = self.window.width, self.window.height
        xs = self.window.center.real + ((2 * np.arange(self.nx) + 1 - self.nx) * w) / (2 * self.nx)
        ys = self.window.center.imag + ((2 * np.arange(self.ny) + 1 - self.ny) * h) / (2 * self.ny)
        return xs, ys[::-1]  # row 0 is the top of the image

    def pixel_index(self, z: complex) -> tuple[int, int]:
        xs, ys = self.pixel_centers()
        j = int(np.argmin(np.abs(xs - z.real)))
        i = int(np.argmin(np.abs(ys - z.imag)))
        return i, j

    def label_counts(self) -> dict:
        vals, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("BASINLAB_THREADS", "1")))
    except ValueError:
        return 1


def classify_grid(fm: ParabolicMap, window: Window, resolution: int,
                  n_max: int) -> RasterGrid:
    """Label every pixel center of a square-pixel grid over the window.

    `resolution` is the pixel count along the wider side; the other side gets
    the count that keeps pixels square. Classification is deterministic and
    row-parallel (thread count from BASINLAB_THREADS).
    """
    if resolution > 8192:
        raise ValueError("resolution capped at 8192")
    if window.width >= window.height:
        nx = resolution
        ny = max(1, round(resolution * window.height / window.width))
    else:
        ny = resolution
        nx = max(1, round(resolution * window.width / window.height))
    grid = RasterGrid(window, nx, ny, np.empty((ny, nx), dtype=np.int32), fm.m, n_max)
    xs, ys = grid.pixel_centers()
    z = xs[None, :] + 1j * ys[:, None]

    def _rows(block: np.ndarray) -> np.ndarray:
        labels, _ = classify_batch(fm, block.ravel(), n_max)
        return labels.reshape(block.shape)

    threads = _thread_count()
    if threads == 1 or ny < 2 * threads:
        grid.labels[:] = _rows(z)
    else:
        chunks = np.array_split(np.arange(ny), threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda ix: _rows(z[ix]), chunks))
        for ix, part in zip(chunks, parts):
            grid.labels[ix] = part
    return grid


def immediate_component(grid: RasterGrid, seed: complex) -> np.ndarray:
    """4-connected component of same-direction pixels containing the seed."""
    from scipy import ndimage  # deferred: slow to import, and only the flood fills use it
    i, j = grid.pixel_index(seed)
    lab = int(grid.labels[i, j])
    if lab < 0:
        raise SeedNotInBasin(f"seed pixel labeled {lab}, not a direction")
    comp, _ = ndimage.label(grid.labels == lab, structure=_FOUR_CONNECTED)
    mask = comp == comp[i, j]
    grid.component_mask = mask
    return mask


@dataclass
class WedgeReport:
    disjoint: bool
    overlap_pixels: int
    s1_pixels: int
    s2_pixels: int
    resolution: int
    n_max: int
    basin_pixels: int
    undecided_pixels: int


def _axis_sampling_window(R: float, theta0: float, resolution: int) -> Window:
    """Wedge bounding box adjusted so one pixel row lies exactly on the real
    axis (odd row count). The positive axis escapes and is the separator
    between the two edge lobes; near the origin its escape channel narrows
    like x^2 and drops below pixel size at every resolution, so the grid must
    sample the axis itself to represent the separation faithfully."""
    width = R * 1.02
    base_h = 2.0 * R * math.sin(theta0)
    pad = 1.02
    for _ in range(200):
        height = base_h * pad
        if width >= height:
            ny = max(1, round(resolution * height / width))
        else:
            ny = resolution
        if ny % 2 == 1:
            return Window(complex(R / 2.0, 0.0), width, height)
        pad *= 1.003
    return Window(complex(R / 2.0, 0.0), width, base_h * 1.02)


def prop3_disjointness(fm: ParabolicMap, R: float, theta0: float,
                       resolution: int, n_max: int = 10000) -> WedgeReport:
    """Flood the basin pixels touching each edge ray of the wedge
    {0 < r < R, |arg z| < theta0} and report whether the two fills meet."""
    from scipy import ndimage  # deferred: slow to import, and only the flood fills use it
    window = _axis_sampling_window(R, theta0, resolution)
    grid = classify_grid(fm, window, resolution, n_max)
    xs, ys = grid.pixel_centers()
    x = np.broadcast_to(xs[None, :], grid.labels.shape)
    y = np.broadcast_to(ys[:, None], grid.labels.shape)
    r = np.hypot(x, y)
    ang = np.arctan2(y, x)
    wedge = (r < R) & (np.abs(ang) < theta0) & (r > 0)
    basin = wedge & (grid.labels >= 0)

    comp, _ = ndimage.label(basin, structure=_FOUR_CONNECTED)
    px = window.width / grid.nx
    tol = px * math.sqrt(2.0) / 2.0
    near1 = np.abs(y * math.cos(theta0) - x * math.sin(theta0)) <= tol
    near2 = np.abs(y * math.cos(theta0) + x * math.sin(theta0)) <= tol
    ids1 = set(np.unique(comp[basin & near1])) - {0}
    ids2 = set(np.unique(comp[basin & near2])) - {0}
    s1 = np.isin(comp, sorted(ids1))
    s2 = np.isin(comp, sorted(ids2))
    overlap = int(np.sum(s1 & s2))
    return WedgeReport(overlap == 0, overlap, int(s1.sum()), int(s2.sum()),
                       resolution, n_max, int(basin.sum()),
                       int(np.sum(wedge & (grid.labels == LABEL_UNDECIDED))))


def write_image(grid: RasterGrid, path) -> None:
    """Binary P6 image, one fixed color per label, component mask blended 50%
    toward white. Byte-reproducible for identical inputs."""
    h, w = grid.labels.shape
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    rgb[:] = _UNDECIDED_COLOR
    rgb[grid.labels == LABEL_ESCAPED] = _ESCAPED_COLOR
    for j in range(grid.m):
        rgb[grid.labels == j] = _DIRECTION_COLORS[j % len(_DIRECTION_COLORS)]
    if grid.component_mask is not None:
        blended = (rgb[grid.component_mask].astype(np.uint16) + 255) // 2
        rgb[grid.component_mask] = blended.astype(np.uint8)
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(rgb.tobytes())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
