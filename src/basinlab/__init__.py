"""Computational laboratory for orbits and hyperbolic distances in parabolic basins."""

from .errors import BasinLabError
from .kobayashi import (DistanceBound, LiftedPoint, ModelDomain, bound_case1,
                        bound_case2, bound_case2_horizontal, density,
                        distance_exact, geodesic_polyline, kappa_infimum,
                        kobayashi_disk_clearance, path_length)
from .parabolic import (AttractionVectorSet, OrbitRecord, OrbitStatus,
                        ParabolicMap, QEnumeration, analyze_parabolic,
                        attraction_vectors, classify_direction, enumerate_Q,
                        forward_orbit, parse_polynomial, preimages)
from .petals import (FatouChartValue, PacManConstruction, check_petal_invariance,
                     construct_pacman, estimate_remainder, fatou_chart,
                     fatou_chart_inverse, membership_petal)
from .raster import (RasterGrid, Window, classify_grid, immediate_component,
                     prop3_disjointness, write_image)
from .verifier import (TheoremCertificate, TheoremParams, choose_parameters,
                       corollary_d_closure, verify_theorem)

__version__ = "0.1.0"

__all__ = [
    "AttractionVectorSet", "BasinLabError", "DistanceBound", "FatouChartValue",
    "LiftedPoint", "ModelDomain", "OrbitRecord", "OrbitStatus", "PacManConstruction",
    "ParabolicMap", "QEnumeration", "RasterGrid", "TheoremCertificate",
    "TheoremParams", "Window", "analyze_parabolic", "attraction_vectors",
    "bound_case1", "bound_case2", "bound_case2_horizontal",
    "check_petal_invariance", "choose_parameters", "classify_direction",
    "classify_grid", "construct_pacman", "corollary_d_closure", "density",
    "distance_exact", "enumerate_Q", "estimate_remainder", "fatou_chart",
    "fatou_chart_inverse", "forward_orbit", "geodesic_polyline",
    "immediate_component", "kappa_infimum", "kobayashi_disk_clearance",
    "membership_petal", "parse_polynomial", "path_length", "preimages",
    "prop3_disjointness", "verify_theorem", "write_image",
]
