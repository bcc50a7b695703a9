"""The public surface of the package."""

import latsize

PUBLIC = {
    "AffineUnimodularMap", "BoxCertificate", "CoordinateGuardError", "DegeneratePolygonError",
    "EMPTY", "EmptyPolygonError", "InternalConsistencyError", "LatsizeError", "LatticePolygon",
    "LaurentPolynomial", "Measures", "NewtonAnalysis", "NotTwoDimensionalError", "OnionTrace",
    "ParallelEdgeHit", "ParetoSet", "SizeCertificate", "SpecialShape", "Step", "WidthResult",
    "ZeroPolynomialError", "analyze", "apply_map", "are_equivalent", "census", "fit_into", "hull",
    "integral_length", "interior_hull", "interior_lattice_points", "lattice_size_sigma",
    "lattice_size_square", "lattice_width", "lattice_width_recursive", "lawrence_prism",
    "measures", "minimal_box", "newton_polygon", "onion_skins", "oracle_box_pareto",
    "oracle_size", "parallel_edge_exception", "parse_laurent", "random_polygon",
    "random_unimodular_map", "rectangle", "recognize_special", "standard_triangle",
    "transform_support", "upsilon", "width_along",
}


def test_exported_names_are_pinned():
    assert len(latsize.__all__) == len(set(latsize.__all__)) == 51
    assert set(latsize.__all__) == PUBLIC
    assert all(hasattr(latsize, name) for name in PUBLIC)
