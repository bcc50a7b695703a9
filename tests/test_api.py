"""The public surface of the package."""

import ast
from pathlib import Path

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


def _private_definitions(tree):
    """(name, index) of each module-level private function, class or constant, by statement index."""
    for index, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, index


def test_no_dead_private_helpers():
    # every private helper is used in the package outside its own definition,
    # so a simplification cannot leave an orphan behind
    trees = {path.name: ast.parse(path.read_text()) for path in Path(latsize.__file__).parent.glob("*.py")}
    # names read by each module-level statement, as a name or an attribute
    reads = {
        (module, index): {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                          if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)}
        for module, tree in trees.items() for index, node in enumerate(tree.body)
    }
    defined = [(module, name, index) for module, tree in trees.items()
               for name, index in _private_definitions(tree)]
    assert len(defined) > 50, defined
    unused = [(module, name) for module, name, index in defined
              if not any(name in names for key, names in reads.items() if key != (module, index))]
    assert unused == []
