"""The disc search: the reference that the oracle over the width body is compared against.

fit_into lists the lattice points of the width body {u : width(u) <= b}
row by row in the reduced frame. Its reference lists every primitive u of
the Euclidean disc |u| <= b / wE instead, wE the Euclidean width, and keeps
those of width at most b: a slower route to the same candidate set, with
the same sort and the same pairing, so the same witnesses. disc_oracle_size
scans sizes upward from the width, and disc_box_pareto searches the grid of
boxes with b up to the square size plus two.
"""

from __future__ import annotations

import math
from fractions import Fraction

from latsize import AffineUnimodularMap, LatticePolygon, apply_map, fit_into, lattice_width
from latsize.width import _checked_basis


def _euclidean_width_sq(delta: LatticePolygon) -> Fraction:
    """Squared minimal Euclidean width, exactly.

    The minimal width of a convex polygon is attained over an edge, so it is
    the least height over all edge supporting lines (rotating calipers with
    rational squared distances).
    """
    best = None
    for a, b, c in delta.edge_constraints:
        h = c - min(a * x + b * y for x, y in delta.vertices)
        w2 = Fraction(h * h, a * a + b * b)
        if best is None or w2 < best:
            best = w2
    return best


def _primitive_directions(bound_sq: int) -> list[tuple[int, int]]:
    """Primitive vectors with |u|^2 <= bound_sq, one per +-pair.

    Normalized to u[0] > 0 or (u[0] == 0 and u[1] > 0), sorted by
    (|u|^2, u[0], u[1]).
    """
    if bound_sq < 1:
        return []
    dirs = [(0, 1)]
    for x in range(1, math.isqrt(bound_sq) + 1):
        max_y = math.isqrt(bound_sq - x * x)
        for y in range(-max_y, max_y + 1):
            if math.gcd(x, y) == 1:
                dirs.append((x, y))
    dirs.sort(key=lambda u: (u[0] * u[0] + u[1] * u[1], u[0], u[1]))
    return dirs


def disc_fit_into(delta: LatticePolygon, shape: str, size):
    """fit_into with the candidate rows taken from the disc |u|^2 <= b^2 / wE^2 of the reduced frame.

    Any row u of width at most b has |u| * wE <= width(u) <= b, so the disc
    holds every candidate. Points and segments need no candidates and go to
    fit_into itself.
    """
    a_cap, b_cap = size if shape == "box" else (size, size)
    if not delta.is_two_dim or shape == "sigma" and delta.area2 > a_cap * a_cap \
            or shape != "sigma" and delta.area2 > 2 * a_cap * b_cap:
        return fit_into(delta, shape, size)
    short, long = _checked_basis(delta)[:2]
    psi = AffineUnimodularMap(long[0], long[1], short[0], short[1], 0, 0)
    red = apply_map(psi, delta)
    we2 = _euclidean_width_sq(red)
    verts = red.vertices
    cands = []
    for u in _primitive_directions((b_cap * b_cap * we2.denominator) // we2.numerator):
        dots = tuple(u[0] * x + u[1] * y for x, y in verts)
        w = max(dots) - min(dots)
        if w <= b_cap:
            cands.append((u, dots, w))
            cands.append(((-u[0], -u[1]), tuple(-t for t in dots), w))
    cands.sort(key=lambda c: (c[0][0] * c[0][0] + c[0][1] * c[0][1], c[0][0], c[0][1]))
    pool1 = cands if shape == "sigma" else [c for c in cands if c[2] <= a_cap]
    for u1, dots1, _ in pool1:
        for u2, dots2, _ in cands:
            if u1[0] * u2[1] - u1[1] * u2[0] not in (1, -1):
                continue
            if shape == "sigma" and max(s + t for s, t in zip(dots1, dots2)) - min(dots1) - min(dots2) > a_cap:
                continue
            return AffineUnimodularMap(u1[0], u1[1], u2[0], u2[1], -min(dots1), -min(dots2)).compose(psi)
    return None


def disc_oracle_size(delta: LatticePolygon, shape: str) -> int:
    """The least size that disc_fit_into fills, scanned upward from the lattice width."""
    d = max(lattice_width(delta).width, 0)
    while disc_fit_into(delta, shape, d) is None:
        d += 1
    return d


def disc_box_pareto(delta: LatticePolygon) -> tuple[tuple[int, int], ...]:
    """The minimal boxes (a, b), a <= b, on the grid b <= square size + 2, by disc_fit_into."""
    limit = disc_oracle_size(delta, "square") + 2
    front: list[tuple[int, int]] = []
    for a in range(limit + 1):
        if front and front[-1][1] <= a:
            break
        b = next((b for b in range(a, limit + 1) if disc_fit_into(delta, "box", (a, b)) is not None), None)
        if b is not None and (not front or b < front[-1][1]):
            front.append((a, b))
    return tuple(front)
