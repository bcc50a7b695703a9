"""Shared fixtures: reference polygons and the exhaustive small-box corpus."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from typing import Iterator

import pytest

from latsize import (
    AffineUnimodularMap,
    LatticePolygon,
    apply_map,
    census,
    hull,
    interior_hull,
    lawrence_prism,
    random_polygon,
    random_unimodular_map,
    rectangle,
    standard_triangle,
    upsilon,
)

HEPTAGON_VERTICES = [(8, 0), (6, 1), (2, 4), (0, 6), (0, 8), (3, 7), (5, 6)]


@pytest.fixture(scope="session")
def heptagon() -> LatticePolygon:
    return hull(HEPTAGON_VERTICES)


@pytest.fixture(scope="session")
def box3_census() -> list[LatticePolygon]:
    return census(3)


@pytest.fixture(scope="session")
def random_corpus() -> list[LatticePolygon]:
    return [random_polygon(seed, 5) for seed in range(500)]


def weierstrass(g: int) -> LatticePolygon:
    """The genus-g triangle conv{(0,0), (2g+1,0), (0,2)}."""
    return hull([(0, 0), (2 * g + 1, 0), (0, 2)])


def contains(poly: LatticePolygon, pt: tuple[int, int]) -> bool:
    """Closed containment test through the edge constraints of a two-dimensional polygon."""
    assert poly.is_two_dim
    return all(a * pt[0] + b * pt[1] <= c for a, b, c in poly.edge_constraints)


def in_sigma(d: int, pt: tuple[int, int]) -> bool:
    return pt[0] >= 0 and pt[1] >= 0 and pt[0] + pt[1] <= d


def in_box(a: int, b: int, pt: tuple[int, int]) -> bool:
    return 0 <= pt[0] <= a and 0 <= pt[1] <= b


class AlarmRang(Exception):
    """Raised by alarm when the block runs too long."""


@contextmanager
def alarm(seconds: int) -> Iterator[None]:
    """Raise AlarmRang in the main thread if the block runs longer than seconds.

    AlarmRang is none of the types that cli.run_command turns into an exit
    code (LatsizeError, SyntaxError, ValueError, OSError), so a call that
    hangs cannot read as exit 2; the builtin TimeoutError is an OSError.
    The error is raised again at the with statement: the frame the alarm
    interrupts may have no line number, which pytest cannot report.
    """
    def ring(signum, frame):
        raise AlarmRang

    previous = signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        yield
    except AlarmRang:
        raise AlarmRang(f"the call did not end within {seconds} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fibonacci_shear(n: int) -> AffineUnimodularMap:
    """[[F(n), F(n-1)], [F(n-1), F(n-2)]]: the slowest shear to undo, it maps a polygon to a sliver."""
    return AffineUnimodularMap(fibonacci(n), fibonacci(n - 1), fibonacci(n - 1), fibonacci(n - 2), 0, 0)


def reference_skins(delta: LatticePolygon) -> list[LatticePolygon]:
    """The onion skins of a non-empty delta one peel at a time, without runs."""
    skins = [delta]
    while True:
        inner = interior_hull(skins[-1])
        if inner.is_empty:
            return skins
        skins.append(inner)


def long_faced():
    """The four families up to d = 40, whose long edges give long faces, plain and sheared."""
    for d in range(1, 41):
        for base in (standard_triangle(d), upsilon(d), rectangle(d, d), rectangle(d, 1 + d // 3),
                     lawrence_prism(d, d // 2)):
            yield base
            yield apply_map(AffineUnimodularMap(1, 7, 0, 1, 0, 0), base)
            yield apply_map(random_unimodular_map(d), base)


def run_corpus(box3_census):
    """census(3), one sheared image of each, the four families and random polygons up to k = 1000."""
    yield from box3_census
    for i, delta in enumerate(box3_census):
        yield apply_map(random_unimodular_map(i), delta)
    yield from long_faced()
    for k, seeds in ((5, 200), (20, 100), (80, 40), (300, 8), (1000, 3)):
        for seed in range(seeds):
            yield random_polygon(seed, k)
