"""The line search of an earlier release: the reference that width._min_convex is compared against.

_min_convex is kept verbatim as it was when the gallop was written twice,
once leftward from 0 and once rightward from 1, each looking the bracket
value up in known on every step. A test can run it and width._min_convex
on the same line width and compare the argmin, the sequence of points
where f is evaluated and the final known dict, from which
width._gauss_reduce reads f(k - 1) and f(k + 1), the neighbours of its
next pass.
"""

from __future__ import annotations

from typing import Callable


def _min_convex(f: Callable[[int], int], known: dict[int, int]) -> tuple[int, int]:
    """A deterministic integer argmin of a coercive convex function, with its value.

    known maps integers to their values of f and must hold f(0), which
    the caller knows already. A galloping search from 0 brackets the
    argmin and a bisection finds the smallest k with f(k) <= f(k + 1).
    The two share points, so every value is looked up in known first, and
    f is called only for a k not in it; that value is added to known, so
    the caller finds there every value of the pass. known always ends up
    with f(1), and with f(-1) whenever f(0) <= f(1).
    """
    def at(k: int) -> int:
        v = known.get(k)
        if v is None:
            v = known[k] = f(k)
        return v

    if at(0) <= at(1):
        lo = 0
        step = 1
        while True:
            nxt = lo - step
            if at(nxt) >= at(nxt + step):
                break
            lo = nxt
            step *= 2
        lo, hi = lo - step, 0
    else:
        hi = 1
        step = 1
        while True:
            nxt = hi + step
            if at(nxt) >= at(nxt - step):
                break
            hi = nxt
            step *= 2
        lo, hi = 0, hi + step
    # smallest k with f(k) <= f(k + 1); predicate is monotone by convexity
    while lo < hi:
        mid = (lo + hi) // 2
        if at(mid) <= at(mid + 1):
            hi = mid
        else:
            lo = mid + 1
    return lo, at(lo)
