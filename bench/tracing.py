"""Spans around the public functions of each latsize module, recorded from outside.

A :class:`Tracer` replaces every binding of the wrapped functions in the loaded
``latsize`` modules (``size``, ``width`` and ``newton`` import several of them
by name, so patching only the defining module would miss those calls). Each
wrapper records label, parent span, start and end in flat arrays that stay in
memory until the run ends; :meth:`Tracer.layer_metrics` turns them into the
per-layer metrics. ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Layer (module of definition) -> the public functions timed in it.
TARGETS = {
    "interior": ("interior_hull",),
    "polygon": (
        "hull",
        "interior_lattice_points",
        "recognize_special",
        "are_equivalent",
        "apply_map",
        "measures",
    ),
    "width": ("lattice_width", "width_along"),
    "size": (
        "lattice_size_sigma",
        "lattice_size_square",
        "minimal_box",
        "fit_into",
        "parallel_edge_exception",
    ),
    "newton": ("parse_laurent", "analyze"),
    "cli": ("run_command",),
}

# Label -> (counter, what one call adds to it, from the call's result).
_RESULT_COUNTERS = {
    "polygon.interior_lattice_points": ("interior.points_scanned", len),
    "polygon.are_equivalent": ("polygon.are_equivalent.matches", lambda r: r is not None),
    "size.parallel_edge_exception": ("size.parallel_edge_exception.hits", lambda r: r is not None),
    "newton.parse_laurent": ("newton.parse_laurent.terms", lambda r: len(r.terms)),
}

_CERTIFICATE_LABELS = ("size.lattice_size_sigma", "size.lattice_size_square")


def _modules():
    return [m for name, m in sys.modules.items() if name == "latsize" or name.startswith("latsize.")]


class Tracer:
    """Span recorder for one traced run; install, run, uninstall, then read."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.span_label = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: Counter = Counter()
        self.size_traces: list = []
        self.paused = False
        self._stack = [-1]
        self._patches: list = []

    def install(self) -> None:
        import latsize.cli  # noqa: F401  (not imported by the package itself)

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        for layer, names in TARGETS.items():
            home = sys.modules[f"latsize.{layer}"]
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for mod in modules:
                    if vars(mod).get(name) is orig:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, orig))

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patches):
            setattr(mod, name, orig)
        self._patches.clear()

    @contextmanager
    def pause(self):
        """Run benchmark code (input generation, checks) without recording it."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _observed(self, label: str, orig):
        """orig plus the counters this label feeds; this is what a span times."""
        counts = self.counts
        if label == "polygon.hull":
            def observed(points):
                pts = list(points)
                counts["polygon.hull.points_in"] += len(pts)
                return orig(pts)
        elif hasattr(orig, "cache_info"):
            def observed(arg):
                before = orig.cache_info().misses
                result = orig(arg)
                counts[label + ".misses"] += orig.cache_info().misses - before
                return result
        elif label in _RESULT_COUNTERS:
            key, amount = _RESULT_COUNTERS[label]

            def observed(*args, **kwargs):
                result = orig(*args, **kwargs)
                counts[key] += amount(result)
                return result
        elif label in _CERTIFICATE_LABELS:
            traces = self.size_traces

            def observed(*args, **kwargs):
                result = orig(*args, **kwargs)
                traces.append(result.trace)
                return result
        else:
            observed = orig
        return observed

    def _wrap(self, label: str, orig):
        idx = len(self.labels)
        self.labels.append(label)
        observed = self._observed(label, orig)
        lab, par, start, end = self.span_label, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return orig(*args, **kwargs)
            span = len(start)
            lab.append(idx)
            par.append(stack[-1])
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                return observed(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        return wrapper

    def span_totals(self) -> dict[str, tuple[int, int, int]]:
        """Label -> (calls, total ns, self ns); self time excludes child spans."""
        n = len(self.labels)
        calls, total, child = [0] * n, [0] * n, [0] * n
        lab, par = self.span_label, self.span_parent
        for i, (s, e) in enumerate(zip(self.span_start, self.span_end)):
            d = e - s
            calls[lab[i]] += 1
            total[lab[i]] += d
            if par[i] >= 0:
                child[lab[par[i]]] += d
        return {
            label: (calls[i], total[i], total[i] - child[i]) for i, label in enumerate(self.labels)
        }

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the recorded spans; call after uninstall."""
        from latsize import size

        spans = self.span_totals()
        out: dict[str, float] = {}

        def calls(label):
            return spans[label][0]

        def self_s(label):
            return spans[label][2] / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        ih = "interior.interior_hull"
        out[ih + ".calls"] = calls(ih)
        out[ih + ".misses"] = c[ih + ".misses"]
        out[ih + ".cache_hit_ratio"] = ratio(calls(ih) - c[ih + ".misses"], calls(ih))
        out[ih + ".self_s"] = self_s(ih)
        out[ih + ".wall_share"] = ratio(spans[ih][1] / 1e9, wall_s)
        out["interior.points_scanned"] = c["interior.points_scanned"]

        out["polygon.hull.calls"] = calls("polygon.hull")
        out["polygon.hull.points_in"] = c["polygon.hull.points_in"]
        out["polygon.hull.self_s"] = self_s("polygon.hull")
        out["polygon.interior_lattice_points.self_s"] = self_s("polygon.interior_lattice_points")
        rs = "polygon.recognize_special"
        out[rs + ".calls"] = calls(rs)
        out[rs + ".cache_hit_ratio"] = ratio(calls(rs) - c[rs + ".misses"], calls(rs))
        out[rs + ".self_s"] = self_s(rs)
        eq = "polygon.are_equivalent"
        out[eq + ".calls"] = calls(eq)
        out[eq + ".match_ratio"] = ratio(c[eq + ".matches"], calls(eq))
        out[eq + ".self_s"] = self_s(eq)
        out["polygon.apply_map.calls"] = calls("polygon.apply_map")
        out["polygon.apply_map.self_s"] = self_s("polygon.apply_map")
        out["polygon.measures.self_s"] = self_s("polygon.measures")

        out["width.lattice_width.calls"] = calls("width.lattice_width")
        out["width.lattice_width.self_s"] = self_s("width.lattice_width")
        out["width.width_along.calls"] = calls("width.width_along")

        for name in ("lattice_size_sigma", "lattice_size_square", "minimal_box"):
            out[f"size.{name}.self_s"] = self_s(f"size.{name}")
        out["size.fit_into.calls"] = calls("size.fit_into")
        out["size.fit_into.self_s"] = self_s("size.fit_into")
        pe = "size.parallel_edge_exception"
        out[pe + ".calls"] = calls(pe)
        out[pe + ".hit_ratio"] = ratio(c[pe + ".hits"], calls(pe))

        rules = Counter({v: 0 for k, v in vars(size).items() if k.startswith("RULE_")})
        fallbacks = two_dim = 0
        for trace in self.size_traces:
            for step in trace:
                rules[step.rule] += 1
                if step.skin.is_two_dim:
                    two_dim += 1
                    fallbacks += step.rule == size.RULE_SEARCH
        for rule, n in sorted(rules.items()):
            out[f"size.rule.{rule}"] = n
        out["size.search_fallbacks"] = fallbacks
        out["size.search_fallback_ratio"] = ratio(fallbacks, two_dim)

        out["newton.parse_laurent.calls"] = calls("newton.parse_laurent")
        out["newton.parse_laurent.terms"] = c["newton.parse_laurent.terms"]
        out["newton.parse_laurent.self_s"] = self_s("newton.parse_laurent")
        out["newton.analyze.self_s"] = self_s("newton.analyze")
        out["cli.run_command.self_s"] = self_s("cli.run_command")
        return out
