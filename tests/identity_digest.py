"""Print one sha256 per layer of what latsize computes on fixed corpora.

Two source trees that print the same digests give the same results on
these corpora, layer by layer, so a change meant to keep behaviour can
quote the digests before and after it. The layers:

- values: the lattice width with its directions, the Sigma and square
  sizes with their witnesses, and the minimal box with its witness;
- traces: the width, Sigma and square recursions, step by step;
- skins: the runs of onion_skins;
- hits: the parallel-edge hit of every pair of consecutive skins and of
  every run's first skin against its second;
- cli: the exit code and stdout of run_command for peel,
  sigma --trace --json, width --trace --verify and analyze --json (a
  polynomial whose exponents are the polygon's vertices), on part of the
  corpus.

The corpus is census(3), one random_unimodular_map image of each,
random_polygon(seed, k) for k in 5, 40, 160 and 1000 and seed < 30, and the
families d * Sigma and Upsilon_d, rectangles and Lawrence prisms.

Run it from the root of the checkout, with the source directory to import
latsize from (default src), which may be another checkout's:

    python tests/identity_digest.py [source directory]

It imports only latsize, so it runs against an older tree too: where
parallel_edge_exception still takes a threshold, it passes 3, the one the
recursion uses. It is a script, not a test: pytest collects only files
named test_*.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import sys
from pathlib import Path


def corpus(latsize) -> list:
    polygons = list(latsize.census(3))
    polygons += [latsize.apply_map(latsize.random_unimodular_map(i), p) for i, p in enumerate(polygons)]
    polygons += [latsize.random_polygon(seed, k) for k in (5, 40, 160, 1000) for seed in range(30)]
    polygons += [family(d) for family in (latsize.standard_triangle, latsize.upsilon) for d in range(1, 30)]
    polygons += [latsize.rectangle(a, b) for a in range(1, 12) for b in range(a, 12)]
    polygons += [latsize.lawrence_prism(a, b) for a in range(1, 12) for b in range(0, 12)]
    return polygons


def _argvs(delta) -> list[list[str]]:
    vertices = "--vertices=" + ";".join(f"{x},{y}" for x, y in delta.vertices)
    poly = " + ".join(f"x^{x}*y^{y}" for x, y in delta.vertices)
    return [["peel", vertices], ["sigma", vertices, "--trace", "--json"],
            ["width", vertices, "--trace", "--verify"], ["analyze", "--poly", poly, "--json"]]


def digests(latsize) -> dict[str, str]:
    from latsize.cli import run_command
    from latsize.interior import _moved
    from latsize.size import parallel_edge_exception

    takes_threshold = len(inspect.signature(parallel_edge_exception).parameters) == 3
    layers = {name: hashlib.sha256() for name in ("values", "traces", "skins", "hits", "cli")}

    def add(layer: str, record: object) -> None:
        layers[layer].update(repr(record).encode() + b"\n")

    polygons = corpus(latsize)
    for delta in polygons:
        add("values", (delta, latsize.lattice_width(delta), latsize.lattice_size_sigma(delta),
                       latsize.lattice_size_square(delta), latsize.minimal_box(delta)))
        add("traces", (latsize.lattice_width_recursive(delta), latsize.lattice_size_sigma(delta).trace,
                       latsize.lattice_size_square(delta).trace))
        chain = latsize.onion_skins(delta)
        add("skins", chain.runs)
        skins = chain.skins
        pairs = list(zip(skins, skins[1:]))
        pairs += [(skin, _moved(skin, shift, 1)) for skin, shift, count in chain.runs if count > 1]
        for outer, inner in pairs:
            add("hits", parallel_edge_exception(outer, inner, *(3,) * takes_threshold))
    # every 7th polygon, so the oracle-free CLI commands stay a few seconds
    with contextlib.redirect_stderr(io.StringIO()):
        for delta in polygons[::7]:
            for argv in _argvs(delta):
                add("cli", (argv, run_command(argv)))
    return {name: digest.hexdigest() for name, digest in layers.items()}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(argv[1] if len(argv) > 1 else "src").resolve()))
    import latsize

    for name, digest in digests(latsize).items():
        print(f"{name:8} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
