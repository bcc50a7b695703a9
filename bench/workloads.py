"""Seeded inputs, the timed loops and the output checks of the three workloads.

Run as a script, this file is the worker: ``python3 bench/workloads.py SPEC``
runs one phase (see :func:`run_phase`) in a fresh interpreter, so the
``lru_cache``s of latsize start empty, and prints the phase's result as one
JSON line. All workloads are closed loops with one client: the next call
starts only after the previous one returned.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from functools import cache
from itertools import count, islice
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("census_sheared", "random_peel", "curves_cli")
OPS = ("width", "sigma", "square", "box")
CLI_COMMANDS = ("width", "sigma", "square", "box", "analyze")
PEEL_TIERS = (40, 80, 160)
PEEL_POOL_BITS = 10  # each tier draws from a pool of 1024 polygons, see peel_items
PEEL_POOL = 1 << PEEL_POOL_BITS
CURVE_BOX = 60
FINGERPRINT_ITEMS = 200
WARMUP_ITEMS = 20
PROBE_ITEMS = 8
# A fixed count of items per workload, so that what is measured over them
# repeats for a seed and compares across commits whatever the machine's speed:
# a traced run processes this many (about 5 s each, traced), and an in-process
# timed run reads its peak RSS after this many.
FIXED_ITEMS = {"census_sheared": 3355, "random_peel": 60, "curves_cli": 200}
# Items a timed run takes per second of --seconds, about what the machine this
# was written on gets through with checks: the timed items are a function of
# the seed and --seconds only, never of how fast the machine is at the time.
ITEMS_PER_S = {"census_sheared": 600, "random_peel": 6, "curves_cli": 1.3}
TIMED_CAP = 4  # a timed run stops, incomplete, after this many times --seconds
WARMUP_POLY = "y^2 + x^3*y + x^5 + 7"  # no workload generates this support
REF_NS = 1_000_000  # nominal duration of one reference_work() call
REF_EVERY_NS = 20_000_000  # least time between two reference measurements


def ensure_latsize():
    """Import latsize from this checkout's src/ only, never from site-packages."""
    if not (SRC / "latsize" / "__init__.py").is_file():
        raise SystemExit(f"bench: no latsize sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import latsize

    if Path(latsize.__file__).resolve().parent != SRC / "latsize":
        raise SystemExit(f"bench: imported latsize from {latsize.__file__}, not from {SRC}")
    return latsize


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def derive(seed: int, *parts) -> int:
    """A 64-bit sub-seed; the same seed and parts give the same value everywhere."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _bitrev(j: int, bits: int) -> int:
    return int(format(j, f"0{bits}b")[::-1], 2)


# ---------------------------------------------------------------- inputs


@cache
def _census3():
    from latsize import census

    return tuple(census(3))


def census_bases(seed: int) -> list:
    """census(3) plus 500 seeded random polygons in [0,5]^2."""
    from latsize import random_polygon

    return list(_census3()) + [random_polygon(derive(seed, "r5", i), 5) for i in range(500)]


def census_items(seed: int):
    """Each polygon of census_bases under a fresh seeded shear.

    Every pass visits the base corpus in a new seeded order, and every visit
    draws a new unimodular map, so the caches help only within one item, as
    they do for a user.
    """
    from latsize import apply_map, random_unimodular_map

    base = census_bases(seed)
    order = list(range(len(base)))
    rng = random.Random(derive(seed, "order"))
    for rnd in count():
        rng.shuffle(order)
        for j in order:
            phi = random_unimodular_map(derive(seed, "map", rnd, j))
            yield {"base": j, "polygon": apply_map(phi, base[j])}


# The 8 symmetries of the square lattice, as (m11, m12, m21, m22).
_SQUARE_SYMMETRIES = tuple(
    m for a in (1, -1) for b in (1, -1) for m in ((a, 0, 0, b), (0, a, b, 0))
)


@cache
def _peel_pool(k: int) -> tuple:
    """PEEL_POOL random_polygon(s, k) for fixed s, sorted by area."""
    from latsize import random_polygon

    pool = [random_polygon(derive(0, "peel", k, n), k) for n in range(PEEL_POOL)]
    return tuple(sorted(pool, key=lambda p: (p.area2, p.vertices)))


def peel_items(seed: int):
    """random_polygon(s, k) with k cycling through PEEL_TIERS.

    The i-th polygon of a tier is taken from a fixed pool sorted by area, in
    bit-reversed order, so any prefix of the stream samples every area
    stratum evenly, and is moved by a seeded symmetry of the square lattice
    and a seeded translation. The seed thus changes every input, but not the
    work it takes: with a seeded pool instead, the chain p50 of a 30 s run
    moved by about 0.12 of itself from one seed to the next by the draw of
    shapes alone.
    """
    from latsize import AffineUnimodularMap, apply_map

    rng = random.Random(derive(seed, "peel"))
    for i in count():
        k = PEEL_TIERS[i % len(PEEL_TIERS)]
        j = i // len(PEEL_TIERS)
        base = _peel_pool(k)[_bitrev(j % PEEL_POOL, PEEL_POOL_BITS)]
        phi = AffineUnimodularMap(*rng.choice(_SQUARE_SYMMETRIES), rng.randint(-999, 999), rng.randint(-999, 999))
        yield {"k": k, "polygon": apply_map(phi, base)}


def _collinear(pts) -> bool:
    (x0, y0), (x1, y1) = pts[0], pts[1]
    return all((x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) == 0 for x, y in pts[2:])


def _poly_text(terms) -> str:
    out = []
    for n, (c, (i, j)) in enumerate(terms):
        mono = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e != 0
        )
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        sign = "-" if c < 0 else "+"
        out.append((sign if c < 0 else "") + body if n == 0 else f" {sign} {body}")
    return "".join(out)


_MALFORMED = ("x^2 + + y", "3*x^ + y^2", "x^2*y^3 )", "2/0*x + y^2", "x^4 - x^4", "x**2 + y", "")


def curve_items(seed: int):
    """Laurent polynomials for the CLI: hyperelliptic, sparse and sheared sparse.

    Every tenth item is malformed (documented exit 2) or has a collinear
    support (exit 3 from analyze; the size commands accept a segment).
    """
    from latsize import random_unimodular_map

    for i in count():
        rng = random.Random(derive(seed, "curve", i))
        if i % 10 == 9:
            if (i // 10) % 2 == 0:
                yield {"family": "malformed", "poly": rng.choice(_MALFORMED)}
                continue
            d = rng.choice([(1, 1), (1, 2), (2, 1), (1, 3), (3, -1)])
            b = (rng.randint(0, 9), rng.randint(0, 9))
            ts = rng.sample(range(12), 3)
            terms = [(rng.choice([-2, -1, 1, 3]), (b[0] + t * d[0], b[1] + t * d[1])) for t in ts]
            yield {"family": "collinear", "poly": _poly_text(terms)}
            continue
        family = ("hyperelliptic", "sparse", "sheared")[i % 3]
        if family == "hyperelliptic":
            g = rng.randint(1, 30)
            yield {"family": family, "poly": f"y^2 + x^{2 * g + 1} + 1"}
            continue
        while True:
            pts = list({(rng.randint(0, CURVE_BOX), rng.randint(0, CURVE_BOX)) for _ in range(rng.randint(3, 7))})
            if len(pts) >= 3 and not _collinear(pts):
                break
        if family == "sheared":
            phi = random_unimodular_map(derive(seed, "curve-map", i))
            pts = [phi.apply(p) for p in pts]
        pts.sort()
        terms = [(rng.choice([-9, -5, -2, -1, 1, 2, 3, 7]), p) for p in pts]
        yield {"family": family, "poly": _poly_text(terms)}


def items(workload: str, seed: int):
    return {"census_sheared": census_items, "random_peel": peel_items, "curves_cli": curve_items}[workload](seed)


def _describe(item) -> dict:
    if "poly" in item:
        return {"family": item["family"], "poly": item["poly"]}
    out = {"polygon": [list(v) for v in item["polygon"].vertices]}
    return out | {k: item[k] for k in ("base", "k") if k in item}


def fingerprint(workload: str, seed: int) -> str:
    """sha256 over the first FINGERPRINT_ITEMS generated inputs."""
    h = hashlib.sha256()
    for item in islice(items(workload, seed), FINGERPRINT_ITEMS):
        h.update(json.dumps(_describe(item), sort_keys=True).encode())
    return h.hexdigest()[:16]


def warmup_items(seed: int):
    """Polygons far outside every corpus (translated by 10^4), for the warm-up."""
    from latsize import random_polygon

    for i in range(WARMUP_ITEMS):
        yield {"polygon": random_polygon(derive(seed, "warm", i), 12).translate((10_000, 10_000))}


def cli_argv(command: str, poly: str) -> list[str]:
    argv = [command, "--poly", poly, "--json"]
    return argv + ["--witness"] if command in ("sigma", "square", "box") else argv


def timed_items(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ITEMS_PER_S[workload]))


# ---------------------------------------------------------------- speed


_REF_POINTS = [((37 * i) % 101 - 50, (61 * i) % 103 - 51) for i in range(100)]


def reference_work() -> int:
    """A fixed pure-Python task that shares no code with latsize.

    Convex hulls, gcds and dict lookups on small integer tuples, then the
    lattice points of a triangle sorted, hulled and looked up in a set: it
    allocates, branches and scans memory the way latsize does. It takes about
    REF_NS on the machine this was written on; its time elsewhere measures
    that machine's speed at that moment.
    """
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half_hull(seq):
        part: list = []
        for p in seq:
            while len(part) >= 2 and cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        return part

    acc = 0
    for s in range(2):
        pts = sorted({(x + s, y - s) for x, y in _REF_POINTS})
        chain = half_hull(pts)[:-1] + half_hull(pts[::-1])[:-1]
        acc += sum(gcd(a[0] - b[0], a[1] - b[1]) for a, b in zip(chain, chain[1:] + chain[:1]))
        index = {p: i for i, p in enumerate(pts)}
        acc += sum(index.get((x + 1, y), 0) for x, y in pts)
    n = 32
    pts = sorted(((x, y) for x in range(n) for y in range(n - x)), key=lambda p: (p[1], p[0]))
    grid = set(pts)
    return acc + len(half_hull(pts)) + sum((x + 1, y) in grid for x, y in pts)


def reference_ns() -> int:
    # No collection inside the reference: its cost depends on the program's heap.
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        reference_work()
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


class SpeedGauge:
    """Scales measured times to the speed at which reference_work takes REF_NS.

    The machine's speed drifts with the load of other tenants, by up to two
    times within a minute, and the program's times drift with it. So the
    reference task runs between the timed items, at least REF_EVERY_NS apart,
    and every time measured between two of its runs is multiplied by REF_NS
    over their mean. Call :meth:`add` for each timed call and :meth:`between`
    after each item, outside the timed region, then :meth:`scaled`.
    """

    def __init__(self) -> None:
        self.refs = [reference_ns()]
        self.batches: list[list] = [[]]
        self._since = time.perf_counter_ns()

    def add(self, op: str, ns: int) -> None:
        self.batches[-1].append((op, ns))

    def between(self) -> None:
        if time.perf_counter_ns() - self._since >= REF_EVERY_NS:
            self.refs.append(reference_ns())
            self.batches.append([])
            self._since = time.perf_counter_ns()

    def scaled(self, labels) -> dict:
        """Label -> the times added under it, in order, each scaled to reference speed."""
        if self.batches[-1]:
            self.refs.append(reference_ns())
        out: dict = {op: [] for op in labels}
        for i, batch in enumerate(self.batches):
            for op, ns in batch:
                out[op].append(ns * 2 * REF_NS / (self.refs[i] + self.refs[i + 1]))
        return out


# ---------------------------------------------------------------- checks


def _inside(phi, polygon, shape, size) -> bool:
    for v in polygon.vertices:
        x, y = phi.apply(v)
        if x < 0 or y < 0:
            return False
        if shape == "sigma" and x + y > size:
            return False
        if shape == "square" and max(x, y) > size:
            return False
        if shape == "box" and (x > size[0] or y > size[1]):
            return False
    return True


def check_chain(polygon, res: dict) -> dict[str, str]:
    """Failed checks of one polygon's four results, keyed by the op they blame."""
    from latsize import fit_into

    bad = dict(res["errors"])
    w, sig, sq, box = (res.get(op) for op in OPS)
    if w is not None and sig is not None and sq is not None:
        if not (w.width <= sq.value <= sig.value <= 2 * sq.value):
            bad["width"] = f"chain width {w.width} <= square {sq.value} <= sigma {sig.value} <= 2*square fails"
    for op, cert in (("sigma", sig), ("square", sq)):
        if cert is None:
            continue
        if not _inside(cert.witness, polygon, op, cert.value):
            bad[op] = f"witness image leaves {cert.value}*{op}"
        elif cert.value >= 1 and fit_into(polygon, op, cert.value - 1) is not None:
            bad[op] = f"fit_into({op}, {cert.value - 1}) is not None"
    if box is not None:
        if not _inside(box.witness, polygon, "box", (box.a, box.b)):
            bad["box"] = f"witness image leaves [0,{box.a}]x[0,{box.b}]"
        elif w is not None and sq is not None and (box.a, box.b) != (w.width, sq.value):
            bad["box"] = f"minimal_box {(box.a, box.b)} != (width, square) {(w.width, sq.value)}"
    return bad


def values(res: dict) -> dict:
    out = {}
    if res.get("width") is not None:
        out["width"] = res["width"].width
    for op in ("sigma", "square"):
        if res.get(op) is not None:
            out[op] = res[op].value
    if res.get("box") is not None:
        out["box"] = [res["box"].a, res["box"].b]
    return out


def run_chain(polygon, timings=None) -> dict:
    """The four public operations in order; raises nothing, failures are absent keys."""
    # Looked up at each call, so that a traced run calls them through its wrappers.
    from latsize import lattice_size_sigma, lattice_size_square, lattice_width, minimal_box

    fns = (lattice_width, lattice_size_sigma, lattice_size_square, minimal_box)
    res, errors = {}, {}
    clock = time.perf_counter_ns
    for op, fn in zip(OPS, fns):
        t0 = clock()
        try:
            res[op] = fn(polygon)
        except Exception as exc:  # a failed op is counted, not fatal
            errors[op] = f"{type(exc).__name__}: {exc}"
        if timings is not None:
            timings[op].append(clock() - t0)
    res["errors"] = errors
    return res


def expected_exit(family: str, command: str) -> int:
    if family == "malformed":
        return 2
    if family == "collinear" and command == "analyze":
        return 3
    return 0


def check_cli(family: str, poly: str, command: str, code: int, stdout: str) -> str | None:
    """None if the CLI's exit code is the documented one and its JSON equals the API's."""
    from latsize import (
        analyze,
        lattice_size_sigma,
        lattice_size_square,
        lattice_width,
        minimal_box,
        newton_polygon,
        parse_laurent,
    )

    want = expected_exit(family, command)
    if code != want:
        return f"exit {code}, documented {want}"
    if code != 0:
        return None
    doc = json.loads(stdout)
    if command == "analyze":
        a = analyze(parse_laurent(poly))
        got = (doc["genus"], doc["gonality"], doc["s2_bound"], doc["s11_bound"])
        exp = (a.genus_bound, a.gonality, a.s2_bound, list(a.s11_bound))
        return None if got == exp else f"analyze {got} != in-process {exp}"
    polygon = newton_polygon(parse_laurent(poly))
    if command == "width":
        exp = lattice_width(polygon).width
    elif command == "box":
        box = minimal_box(polygon)
        exp = [box.a, box.b]
    else:
        exp = (lattice_size_sigma if command == "sigma" else lattice_size_square)(polygon).value
    if doc["value"] != exp:
        return f"value {doc['value']} != in-process {exp}"
    if "witness" in doc:
        from latsize import AffineUnimodularMap

        (m11, m12), (m21, m22) = doc["witness"]["matrix"]
        phi = AffineUnimodularMap(m11, m12, m21, m22, *doc["witness"]["translation"])
        if not _inside(phi, polygon, command, exp):
            return "witness image leaves the target"
    return None


# ---------------------------------------------------------------- phases


def spawn_cli(argv: list[str]) -> tuple[int, str, int]:
    """Run one fresh CLI process; (exit code, stdout, wall ns from spawn to exit)."""
    t0 = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, "-m", "latsize.cli", *argv],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout, time.perf_counter_ns() - t0


def _run_command_quiet(argv):
    import io
    from contextlib import redirect_stderr

    from latsize.cli import run_command

    with redirect_stderr(io.StringIO()):
        return run_command(argv)


def run_phase(workload: str, seed: int, phase: str, seconds: float = 0.0, limit: int = 0) -> dict:
    """Run one phase of a workload and return its raw measurements.

    Every timed call is also recorded scaled by a SpeedGauge. ``timed``:
    untraced, the first ``limit`` items; it stops at ``seconds`` and marks
    the result ``incomplete`` if they are not done by then; curves_cli
    spawns a CLI process per call. ``traced``: the first ``limit`` items (at
    most ``seconds``) with a Tracer installed; curves_cli calls
    ``run_command`` in process. ``replay``: the same items untraced, for
    the tracing overhead. ``probe``:
    CLI start-up cost, spawn wall minus in-process wall for the same argv.
    """
    ensure_latsize()
    from tracing import Tracer

    if phase == "probe":
        return _probe(seed)
    out: dict = {}

    stream = items(workload, seed)
    tracer = Tracer() if phase == "traced" else None
    quiet = tracer.pause if tracer else nullcontext
    spawn = workload == "curves_cli" and phase == "timed"

    t0 = time.perf_counter()
    if workload != "curves_cli":
        for item in warmup_items(seed):
            run_chain(item["polygon"])
    elif spawn:
        spawn_cli(cli_argv("analyze", WARMUP_POLY))
    else:
        _run_command_quiet(cli_argv("analyze", WARMUP_POLY))
    out["warmup_s"] = time.perf_counter() - t0

    labels = CLI_COMMANDS if workload == "curves_cli" else OPS
    timings = {op: [] for op in labels}
    gauge = SpeedGauge()
    checked = tracer is None
    failures: list[dict] = []
    kept = []  # what the checks after the loop need, per item
    n = 0
    rss_kb = 0
    gc.collect()
    if tracer:
        tracer.install()
    try:
        deadline = time.perf_counter() + seconds if seconds else float("inf")
        while not (limit and n >= limit):
            if time.perf_counter() >= deadline:
                out["incomplete"] = True
                break
            with quiet():
                item = next(stream)
            n += 1
            if workload == "curves_cli":
                results = {}
                for cmd in CLI_COMMANDS:
                    argv = cli_argv(cmd, item["poly"])
                    if spawn:
                        results[cmd] = spawn_cli(argv)
                    else:
                        t1 = time.perf_counter_ns()
                        r = _run_command_quiet(argv)
                        results[cmd] = (r.exit_code, r.stdout, time.perf_counter_ns() - t1)
                    timings[cmd].append(results[cmd][2])
                    gauge.add(cmd, results[cmd][2])
                    gauge.between()
                if checked:
                    kept.append((n, item, results))
                continue
            res = run_chain(item["polygon"], timings)
            for op in OPS:
                gauge.add(op, timings[op][-1])
            gauge.between()
            if checked:
                # Checked here, untimed, so that no certificate outlives its
                # item: retained results would grow the heap the timed calls
                # run in.
                for op, msg in sorted(check_chain(item["polygon"], res).items()):
                    failures.append({"item": n, "input": _describe(item), "op": op, "error": msg})
                if "base" in item:
                    kept.append((n, item["base"], values(res)))
            if n == FIXED_ITEMS[workload]:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        probe_s = 0.0
        if tracer and workload != "curves_cli":
            # Exercise the newton and cli layers, so that every layer is
            # measured on every workload. Hyperelliptic curves only: their
            # compute is small, so this adds next to nothing elsewhere.
            t0 = time.perf_counter()
            curves = (c for c in curve_items(seed) if c["family"] == "hyperelliptic")
            for item in islice(curves, PROBE_ITEMS):
                _run_command_quiet(cli_argv("analyze", item["poly"]))
            probe_s = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    if spawn:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # the largest child
    elif not rss_kb:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = rss_kb / 1024.0
    out["n"] = n
    out["timings_ns"] = timings
    out["scaled_ns"] = gauge.scaled(labels)
    out["reference_ns"] = sorted(gauge.refs)
    out["fingerprint"] = fingerprint(workload, seed)
    if tracer:
        out["spans"] = len(tracer.span_start)
        out["layers"] = tracer.layer_metrics(sum(map(sum, timings.values())) / 1e9 + probe_s)
        return out

    if workload == "curves_cli":
        for idx, item, results in kept:
            for cmd, (code, stdout, _) in results.items():
                try:
                    err = check_cli(item["family"], item["poly"], cmd, code, stdout)
                except Exception as exc:  # a malformed answer is a failure, not a crash
                    err = f"check raised {type(exc).__name__}: {exc}"
                if err:
                    failures.append({"item": idx, "input": _describe(item), "op": cmd, "error": err})
    elif kept:
        # Unsheared values, computed after the loop so they share no cache
        # entries with the timed calls.
        bases = census_bases(seed)
        expected: dict = {}
        for idx, j, got in kept:
            if j not in expected:
                expected[j] = values(run_chain(bases[j]))
            for op, value in got.items():
                if value != expected[j].get(op):
                    item = next(islice(items(workload, seed), idx - 1, None))
                    msg = f"{op} {value} differs from the unsheared polygon's {expected[j].get(op)}"
                    failures.append({"item": idx, "input": _describe(item), "op": op, "error": msg})
    out["attempted"] = n * len(labels)
    out["failures"] = failures
    out["failed"] = len({(f["item"], f["op"]) for f in failures})
    return out


def _probe(seed: int) -> dict:
    """Spawn wall minus in-process run_command wall, per argv of the first curves."""
    diffs = []
    for item in islice(curve_items(seed), PROBE_ITEMS):
        argv = cli_argv("analyze", item["poly"])
        _, _, spawn_ns = spawn_cli(argv)
        t0 = time.perf_counter_ns()
        _run_command_quiet(argv)
        diffs.append(spawn_ns - (time.perf_counter_ns() - t0))
    diffs.sort()
    return {"startup_ns": diffs}


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    print(json.dumps(run_phase(**spec)))
