"""The latsize benchmark: one seeded workload per run, checked and measured.

    python3 bench/run.py --workload census_sheared --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics named in BENCHMARK.json;
with ``--trace 1`` a traced run reports the per-layer metrics instead. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the run
environment, every metric with its unit, and each failed check with its
input. See bench/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    FIXED_ITEMS,
    REF_NS,
    ROOT,
    SRC,
    TIMED_CAP,
    WORKLOADS,
    child_env,
    reference_ns,
    timed_items,
)

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 15
CHECK_MARGIN_S = 30.0  # time kept for a timed run's checks and set-up
DEADLINE_S = 170.0  # every run ends within 180 s

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def measure_setup() -> tuple[float, float]:
    """Median time from spawning a fresh interpreter until ``import latsize`` returns.

    Returns (scaled, wall). The reference task runs before the first spawn
    and after each; the median wall is scaled by REF_NS over their median, as
    the set-up lasts only a second or two.
    """
    code = "import time, latsize; print(time.monotonic())"
    wall, refs = [], [reference_ns()]
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            stdout=subprocess.PIPE, text=True, check=True, timeout=30,
        ).stdout
        wall.append(float(out.strip().splitlines()[-1]) - t0)
        refs.append(reference_ns())
    return p50(wall) * REF_NS / p50(refs), p50(wall)


def environment(workload: str, seed: int) -> dict:
    def commit():
        # The ceiling keeps git from reporting an enclosing repository's commit.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    sources = hashlib.sha256()
    for path in sorted((SRC / "latsize").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit(),
        "source_sha256": sources.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


def run_worker(spec: dict, deadline: float) -> dict:
    """One phase in a fresh interpreter (empty lru_caches); its JSON result."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise SystemExit("bench: out of time before a worker could start")
    # Its own session, so a timeout also ends the CLI processes it spawned.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "workloads.py"), json.dumps(spec)],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"bench: worker {spec['phase']} ran out of time")
    if proc.returncode != 0:
        raise SystemExit(f"bench: worker {spec['phase']} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def call_ns(res: dict) -> float:
    return sum(map(sum, res["scaled_ns"].values()))


def e2e_metrics(timings_ns: dict, setup_s: float, peak_rss_mb: float) -> dict:
    t = {op: [ns / 1e6 for ns in v] for op, v in timings_ns.items()}
    chain = [sum(parts) for parts in zip(*t.values())]
    calls = [ms for v in t.values() for ms in v]
    return {
        "setup_s": setup_s,
        "polygons_per_s": 1000.0 * len(chain) / sum(chain),
        "chain_p50_ms": p50(chain),
        "chain_p90_ms": p90(chain),
        "width_p50_ms": p50(t["width"]),
        "sigma_p50_ms": p50(t["sigma"]),
        "square_p50_ms": p50(t["square"]),
        "box_p50_ms": p50(t["box"]),
        "call_p50_ms": p50(calls),
        "call_p90_ms": p90(calls),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "latsize" / "__init__.py").is_file():
        print(f"bench: no latsize sources under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed)
    print(json.dumps({"environment": env}))
    base = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        # A fixed set of items traced (for at most half the time), then the
        # same items untraced in a fresh worker: the ratio of their op times,
        # both scaled to reference speed, is the tracing overhead.
        limit = FIXED_ITEMS[args.workload]
        traced = run_worker(
            base | {"phase": "traced", "seconds": args.seconds / 2, "limit": limit}, deadline
        )
        check = run_worker(base | {"phase": "replay", "limit": traced["n"]}, deadline)
        probe = run_worker(base | {"phase": "probe"}, deadline)
        metrics = dict(traced["layers"])
        metrics["cli.startup_ms"] = p50(probe["startup_ns"]) / 1e6
        metrics["bench.trace_overhead_ratio"] = call_ns(traced) / call_ns(check)
        info = {"items": traced["n"], "of": limit, "spans": traced["spans"],
                "fingerprint": traced["fingerprint"]}
        wall = {}
    else:
        setup_s, setup_wall_s = measure_setup()
        limit = timed_items(args.workload, args.seconds)
        cap = min(TIMED_CAP * args.seconds, deadline - time.monotonic() - CHECK_MARGIN_S)
        check = run_worker(base | {"phase": "timed", "seconds": cap, "limit": limit}, deadline)
        if check.get("incomplete"):
            raise SystemExit(f"bench: timed run did {check['n']} of {limit} items within {cap:.0f} s")
        metrics = e2e_metrics(check["scaled_ns"], setup_s, check["peak_rss_mb"])
        wall = e2e_metrics(check["timings_ns"], setup_wall_s, check["peak_rss_mb"])
        refs = check["reference_ns"]
        info = {"items": check["n"], "fingerprint": check["fingerprint"], "warmup_s": check["warmup_s"],
                "reference_ms": {"n": len(refs), "p50": p50(refs) / 1e6, "min": refs[0] / 1e6, "max": refs[-1] / 1e6}}
    failures, failed, attempted = check["failures"], check["failed"], check["attempted"]
    print(json.dumps({"run": info}))
    for f in failures:
        print(json.dumps({"failure": f}))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"bench: measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    zero = sorted(name for name, value in metrics.items() if value == 0)
    if zero and not args.trace:
        raise SystemExit(f"bench: end-to-end metrics read 0: {zero}")
    for name, value in metrics.items():
        raw = f"  (wall {wall[name]:.6g})" if name in wall and wall[name] != value else ""
        print(f"{args.workload:15s} {name:48s} {value:14.6g} {units[name]}{raw}")
    if zero:
        # Counts that this run's inputs never reach; see bench/README.md.
        print(json.dumps({"zero_metrics": zero}))
    print(f"{args.workload:15s} {'failed_frac':48s} {failed / attempted:14.6g} failed/attempted")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
