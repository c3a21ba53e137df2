"""Benchmark for gup: end-to-end and per-layer metrics of three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

Each workload runs in its own fresh interpreter with PYTHONPATH=src (gup
need not be installed).  With --trace 0 the last stdout line is a JSON
object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a separate traced run.  Run records and span files
go to perfbench/_runs/.  See perfbench/README.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("analysis", "pendulum", "quantum")
SETUP_SAMPLES = 5
TRACE_OPS = 100
TRACE_PASS_CAP_S = 35  # three passes plus probes must fit the 180 s a run may take
CHILD_TIMEOUT_S = 170
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gup, gup.cli; "
    "print(repr(time.perf_counter() - t))"
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# metric -> unit.  "<span>.<key>" names read span totals of the traced
# pass; the rest are computed in per_layer().
PER_LAYER = {
    "import.gup_s": "s",
    "import.numpy_s": "s",
    "import.scipy_stats_s": "s",
    "import.scipy_integrate_s": "s",
    "import.scipy_special_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.load_config.self_s": "s",
    "cli.load_dataset.self_s": "s",
    "cli.load_dataset.rows": "count",
    "evfit.odr_fit.calls": "count",
    "evfit.odr_fit.self_s": "s",
    "evfit.wls_fit.self_s": "s",
    "evfit.confidence_interval.self_s": "s",
    "bounds.load_scenarios.self_s": "s",
    "bounds.ratio_bound_from_fit.self_s": "s",
    "bounds.resolve_scenario.self_s": "s",
    "bounds.exclusion_boundary.calls": "count",
    "bounds.exclusion_boundary.self_s": "s",
    "bounds.exclusion_boundary.points": "count",
    "svgplot.line_chart.calls": "count",
    "svgplot.line_chart.self_s": "s",
    "svgplot.line_chart.bytes": "bytes",
    "dynamics.period_first_order.self_s": "s",
    "dynamics.period_exact_quadrature.self_s": "s",
    "dynamics.period_beta_linearized.self_s": "s",
    "dynamics.trajectory_period.calls": "count",
    "dynamics.trajectory_period.self_s": "s",
    "dynamics.trajectory_period.periods_integrated": "periods",
    "dynamics.integrate_oscillator_trajectory.self_s": "s",
    "scipy.solve_ivp.calls": "count",
    "scipy.solve_ivp.self_s": "s",
    "scipy.solve_ivp.nfev": "count",
    "scipy.quad.calls": "count",
    "scipy.quad.self_s": "s",
    "scipy.quad.neval": "count",
    "oscillator.choose_dimension.self_s": "s",
    "oscillator.gazeau_klauder_state.self_s": "s",
    "oscillator.build_truncated_operators.calls": "count",
    "oscillator.build_truncated_operators.self_s": "s",
    "oscillator.build_truncated_operators.levels": "count",
    "oscillator.build_truncated_operators.self_s_1t": "s",
    "oscillator.evolve_gk.self_s": "s",
    "oscillator.matrix_expectation.self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
    "checks.known_defects_failing": "count",
}

# packages behind the import.* metrics; each sums the -X importtime self
# times of the package's own modules (scipy loads subpackages lazily, so
# they get no cumulative line of their own)
IMPORT_PACKAGES = {
    "import.gup_s": "gup",
    "import.numpy_s": "numpy",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_special_s": "scipy.special",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: int):
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if samples * (1.0 - q / 100.0) >= 10.0 - 1e-9:
            return q
    return None


def cycle_throughput(latencies, cycle: int) -> float:
    """Median over whole deck cycles of operations per busy second.

    A closed loop with one client is busy the whole time, so this is the
    completion rate; the median keeps a transient slowdown of the shared
    machine in one cycle from moving the run's figure.
    """
    cycles = [latencies[k:k + cycle] for k in range(0, len(latencies) - cycle + 1, cycle)]
    if not cycles:  # the wall-time cap cut the first cycle short
        return len(latencies) / sum(latencies)
    return statistics.median(len(c) / sum(c) for c in cycles)


def child_env(root: Path, **overrides) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the program must see only the benchmark's generated inputs
    env.pop("GUP_CONFIG", None)
    env.update(overrides)
    return env


def run_child(cmd, env, root: Path) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        raise BenchError(f"timed out: {' '.join(cmd[:4])}") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:4])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def setup_samples(root: Path, env: dict, count: int) -> list:
    return [float(run_child([sys.executable, "-c", IMPORT_PROBE], env, root).stdout)
            for _ in range(count)]


def parse_importtime(stderr: str) -> dict:
    """Seconds of module-level code per package in IMPORT_PACKAGES."""
    out = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        for metric, package in IMPORT_PACKAGES.items():
            if name == package or name.startswith(package + "."):
                out[metric] += int(self_us) * 1e-6
    return out


def import_metrics(root: Path, env: dict, count: int) -> dict:
    runs = [parse_importtime(run_child([sys.executable, "-X", "importtime", "-c",
                                        "import gup.cli"], env, root).stderr)
            for _ in range(count)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def worker(root: Path, env: dict, workload: str, seed: int, tag: str, extra) -> dict:
    runs = root / "perfbench" / "_runs"
    out = runs / f"{workload}-seed{seed}-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--root", str(root), "--out", str(out), *extra]
    run_child(cmd, env, root)
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


def git_commit(root: Path) -> str:
    # only look at the checkout's own .git, never in parent directories
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def end_to_end(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """Untraced run of --seconds, with setup timed in fresh interpreters."""
    env = child_env(root)
    setup = setup_samples(root, env, SETUP_SAMPLES - 1)
    rec = worker(root, env, workload, seed, "e2e", ["--seconds", str(seconds)])
    setup.append(rec["import_s"])
    lat = rec["latencies_s"]
    rec["setup_samples_s"] = setup
    rec["metrics"] = {
        "setup_s": statistics.median(setup),
        "ops_per_s": cycle_throughput(lat, rec["cycle"]),
        "latency_p50_ms": 1e3 * percentile(lat, 50.0),
        "latency_p90_ms": 1e3 * percentile(lat, 90.0),
        "ok_frac": 1.0 - rec["failed"] / rec["attempted"],
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    return rec


def rate(latencies) -> float:
    return len(latencies) / sum(latencies)


def per_layer(root: Path, workload: str, seed: int) -> dict:
    """Untraced and traced passes, plus a single-thread one where operators are built."""
    env = child_env(root)
    imports = import_metrics(root, env, SETUP_SAMPLES)
    fixed = ["--ops", str(TRACE_OPS), "--wall-cap", str(TRACE_PASS_CAP_S)]
    plain = worker(root, env, workload, seed, "untraced", fixed)
    spans = root / "perfbench" / "_runs" / f"spans-{workload}.jsonl"
    rec = worker(root, env, workload, seed, "traced",
                 fixed + ["--trace", "1", "--spans", str(spans), "--probe-defects"])
    layers = rec["layers"]
    self_1t = 0.0
    if "oscillator.build_truncated_operators" in layers:
        single = worker(root, child_env(root, OPENBLAS_NUM_THREADS="1"), workload, seed,
                        "traced-1t", fixed + ["--trace", "1"])
        self_1t = single["layers"]["oscillator.build_truncated_operators"]["self_s"]
    wall = sum(rec["latencies_s"])
    computed = {
        **imports,
        "oscillator.build_truncated_operators.self_s_1t": self_1t,
        "trace.overhead_frac": 1.0 - rate(rec["latencies_s"]) / rate(plain["latencies_s"]),
        "trace.coverage_frac": sum(v["self_s"] for v in layers.values()) / wall,
        "checks.known_defects_failing": sum(1 for p in rec["known_defects"] if p["reason"]),
    }
    metrics = {}
    for name in PER_LAYER:
        if name in computed:
            metrics[name] = computed[name]
        else:  # a layer the workload never calls reads 0
            span, key = name.rsplit(".", 1)
            metrics[name] = layers.get(span, {}).get(key, 0.0)
    rec["metrics"] = metrics
    return rec


def report(rec: dict, units: dict, commit: str) -> None:
    lat = rec["latencies_s"]
    tail = tail_percentile(len(lat))
    print(f"workload {rec['workload']}  seed {rec['seed']}  ops {rec['attempted']}  "
          f"failed {rec['failed']}  failed_frac {rec['failed'] / rec['attempted']:.4g}  "
          f"latency samples {len(lat)}  tail percentile p{tail}")
    for name, value in rec["metrics"].items():
        print(f"  {name:<52} {value:<14.6g} {units[name]}")
    for failure in rec["failures"]:
        print(f"  failed op {failure['op']} {failure['spec']}: {failure['reason']}")
    for probe in rec.get("known_defects", []):
        print(f"  known defect {probe['spec']}: {probe['reason'] or 'passes now'}")
    env = dict(rec["env"], commit=commit, seed=rec["seed"],
               inputs_sha256=rec["inputs_sha256"])
    if "setup_samples_s" in rec:
        env["setup_samples_s"] = rec["setup_samples_s"]
    print("env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gup" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/gup not found)", file=sys.stderr)
        return 2
    (root / "perfbench" / "_runs").mkdir(parents=True, exist_ok=True)
    units = PER_LAYER if args.trace else END_TO_END
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    commit = git_commit(root)
    try:
        # compile gup's bytecode once so no timed import pays for it
        run_child([sys.executable, "-c", "import gup, gup.cli"], child_env(root), root)
        records = []
        for name in names:
            if args.trace:
                rec = per_layer(root, name, args.seed)
            else:
                rec = end_to_end(root, name, args.seed, args.seconds)
            report(rec, units, commit)
            records.append(rec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for r in records:
        prefix = f"{r['workload']}." if len(records) > 1 else ""
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
