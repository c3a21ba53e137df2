"""One workload in one fresh interpreter; started by run.py.

Runs a deck of operations in a closed loop, checks every output, and
writes a JSON record (latencies, failures, peak RSS, environment and,
with --trace 1, per-layer span totals) to --out.  gup is imported first
thing so the import is timed before any input exists.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import gup  # noqa: E402
import gup.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # p90 needs ten samples beyond it
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _rows(args, kwargs, result):
    return {"rows": len(result.series)}


def _points(args, kwargs, result):
    return {"points": len(result.points)}


def _svg_bytes(args, kwargs, result):
    return {"bytes": len(result)}  # the chart is plain ASCII


def _levels(args, kwargs, result):
    return {"levels": result.dimension}


def _ivp(args, kwargs, result):
    return {"nfev": result.nfev, "t_integrated": abs(float(result.t[-1] - result.t[0]))}


def _quad(args, kwargs, result):
    info = result[2] if len(result) > 2 and isinstance(result[2], dict) else {}
    return {"neval": info.get("neval", 0)}


# span name -> (module, attribute, counter); the layers are gup's modules
# plus the scipy integrators exactly as gup.dynamics looks them up
TRACED = {
    "cli.main": (gup.cli, "main", None),
    "cli.load_config": (gup.cli, "load_config", None),
    "cli.load_dataset": (gup.cli, "load_dataset", _rows),
    "evfit.odr_fit": (gup.evfit, "odr_fit", None),
    "evfit.wls_fit": (gup.evfit, "wls_fit", None),
    "evfit.confidence_interval": (gup.evfit, "confidence_interval", None),
    "bounds.load_scenarios": (gup.bounds, "load_scenarios", None),
    "bounds.ratio_bound_from_fit": (gup.bounds, "ratio_bound_from_fit", None),
    "bounds.resolve_scenario": (gup.bounds, "resolve_scenario", None),
    "bounds.exclusion_boundary": (gup.bounds, "exclusion_boundary", _points),
    "svgplot.line_chart": (gup.svgplot, "line_chart", _svg_bytes),
    "dynamics.period_first_order": (gup.dynamics, "period_first_order", None),
    "dynamics.period_exact_quadrature": (gup.dynamics, "period_exact_quadrature", None),
    "dynamics.period_beta_linearized": (gup.dynamics, "period_beta_linearized", None),
    "dynamics.trajectory_period": (gup.dynamics, "trajectory_period", None),
    "dynamics.integrate_oscillator_trajectory": (
        gup.dynamics, "integrate_oscillator_trajectory", None),
    "scipy.solve_ivp": (gup.dynamics.integrate, "solve_ivp", _ivp),
    "scipy.quad": (gup.dynamics.integrate, "quad", _quad),
    "oscillator.choose_dimension": (gup.oscillator, "choose_dimension", None),
    "oscillator.gazeau_klauder_state": (gup.oscillator, "gazeau_klauder_state", None),
    "oscillator.build_truncated_operators": (
        gup.oscillator, "build_truncated_operators", _levels),
    "oscillator.evolve_gk": (gup.oscillator, "evolve_gk", None),
    "oscillator.matrix_expectation": (gup.oscillator, "matrix_expectation", None),
}


def install_tracer(tracer: tracing.Tracer) -> None:
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "gup" or name.startswith("gup."))]
    modules.append(gup.dynamics.integrate)
    targets = {name: (getattr(module, attr), counter)
               for name, (module, attr, counter) in TRACED.items()}
    tracer.install(modules, targets)


def make_workload(name: str, seed: int, root: str, workdir: str):
    cls = workloads.WORKLOADS[name]
    if name == "pendulum":
        return cls(seed, root, workdir, dynamics=gup.dynamics)
    return cls(seed, root, workdir, cli=gup.cli)


def run_one(workload, op: dict):
    """(latency_s, failure reason or None, outcome) for one prepared op."""
    start = time.perf_counter()
    try:
        outcome = workload.run(op)
    except Exception as exc:  # a raising operation counts as failed
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", None
    latency = time.perf_counter() - start
    try:
        reason = workload.check(op, outcome)
    except Exception as exc:  # an unreadable output fails its check
        reason = f"check raised {type(exc).__name__}: {exc}"
    return latency, reason, outcome


def layer_totals(tracer: tracing.Tracer, exact_periods: dict) -> dict:
    totals = tracing.span_totals(tracer.spans)
    ratios = []
    for span in tracer.spans:
        if span.name == "dynamics.trajectory_period" and span.op in exact_periods:
            integrated = sum(
                s.counts.get("t_integrated", 0.0)
                for s in tracing.descendants(tracer.spans, span.id)
                if s.name == "scipy.solve_ivp"
            )
            ratios.append(integrated / exact_periods[span.op])
    if ratios:
        totals["dynamics.trajectory_period"]["periods_integrated"] = sum(ratios) / len(ratios)
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measured time to reach (with at least MIN_OPS ops)")
    parser.add_argument("--ops", type=int, default=0,
                        help="run this many ops, rounded up to whole cycles")
    parser.add_argument("--wall-cap", type=float, default=120.0,
                        help="stop the loop after this many wall seconds regardless")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-defects", action="store_true")
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.dirname(args.out))
    try:
        workload = make_workload(args.workload, args.seed, args.root, workdir)
        for n, spec in enumerate(workload.warmup_specs()):
            op = workload.prepare(spec, f"warm{n}")
            _, reason, _ = run_one(workload, op)
            workload.cleanup(op)
            if reason:
                print(f"warm-up operation failed: {reason}", file=sys.stderr)
                return 1

        tracer = tracing.Tracer()
        if args.trace:
            install_tracer(tracer)
        digest = hashlib.sha256()
        latencies, failures, exact_periods = [], [], {}
        measured = 0.0
        loop_start = time.perf_counter()
        i = 0
        while True:
            # runs end on a cycle boundary, where the deck is balanced
            if i % workload.CYCLE == 0 and (
                i >= args.ops if args.ops else (measured >= args.seconds and i >= MIN_OPS)
            ):
                break
            if time.perf_counter() - loop_start > args.wall_cap:
                break
            op = workload.prepare(workload.spec(i), f"op{i}")
            digest.update(op["inputs"])
            tracer.op = i
            latency, reason, outcome = run_one(workload, op)
            workload.cleanup(op)
            if reason:
                failures.append({"op": i, "spec": op["spec"], "reason": reason})
            if args.workload == "pendulum" and outcome:
                exact_periods[i] = outcome["exact"]
            latencies.append(latency)
            measured += latency
            i += 1
        tracer.uninstall()

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "attempted": len(latencies),
            "failed": len(failures),
            "failures": failures[:10],
            "latencies_s": latencies,
            "cycle": workload.CYCLE,
            "measured_s": measured,
            "import_s": IMPORT_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "inputs_sha256": digest.hexdigest(),
            "env": {
                "cpu_count": os.cpu_count(),
                **{var: os.environ.get(var) for var in BLAS_VARS},
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "gup": getattr(gup, "__version__", "unknown"),
            },
        }
        if args.trace:
            record["layers"] = layer_totals(tracer, exact_periods)
            if args.spans:
                tracer.write(args.spans)
        if args.probe_defects:
            probes = []
            for n, spec in enumerate(workloads.KNOWN_DEFECTS[args.workload]):
                op = workload.prepare(spec, f"probe{n}")
                _, reason, _ = run_one(workload, op)
                workload.cleanup(op)
                probes.append({"spec": spec, "reason": reason})
            record["known_defects"] = probes
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
