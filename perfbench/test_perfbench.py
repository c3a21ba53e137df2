"""Self-tests of the benchmark's own code.

Run from the repository root with:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(99) == 50.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9


def test_percentile_interpolates_between_order_statistics():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50.0) == pytest.approx(50.5)
    assert run.percentile(values, 90.0) == pytest.approx(90.1)
    assert run.percentile([3.0], 90.0) == 3.0


def test_cycle_throughput_is_the_median_over_whole_cycles():
    latencies = [0.1] * 4 + [0.2] * 4 + [0.1] * 4 + [0.05] * 2
    assert run.cycle_throughput(latencies, 4) == pytest.approx(10.0)
    assert run.cycle_throughput([0.5, 0.5], 4) == pytest.approx(2.0)


def test_parse_importtime_sums_self_times_per_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |       scipy.special._ufuncs",
        "import time:        30 |         50 |     scipy.special",
        "import time:         7 |          7 |     scipy.stats._stats_py",
        "import time:         5 |        250 | gup.cli",
    ])
    out = run.parse_importtime(stderr)
    assert out["import.numpy_s"] == pytest.approx(150e-6)
    assert out["import.scipy_special_s"] == pytest.approx(50e-6)
    assert out["import.scipy_stats_s"] == pytest.approx(7e-6)
    assert out["import.gup_s"] == pytest.approx(5e-6)
    assert out["import.scipy_integrate_s"] == 0.0


def _span(sid, parent, start, end, name="x"):
    return tracing.Span(sid, parent, 0, name, start, end)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 2.0, 6.0),
        _span(2, 0, 4.0, 8.0),
        _span(3, 0, 9.0, 12.0),  # runs past its parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_times_sum_to_root_duration():
    spans = [_span(0, None, 0.0, 7.5), _span(1, 0, 0.5, 3.0), _span(2, 1, 1.0, 2.0)]
    assert sum(tracing.self_times(spans).values()) == pytest.approx(7.5)


def test_tracer_wraps_every_binding_and_restores_them():
    import types

    def work(n):
        return n + 1

    owner = types.ModuleType("owner")
    importer = types.ModuleType("importer")
    owner.work = work
    importer.work = work  # as bound by "from owner import work"
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.install([owner, importer], {"owner.work": (work, lambda a, k, r: {"n": r})})
    tracer.op = 7
    assert owner.work(1) == 2 and importer.work(2) == 3
    tracer.uninstall()
    assert owner.work is work and importer.work is work
    assert [(s.name, s.op, s.counts["n"]) for s in tracer.spans] == [
        ("owner.work", 7, 2), ("owner.work", 7, 3)]
    totals = tracing.span_totals(tracer.spans)
    assert totals["owner.work"]["calls"] == 2 and totals["owner.work"]["n"] == 5


def test_agm_elliptic_k_at_zero_and_a_tabulated_modulus():
    assert oracles.agm_elliptic_k(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
    # K(1/sqrt 2) = Gamma(1/4)^2 / (4 sqrt(pi))
    expected = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))
    assert oracles.agm_elliptic_k(math.sqrt(0.5)) == pytest.approx(expected, rel=1e-14)


def test_york_agrees_with_odr_fit_on_the_bundled_dataset():
    sys.path.insert(0, str(ROOT / "src"))
    from gup import evfit

    text = (ROOT / "src" / "gup" / "data" / "pendulum_timing.csv").read_text()
    x, y, _, _ = oracles.parse_dataset(text)
    sx, sy = 5e-3, 1e-4
    intercept, slope = oracles.york_line(x, y, [sx] * x.size, [sy] * x.size,
                                         oracles.ordinary_slope(x, y))
    fit = evfit.odr_fit(evfit.MeasurementSeries(x, y, sx, sy))
    assert oracles.relative_error(slope, fit.slope) < 1e-9
    assert oracles.relative_error(intercept, fit.intercept) < 1e-9


def _deck_hash(name, seed, count, tmp_path):
    workload = workloads.WORKLOADS[name](seed, str(ROOT), str(tmp_path))
    digest = hashlib.sha256()
    for i in range(count):
        op = workload.prepare(workload.spec(i), f"op{i}")
        digest.update(op["inputs"])
        workload.cleanup(op)
    return digest.hexdigest()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    count = 25
    first = _deck_hash(name, 3, count, tmp_path)
    assert _deck_hash(name, 3, count, tmp_path) == first
    assert _deck_hash(name, 4, count, tmp_path) != first


def test_analysis_mix_and_size_ranges():
    deck = workloads.Analysis(5, str(ROOT), "unused")
    specs = [deck.spec(i) for i in range(3 * deck.CYCLE)]
    kinds = [s["kind"] for s in specs]
    assert (kinds.count("fit"), kinds.count("exclusion"), kinds.count("scenarios")) == (108, 54, 18)
    rows = [s["rows"] for s in specs if s["kind"] == "fit"]
    points = [s["points"] for s in specs if s["kind"] == "exclusion"]
    assert 18 <= min(rows) < 30 and 12000 < max(rows) <= 20000
    assert 121 <= min(points) < 200 and 12000 < max(points) <= 20001
    assert sum(s["sigmas"] for s in specs if s["kind"] == "fit") == 54


def test_quantum_cycle_visits_every_j_once():
    deck = workloads.Quantum(5, str(ROOT), "unused")
    for cycle in range(2):
        specs = [deck.spec(cycle * deck.CYCLE + k) for k in range(deck.CYCLE)]
        assert sorted(s["j"] for s in specs) == sorted(deck.J_GRID)


def test_pendulum_cycles_are_disjoint_slices_of_the_point_set():
    deck = workloads.Pendulum(5, str(ROOT), "unused")
    seen = [tuple(deck.spec(i).values()) for i in range(deck.SUBSETS * deck.CYCLE)]
    assert sorted(seen) == sorted(tuple(p.values()) for p in deck.points())


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
