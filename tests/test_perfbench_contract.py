"""The names the benchmark's traced pass wraps, resolved against gup.

perfbench/worker.py wraps each (module, attribute) of its TRACED table
wherever a gup module binds it, and counts rows from what
gup.cli.load_dataset returns.  A rename in gup would only show up in a
traced benchmark run; these tests import the worker unchanged and check
its table here.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from gup import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("worker")


def test_every_traced_name_resolves(worker):
    assert worker.TRACED
    for name, (module, attr, counter) in worker.TRACED.items():
        assert callable(getattr(module, attr, None)), name
        assert counter is None or callable(counter), name


def test_row_counter_reads_the_dataset_series(worker):
    dataset = cli.load_dataset(cli.bundled_dataset_path(), 5e-3, 1e-4)
    assert len(dataset.series) == 21
    _, _, counter = worker.TRACED["cli.load_dataset"]
    assert counter((), {}, dataset) == {"rows": 21}


def test_warmup_operations_pass(worker, tmp_path, monkeypatch):
    # the benchmark's own calls into gup, so a narrowed signature fails here
    # and not only in a benchmark run
    monkeypatch.chdir(tmp_path)
    for name in sorted(worker.workloads.WORKLOADS):
        workload = worker.make_workload(name, 0, str(PERFBENCH.parent), str(tmp_path))
        for n, spec in enumerate(workload.warmup_specs()):
            op = workload.prepare(spec, f"warm{n}")
            _, reason, _ = worker.run_one(workload, op)
            workload.cleanup(op)
            assert reason is None, (name, spec, reason)
