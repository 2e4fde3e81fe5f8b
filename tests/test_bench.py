"""The benchmark's traced patch points still fire on the current source."""

import importlib.util
import pathlib
import sys

RUN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_every_benchmark_patch_point_fires(monkeypatch):
    """A refactor that routes a workload round a wrapped function leaves
    that layer unmeasured; one traced repetition of each workload's first
    command must reach every patch point it names."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for name, (commands, required) in run.WORKLOADS.items():
        record = run.spawn(
            commands[:1], run.Clock(60), trace=True, required=required
        )
        assert [c["exit"] for c in record["commands"]] == [0], name
        assert record["trace"]["unfired"] == [], name
