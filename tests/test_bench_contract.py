"""What the benchmark in bench/ needs from the library, checked in process.

The benchmark's streams call library functions by name and read fields of
their results, its tracer wraps the public functions of every layer, and its
census compares each command's stdout with bench/digests.json.  Here one
seeded pass of the `queries` and `degeneration` streams runs through their
own run and check functions, and every census command through the CLI, all
under the installed tracer.  A change that breaks any of that fails here
instead of in a benchmark run.  The bench modules are loaded from their
files and never changed.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import random

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = load("census")
tracing = load("tracer")
workloads = load("workloads")


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    t.op = 1
    try:
        yield t
    finally:
        t.uninstall()


def run_stream(tracer, ops, run, check) -> None:
    for op_id, op in enumerate(ops, start=1):
        tracer.op = op_id
        check(op, run(op))
    summary = tracer.summarize()
    assert summary["spans"] > 0
    assert all(agg["errors"] == 0 for agg in summary["per_name"].values())
    tracing.layer_metrics(summary, 0, 1.0)


def test_queries_stream(tracer):
    workloads.queries_warm_up()
    ops = workloads.queries_ops(random.Random(0))
    run_stream(tracer, ops, workloads.queries_run, workloads.queries_check)


def test_degeneration_stream(tracer):
    workloads.degeneration_warm_up()
    pools = workloads.DegenerationPools()
    ops = workloads.degeneration_ops(random.Random(0), pools)
    run_stream(
        tracer,
        ops,
        lambda op: workloads.degeneration_run(op, pools),
        lambda op, result: workloads.degeneration_check(op, result, pools),
    )


@pytest.mark.parametrize("key", sorted(census.COMMANDS))
def test_census_command_matches_digest(tracer, key):
    from z2quiver import cli

    digests = json.loads(pathlib.Path(census.DIGESTS_FILE).read_text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(census.COMMANDS[key])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digests[key]
