"""Tests of the benchmark itself, at ``quick`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/layered

Not part of the tier-1 ``testpaths``; takes well under a minute.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from benchmarks.layered import inputs, spec, tracing, workloads
from benchmarks.layered.harness import result_json

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNT_UNITS = {"count", "pages", "B", "KiB", "1/kop"}
"""Units of metrics that are counts made by the program: these repeat
exactly between two runs on the same seed.  (``ratio`` metrics are
listed by name below: some are ratios of times.)"""
COUNT_RATIOS = {
    "sweep.compares_per_pair",
    "storage.buffer.hit_ratio",
    "service.api.cache_hit_ratio",
    "service.index.records_scanned_per_hit",
    "storage.durable.space_amp",
}


@pytest.fixture(scope="module")
def traced() -> dict[str, workloads.Run]:
    """One traced quick run of every workload."""
    return {
        name: workloads.run_workload(name, seed=1, seconds=1, trace=True, size="quick")
        for name in spec.WORKLOADS
    }


def test_benchmark_json_matches_the_spec() -> None:
    config = spec.load_benchmark_json()
    assert config == spec.benchmark_json()
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(config) == keys
    assert config["paths"] == ["benchmarks/layered"]
    assert 1 <= config["run_seconds"] <= 60
    assert 2 <= len(config["workloads"]) <= 8
    assert 1 <= len(config["end_to_end"]) <= 16
    assert 1 <= len(config["per_layer"]) <= 128
    assert len(json.dumps(config)) < 64 * 1024
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in config[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in config["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in config["end_to_end"] + config["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in config["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in config["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in config["end_to_end"])


def test_every_layer_names_its_end_to_end_metric_and_workloads() -> None:
    gated = {metric.name for metric in spec.END_TO_END} | {"-"}
    for layer in spec.LAYERS:
        assert layer.moves in gated, layer.name
        assert layer.on and set(layer.on) <= set(spec.WORKLOADS), layer.name
        assert layer.how


def test_a_traced_run_reports_every_layer_and_nothing_fails(traced) -> None:
    for name, run in traced.items():
        assert run.failed == 0, run.problems
        assert run.attempted > 0
        assert set(run.values) == {layer.name for layer in spec.LAYERS}
        result = result_json(run)
        assert result["correct"] is True
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        # A layer reads zero exactly where the workload never enters it.
        for layer in spec.LAYERS:
            if layer.source is not None and name not in layer.on:
                if layer.name.startswith(("curves.", "filtertree.", "storage.")):
                    continue  # shared plumbing, predicted flat rather than absent
                assert run.values[layer.name] == 0, (name, layer.name)
        assert run.values["bench.unattributed_pct"] <= 20
        assert run.values["bench.trace_overhead_ratio"] > 0


def test_counts_repeat_exactly_on_the_same_seed(traced) -> None:
    for name, first in traced.items():
        again = workloads.run_workload(name, seed=1, seconds=1, trace=True, size="quick")
        for layer in spec.LAYERS:
            if layer.unit in COUNT_UNITS or layer.name in COUNT_RATIOS:
                assert again.values[layer.name] == first.values[layer.name], (
                    name,
                    layer.name,
                )


def test_span_tree_invariants(traced) -> None:
    for run in traced.values():
        for name, dump in run.traces.items():
            assert dump["rows"], name
            assert tracing.check_span_tree(dump) == [], name
            # Over all ops, kept or not: self times sum to the roots' durations.
            self_ns = sum(span["self_ns"] for span in dump["spans"].values())
            assert self_ns == sum(dump["root_ns"]), name


def test_a_different_seed_gives_different_inputs() -> None:
    sizes = inputs.QUICK

    def boxes(dataset):
        return [(e.mbr.xlo, e.mbr.ylo, e.mbr.xhi, e.mbr.yhi) for e in dataset]

    for make in (inputs.batch_ledger_inputs, inputs.batch_memory_inputs):
        a1, b1 = make(1, sizes)
        a1_again, _ = make(1, sizes)
        a2, b2 = make(2, sizes)
        assert boxes(a1) == boxes(a1_again)
        assert boxes(a1) != boxes(a2) and boxes(b1) != boxes(b2)

    def head(stream, n=50):
        return [next(stream) for _ in range(n)]

    assert head(inputs.request_stream(1)) == head(inputs.request_stream(1))
    assert head(inputs.request_stream(1)) != head(inputs.request_stream(2))
    assert head(inputs.mutation_stream(1, 100)) == head(inputs.mutation_stream(1, 100))
    assert head(inputs.mutation_stream(1, 100)) != head(inputs.mutation_stream(2, 100))


def test_the_seed_reaches_input_generation_only() -> None:
    """In the worker, which hosts the system under test, every use of
    the seed is an argument of an ``inputs.*`` call (or the plumbing
    that carries it there from the command line)."""
    source = (HERE / "worker.py").read_text("utf-8")
    tree = ast.parse(source)
    plumbing = {
        "self.seed: int = args.seed",
        'parser.add_argument("--seed", type=int, required=True)',
    }
    inside_inputs: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "inputs"
        ):
            inside_inputs.update(id(child) for child in ast.walk(node))
    lines = source.splitlines()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "seed":
            if id(node) in inside_inputs:
                continue
            assert lines[node.lineno - 1].strip() in plumbing, lines[node.lineno - 1]


@pytest.mark.parametrize(
    "workload, kind, corrupt",
    [
        # eid 0 is always in the oracle's sample of the left side
        ("batch_memory", "pairs", lambda pairs: [[0, -1], *pairs]),
        ("service_read", "reply", lambda reply: {**reply, "eids": [*reply["eids"], -1]}),
        ("service_write_durable", "live", lambda live: dict(list(live.items())[1:])),
    ],
)
def test_an_injected_wrong_answer_is_a_failed_op(workload, kind, corrupt) -> None:
    seen: list[str] = []

    def tamper(what, answer):
        seen.append(what)
        return corrupt(answer) if what == kind else answer

    run = workloads.run_workload(
        workload, seed=1, seconds=0.2, trace=False, size="quick", tamper=tamper
    )
    assert kind in seen
    assert run.failed > 0 and run.problems
    assert result_json(run)["correct"] is False
    assert set(run.values) == {metric.name for metric in spec.END_TO_END}
