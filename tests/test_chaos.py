"""Chaos verification gates.

A hypothesis suite driving randomly sampled seam faults through the
outcome check, the 200-case chaos gate on the durable store (every
fired fault loud, every quiet run correct), the gate shown a store
without its slot checksum, and the CI chaos-smoke invocation over the
real CLI.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import durable
from repro.storage.durable import DurableBackend
from repro.verify.chaos import (
    KINDS,
    run_chaos,
    run_chaos_case,
    sample_scenario,
    _shrunk_cases,
)
from repro.verify.scenario import GOOD_ENDINGS

_ROSTERS = {}


def roster(seed):
    """Chaos workloads are deterministic per seed; build each once."""
    if seed not in _ROSTERS:
        _ROSTERS[seed] = _shrunk_cases(seed)
    return _ROSTERS[seed]


class TestScenarioSampling:
    def test_sampling_is_deterministic(self):
        first = sample_scenario(7, seed=3, cases=roster(3))
        second = sample_scenario(7, seed=3, cases=roster(3))
        assert first == second
        assert first.describe() == second.describe()

    def test_indices_vary_the_scenario(self):
        scenarios = [sample_scenario(i, seed=0, cases=roster(0)) for i in range(12)]
        assert len({(s.kind, s.position) for s in scenarios}) > 6
        assert {s.kind for s in scenarios} == set(KINDS)


class TestTrichotomy:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(index=st.integers(min_value=0, max_value=2_000), seed=st.integers(0, 3))
    def test_sampled_scenarios_never_answer_wrong(self, index, seed):
        """Under an arbitrary sampled seam fault: correct with nothing
        fired, or loud with the fault fired."""
        scenario = sample_scenario(index, seed=seed, cases=roster(seed))
        outcome = run_chaos_case(scenario)
        assert outcome.ok, f"{outcome.scenario} ended as {outcome.outcome}: {outcome.detail}"
        assert outcome.outcome == ("correct" if scenario.kind == "quiet" else "loud")

    def test_chaos_gate_200_cases(self):
        """The acceptance gate: 200 seeded scenarios on the durable
        store, every fault kind sampled, every armed one fired and loud,
        and both good endings visited."""
        report = run_chaos(cases=200, seed=0)
        assert report.ok, report.summary()
        tally, kinds = report.counts["tally"], report.counts["kinds"]
        assert set(tally) == set(GOOD_ENDINGS)
        assert tally == {"correct": 43, "loud": 157}
        assert kinds == {"corrupt": 42, "fsync": 41, "quiet": 43, "read": 41, "write": 33}
        assert all(
            ("Error" in outcome["detail"]) == (outcome["outcome"] == "loud")
            for outcome in report.counts["outcomes"]
        )

    def test_a_store_without_its_slot_check_fails_the_gate(self, monkeypatch):
        """The slot checksum and identity test are what make a corrupt
        read loud: without them the gate at its CI setting finds a
        swallowed fault (or a wrong answer)."""

        def unchecked(self, slot, file_id, page_no):
            self._data.seek(self._slot_offset(slot))
            block = self._data.read(self._block_size)
            _, length, _, _ = durable._SLOT_HEADER.unpack_from(block, 0)
            return block[durable._SLOT_HEADER.size :][:length]

        assert run_chaos(cases=5, seed=0).ok
        monkeypatch.setattr(DurableBackend, "_read_slot", unchecked)
        report = run_chaos(cases=5, seed=0)
        assert not report.ok
        assert report.counts["kinds"]["corrupt"] >= 1
        assert {"swallowed", "wrong", "untyped-error"} & set(report.counts["tally"])

    @pytest.mark.slow
    def test_chaos_cli_smoke(self):
        """The CI chaos-smoke invocation stays green end to end."""
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "verify",
                "--chaos",
                "--seed",
                "0",
                "--cases",
                "3",
                "--json",
            ],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent.parent,
            env={**os.environ, "PYTHONPATH": "src"},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["ok"] is True
        assert report["cases"] == 3
