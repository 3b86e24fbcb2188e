"""Chaos verification gates.

Three layers: a hypothesis suite driving randomly sampled fault
scenarios through the outcome check, the 200-case chaos gate (zero
silent wrong answers), and the retry-layer byte-parity gate over the
real CLI (``repro join --report`` with and without ``--retry-*`` must
serialize identically when no fault fires).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.verify.chaos import (
    GOOD_OUTCOMES,
    run_chaos,
    run_chaos_case,
    sample_scenario,
    _shrunk_cases,
)

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
        assert first.plan == second.plan
        assert first.retry == second.retry
        assert first.describe() == second.describe()

    def test_indices_vary_the_scenario(self):
        plans = {
            sample_scenario(i, seed=0, cases=roster(0)).plan for i in range(12)
        }
        assert len(plans) > 6  # the sweep genuinely explores


class TestTrichotomy:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(index=st.integers(min_value=0, max_value=2_000), seed=st.integers(0, 3))
    def test_sampled_scenarios_never_answer_wrong(self, index, seed):
        """The correct / typed-failure outcome and the retry-metric
        invariants, under arbitrary sampled fault plans."""
        scenario = sample_scenario(index, seed=seed, cases=roster(seed))
        outcome = run_chaos_case(scenario)
        assert outcome.outcome in GOOD_OUTCOMES, (
            f"{scenario.describe()} ended as {outcome.outcome}: "
            f"{outcome.detail}"
        )
        assert outcome.violations == (), scenario.describe()
        assert outcome.ok

    def test_chaos_gate_200_cases(self):
        """The acceptance gate: 200 seeded scenarios, zero silent wrong
        answers, and both good outcomes actually visited."""
        report = run_chaos(cases=200, seed=0)
        assert report.ok, report.summary()
        tally = report.counts["tally"]
        assert tally.get("wrong", 0) == 0
        assert tally.get("untyped-error", 0) == 0
        assert tally.get("correct", 0) > 0
        assert tally.get("typed-failure", 0) > 0
        assert set(tally) <= set(GOOD_OUTCOMES)


TIMING_KEYS = {
    "wall_s",
    "cpu_s",
    "start_s",
    "wall_seconds",
    "phase_wall",
    "elapsed",
    "generated_at",
    "timestamp",
    # The event stream is a real-clock artifact by nature (timestamps,
    # rate-limited heartbeat counts).
    "events",
}


def normalized(data):
    """Strip real-clock fields; everything left must be deterministic."""
    if isinstance(data, dict):
        return {
            key: normalized(value)
            for key, value in data.items()
            if key not in TIMING_KEYS
        }
    if isinstance(data, list):
        return [normalized(item) for item in data]
    return data


def cli_report(tmp_path: Path, tag: str, *extra: str) -> dict:
    """Run ``repro join --report`` in a fresh interpreter (fresh process
    = fresh file-label counters, which keeps runs comparable)."""
    path = tmp_path / f"{tag}.json"
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "join",
            "--workload",
            "UN1-UN2",
            "--scale",
            "0.05",
            "--report",
            str(path),
            *extra,
        ],
        check=True,
        capture_output=True,
        cwd=Path(__file__).resolve().parent.parent,
        env={**os.environ, "PYTHONPATH": "src"},
        timeout=300,
    )
    return json.loads(path.read_text())


@pytest.mark.slow
class TestRetryParityGate:
    """Retry layer + zero faults must not change one serialized byte."""

    def test_workers_1(self, tmp_path):
        plain = cli_report(tmp_path, "w1-plain")
        layered = cli_report(
            tmp_path, "w1-retry", "--retry-attempts", "4", "--retry-backoff", "0.01"
        )
        assert normalized(plain) == normalized(layered)

    def test_chaos_cli_smoke(self, tmp_path):
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
