"""repro.verify — what holds the engines, the service and the durable
store to "every intersecting pair exactly once".

One oracle, one report, and two harnesses (DESIGN.md section 10):

- **oracle** (:mod:`~repro.verify.oracle`) — brute-force all-pairs and
  window scans that share no code with any engine; every expected
  answer in the package comes from here.
- **batch harness** (:func:`run_verify`) — workloads × metamorphic
  variants × executors against the oracle, with pluggable ledger
  invariants, partition conformance, obs-on/off parity, and ddmin
  counterexamples.  :func:`run_cross_mode` is the same sweep with the
  ledger/memory roster plus refined-set parity; :func:`run_chaos`
  reruns it under sampled fault plans and asserts that every run ends
  correct or as a typed failure.
- **scenario harness** (:mod:`~repro.verify.scenario`) — one seeded op
  generator, one :class:`LiveModel` advanced by the acknowledged ops
  alone, one :func:`check_index` verdict.  :func:`run_service_verify`
  and :func:`run_service_chaos` replay it through a live
  :class:`~repro.service.api.JoinService` under fault profiles;
  :func:`run_crash_verify` runs the same ops on a recording disk and
  reopens the store from every state a power cut could leave at every
  fsync.

Every gate returns the same :class:`Report`::

    from repro.verify import run_verify
    report = run_verify(quick=True)
    print(report.summary())
    assert report.ok
"""

from repro.verify.cases import VerifyCase
from repro.verify.chaos import run_chaos
from repro.verify.crash import run_crash_verify, run_serve_roundtrip
from repro.verify.differential import Counterexample, Divergence, diff_pairs
from repro.verify.executors import ExecutorSpec, default_executors, run_executor
from repro.verify.harness import run_cross_mode, run_verify
from repro.verify.invariants import DEFAULT_INVARIANTS, Invariant
from repro.verify.metamorphic import TRANSFORMS, Transform, transforms_by_name
from repro.verify.oracle import oracle_pairs, oracle_window
from repro.verify.report import Report, Violation
from repro.verify.scenario import (
    LiveModel,
    check_index,
    run_service_chaos,
    run_service_verify,
)
from repro.verify.workloads import cases_by_name, default_cases

__all__ = [
    "DEFAULT_INVARIANTS",
    "Counterexample",
    "Divergence",
    "ExecutorSpec",
    "Invariant",
    "LiveModel",
    "Report",
    "TRANSFORMS",
    "Transform",
    "VerifyCase",
    "Violation",
    "cases_by_name",
    "check_index",
    "default_cases",
    "default_executors",
    "diff_pairs",
    "oracle_pairs",
    "oracle_window",
    "run_chaos",
    "run_crash_verify",
    "run_cross_mode",
    "run_executor",
    "run_serve_roundtrip",
    "run_service_chaos",
    "run_service_verify",
    "run_verify",
    "transforms_by_name",
]
