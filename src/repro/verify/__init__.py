"""repro.verify — what holds the engines, the service and the durable
store to "every intersecting pair exactly once".

One oracle, one report, and two harnesses (DESIGN.md section 10):

- **oracle** (:mod:`~repro.verify.oracle`) — brute-force all-pairs and
  window scans that share no code with any engine; every expected
  answer in the package comes from here.
- **batch harness** (:func:`run_verify`) — workloads × metamorphic
  variants × executors against the oracle, with the ledger invariants,
  obs-on/off parity, refined-set parity between S3J's ledger and memory
  modes, and ddmin counterexamples.  :func:`run_chaos` samples joins on
  the durable store, one fault injected at the file-I/O seam each, and
  runs them through the same :func:`run_executor` and
  :func:`diff_pairs`.
- **scenario harness** (:mod:`~repro.verify.scenario`) — one seeded op
  generator, one :class:`LiveModel` advanced by the acknowledged ops
  alone, one :func:`check_index` verdict.  :func:`run_service_verify`
  replays it through a live :class:`~repro.service.api.JoinService`
  under a burst of read errors (tests replay other faults as explicit
  :class:`~repro.verify.scenario.Scenario` objects), and
  :func:`~repro.verify.scenario.ending` — correct, loud, or the
  violation spurious, swallowed or unfired — judges every faulted run,
  batch chaos included;
  :func:`run_crash_verify` runs the same ops on a recording disk and
  reopens the store from every state a power cut could leave at every
  fsync, and :func:`run_serve_roundtrip` kills and restarts a real
  ``repro serve``.  The durable state machine finds a missing fsync:
  each fsync site, made a no-op, is a row of
  ``tests/test_machine_mutations.py``.

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
from repro.verify.harness import run_verify
from repro.verify.invariants import DEFAULT_INVARIANTS
from repro.verify.metamorphic import TRANSFORMS, Transform, transforms_by_name
from repro.verify.oracle import oracle_pairs, oracle_window
from repro.verify.report import Report, Violation
from repro.verify.scenario import (
    LiveModel,
    check_index,
    run_service_verify,
)
from repro.verify.workloads import cases_by_name, default_cases

__all__ = [
    "DEFAULT_INVARIANTS",
    "Counterexample",
    "Divergence",
    "ExecutorSpec",
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
    "run_executor",
    "run_serve_roundtrip",
    "run_service_verify",
    "run_verify",
    "transforms_by_name",
]
