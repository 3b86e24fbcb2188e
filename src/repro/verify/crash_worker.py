"""The child process the crash gate kills.

Opens a durable :class:`~repro.service.index.PersistentIndex` at the
given data directory and runs the ops of
:func:`repro.verify.scenario.op_schedule` against it, printing
``ack <i> <epoch>`` after each operation returns (i.e. after its state
is on the medium).  The parent plants a
:class:`~repro.storage.durable.CrashPoint` in ``REPRO_DURABLE_CRASH``,
so somewhere mid-schedule the durable backend ``SIGKILL``s this process
— no cleanup, no atexit, exactly like a power cut.  If the sampled
point is never reached, the schedule completes and ``done`` is printed;
both outcomes are valid cases for the parent.

Run with ``python -u`` so acks are not lost in a stdio buffer when the
kill lands.
"""

from __future__ import annotations

import argparse
import sys

from repro.service.index import PersistentIndex
from repro.verify.crash import WORKER_COMPACTION_THRESHOLD
from repro.verify.scenario import apply_op, op_schedule


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.verify.crash_worker")
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    args = parser.parse_args(argv)

    index = PersistentIndex.open(
        args.data_dir, compaction_threshold=WORKER_COMPACTION_THRESHOLD
    )
    _, schedule = op_schedule(args.seed, args.ops)
    for position, (op, payload) in enumerate(schedule):
        apply_op(index, op, payload)
        print(f"ack {position} {index.epoch}", flush=True)
        if index.needs_compaction:
            index.compact()
            print(f"ack {position} {index.epoch}", flush=True)
    index.close()
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
