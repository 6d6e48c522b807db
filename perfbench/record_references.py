"""Write references.json: the outputs every benchmark call is checked against.

    python3 perfbench/record_references.py

It runs each workload's calls over the whole of its seed pools and stores
the per-item outputs. The references pin the behaviour of the commit they
were recorded at; the script refuses to overwrite them, because a refactor
that drifts past the tolerances has to explain the drift, not re-record.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402

WORK = BENCH_DIR.parent / ".perfbench_work" / "record"


def record(workload, calls: int, refs: dict) -> None:
    for i in range(calls):
        result = workload.run(i)
        if result.failed:
            raise SystemExit(f"{workload.name}: call {i} failed")
        refs.setdefault(result.op.group, {}).update(workload.observe(result.op))


def main() -> int:
    if workloads.REFERENCES.exists():
        print(f"{workloads.REFERENCES} exists; not overwriting it", file=sys.stderr)
        return 1
    refs: dict[str, dict] = {}

    sim = workloads.make("simulate-braess8", 0, WORK)
    sim.setup()
    record(sim, 2 * workloads.EPISODE_POOL // sim.seeds_per_op, refs.setdefault(sim.name, {}))

    for checkpoint_seed in range(workloads.CHECKPOINT_POOL):
        ev = workloads.make("evaluate-braess5", 0, WORK)
        ev.checkpoint_seed = checkpoint_seed
        ev.setup()
        record(ev, workloads.EPISODE_POOL // ev.seeds_per_op, refs.setdefault(ev.name, {}))

    train = workloads.make("train-braess5", 0, WORK)
    train.setup()
    record(train, workloads.TRAIN_POOL, refs.setdefault(train.name, {}))

    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
