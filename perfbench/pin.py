"""Pin the exact output values of workloads, for run.py's output check.

    python3 perfbench/pin.py --workload NAME [--workload NAME ...]
                             --seeds 1-20 [--pages N]

For each workload and seed this sets up once, runs one untraced iteration,
requires every consistency check to pass, and stores accuracy_pct,
primary_calls, decision_calls and cost_usd in perfbench/pins.json under
workload, page count and seed. Re-pin only when a change is meant to alter
these outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import shutil
import sys
import time

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def pin(workload: run.Workload, pages: int, seed: int) -> dict:
    work = run.ROOT / ".perfbench-work" / f"{workload.name}-pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + run.RUN_BUDGET_S
    setup = run.set_up(workload, pages, seed, work, 0, deadline, None)
    it = run.iterate(workload, pages, setup, work, 0, deadline, False, "")
    failed = [(name, detail) for name, ok, detail in it.checks if not ok]
    if failed:
        raise SystemExit(f"{workload.name} seed {seed}: checks failed: {failed}")
    shutil.rmtree(work)
    return it.values


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="e.g. 1-20 or 1,5,9")
    parser.add_argument("--pages", type=int, default=None)
    opts = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))

    pinned = {}
    for name in opts.workload:
        workload = run.WORKLOADS[name]
        pages = opts.pages or workload.pages
        for seed in parse_seeds(opts.seeds):
            values = pin(workload, pages, seed)
            pinned.setdefault(name, {}).setdefault(str(pages), {})[str(seed)] = values
            print(f"{name} pages {pages} seed {seed}: {json.dumps(values)}", flush=True)

    run.PINS.touch()
    with open(run.PINS, "r+", encoding="utf-8") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        text = fh.read()
        pins = json.loads(text) if text.strip() else {}
        for name, by_pages in pinned.items():
            for pages, by_seed in by_pages.items():
                pins.setdefault(name, {}).setdefault(pages, {}).update(by_seed)
        fh.seek(0)
        fh.truncate()
        fh.write(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
