"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engine-20k-paged --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see README.md).  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
diagnostics go to standard error.  The program is imported from
``src/`` under the working directory; without it the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Work directory under the checkout root; removed after each run.
WORK_ROOT = ".perfbench_work"


def process_age() -> float:
    """Seconds since this process started, from ``/proc`` (clock-tick
    resolution) up to the first line of this file, then the
    high-resolution clock."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started_ticks = int(fields[19])
    with open("/proc/uptime") as handle:
        uptime = float(handle.read().split()[0])
    return uptime - started_ticks / os.sysconf("SC_CLK_TCK")


_AGE_AT_START = process_age()


def clock() -> float:
    return _AGE_AT_START + time.perf_counter() - _STARTED


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU.

    The load is a closed loop, so only one of the client, the server and
    its worker runs at a time.  Left free, each hand-off between them
    wakes another CPU, and what that costs follows the load on the host:
    on a 2-CPU machine, back to back, free runs of ``http-2k-mapped``
    read cell p50s of 4.6-10 ms where pinned runs read 2.5-2.6 ms.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {source}; run from a checkout root",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(source))
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.SPECS)}", file=sys.stderr)
        return 2
    work = workloads.work_dir(Path.cwd() / WORK_ROOT, args.workload, args.seed)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), work, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
