"""Tiny-scale self-test of the benchmark's checker.

Builds a 150-customer x 100-day model, answers the coverage battery in
process, and shows that the checker passes the true answers and counts
a deliberately perturbed answer, of every query type, as failed — as
well as an operation that raises.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path


class Perturbed:
    """Answers like ``inner`` but shifts the answer to one op."""

    def __init__(self, inner, target, how) -> None:
        self.inner, self.target, self.how = inner, target, how

    def run(self, op):
        answer = self.inner.run(op)
        return self.how(answer) if op == self.target else answer


def _shift(answer):
    if isinstance(answer, tuple):
        edges, values = answer
        return edges, values[:-1] + [values[-1] * (1 + 1e-6) + 1e-3]
    return answer * (1 + 1e-6) + 1e-3


def _raise(answer):
    raise RuntimeError("injected failure")


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy as np

    import workloads
    from clients import InProcess
    from inputs import battery, matrix
    from reference import ModelFiles, Reference
    from repro.core.build import build_compressed
    from repro.core.store import CompressedMatrix

    work = workloads.work_dir(Path.cwd() / ".perfbench_work", "selftest", 0)
    problems = []
    try:
        data = workloads.Data(work / "data.npy", matrix(150, 100))
        model = work / "model"
        build_compressed(data.block(150, 0, 100), model, workloads.BUDGET).close()
        with CompressedMatrix.open(model) as store:
            ref = Reference(ModelFiles(model))
            ops = battery(5, ref.shape, ref.files.keys, ref.files.zero_rows)
            clean = InProcess(store)
            tally = workloads.Tally()
            answers = workloads.run_ops(clean, ops)
            tally.check(ref, answers)
            workloads.check_properties(tally, ref, data, answers)
            if tally.failed or tally.violations:
                problems.append(f"true answers: {tally.failed} failed, {tally.violations}")
            for kind in ("cell", "rect", "dash", "groupby"):
                for how in (_shift, _raise):
                    target = next(op for op in ops if op.kind == kind)
                    tally = workloads.Tally()
                    tally.check(ref, workloads.run_ops(Perturbed(clean, target, how), ops))
                    if tally.failed != 1 or tally.attempted != len(ops):
                        problems.append(
                            f"{how.__name__} {kind}: {tally.failed} of "
                            f"{tally.attempted} counted failed, expected 1"
                        )
            counts = [(op, a + 1 if op.kind != "groupby" and op.fn == "count" else a)
                      for op, a in answers]
            tally = workloads.Tally()
            workloads.check_properties(tally, ref, data, counts)
            if not tally.violations:
                problems.append("a wrong count broke no property")
            if not np.isfinite(ref.dense).all():
                problems.append("reference has non-finite cells")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: ok" if not problems else "selftest: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
