"""Operation counts and the output checks attached to them.

An operation is one fit, predict request, evaluate, importance run or CLI
call. It fails when it raises or when an output check on its result
fails; ``failed`` counts operations, not checks.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Any

import numpy as np

from tracing import Tracer

MASS_TOL = 1e-12
REPORT_TOL = 1e-12
MAX_ERRORS_KEPT = 20


@dataclass
class Op:
    id: int
    value: Any
    seconds: float
    ok: bool


class Ledger:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.checks_run = 0
        self.errors: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def _note(self, text: str) -> None:
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(text)

    def call(self, name: str, fn, *args, **kwargs) -> Op:
        """Run one operation inside a span; an exception marks it failed
        and is kept with its traceback instead of stopping the run."""
        op_id = self.attempted
        self.attempted += 1
        with self.tracer.span(name):
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
                ok = True
            except Exception:  # the run goes on; the failure is counted and reported
                value = None
                ok = False
            seconds = time.perf_counter() - start
        if not ok:
            self.failed_ops.add(op_id)
            self._note(f"{name} raised:\n{traceback.format_exc()}")
        return Op(op_id, value, seconds, ok)

    def must(self, name: str, fn, *args, **kwargs) -> Op:
        """An operation the rest of the pass depends on: count it, and
        let a failure end the run."""
        op = self.call(name, fn, *args, **kwargs)
        if not op.ok:
            raise RuntimeError(f"{name} failed; the pass cannot go on:\n{self.errors[-1]}")
        return op

    def check(self, op: Op, name: str, ok: bool, detail: str = "") -> bool:
        self.checks_run += 1
        if not ok:
            self.failed_ops.add(op.id)
            self._note(f"check {name} failed: {detail}")
        return ok


def curves_sane(values: np.ndarray) -> tuple[bool, str]:
    """S(0) = 1, nonincreasing in time, and inside [0, 1]."""
    v = np.asarray(values, dtype=np.float64)
    start = float(np.abs(v[:, 0] - 1.0).max())
    rise = float(np.diff(v, axis=1).max()) if v.shape[1] > 1 else 0.0
    lo, hi = float(v.min()), float(v.max())
    ok = start <= MASS_TOL and rise <= 0.0 and lo >= -MASS_TOL and hi <= 1.0 + MASS_TOL
    return ok, f"|S(0)-1| {start:.2e}, max rise {rise:.2e}, range [{lo:.3e}, {hi:.6f}]"


def masses_sane(probs: np.ndarray) -> tuple[bool, str]:
    """Bin masses are nonnegative and sum to 1 within 1e-12."""
    p = np.asarray(probs, dtype=np.float64)
    gap = float(np.abs(p.sum(axis=1) - 1.0).max())
    low = float(p.min())
    return gap <= MASS_TOL and low >= 0.0, f"max |sum-1| {gap:.2e}, min mass {low:.3e}"


def reports_match(cli: dict, lib: dict, keys: tuple[str, ...]) -> tuple[bool, str]:
    gaps = {k: abs(float(cli[k]) - float(lib[k])) for k in keys}
    worst = max(gaps.values())
    return worst <= REPORT_TOL, ", ".join(f"{k} gap {g:.2e}" for k, g in gaps.items())
