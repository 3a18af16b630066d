"""Central finite-difference verification of analytic gradients.

Every loss in this package returns analytic gradients computed by hand.
This module provides the independent numerical check used by the test
suite: perturb one coordinate at a time, compare the central-difference
quotient against the analytic value, and report the worst relative error.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Floor for the relative-error denominator; below this both gradients are
# treated as zero and the comparison is absolute.
_DENOM_FLOOR = 1e-6


@dataclass
class GradCheckReport:
    """Outcome of one finite-difference sweep."""

    max_rel_error: float
    worst_param: str
    worst_index: tuple
    n_coords_checked: int

    def passed(self, tol: float) -> bool:
        return self.max_rel_error < tol

    def summary(self) -> str:
        status = "OK" if self.max_rel_error < 1e-4 else "SUSPECT"
        return (
            f"grad-check: max rel err {self.max_rel_error:.3e} "
            f"at {self.worst_param}{self.worst_index} "
            f"({self.n_coords_checked} coords) [{status}]"
        )


def grad_check(
    loss_fn: Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
    params: dict[str, np.ndarray],
    eps: float = 1e-4,
    max_coords_per_param: int = 64,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn`` maps a dict of named parameter arrays to ``(loss, grads)``
    where ``grads`` mirrors the parameter dict (missing entries are treated
    as zero gradients).  It must be deterministic: any sampling it performs
    has to be frozen by the caller.

    For large arrays only a seeded random subset of coordinates (at most
    ``max_coords_per_param`` per array) is probed.  Returns a report; never
    raises on mismatch.
    """
    rng = np.random.default_rng(seed)
    work = {name: np.array(value, dtype=float, copy=True) for name, value in params.items()}
    _, analytic = loss_fn(work)

    max_rel = 0.0
    worst_param = ""
    worst_index: tuple = ()
    n_checked = 0

    for name in sorted(work):
        array = work[name]
        grad = analytic.get(name)
        if grad is None:
            grad = np.zeros_like(array)
        grad = np.asarray(grad, dtype=float)
        if grad.shape != array.shape:
            raise ValueError(f"gradient shape {grad.shape} != param shape {array.shape} for {name!r}")

        flat_size = array.size
        if flat_size <= max_coords_per_param:
            coords = np.arange(flat_size)
        else:
            coords = rng.choice(flat_size, size=max_coords_per_param, replace=False)

        for flat in coords:
            original = array.flat[flat]
            array.flat[flat] = original + eps
            loss_plus, _ = loss_fn(work)
            array.flat[flat] = original - eps
            loss_minus, _ = loss_fn(work)
            array.flat[flat] = original

            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            a = grad.flat[flat]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), _DENOM_FLOOR)
            n_checked += 1
            if rel > max_rel:
                max_rel = rel
                worst_param = name
                worst_index = np.unravel_index(flat, array.shape)

    return GradCheckReport(
        max_rel_error=max_rel,
        worst_param=worst_param,
        worst_index=tuple(int(i) for i in worst_index),
        n_coords_checked=n_checked,
    )
