"""Euclidean embedding tables, negative sampling and skip-gram style losses.

All parameters live in named :class:`EmbeddingTable` objects (dense float64
matrices tagged with their geometry).  Losses return the value together with
hand-derived analytic gradients in one sparse format: an int64 array of row
ids plus a gradient matrix with one row per id.  An id may repeat; its rows
are summed in array order.  Losses that touch several tables or dense
parameters return a :class:`Grads`, which :func:`sgd_update` consumes.  A
full-softmax log-probability is kept as a slow oracle against which the
sampled estimators are tested.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

EUCLIDEAN = "euclidean"
POINCARE = "poincare"

PAD_ID = 0

# Bounded retries before the sampler falls back to exact rejection.
_MAX_RESAMPLE_TRIES = 32


class NumericalError(RuntimeError):
    """Raised when a loss or update encounters non-finite values."""


@dataclass
class EmbeddingTable:
    """Entity-by-dimension parameter matrix with a geometry tag.

    Row 0 is the reserved PAD row: it is zero-initialised, never sampled
    and never touched by any loss or update.
    """

    name: str
    values: np.ndarray
    geometry: str = EUCLIDEAN

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.name, self.values.copy(), self.geometry)

    def validate(self, eps_ball: float = 1e-5) -> None:
        if not np.all(np.isfinite(self.values)):
            raise NumericalError(f"table {self.name!r} contains non-finite values")
        if self.geometry == POINCARE:
            norms = np.linalg.norm(self.values, axis=1)
            if np.any(norms > 1.0 - eps_ball + 1e-12):
                raise NumericalError(f"table {self.name!r} has rows outside the unit ball")


def new_table(name: str, rows: int, dim: int, rng: np.random.Generator,
              geometry: str = EUCLIDEAN) -> EmbeddingTable:
    """Create a freshly initialised table.

    Euclidean coordinates are uniform in ``(-0.5/dim, 0.5/dim)``; ball
    coordinates are uniform in ``(-0.001, 0.001)`` so every row starts well
    inside the unit ball.  The PAD row is zeroed after drawing so the RNG
    stream does not depend on the PAD policy.
    """
    if rows <= 0 or dim <= 0:
        raise ValueError(f"table {name!r} needs positive shape, got {rows}x{dim}")
    if geometry == EUCLIDEAN:
        half = 0.5 / dim
        values = rng.uniform(-half, half, size=(rows, dim))
    elif geometry == POINCARE:
        values = rng.uniform(-0.001, 0.001, size=(rows, dim))
    else:
        raise ValueError(f"unknown geometry {geometry!r}")
    values[PAD_ID] = 0.0
    return EmbeddingTable(name, values, geometry)


class Grads(NamedTuple):
    """Gradients of one update step.

    ``rows[table]`` holds int64 row ids and ``row_grads[table]`` the matching
    gradient matrix, one row per id.  ``dense[name]`` is the gradient of a
    dense parameter; it may cover only the leading rows of that parameter
    (the used prefix of a positional matrix).
    """

    rows: dict
    row_grads: dict
    dense: dict


class NegativeSampler:
    """Smoothed-unigram sampler over one entity namespace.

    Sampling probabilities are proportional to ``count ** exponent``
    (0.75 by default).  PAD and explicitly excluded ids are never returned:
    collisions are resampled a bounded number of times, after which the
    sampler falls back to exact rejection over the remaining mass.
    """

    def __init__(self, counts: np.ndarray, exponent: float = 0.75, seed: int = 0):
        counts = np.asarray(counts, dtype=float)
        if counts.ndim != 1 or counts.shape[0] < 2:
            raise ValueError("counts must be a 1-d array covering the namespace incl. PAD")
        weights = np.where(counts > 0, counts, 0.0) ** exponent
        weights[PAD_ID] = 0.0
        if weights.sum() <= 0:
            raise ValueError("sampler needs at least one entity with positive count")
        self.exponent = exponent
        self.weights = weights
        self.cumulative = np.cumsum(weights)
        self.total = float(self.cumulative[-1])
        self.rng = np.random.default_rng(seed)

    @property
    def probabilities(self) -> np.ndarray:
        return self.weights / self.total

    def sample(self, k: int, exclude: frozenset | set | tuple = ()) -> np.ndarray:
        if k < 1:
            raise ValueError("k must be >= 1")
        excluded = set(exclude)
        out = np.empty(k, dtype=np.int64)
        for slot in range(k):
            picked = -1
            for _ in range(_MAX_RESAMPLE_TRIES):
                u = self.rng.random() * self.total
                candidate = int(np.searchsorted(self.cumulative, u, side="right"))
                if candidate not in excluded:
                    picked = candidate
                    break
            if picked < 0:
                picked = self._rejection_sample(excluded)
            out[slot] = picked
        return out

    def _rejection_sample(self, excluded: set) -> int:
        allowed = self.weights.copy()
        for idx in excluded:
            if 0 <= idx < allowed.shape[0]:
                allowed[idx] = 0.0
        total = allowed.sum()
        if total <= 0:
            raise ValueError("exclusions cover the entire vocabulary")
        cumulative = np.cumsum(allowed)
        u = self.rng.random() * total
        return int(np.searchsorted(cumulative, u, side="right"))


def log_sigmoid(x: float | np.ndarray) -> float | np.ndarray:
    """Numerically stable log(sigmoid(x)) = -log(1 + exp(-x))."""
    return -np.logaddexp(0.0, -x)


def sigmoid(x: float | np.ndarray) -> float | np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def softmax_logprob_full(query: np.ndarray, table: EmbeddingTable, target: int) -> float:
    """Exact log p(target | query) with the normaliser summed over the whole table.

    The sum runs over every non-PAD row.  Only used as a desk-scale oracle;
    max-subtraction guards the exponentials.
    """
    if target == PAD_ID or not 0 < target < table.rows:
        raise ValueError(f"invalid target id {target}")
    query = np.asarray(query, dtype=float)
    if not np.all(np.isfinite(query)):
        raise NumericalError("non-finite query vector")
    logits = table.values[1:] @ query
    peak = logits.max()
    log_norm = peak + np.log(np.exp(logits - peak).sum())
    return float(logits[target - 1] - log_norm)


def softmax_full_loss_grad(
    query: np.ndarray, table: EmbeddingTable, target: int
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Negative full-softmax log-likelihood with analytic gradients.

    Companion to :func:`softmax_logprob_full` for training the oracle side
    of tiny-vocabulary comparisons.  Returns ``(loss, grad_query, rows,
    grads)``: every non-PAD row of the output table and its gradient.
    """
    logp = softmax_logprob_full(query, table, target)
    query = np.asarray(query, dtype=float)
    logits = table.values[1:] @ query
    peak = logits.max()
    probs = np.exp(logits - peak)
    probs /= probs.sum()

    # d(-logp)/dq = E_p[z] - z_target
    grad_query = probs @ table.values[1:] - table.values[target]
    probs[target - 1] -= 1.0
    return -logp, grad_query, np.arange(1, table.rows), np.outer(probs, query)


def sampled_softmax_loss_grad(
    query: np.ndarray,
    table: EmbeddingTable,
    target: int,
    negatives: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Negative-sampling estimator of the softmax objective.

    loss = -log s(q.z_t) - sum_n log s(-q.z_n)   with s the logistic function.

    Returns ``(loss, grad_query, rows, grads)``: ``rows`` is the target
    followed by each negative (repeats kept) and ``grads`` their gradient
    rows in ``table``.
    """
    query = np.asarray(query, dtype=float)
    if not np.isfinite(query).all():
        raise NumericalError("non-finite query vector")
    if target == PAD_ID or not 0 < target < table.rows:
        raise ValueError(f"invalid target id {target}")
    negatives = np.asarray(negatives, dtype=np.int64)
    if (negatives == target).any():
        raise ValueError("target id present among negatives")
    if (negatives == PAD_ID).any():
        raise ValueError("PAD id present among negatives")

    z_target = table.values[target]
    score_t = float(query @ z_target)
    loss = -log_sigmoid(score_t)
    coeffs = np.empty(negatives.size + 1)
    coeffs[0] = -sigmoid(-score_t)
    grad_query = coeffs[0] * z_target
    for slot, neg in enumerate(negatives, 1):
        z_neg = table.values[neg]
        score_n = float(query @ z_neg)
        loss -= log_sigmoid(-score_n)
        coeffs[slot] = sigmoid(score_n)
        grad_query = grad_query + coeffs[slot] * z_neg

    rows = np.concatenate(([target], negatives))
    return float(loss), grad_query, rows, np.outer(coeffs, query)


def sgd_update(tables: dict[str, EmbeddingTable], grads: Grads, lr: float,
               dense_params: dict[str, np.ndarray] | None = None) -> None:
    """Apply one plain gradient step in place.

    Each table's gradient rows are summed per row id, in array order, and
    the table takes one step.  Only Euclidean tables may be touched here;
    rows of ball-geometry tables go through the Riemannian update instead.
    ``dense_params`` receives the dense (non-table) gradients, e.g. attention
    parameters; a gradient covering a prefix of rows steps only those rows.
    """
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    for table_name, rows in grads.rows.items():
        table = tables[table_name]
        if table.geometry != EUCLIDEAN:
            raise ValueError(
                f"table {table_name!r} has geometry {table.geometry!r}; use the Riemannian update"
            )
        # each row's slot is its id's place in order of first emission
        slot_of: dict = {}
        slot = np.array([slot_of.setdefault(row, len(slot_of)) for row in rows.tolist()],
                        dtype=np.int64)
        if PAD_ID in slot_of:
            raise ValueError(f"gradient routed to PAD row of table {table_name!r}")
        unique = np.fromiter(slot_of, dtype=np.int64, count=len(slot_of))
        # bincount adds the weights of one cell in array order, so a repeated
        # id sums left to right, bit for bit as a Python loop would
        cells = (slot[:, None] * table.dim + np.arange(table.dim)).ravel()
        summed = np.bincount(cells, weights=grads.row_grads[table_name].ravel(),
                             minlength=unique.size * table.dim).reshape(unique.size, table.dim)
        finite = np.isfinite(summed).all(axis=1)
        if not finite.all():
            bad = unique[int(np.argmin(finite))]
            raise NumericalError(f"non-finite gradient for table {table_name!r} row {bad}")
        table.values[unique] -= lr * summed
    if grads.dense:
        if dense_params is None:
            raise ValueError("dense gradients present but no dense parameter dict given")
        for name, grad in grads.dense.items():
            if not np.isfinite(grad).all():
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
            dense_params[name][:len(grad)] -= lr * grad


def write_table_tsv(path, table: EmbeddingTable, keys: list[str]) -> None:
    """Export a table as TSV: metadata line, header, then one row per entity.

    ``keys[i]`` is the raw string key of row ``i``; the PAD row is skipped.
    Values are written with nine significant digits.
    """
    if len(keys) != table.rows:
        raise ValueError("key list length does not match table rows")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# geometry={table.geometry}\n")
        handle.write(f"entity\t{table.dim}\n")
        for row in range(1, table.rows):
            vector = " ".join(f"{v:.9g}" for v in table.values[row])
            handle.write(f"{keys[row]}\t{vector}\n")


def read_table_tsv(path, name: str) -> tuple[EmbeddingTable, list[str]]:
    """Inverse of :func:`write_table_tsv`; restores the PAD row as zeros."""
    with open(path, "r", encoding="utf-8") as handle:
        meta = handle.readline().strip()
        if not meta.startswith("# geometry="):
            raise ValueError(f"{path}: missing geometry metadata line")
        geometry = meta.split("=", 1)[1]
        header = handle.readline().strip().split("\t")
        dim = int(header[1])
        keys = ["<pad>"]
        rows = [np.zeros(dim)]
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            key, vector = line.split("\t")
            keys.append(key)
            rows.append(np.array([float(v) for v in vector.split(" ")]))
    return EmbeddingTable(name, np.vstack(rows), geometry), keys
