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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import DataError, _read_lines

EUCLIDEAN = "euclidean"
POINCARE = "poincare"

PAD_ID = 0

# Bounded retries before the sampler falls back to exact rejection.
_MAX_RESAMPLE_TRIES = 32
# Unigram smoothing: negatives are drawn proportionally to count ** this.
SAMPLER_EXPONENT = 0.75
# A ball-geometry row's norm stays at most 1 - EPS_BALL.
EPS_BALL = 1e-5


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

    def validate(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise NumericalError(f"table {self.name!r} contains non-finite values")
        if self.geometry == POINCARE:
            norms = np.linalg.norm(self.values, axis=1)
            if np.any(norms > 1.0 - EPS_BALL + 1e-12):
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

    Sampling probabilities are proportional to ``count ** SAMPLER_EXPONENT``.
    PAD and explicitly excluded ids are never returned: collisions are
    resampled a bounded number of times, after which the sampler falls back
    to exact rejection over the remaining mass.
    """

    def __init__(self, counts: np.ndarray, seed: int = 0):
        counts = np.asarray(counts, dtype=float)
        if counts.ndim != 1 or counts.shape[0] < 2:
            raise ValueError("counts must be a 1-d array covering the namespace incl. PAD")
        weights = np.where(counts > 0, counts, 0.0) ** SAMPLER_EXPONENT
        weights[PAD_ID] = 0.0
        if weights.sum() <= 0:
            raise ValueError("sampler needs at least one entity with positive count")
        self.weights = weights
        self.cumulative = np.cumsum(weights)
        self.total = float(self.cumulative[-1])
        self.rng = np.random.default_rng(seed)

    def sample(self, k: int, exclude: frozenset | set | tuple = ()) -> np.ndarray:
        """``k`` ids, each slot drawn until it is not excluded.

        The doubles come one batch per unfilled slot, consumed in order: each
        fills the first open slot or is its rejected try, and a slot's double
        after its last try goes to the exact rejection draw.  These are the
        doubles, and the ids, of one ``rng.random()`` call per try.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        excluded = set(exclude)
        out: list[int] = []
        tries = 0
        while len(out) < k:
            draws = self.rng.random(k - len(out))
            picks = np.searchsorted(self.cumulative, draws * self.total, side="right")
            for u, candidate in zip(draws.tolist(), picks.tolist()):
                if tries == _MAX_RESAMPLE_TRIES:
                    out.append(self._rejection_sample(excluded, u))
                    tries = 0
                elif candidate in excluded:
                    tries += 1
                else:
                    out.append(candidate)
                    tries = 0
        return np.array(out, dtype=np.int64)

    def _rejection_sample(self, excluded: set, u: float) -> int:
        allowed = self.weights.copy()
        for idx in excluded:
            if 0 <= idx < allowed.shape[0]:
                allowed[idx] = 0.0
        total = allowed.sum()
        if total <= 0:
            raise ValueError("exclusions cover the entire vocabulary")
        cumulative = np.cumsum(allowed)
        return int(np.searchsorted(cumulative, u * total, side="right"))


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
    target,
    negatives: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Negative-sampling estimator of the softmax objective.

    loss = -log s(q.z_t) - sum_n log s(-q.z_n)   with s the logistic function.

    ``query`` is one (d,) vector with a target id and (k,) negatives, or a
    (B, d) stack with (B,) targets and (B, k) negatives, whose loss is the
    sum over the stack.  Returns ``(loss, grad_query, rows, grads)``:
    ``rows`` is each query's target followed by its negatives (repeats
    kept) and ``grads`` their gradient rows in ``table``, one per row id.
    """
    query = np.asarray(query, dtype=float)
    if not np.isfinite(query).all():
        raise NumericalError("non-finite query vector")
    target = np.asarray(target, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    if target.shape != query.shape[:-1] or negatives.shape[:-1] != target.shape:
        raise ValueError("expected one target and one row of negatives per query")
    if ((target <= PAD_ID) | (target >= table.rows)).any():
        raise ValueError(f"invalid target id {target}")
    if (negatives == target[..., None]).any():
        raise ValueError("target id present among negatives")
    if (negatives == PAD_ID).any():
        raise ValueError("PAD id present among negatives")

    rows = np.concatenate((target[..., None], negatives), axis=-1)
    z = table.values[rows]
    scores = (z @ query[..., None])[..., 0]
    # the target's logit enters the loss as +score, each negative's as -score
    margins = -scores
    margins[..., 0] = scores[..., 0]
    loss = -float(log_sigmoid(margins).sum())
    coeffs = sigmoid(-margins)
    coeffs[..., 0] = -coeffs[..., 0]
    return (loss, (coeffs[..., None, :] @ z)[..., 0, :], rows,
            coeffs[..., None] * query[..., None, :])


def row_sums(rows: np.ndarray, row_grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids in order of first emission and the sum of each id's
    gradient rows (vectors or matrices), added left to right, bit for bit as
    a Python loop would."""
    slot_of: dict = {}
    slot = np.array([slot_of.setdefault(row, len(slot_of)) for row in rows.tolist()],
                    dtype=np.int64)
    unique = np.fromiter(slot_of, dtype=np.int64, count=len(slot_of))
    shape = row_grads.shape[1:]
    width = math.prod(shape)
    # bincount adds the weights of one cell in array order
    cells = (slot[:, None] * width + np.arange(width)).ravel()
    summed = np.bincount(cells, weights=row_grads.ravel(), minlength=unique.size * width)
    return unique, summed.reshape((unique.size, *shape))


def sgd_update(tables: dict[str, EmbeddingTable], grads: Grads, lr: float,
               dense_params: dict[str, np.ndarray] | None = None) -> None:
    """Apply one plain gradient step in place.

    Each table's gradient rows are summed per row id, in array order, and
    the table takes one step; ids that do not repeat step with their rows
    as given.  Only Euclidean tables may be touched here; rows of
    ball-geometry tables go through the Riemannian update instead.
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
        ids = rows.tolist()  # set and list scans: cheaper than numpy's on a few ids
        if PAD_ID in ids:
            raise ValueError(f"gradient routed to PAD row of table {table_name!r}")
        unique, summed = rows, grads.row_grads[table_name]
        if len(set(ids)) < len(ids):
            unique, summed = row_sums(unique, summed)
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
        line = "{}\t" + " ".join(["{:.9g}"] * table.dim) + "\n"
        for key, vector in zip(keys[1:], table.values[1:]):
            handle.write(line.format(key, *vector.tolist()))


def _number(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return math.nan


def read_table_tsv(path, name: str) -> tuple[EmbeddingTable, list[str]]:
    """Inverse of :func:`write_table_tsv`; restores the PAD row as zeros.

    A missing file, metadata line or header, a row whose value count is not
    the header's dim, and a value that is not a finite number are
    DataErrors naming the file and line.
    """
    lines = _read_lines(path)
    try:
        number, meta = next(lines, (1, ""))
    except OSError as err:
        raise DataError(f"{path}: cannot read ({err.strerror})") from None
    if not meta.startswith("# geometry="):
        raise DataError(f"{path}:{number}: missing geometry metadata line")
    number, header = next(lines, (number + 1, ""))
    dim = header.split("\t")[1:]
    if len(dim) != 1 or not dim[0].isdigit() or int(dim[0]) == 0:
        raise DataError(f"{path}:{number}: expected the header 'entity<TAB><dim>'")
    dim = int(dim[0])
    keys, numbers, vectors = ["<pad>"], [], []
    for number, line in lines:
        key, _, vector = line.partition("\t")
        if vector.count(" ") != dim - 1:  # checked per row; parsed as one block
            raise DataError(f"{path}:{number}: expected {dim} values, "
                            f"got {vector.count(' ') + 1}")
        keys.append(key)
        numbers.append(number)
        vectors.append(vector)
    values = np.zeros((len(keys), dim))
    try:
        values[1:] = np.loadtxt(vectors, delimiter=" ", comments=None, ndmin=2) if vectors else 0
    except ValueError:  # a token that is no number reads as nan
        values[1:] = [[_number(token) for token in vector.split(" ")] for vector in vectors]
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise DataError(f"{path}:{numbers[bad[0] - 1]}: a value is not a finite number")
    return EmbeddingTable(name, values, meta.split("=", 1)[1].strip()), keys
