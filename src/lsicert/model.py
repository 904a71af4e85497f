"""Block-structured Gibbs models on R^N.

A model is a probability density q(x) proportional to exp(-V(x)) with

    V(x) = 0.5 * (x - m)' K (x - m) + sum_i lam_i * x_i**4,

where K is a symmetric precision matrix, m a location vector and lam a
vector of non-negative quartic coefficients.  Coordinates are grouped into
an ordered partition of disjoint blocks; all spectral criteria and Gibbs
dynamics operate at the block level.

When lam = 0 the model is Gaussian and K must be positive definite.  With
a non-trivial quartic term the density is still normalizable for any
symmetric K, so positive definiteness is not required.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np
from scipy.linalg import eigvals_banded

SYMMETRY_TOL = 1e-12
# Bytes a document may ask for in its dense K, charged before anything is
# built.  Structured storage for Toeplitz specs would lift this for them.
DENSE_BYTE_BUDGET = 256 * 2**20
# Size of one row block of A - A' in `symmetrized`, which takes a stack of
# matrices a block at a time so that no full temporary is built.
_SYMMETRY_CHUNK_BYTES = 1 << 20
# extreme_eigvalsh takes the banded solver for an m x m matrix of lower
# bandwidth b when m >= _BANDED_MIN_DIM and _BANDED_RATIO * b <= m.
_BANDED_MIN_DIM = 64
_BANDED_RATIO = 32


def per_object(fn):
    """Memoize fn(obj, *args) on obj: the value is computed on the first
    call with these args and kept in obj.__dict__, as cached_property
    keeps its value, so it is freed together with obj."""

    @wraps(fn)
    def memo(obj, *args):
        store = obj.__dict__.setdefault("_per_object", {})
        key = (fn, *args)
        if key not in store:
            store[key] = fn(obj, *args)
        return store[key]

    return memo


class ModelError(Exception):
    """Base class for model construction failures."""


class ModelFormatError(ModelError):
    """Malformed model document: bad JSON, missing keys or wrong shapes."""


class ModelValidationError(ModelError):
    """Well-formed model document violating a semantic invariant."""


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _index(v) -> int:
    if not _is_integer(v):
        raise ModelFormatError(f"partition entries must be integers, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class BlockPartition:
    """Ordered list of disjoint index blocks whose union is [0, N)."""

    blocks: tuple

    def __post_init__(self):
        try:
            canonical = tuple(tuple(_index(i) for i in blk)
                              for blk in self.blocks)
        except TypeError as exc:
            raise ModelFormatError(f"partition entries must be integer lists: {exc}")
        object.__setattr__(self, "blocks", canonical)
        if not canonical:
            raise ModelValidationError("partition needs at least one block")
        if any(len(blk) == 0 for blk in canonical):
            raise ModelValidationError("empty block in partition")
        flat = [i for blk in canonical for i in blk]
        if len(set(flat)) != len(flat):
            raise ModelValidationError("partition blocks overlap")
        if sorted(flat) != list(range(len(flat))):
            raise ModelValidationError(
                "partition must cover exactly the indices 0..N-1")

    @property
    def n(self) -> int:
        return len(self.blocks)

    @cached_property
    def dim(self) -> int:
        return sum(len(blk) for blk in self.blocks)

    @property
    def sizes(self) -> tuple:
        return tuple(len(blk) for blk in self.blocks)

    def block(self, k: int) -> np.ndarray:
        """Indices of block k, in the stored order."""
        return np.asarray(self.blocks[k], dtype=int)

    def complement(self, k: int) -> np.ndarray:
        """Indices outside block k, ascending."""
        return np.flatnonzero(self.coordinate_block != k)

    @cached_property
    def size_groups(self) -> tuple:
        """(ks, idx) per block size: its blocks and their indices, by row."""
        sizes = np.asarray(self.sizes)
        return tuple((ks, np.array([self.blocks[k] for k in ks], dtype=int))
                     for ks in (np.flatnonzero(sizes == s)
                                for s in np.unique(sizes)))

    @cached_property
    def coordinate_block(self) -> np.ndarray:
        """Map from coordinate index to the block containing it."""
        owner = np.empty(self.dim, dtype=int)
        for k, blk in enumerate(self.blocks):
            owner[list(blk)] = k
        return owner


def _lower_bandwidth(mat: np.ndarray) -> int:
    """Largest i - j over the nonzero entries (i, j) of mat, or 0."""
    nz = mat != 0
    rows = np.arange(len(mat))
    first = nz.argmax(axis=1)  # leftmost nonzero of each row
    return int(np.max(rows - first, where=nz[rows, first], initial=0))


def extreme_eigvalsh(mat: np.ndarray) -> tuple:
    """(lambda_min, lambda_max) of a symmetric matrix, from its lower
    triangle as np.linalg.eigvalsh reads it.

    The lower bandwidth b is read from the nonzeros.  When m >= 64 and
    32 b <= m, each extreme is one scipy eigvals_banded call on (b+1, m)
    band storage, O(m^2 b) in time; otherwise one dense eigvalsh, O(m^3).
    Solver time for both extremes on one thread, the bandwidth scan
    aside (ms):

        m      dense   b=0    b=1    b=2    b=8    b=32
        32     0.08    0.10   0.12   0.15   0.22
        64     0.29    0.10   0.18   0.23   0.45   0.69
        256    4.4     0.13   0.47   1.4    3.7    5.3
        1024   177     0.30   1.4    15     54     122

    At full bandwidth the banded solver is several times slower than
    dense, so dense matrices keep the dense path.
    """
    mat = np.asarray(mat, dtype=float)
    m = len(mat)
    if m >= _BANDED_MIN_DIM:
        b = _lower_bandwidth(mat)
        if _BANDED_RATIO * b <= m:
            band = np.zeros((b + 1, m))
            for k in range(b + 1):
                band[k, :m - k] = np.diagonal(mat, -k)
            lo, hi = (float(eigvals_banded(band, lower=True, select="i",
                                           select_range=(i, i))[0])
                      for i in (0, m - 1))
            return lo, hi
    evals = np.linalg.eigvalsh(mat)
    return float(evals[0]), float(evals[-1])


def symmetrized(mat: np.ndarray, tol: float) -> tuple:
    """(S, asym) for the finite matrices A over the last two axes of mat:
    asym flags each A with max|A - A'| > tol max(1, max|A|), taken one
    _SYMMETRY_CHUNK_BYTES row block at a time; S is mat if it is read-only,
    owns its data and is bitwise symmetric, else 0.5 A + 0.5 A'."""
    flat = mat.reshape(-1, *mat.shape[-2:])
    n = flat.shape[2]
    rows = max(1, _SYMMETRY_CHUNK_BYTES // (8 * n))
    mats = max(1, rows // n)  # whole matrices per block, when they fit
    limit = tol * np.fmax(1.0, np.fmax(-flat.min((1, 2)), flat.max((1, 2))))
    asym = np.zeros(len(flat), dtype=bool)
    keep = not mat.flags.writeable and mat.base is None
    for t in range(0, len(flat), mats):
        for lo in range(0, n, rows):
            a = flat[t:t + mats, lo:lo + rows]
            b = flat[t:t + mats, :, lo:lo + rows].swapaxes(1, 2)
            keep = keep and np.array_equal(a.view("u8"), b.view("u8"))
            with np.errstate(over="ignore"):  # an inf gap is over any tol
                gap = np.subtract(a, b)
            gap = np.abs(gap, out=gap).max((1, 2))
            asym[t:t + mats] |= gap > limit[t:t + mats]
    if not keep:
        mat = 0.5 * mat + 0.5 * mat.swapaxes(-1, -2)  # cannot overflow
    return mat, asym.reshape(mat.shape[:-2])


@dataclass(frozen=True, eq=False)
class GibbsModel:
    """Gibbs density exp(-V) with quadratic-plus-quartic potential V."""

    partition: BlockPartition
    precision: np.ndarray
    mean: np.ndarray
    quartic: np.ndarray

    def __post_init__(self):
        n = self.partition.dim
        prec = np.asarray(self.precision, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        quart = np.asarray(self.quartic, dtype=float)
        if prec.shape != (n, n):
            raise ModelFormatError(
                f"precision must be {n}x{n}, got {prec.shape}")
        if mean.shape != (n,):
            raise ModelFormatError(f"mean must have length {n}, got {mean.shape}")
        if quart.shape != (n,):
            raise ModelFormatError(
                f"quartic must have length {n}, got {quart.shape}")
        if not all(np.all(np.isfinite(arr)) for arr in (prec, mean, quart)):
            raise ModelValidationError("model entries must be finite")
        prec, asym = symmetrized(prec, SYMMETRY_TOL)
        if asym:
            raise ModelValidationError("precision matrix is not symmetric")
        if np.any(quart < 0):
            raise ModelValidationError("quartic coefficients must be >= 0")
        if np.all(quart == 0):
            lam_min = extreme_eigvalsh(prec)[0]
            if lam_min <= 0:
                raise ModelValidationError(
                    f"precision must be positive definite for a Gaussian model "
                    f"(min eigenvalue {lam_min:.6g})")
        for name, arr in (("precision", prec), ("mean", mean),
                          ("quartic", quart)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.partition.dim

    @property
    def is_gaussian(self) -> bool:
        return bool(np.all(self.quartic == 0))

    @cached_property
    def cross(self) -> np.ndarray:
        """Off-block part of K, read-only: the cross-block Hessian at any x."""
        owner = self.partition.coordinate_block
        cross = np.where(owner[:, None] == owner, 0.0, self.precision)
        cross.flags.writeable = False
        return cross


def toeplitz_matrix(m: int, diag: float, band: dict) -> np.ndarray:
    """Symmetric banded Toeplitz matrix diag*I + sum_j b_j (E_j + E_-j).

    band maps positive offsets to coefficients; offsets at or beyond m fall
    outside the matrix and are rejected.  The matrix is the only m x m
    array built: each diagonal gets one value, rounded as the sum
    diag*I + b_1 (E_1 + E_-1) + ... of dense terms would round it, signed
    zeros included.
    """
    if m < 1:
        raise ModelValidationError("toeplitz size must be >= 1")
    terms = [(int(off), float(coeff)) for off, coeff in band.items()]
    for j, _ in terms:
        if j < 1 or j >= m:
            raise ModelValidationError(
                f"band offset {j} outside the valid range 1..{m - 1}")

    def entry(k: int) -> float:
        val = (1.0 if k == 0 else 0.0) * float(diag)
        for j, coeff in terms:
            val += coeff * (1.0 if k == j else 0.0)
        return val

    mat = np.full((m, m), entry(-1))
    for k in {0, *(j for j, _ in terms)}:
        np.fill_diagonal(mat[:, k:], entry(k))
        np.fill_diagonal(mat[k:, :], entry(k))
    return mat


def grad_potential(model: GibbsModel, x: np.ndarray) -> np.ndarray:
    """Gradient of the potential, vectorized over rows of x."""
    x = np.asarray(x, dtype=float)
    grad = (x - model.mean) @ model.precision
    return grad if model.is_gaussian else grad + 4.0 * model.quartic * (x * x * x)


def _float_array(doc: dict, key: str, default) -> np.ndarray:
    try:
        return np.array(doc.get(key, default), dtype=float)
    except (TypeError, ValueError):
        raise ModelFormatError(f"'{key}' must be a rectangular array of "
                               "numbers")


def model_from_dict(doc: dict) -> GibbsModel:
    """Build a model from its document form (see load_model)."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    if "dim" not in doc or "partition" not in doc:
        raise ModelFormatError("model document needs 'dim' and 'partition'")
    dim = doc["dim"]
    if not _is_integer(dim):
        raise ModelFormatError("'dim' must be an integer")
    dense_bytes = int(dim) ** 2 * 8
    if dense_bytes > DENSE_BYTE_BUDGET:
        raise ValueError(f"a dense {dim}x{dim} precision needs {dense_bytes} "
                         f"bytes, over the {DENSE_BYTE_BUDGET}-byte budget")
    partition = BlockPartition(doc["partition"])
    if partition.dim != dim:
        raise ModelValidationError(
            f"partition covers {partition.dim} coordinates, dim says {dim}")

    has_prec = "precision" in doc
    has_toep = "toeplitz" in doc
    if has_prec == has_toep:
        raise ModelFormatError(
            "model document needs exactly one of 'precision' or 'toeplitz'")
    if has_prec:
        precision = _float_array(doc, "precision", None)
    else:
        spec = doc["toeplitz"]
        try:
            m, diag = spec["m"], float(spec["diag"])
            band = {int(k): float(v) for k, v in spec["band"].items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"bad toeplitz block: {exc}")
        if not _is_integer(m):
            raise ModelFormatError("'toeplitz.m' must be an integer")
        if m != dim:
            raise ModelValidationError(
                f"toeplitz size {m} does not match dim {dim}")
        precision = toeplitz_matrix(m, diag, band)
    precision.flags.writeable = False  # built here: the model may keep it

    mean = _float_array(doc, "mean", np.zeros(dim))
    quartic = _float_array(doc, "quartic", np.zeros(dim))
    return GibbsModel(partition=partition, precision=precision,
                      mean=mean, quartic=quartic)


def model_to_dict(model: GibbsModel) -> dict:
    """Document form of a model, suitable for JSON serialization."""
    return {
        "dim": model.dim,
        "partition": [list(blk) for blk in model.partition.blocks],
        "mean": model.mean.tolist(),
        "precision": model.precision.tolist(),
        "quartic": model.quartic.tolist(),
    }


def model_digest(model: GibbsModel) -> str:
    """SHA-256 hex digest of the model, independent of its file form.

    Hashed in order: the little-endian float64 bytes of precision
    (row-major), mean and quartic; then, per block, its length and its
    indices as little-endian int64.
    """
    h = hashlib.sha256()
    for arr in (model.precision, model.mean, model.quartic):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    h.update(np.array([v for blk in model.partition.blocks
                       for v in (len(blk), *blk)], dtype="<i8").tobytes())
    return h.hexdigest()


def load_model(path) -> GibbsModel:
    """Load a model from a JSON file.

    The document carries 'dim', 'partition', 'mean' (optional, default 0),
    'quartic' (optional, default 0) and either an explicit 'precision'
    matrix or a banded 'toeplitz' shorthand.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}")
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}")
    return model_from_dict(doc)


def save_model(model: GibbsModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
