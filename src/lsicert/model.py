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

One Cholesky factorization of K decides positive definiteness.  It takes
the route extreme_eigvalsh takes, by one rule (_lower_band): LAPACK
dpbtrf on K's lower band storage when m >= 64 and 32 b <= m for the lower
bandwidth b, else np.linalg.cholesky.  Only a K that fails pays for the
eigen-solve whose least eigenvalue the refusal reports.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import re
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import chain

import numpy as np
from scipy.linalg.lapack import dlamch, dpbtrf, dsbevx

SYMMETRY_TOL = 1e-12
# Bytes and operations one run may ask for, each charged by `charge`
# before anything large is built.  An operation is about 3 ns on a 2 vCPU
# machine, so OP_BUDGET is about 6 s of work.
DENSE_BYTE_BUDGET = 256 * 2**20
OP_BUDGET = 2 * 10**9
# Bytes charged per row of a `verify` table, from its Check to its CSV
# line: tracemalloc reads 460 (gibbs) to 550 (prop4) at the CLI.
ROW_BYTES = 640
# Size of one row block of A - A' in `symmetrized`, which takes a stack of
# matrices a block at a time so that no full temporary is built.
_SYMMETRY_CHUNK_BYTES = 1 << 20
# An m x m matrix of lower bandwidth b takes the banded LAPACK routines
# (_lower_band) when m >= _BANDED_MIN_DIM and _BANDED_RATIO * b <= m.
_BANDED_MIN_DIM = 64
_BANDED_RATIO = 32


def charge(what: str, nbytes: int, ops: int = 0) -> None:
    """Refuse `what` in one ValueError line when it needs more than
    DENSE_BYTE_BUDGET bytes or takes more than OP_BUDGET operations."""
    if nbytes > DENSE_BYTE_BUDGET:
        raise ValueError(f"{what} needs {nbytes} bytes, over the "
                         f"{DENSE_BYTE_BUDGET}-byte budget")
    if ops > OP_BUDGET:
        raise ValueError(f"{what} takes about {ops} operations, over the "
                         f"{OP_BUDGET} budget")


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
    return type(v) is int or (isinstance(v, numbers.Integral)
                              and not isinstance(v, bool))


def _real(v, what: str) -> float:
    """float(v) for a real number v that is not a bool; else
    ModelFormatError, as for a string or an int too large for a float."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            pass
    raise ModelFormatError(f"{what} must be a real number within float range")


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
        flat = np.fromiter(chain.from_iterable(self.blocks), dtype=int,
                           count=self.dim)
        owner = np.empty(self.dim, dtype=int)
        owner[flat] = np.repeat(np.arange(self.n), self.sizes)
        return owner


def _lower_bandwidth(mat: np.ndarray) -> int:
    """Largest i - j over the nonzero entries (i, j) of mat, or 0; the
    nonzero mask is taken one _SYMMETRY_CHUNK_BYTES row block at a time."""
    step = max(1, _SYMMETRY_CHUNK_BYTES // max(1, mat.shape[1]))
    width = 0
    for lo in range(0, len(mat), step):
        nz = mat[lo:lo + step] != 0
        rows = np.arange(len(nz))
        first = nz.argmax(axis=1)  # leftmost nonzero of each row
        width = max(width, int(np.max(rows + lo - first,
                                      where=nz[rows, first], initial=0)))
        del nz  # else it lives on while the next block's mask is built
    return width


def _lower_band(mat: np.ndarray):
    """(b+1, m) lower band storage of the m x m matrix mat, whose lower
    bandwidth b is read from the nonzeros, when the banded routines take
    it: m >= _BANDED_MIN_DIM and _BANDED_RATIO * b <= m.  Else None, and
    mat takes the dense routines."""
    m = len(mat)
    if m < _BANDED_MIN_DIM:
        return None
    b = _lower_bandwidth(mat)
    if _BANDED_RATIO * b > m:
        return None
    band = np.zeros((b + 1, m))
    for k in range(b + 1):
        band[k, :m - k] = np.diagonal(mat, -k)
    return band


def _banded_eigval(band: np.ndarray, i: int) -> float:
    """The i-th smallest eigenvalue (1-based) of the symmetric matrix in
    lower band storage band: one LAPACK dsbevx call with the arguments
    scipy.linalg.eigvals_banded(band, lower=True, select="i") passes, so
    the same bits, without its argument checks.  A band holding NaN or
    inf is refused with ValueError, as that wrapper refuses it."""
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    # abstol twice the safe minimum, the most accurate bisection
    w, _, _, _, info = dsbevx(band, 0.0, 1.0, i, i, compute_v=0, range=2,
                              lower=1, abstol=2 * dlamch("s"), mmax=1,
                              overwrite_ab=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal sbevx")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"sbevx did not converge (LAPACK info={info})")
    return float(w[0])


def extreme_eigvalsh(mat: np.ndarray) -> tuple:
    """(lambda_min, lambda_max) of a symmetric matrix, from its lower
    triangle as np.linalg.eigvalsh reads it.

    When _lower_band gives band storage (m >= 64 and 32 b <= m for the
    lower bandwidth b), each extreme is one LAPACK dsbevx call on it
    (_banded_eigval), O(m^2 b) in time; otherwise one dense eigvalsh,
    O(m^3).  Solver time for both extremes on one thread of a 2 vCPU
    Xeon, the bandwidth scan aside (ms, best of 5 to 30):

        m      dense   b=0    b=1    b=2    b=8    b=32
        32     0.050   0.012  0.027  0.036  0.058
        64     0.17    0.016  0.057  0.085  0.16   0.29
        256    2.8     0.042  0.25   0.72   1.9    3.5
        1024   111     0.13   1.0    8.3    28     79

    At full bandwidth the banded solver is several times slower than
    dense, so dense matrices keep the dense path.
    """
    mat = np.asarray(mat, dtype=float)
    band = _lower_band(mat)
    if band is not None:
        return _banded_eigval(band, 1), _banded_eigval(band, len(mat))
    evals = np.linalg.eigvalsh(mat)
    return float(evals[0]), float(evals[-1])


def _is_positive_definite(mat: np.ndarray) -> bool:
    """Whether one Cholesky factorization of the symmetric matrix mat, read
    from its lower triangle, succeeds: LAPACK dpbtrf on _lower_band's
    storage, else np.linalg.cholesky."""
    band = _lower_band(mat)
    if band is not None:
        return dpbtrf(band, lower=1)[1] == 0
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def symmetrized(mat: np.ndarray, tol: float) -> tuple:
    """(S, asym) for the finite matrices A over the last two axes of mat:
    asym flags each A with max|A - A'| > tol max(1, max|A|), taken one
    _SYMMETRY_CHUNK_BYTES row block at a time; S is mat if it is read-only,
    owns its data and is bitwise symmetric, else 0.5 A + 0.5 A'.  A kept
    mat is handed over: its owner must not make it writeable again, or a
    write would change the model or law but not the factors cached from it."""
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
        if np.all(quart == 0) and not _is_positive_definite(prec):
            lam_min = extreme_eigvalsh(prec)[0]
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


def toeplitz_band(band: dict) -> dict:
    """{offset: coeff} of a band keyed by integers, not bools, or
    decimal-integer strings, one key per offset, with real coefficients,
    not bools or strings; else ModelFormatError."""
    offsets = {int(k): _real(v, "each band coefficient")
               for k, v in band.items() if _is_integer(k)
               or isinstance(k, str) and re.fullmatch("[+-]?[0-9]+", k)}
    if len(offsets) < len(band):
        raise ModelFormatError("band keys must name distinct integer offsets")
    return offsets


def toeplitz_matrix(m: int, diag: float, band: dict) -> np.ndarray:
    """Symmetric banded Toeplitz matrix diag*I + sum_j b_j (E_j + E_-j).

    band maps positive offsets to coefficients, read by toeplitz_band;
    offsets at or beyond m fall outside the matrix and are rejected.  The
    matrix is the only m x m array built: each diagonal gets one value,
    rounded as the sum diag*I + b_1 (E_1 + E_-1) + ... of dense terms
    would round it, signed zeros included.
    """
    if m < 1:
        raise ModelValidationError("toeplitz size must be >= 1")
    terms = list(toeplitz_band(band).items())
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


def _float_array(doc: dict, key: str, dim: int, ndim: int) -> np.ndarray:
    """doc[key], a list of numbers (ndim 1) or a list of such lists
    (ndim 2), as a float array; zeros of length dim when key is absent.

    Every leaf follows _real's rule: a real number, not a bool, within
    the float range; anything else, or a ragged array, is a
    ModelFormatError.  The rule is checked once per distinct leaf type,
    collected in one C-level pass, not by a Python call per leaf.
    """
    if key not in doc:
        return np.zeros(dim)
    value = doc[key]
    try:
        types = set(map(type, chain.from_iterable(value) if ndim == 2
                        else value))
        if all(issubclass(t, numbers.Real) and not issubclass(t, bool)
               for t in types):
            return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ModelFormatError(f"'{key}' must be a rectangular array of real "
                           "numbers within float range")


def model_from_dict(doc: dict) -> GibbsModel:
    """Build a model from its document form (see load_model)."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    if "dim" not in doc or "partition" not in doc:
        raise ModelFormatError("model document needs 'dim' and 'partition'")
    dim = doc["dim"]
    if not _is_integer(dim):
        raise ModelFormatError("'dim' must be an integer")
    charge(f"a dense {dim}x{dim} precision", int(dim) ** 2 * 8)
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
        precision = _float_array(doc, "precision", dim, 2)
    else:
        spec = doc["toeplitz"]
        try:
            m, diag = spec["m"], spec["diag"]
            band = toeplitz_band(spec["band"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"bad toeplitz block: {exc}")
        diag = _real(diag, "'toeplitz.diag'")
        if not _is_integer(m):
            raise ModelFormatError("'toeplitz.m' must be an integer")
        if m != dim:
            raise ModelValidationError(
                f"toeplitz size {m} does not match dim {dim}")
        precision = toeplitz_matrix(m, diag, band)
    precision.flags.writeable = False  # built here: the model may keep it

    mean = _float_array(doc, "mean", dim, 1)
    quartic = _float_array(doc, "quartic", dim, 1)
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


def _unique_keys(pairs: list) -> dict:
    if len(doc := dict(pairs)) < len(pairs):
        raise ModelFormatError("model file gives a key twice in one object")
    return doc


def load_model(path) -> GibbsModel:
    """Load a model from a JSON file.

    The document carries 'dim', 'partition', 'mean' (optional, default 0),
    'quartic' (optional, default 0) and either an explicit 'precision'
    matrix or a banded 'toeplitz' shorthand; no key given twice.  A file
    that is not UTF-8, nests too deeply for the parser or holds an integer
    of more digits than int() reads is no valid JSON, as is a syntax error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}")
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ModelFormatError(f"model file is not valid JSON: {exc}")
    return model_from_dict(doc)


def save_model(model: GibbsModel, path) -> None:
    """Write the model's document form as compact JSON on one line.
    json.dumps with no indent takes the C encoder (json.dump, which
    streams, never does), and each float is written in its shortest
    round-trip form, so load_model reads back the same bits."""
    with open(path, "w") as fh:
        fh.write(json.dumps(model_to_dict(model)) + "\n")
