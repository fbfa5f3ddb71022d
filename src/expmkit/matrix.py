"""Dense square-matrix arithmetic with explicit multiplication accounting.

Every full matrix-matrix product in this package goes through
:func:`mat_mul` or its unchecked core :func:`_mat_mul_unchecked`, each
charging exactly one unit to a :class:`MulLedger`.
Norms, additions and scalar scalings are never charged: the cost model
counts n-by-n products only.

Finiteness is checked where values enter and leave the package, not on
each temporary: the :class:`Matrix` constructor (and
:class:`~expmkit.engine.LowRankPair`) rejects NaN and Inf entries,
public :func:`mat_mul` checks its result, the selectors check a power
they formed only when its 1-norm is not finite (a finite norm proves
every entry finite), and each driver of :mod:`expmkit.engine` checks its
result once.  Inside a driver, products go through the unchecked
:func:`_mat_mul_unchecked` under the driver's one ``np.errstate``.  That
is enough because a non-finite entry never becomes finite again under
the operations in between: an addition, a finite scalar factor or an
exact power-of-two scaling keeps it Inf or NaN, and a product spreads it
over a whole row or column of its result (0 * Inf is NaN).  So an
overflow in any temporary reaches a selector's norm or a driver's output
check and raises the same :class:`NonFiniteError`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Matrix",
    "MatrixError",
    "MulLedger",
    "NonFiniteError",
    "check_finite",
    "format_matrix",
    "frobenius_norm",
    "identity",
    "load_matrix",
    "mat_mul",
    "one_norm",
    "parse_matrix",
    "save_matrix",
    "scale_pow2",
    "zeros",
]


class MatrixError(ValueError):
    """Invalid matrix construction, shape, or argument."""


class NonFiniteError(MatrixError):
    """An operation received or produced NaN/Inf entries."""


class Matrix:
    """Immutable dense square real matrix in IEEE binary64.

    Entries are validated to be finite on construction.  The entrywise
    operations (``+ - * /``, negation) and :func:`identity`, :func:`zeros`
    and :func:`scale_pow2` do not scan their results: an entry that
    overflows stays non-finite until the next check (public
    :func:`mat_mul`, a selector's power norm or a driver's output) raises
    :class:`NonFiniteError` on it (see the module docstring),
    and :func:`check_finite` checks a matrix on demand.  The entry array is
    read-only; instances may be shared freely across threads.
    """

    __slots__ = ("a",)

    def __init__(self, entries):
        a = np.array(entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise MatrixError(f"expected a square 2-d array, got shape {a.shape}")
        if a.shape[0] < 1:
            raise MatrixError("matrix order must be at least 1")
        if not np.isfinite(a).all():
            raise NonFiniteError("matrix entries must be finite")
        a.setflags(write=False)
        self.a = a

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def __repr__(self):
        return f"Matrix(n={self.n})"

    # Entrywise algebra is O(n^2) work and is never charged to a ledger.
    def __add__(self, other):
        self._check_same_order(other)
        return _wrap(self.a + other.a)

    def __sub__(self, other):
        self._check_same_order(other)
        return _wrap(self.a - other.a)

    def __mul__(self, c):
        return _wrap(self.a * float(c))

    __rmul__ = __mul__

    def __truediv__(self, c):
        return _wrap(self.a / float(c))

    def __neg__(self):
        return _wrap(-self.a)

    def _check_same_order(self, other):
        if not isinstance(other, Matrix):
            raise MatrixError(f"expected a Matrix operand, got {type(other).__name__}")
        if self.n != other.n:
            raise MatrixError(f"order mismatch: {self.n} vs {other.n}")


def _wrap(a: np.ndarray) -> Matrix:
    """Wrap a freshly computed float64 square array without scanning it."""
    a.setflags(write=False)
    m = Matrix.__new__(Matrix)
    m.a = a
    return m


def identity(n: int) -> Matrix:
    return _wrap(np.eye(n))


def zeros(n: int) -> Matrix:
    return _wrap(np.zeros((n, n)))


def check_finite(A: Matrix) -> Matrix:
    """A itself, after checking that every entry is finite."""
    if not np.isfinite(A.a).all():
        raise NonFiniteError("operation produced non-finite entries")
    return A


class MulLedger:
    """Counter of full matrix-matrix products.

    The ledger is an explicit parameter, never ambient state: each call
    chain owns one ledger, and parallel runs keep one per task and
    :meth:`merge` afterwards.  It only ever increases, by exactly one per
    product.
    """

    __slots__ = ("count",)

    def __init__(self, count: int = 0):
        if count < 0:
            raise ValueError("ledger count must be nonnegative")
        self.count = int(count)

    def charge(self) -> None:
        self.count += 1

    def merge(self, other: "MulLedger") -> None:
        self.count += other.count

    def __repr__(self):
        return f"MulLedger(count={self.count})"


def _mat_mul_unchecked(A: Matrix, B: Matrix, ledger: MulLedger) -> Matrix:
    """Full product A @ B, charging exactly one multiplication, with no
    finiteness check and no warning guard of its own.

    Precondition: the caller runs it under
    ``np.errstate(over="ignore", invalid="ignore")`` and checks the values
    it depends on downstream (see the module docstring).  The drivers'
    building blocks use it; everything else uses :func:`mat_mul`.
    """
    if A.n != B.n:
        raise MatrixError(f"order mismatch: {A.n} vs {B.n}")
    c = A.a @ B.a
    ledger.charge()
    return _wrap(c)


def mat_mul(A: Matrix, B: Matrix, ledger: MulLedger) -> Matrix:
    """Full product A @ B, charging exactly one multiplication.

    Raises :class:`NonFiniteError` when the product has a NaN or Inf
    entry, without a floating-point warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        C = _mat_mul_unchecked(A, B, ledger)
    return check_finite(C)


def one_norm(A: Matrix) -> float:
    """Maximum over columns of the sum of absolute entries."""
    # The ufunc reductions that ``.sum(axis=0).max()`` dispatches to, called
    # directly: the same bits without the method wrappers' overhead.
    return float(np.maximum.reduce(np.add.reduce(np.abs(A.a), axis=0)))


def frobenius_norm(A: Matrix) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(A.a))


def scale_pow2(A: Matrix, s: int) -> Matrix:
    """A * 2^(-s) with s >= 0; the scale factor is an exact power of two,
    so each entry is rescaled without rounding."""
    s = int(s)
    if s < 0:
        raise MatrixError("scaling exponent must be nonnegative")
    if s == 0:
        return A
    return _wrap(np.ldexp(A.a, -s))


# ---------------------------------------------------------------------------
# Text interchange format: first line is the order n, then n rows of n
# whitespace-separated decimal literals.  repr() of a Python float is the
# shortest string that round-trips, so writing and re-reading preserves
# binary64 values exactly.
# ---------------------------------------------------------------------------

def format_matrix(A: Matrix) -> str:
    lines = [str(A.n)]
    for row in A.a:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Matrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MatrixError("empty matrix text")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise MatrixError(f"bad order line {lines[0]!r}") from exc
    if n < 1:
        raise MatrixError("matrix order must be at least 1")
    if len(lines) != n + 1:
        raise MatrixError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != n:
            raise MatrixError(f"expected {n} entries per row, found {len(toks)}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError as exc:
            raise MatrixError(f"bad entry in row {ln!r}") from exc
    return Matrix(rows)


def save_matrix(A: Matrix, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(format_matrix(A))


def load_matrix(path) -> Matrix:
    with open(path, "r", encoding="ascii") as f:
        return parse_matrix(f.read())
