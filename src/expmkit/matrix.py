"""Dense square-matrix arithmetic with explicit multiplication accounting.

Every full matrix-matrix product in this package goes through
:func:`mat_mul`, charging exactly one unit to a :class:`MulLedger`.
Norms, additions and scalar scalings are never charged: the cost model
counts n-by-n products only.

:func:`mat_mul` multiplies with ``np.dot``, not the ``@`` operator, from
order 2 up.  On the C-ordered float64 square arrays it gets, both call
the same BLAS ``dgemm`` and give the same bytes, but ``np.dot`` costs
about a third less per call at n = 8 with OpenBLAS; from n = 64 on,
where the flops dominate, the two cost the same.  At order 1, ``np.dot``
returns the rounded product itself, -0 for 0 * -x, where ``@`` adds it
to +0, so ``mat_mul`` keeps ``@`` there.  ``tests/test_matrix.py`` pins
the bytes at orders 1-70, 128 and 256, at scales 2^600 and 2^-600, with
subnormal and signed-zero entries and with one array as both operands.  The
low-rank path's rectangular products stay ``@``.

Values enter the package through one gate, ``_entries``, which
:class:`Matrix` and :class:`~expmkit.engine.LowRankPair` both call: it
copies the caller's data to a read-only float64 array and refuses, with
a :class:`MatrixError`, data that is not a nonempty 2-d array, has a NaN
or Inf entry (:class:`NonFiniteError`), or is complex, text or boolean,
whose imaginary part the cast would drop, or which it would parse or
read as 0 and 1.  Results leave through :func:`check_finite`, once at
each driver's exit and the oracle's.

The building blocks are unguarded: :func:`mat_mul`, the selectors
``select_ps`` and ``select_sastre``, ``ps_eval``, the ``eval_*`` formulas
and ``squaring`` enter no ``np.errstate``, and all but the selectors
check nothing they return.  Their products go through :func:`mat_mul`,
with a :class:`Matrix` around each operand and result only.  The drivers
and the oracle guard and check: each call runs under one
``np.errstate(over="ignore", invalid="ignore")`` and checks its result.
In between, only the selectors' norm test checks anything: a selector
scans W or a power it forms only when its 1-norm is not finite (a
finite norm proves every entry finite).  That is enough
because a non-finite entry never becomes finite again under the
operations in between: an addition, a finite scalar factor or an
exact power-of-two scaling keeps it Inf or NaN, and a product spreads it
over a whole row or column of its result (0 * Inf is NaN).  So an
overflow in any temporary reaches a selector's norm or a driver's output
check and raises the same :class:`NonFiniteError`.  :func:`one_norm`
keeps that signal: it reads the maximum column sum at ``argmax``, which
picks the first NaN, so a NaN or Inf entry gives a NaN or Inf norm.
"""

from __future__ import annotations

import math
import operator

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
]


class MatrixError(ValueError):
    """Invalid matrix construction, shape, or argument."""


class NonFiniteError(MatrixError):
    """An operation received or produced NaN/Inf entries."""


# What an object array may not hold: the elements of dtype kinds b, c, S and U.
_NOT_REAL = (bool, np.bool_, complex, np.complexfloating, str, bytes)


def _entries(data, what: str) -> np.ndarray:
    """A copy of the caller's data past the input gate (module docstring):
    2-d, C-ordered, finite, float64 and read-only.  Integer and object
    input is cast; ``[[10**30]]`` arrives as an object array, whose
    elements are checked one by one."""
    try:
        a = np.asarray(data)
    except ValueError as exc:  # a ragged list
        raise MatrixError(f"{what} must be a rectangular array: {exc}") from exc
    if a.dtype.kind in "bcSU" or (
            a.dtype.kind == "O" and any(isinstance(x, _NOT_REAL) for x in a.flat)):
        raise MatrixError(f"{what} must be real numbers, got dtype {a.dtype}")
    try:
        a = np.array(a, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError) as exc:  # an element with no float
        raise MatrixError(f"{what} must be real numbers: {exc}") from exc
    if a.ndim != 2 or a.size == 0:
        raise MatrixError(f"{what} must be a nonempty 2-d array, got shape {a.shape}")
    if not _all_finite(a):
        raise NonFiniteError(f"{what} must be finite")
    a.setflags(write=False)
    return a


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite; counting costs less than
    ``.all()``, which goes through numpy's Python-level reduction."""
    return np.count_nonzero(np.isfinite(a)) == a.size


class Matrix:
    """Immutable dense square real matrix in IEEE binary64.

    Entries pass the input gate (see the module docstring) and are copied
    in C order, so that a Fortran-ordered input's norms and products round
    the same.  A Matrix holds values, not algebra: arithmetic runs on the
    read-only array ``.a``, whose order is ``.n``.  One from this
    constructor, :func:`load_matrix`, :func:`identity`, :func:`scale_pow2`
    or a driver is finite; only an unguarded building block (module
    docstring), :func:`mat_mul` among them, can return one that is not,
    and :func:`check_finite` checks it.
    ``.a`` and ``.n`` are plain slots, for speed on the product path:
    never reassign either, since the product checks operand orders on
    ``.n`` alone.
    Instances may be shared across threads.
    """

    __slots__ = ("a", "n")

    def __init__(self, entries):
        a = _entries(entries, "matrix entries")
        if a.shape[0] != a.shape[1]:
            raise MatrixError(f"expected a square 2-d array, got shape {a.shape}")
        self.a = a
        self.n = a.shape[0]

    def __repr__(self):
        return f"Matrix(n={self.n})"


def _wrap(a: np.ndarray, writeable: bool = False) -> Matrix:
    """Wrap a freshly computed float64 square array without scanning it;
    a writeable wrap is for a product operand the caller reuses after."""
    a.setflags(write=writeable)
    m = Matrix.__new__(Matrix)
    m.a = a
    m.n = a.shape[0]
    return m


def _add_to_diagonal(a: np.ndarray, c) -> None:
    """a += c*I in place on the diagonal only, every (n+1)-th entry of a
    contiguous square array in C or Fortran order.  ``ravel(order="A")``
    is a view of either, and adding in place through the view spares the
    write-back that ``+=`` on a slice makes."""
    d = a.ravel(order="A")[:: a.shape[0] + 1]
    d += c


def _eye(n: int) -> np.ndarray:
    """A new n-by-n identity array, as ``np.eye(n)`` makes it but without
    its Python-level argument handling."""
    x = np.zeros((n, n))
    x.ravel()[:: n + 1] = 1.0
    return x


def identity(n: int) -> Matrix:
    return _wrap(_eye(n))


def check_finite(A: Matrix) -> Matrix:
    """A itself, after checking that every entry is finite."""
    if not _all_finite(A.a):
        raise NonFiniteError("operation produced non-finite entries")
    return A


class MulLedger:
    """Counter of full matrix-matrix products.

    The ledger is an explicit parameter, never ambient state: each call
    chain owns one ledger, so no two calls share a count.  It starts at
    0 and only ever increases, by exactly one per product.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def __repr__(self):
        return f"<MulLedger count={self.count}>"


def mat_mul(A: Matrix, B: Matrix, ledger: MulLedger) -> Matrix:
    """Full product A @ B, charging exactly one multiplication.

    Unguarded (see the module docstring): run it under
    ``np.errstate(over="ignore", invalid="ignore")`` and check the values
    that depend on it, with :func:`check_finite` or a selector's norm test.
    """
    n = A.n
    if n != B.n:
        raise MatrixError(f"order mismatch: {n} vs {B.n}")
    # np.dot, not @, past order 1 (see the module docstring).
    c = np.dot(A.a, B.a) if n > 1 else A.a @ B.a
    # The charge and _wrap(c), inlined: this runs once per product.
    ledger.count += 1
    c.setflags(write=False)
    C = Matrix.__new__(Matrix)
    C.a = c
    C.n = n
    return C


def one_norm(A: Matrix) -> float:
    """Maximum over columns of the sum of absolute entries.

    The maximum is read at ``argmax``, which costs less than a second
    reduction on small orders and gives the same float as ``.max()``:
    the sums are never -0, and ``argmax`` picks the first NaN, so a NaN
    or Inf entry gives a NaN or Inf norm.
    """
    sums = np.add.reduce(np.abs(A.a), axis=0)
    return float(sums[sums.argmax()])


def frobenius_norm(A: Matrix) -> float:
    """Square root of the sum of squared entries.

    The entries are scaled by 2^-e, where 2^e bounds max|a_ij|, before
    they are squared, and the norm is scaled back.  Both scalings are
    exact barring subnormals, so the result is the plain formula's
    wherever that neither overflows (from about 1.3e154 on) nor
    underflows.  A norm beyond binary64 is inf.
    """
    e = math.frexp(float(np.maximum.reduce(np.abs(A.a), axis=None)))[1]
    try:
        return math.ldexp(float(np.linalg.norm(np.ldexp(A.a, -e))), e)
    except OverflowError:
        return math.inf


def scale_pow2(A: Matrix, s: int) -> Matrix:
    """A * 2^(-s) with s >= 0; the scale factor is an exact power of two,
    so each entry is rescaled without rounding."""
    s = operator.index(s)
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
