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
low-rank path's rectangular products stay ``@``.  With ``out``,
:func:`mat_mul` writes the product into a given array, such as the next
row of :mod:`expmkit.poly`'s power stack, with the bytes a new array
gets.

Arrays enter the package through one gate, ``_entries``, which
:class:`Matrix` and :class:`~expmkit.engine.LowRankPair` call for 2-d
data, and ``ps_eval``, ``poly_reference`` and ``performance_profile``
for 1-d coefficients and alpha grids.  It copies the data to a read-only
float64 array: an integer or float ndarray passes on its dtype, anything
else is read element by element with ``_real``, the one rule for a real
number (``check_tolerance`` and the suite fields call it too).  It
refuses, with a :class:`MatrixError`, data of the wrong dimension, empty
data, NaN or Inf (:class:`NonFiniteError`), and elements that are
complex, text, bool or time values.  Results leave through
:func:`check_finite`, once at each driver's exit and the oracle's.

The building blocks are unguarded: :func:`mat_mul`, the selectors
``select_ps`` and ``select_sastre``, ``ps_eval``, the ``eval_*`` formulas
and ``squaring`` enter no ``np.errstate``, and all but the selectors
check nothing they return.  Their products go through :func:`mat_mul`,
with a :class:`Matrix` around each operand and result only.  The drivers
and the oracle guard and check: a guarded call runs under one
``np.errstate(over="ignore", invalid="ignore")``, entered by the shared
decorator ``_guarded`` (thread safe from numpy 2.0 on), and every call
checks its result.  ``expm_lowrank``, the oracle, its error measure and
the bench generators always take the guard.  ``expm`` and
``expm_baseline`` take it only where ||W||_1 exceeds
``engine.GUARD_NORM`` = 2^8 or is NaN: below it no operation of the
call can overflow or turn invalid (:mod:`expmkit.engine` proves it), so
the guard, about 1 us a call on a 2-vCPU x86-64 VM, would buy nothing.
``_guarded`` is the one guard.
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

:func:`one_norm` forms the column sums of |A| with one BLAS
matrix-vector product against a ones vector, which costs about half of
numpy's axis-0 reduction at n = 8-64.  BLAS may add in any order, so a
norm is within (n-1)*u of the exact maximum column sum (u = 2^-53), not
bit for bit numpy's sequential sum; it is deterministic for one BLAS
build and thread count.  The vector is scaled by 2^-e, 2^e >= n, so no
column sum can overflow: the norm never warns, and a driver forms it
before deciding whether to enter the guard.  Every norm the selectors,
the drivers and the oracle form goes through it.

A scalar that the evaluators and drivers pass to a ufunc on the hot path
is a cached, read-only 0-d float64 array made by :func:`_consts`, not a
Python float: numpy converts a Python float afresh on every call.
``np.multiply(a, 0.3, out=t)`` on 8-by-8 arrays took 670-775 ns against
380-525 ns with a 0-d array (timeit, numpy 2.4.6, two runs on a 2-vCPU
VM).  Under NEP 50 a Python float
reaches the ufunc as the same binary64 value, so the bytes are the
same; ``tests/test_poly.py`` pins that on every cached set.  The caches
are :mod:`expmkit.poly`'s coefficient tuples, constants and
Paterson-Stockmeyer diagonal terms and :mod:`expmkit.engine`'s divisors;
a cached array is shared by every caller, so it is read-only.
"""

from __future__ import annotations

import functools
import math
import numbers
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


_guarded = np.errstate(over="ignore", invalid="ignore")  # see the module docstring


class MatrixError(ValueError):
    """Invalid matrix construction, shape, or argument."""


class NonFiniteError(MatrixError):
    """An operation received or produced NaN/Inf entries."""


def _real(x) -> float:
    """x as a float, if it is a real number within binary64 and not a bool,
    a numpy time span (an integer to numpy) or text.  Otherwise ValueError
    naming x and the rule it fails, or, for a number beyond binary64,
    OverflowError naming the rule alone, for the caller to name x."""
    if isinstance(x, (str, bytes)):
        raise ValueError(f"{x!r} is text, not a number")
    if isinstance(x, (bool, np.timedelta64)) or not isinstance(x, numbers.Real):
        raise ValueError(f"{x!r} of type {type(x).__name__} is not a real number")
    try:
        return float(x)
    except OverflowError:
        raise OverflowError("is an integer beyond the binary64 range") from None


def _entries(data, what: str, ndim: int = 2) -> np.ndarray:
    """A copy of the caller's data past the input gate (module docstring):
    ``ndim``-d (2 for a matrix or a factor, 1 for coefficients), nonempty,
    C-ordered, finite, float64 and read-only.  An integer or float ndarray
    is cast; anything else is read element by element with :func:`_real`,
    from an object array, which keeps each element as the caller gave it
    where ``np.asarray`` would promote ``[True, 0.5]`` to floats first."""
    if isinstance(data, np.ndarray) and data.dtype.kind in "iuf":
        a = np.array(data, dtype=np.float64, order="C")
    else:
        o = data if isinstance(data, np.ndarray) else np.array(data, dtype=object)
        values = []
        for x in o.flat:
            try:
                values.append(_real(x))
            except ValueError as exc:
                raise MatrixError(f"{what} must be real numbers: {exc}") from None
            except OverflowError as exc:  # named here, cut to its ends
                r = repr(x)
                raise MatrixError(f"{what} must be real numbers: "
                                  f"{r[:10]}…{r[-10:]} ({len(r)} characters) {exc}") from None
        a = np.array(values, dtype=np.float64).reshape(o.shape)
    if a.ndim != ndim or a.size == 0:
        raise MatrixError(f"{what} must be a nonempty {ndim}-d array, got shape {a.shape}")
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
    a writeable wrap, for a product operand the caller reuses after,
    leaves the fresh array writeable as it is."""
    if not writeable:
        a.setflags(write=False)
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


def _consts(values) -> tuple:
    """``values`` as read-only 0-d float64 arrays, for the scalars of the
    hot path (see the module docstring)."""
    out = tuple(np.array(v, dtype=np.float64) for v in values)
    for c in out:
        c.setflags(write=False)
    return out


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


def mat_mul(A: Matrix, B: Matrix, ledger: MulLedger, out: np.ndarray | None = None) -> Matrix:
    """Full product A @ B, charging exactly one multiplication.

    With ``out``, a C-contiguous float64 n-by-n array that overlaps
    neither operand, the product is written into it, with the bytes of a
    new array; the result then wraps ``out`` and makes that view
    read-only.  Unguarded: see the module docstring for how its callers
    check it.
    """
    n = A.n
    if n != B.n:
        raise MatrixError(f"order mismatch: {n} vs {B.n}")
    # np.dot, not @, past order 1 (see the module docstring).  An explicit
    # out=None costs np.dot about 6% at order 8, so it is passed only when given.
    if out is None:
        c = np.dot(A.a, B.a) if n > 1 else A.a @ B.a
    else:
        c = np.dot(A.a, B.a, out=out) if n > 1 else np.matmul(A.a, B.a, out=out)
    # The charge and _wrap(c), inlined: this runs once per product.
    ledger.count += 1
    c.setflags(write=False)
    C = Matrix.__new__(Matrix)
    C.a = c
    C.n = n
    return C


@functools.lru_cache(maxsize=64)
def _ones(n: int) -> np.ndarray:
    """A read-only ones vector of length n, for a norm in the subnormal range."""
    x = np.ones(n)
    x.setflags(write=False)
    return x


@functools.lru_cache(maxsize=64)
def _norm_vector(n: int) -> tuple[np.ndarray, float]:
    """(2^-e ones(n), 2^e) with 2^e the least power of two >= n, shared by
    every norm of order n; the vector is read-only."""
    e = (n - 1).bit_length()
    x = np.full(n, math.ldexp(1.0, -e))
    x.setflags(write=False)
    return x, math.ldexp(1.0, e)


# Below this scaled maximum, products 2^-e |a_ij| that matter can leave
# the normal range, so one_norm sums again with the unit vector.
_SUBNORMAL_SUMS = 2.0 ** -900


def one_norm(A: Matrix) -> float:
    """Maximum over columns of the sum of absolute entries; never warns.

    The column sums are one BLAS product ``2^-e ones @ |A|`` with
    2^e >= n (see the module docstring): each scaled sum is at most
    max|a_ij|, so none can overflow, and the maximum is read back as a
    Python float times 2^e, which is +inf where the norm is beyond
    binary64.  A power-of-two factor commutes with every rounding, with
    or without FMA, so wherever the scaled products and sums stay
    normal the norm is the unscaled product's, bit for bit: within
    (n-1)*u of the exact sums, summed in an order the BLAS build picks.
    A scaled maximum below 2^-900 is summed again with the unit vector,
    so subnormal inputs keep that bound.  The maximum is read at
    ``argmax``, which costs less than a second reduction on small orders
    and gives the same float as ``.max()``: the sums are never -0, and
    ``argmax`` picks the first NaN, so a NaN or Inf entry gives a NaN or
    Inf norm.
    """
    v, scale = _norm_vector(A.n)
    a = np.abs(A.a)
    sums = np.dot(v, a)
    top = float(sums[sums.argmax()])
    if top < _SUBNORMAL_SUMS:
        sums = np.dot(_ones(A.n), a)
        return float(sums[sums.argmax()])
    return top * scale


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
    return Matrix(np.array(rows))  # float() is the rule for text; the gate casts the array


def save_matrix(A: Matrix, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(format_matrix(A))


def load_matrix(path) -> Matrix:
    with open(path, "r", encoding="ascii") as f:
        return parse_matrix(f.read())
