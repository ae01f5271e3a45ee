"""Append-only factor storage and rank-one inverse updates.

Everything here is float64 and grows by appending: the shared-kernel Gram
is kept as a unit-lower-triangular factor L and a positive diagonal D
(Gram = L D L^T), inverses are kept explicitly and patched in place with
Sherman-Morrison / Schur-border updates instead of being refactorized.
Buffers over-allocate by powers of two so an append never copies more
than O(n) amortized.
"""

import ctypes
import weakref

import numpy as np
from numpy._core import _multiarray_umath

from .errors import DegenerateGram, SingularUpdate

# numeric policy: pivot rejection is relative to the self-kernel value,
# update denominators are guarded by an absolute floor
BETA_MIN_REL = 1e-10
EPS_SING = 1e-12

_F64 = np.float64

# ===== BLAS ==============================================================
#
# The three packed Level-2 routines come from the OpenBLAS that numpy
# itself loaded, through its CBLAS entries: dlsym on numpy's own extension
# module searches that module's dependencies, so no path is named and no
# second BLAS is loaded.  Sizes are 64-bit; the calls release the GIL.

_BLAS = ctypes.CDLL(_multiarray_umath.__file__)
_COL_MAJOR, _UPPER, _NO_TRANS, _TRANS, _UNIT = 102, 121, 111, 112, 132
_E, _N, _D, _P = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


def _cblas(name, *argtypes):
    try:
        fn = getattr(_BLAS, name)
    except AttributeError:
        raise ImportError("numpy's OpenBLAS has no %s" % name) from None
    fn.argtypes, fn.restype = argtypes, None
    return fn


_dspmv = _cblas("scipy_cblas_dspmv64_", _E, _E, _N, _D, _P, _P, _N, _D, _P, _N)
_dspr = _cblas("scipy_cblas_dspr64_", _E, _E, _N, _D, _P, _N, _P)
_dtpsv = _cblas("scipy_cblas_dtpsv64_", _E, _E, _E, _E, _N, _P, _P, _N)


def _addr(a):
    # the first entry of a non-empty contiguous float64 array, for one call
    # during which the caller holds a: a writable array lends its buffer
    # through ctypes, which is the cheaper read, a read-only one its pointer
    return ctypes.byref(ctypes.c_char.from_buffer(a)) if a.flags.writeable else a.ctypes.data


def _as_vec(x, size=None):
    v = np.ascontiguousarray(x, dtype=_F64)
    if v.ndim != 1:
        raise ValueError("expected a 1-d vector, got shape %r" % (v.shape,))
    if size is not None and v.shape[0] != size:
        raise ValueError("expected length %d, got %d" % (size, v.shape[0]))
    return v


def _grown(buf, need):
    cap = buf.shape[0]
    if need <= cap:
        return buf
    while cap < need:
        cap = max(2 * cap, 8)
    out = np.zeros((cap,) + buf.shape[1:], dtype=_F64)
    out[: buf.shape[0]] = buf
    return out


class GrowVec:
    """Append-only float64 vector with amortized O(1) append."""

    __slots__ = ("_buf", "n")

    def __init__(self, values=()):
        values = np.asarray(values, dtype=_F64).ravel()
        self.n = len(values)
        self._buf = _grown(np.zeros(8, dtype=_F64), self.n)
        self._buf[: self.n] = values

    @property
    def values(self):
        return self._buf[: self.n]

    def append(self, value):
        self._buf = _grown(self._buf, self.n + 1)
        self._buf[self.n] = value
        self.n += 1

    def extend(self, values):
        k = len(values)
        self._buf = _grown(self._buf, self.n + k)
        self._buf[self.n : self.n + k] = values
        self.n += k

    @classmethod
    def over(cls, values):
        """A vector over a float64 array, sharing it: its capacity is the
        array's length, so its first append copies the values out."""
        out = cls.__new__(cls)
        out._buf = values
        out.n = len(values)
        return out


def _tri(n):
    # entries of n packed rows, each with its diagonal slot
    return n * (n + 1) // 2


class UnitLowerFactor:
    """Row-appendable unit lower triangular matrix.

    One flat buffer holds the rows packed: row i starts at i(i+1)/2 with
    its i strictly-lower entries, then a unit-diagonal slot kept at 0.0.
    Read as column-major packed upper storage, the first n(n+1)/2
    entries are L^T, which one dtpsv solves.  The buffer has room for a
    power-of-two count of rows (8 or more), so a reader that appends
    many rows at once grows it as the server's appends did.

    Rows are append-only: a row below n never changes, and a full
    buffer is replaced, not rewritten.  Every factor over one buffer is
    held weakly by the others (view and take lend the buffer, as
    SymMatrix lends its packed triangle).  A factor appends in place,
    past its rows, only when it has the right to (a view has not, take
    shares its source's) and no live factor over the buffer holds rows
    past its n; otherwise it first copies its n(n+1)/2 entries out.  So
    the rows past a writer's n are zeros or the rows of factors that are
    gone, and are overwritten whole, slot included.
    """

    __slots__ = ("_buf", "n", "_owner", "_peers", "__weakref__")

    def __init__(self):
        self._buf = np.zeros(_tri(8), dtype=_F64)
        self.n = 0
        self._owner = True
        # every factor over _buf, held weakly; with no weakref callbacks,
        # the list changes only in view and _reserve
        self._peers = [weakref.ref(self)]

    def rows(self, since=0):
        """Rows since..n-1 as stored, each with its 0.0 slot: one view of
        this buffer, which holds while this factor lives."""
        return self._buf[_tri(since) : _tri(self.n)]

    def view(self, n=None):
        """The first n rows (all by default), lent: a factor over this
        buffer that copies before it appends."""
        out = UnitLowerFactor.__new__(UnitLowerFactor)
        out._buf = self._buf
        out.n = self.n if n is None else n
        out._owner = False
        out._peers = peers = self._peers
        peers[:] = [ref for ref in peers if ref() is not None]
        peers.append(weakref.ref(out))
        return out

    def take(self):
        """These rows for a new holder, lent with this factor's right to
        append in place: the first of the two to append past n does so in
        place, and the other then copies its rows out."""
        out = self.view()
        out._owner = self._owner
        return out

    def _reserve(self, end):
        # room for rows up to end in a buffer this factor may write past
        # its rows, sized for a power-of-two count of rows; otherwise it
        # copies its rows out to a buffer of its own
        cap = int((2 * len(self._buf)) ** 0.5)  # the rows _tri(cap) entries hold
        peers = (ref() for ref in self._peers)  # None for a factor that is gone
        if end > cap or not self._owner or any(f is not None and f.n > self.n for f in peers):
            out = np.zeros(_tri(max(cap, 1 << (end - 1).bit_length())), dtype=_F64)
            out[: _tri(self.n)] = self._buf[: _tri(self.n)]
            self._peers[:] = [ref for ref in self._peers if ref() is not self]
            self._buf, self._owner, self._peers = out, True, [weakref.ref(self)]

    def append_row(self, r):
        n = self.n
        r = _as_vec(r, n)
        self._reserve(n + 1)
        self._buf[_tri(n) : _tri(n + 1) - 1] = r
        self._buf[_tri(n + 1) - 1] = 0.0
        self.n = n + 1

    def append_rows(self, stored, count):
        """Append count rows stored as rows() gives them, in the buffer
        that as many append_row calls would have grown."""
        n, end = self.n, self.n + count
        stored = _as_vec(stored, _tri(end) - _tri(n))
        self._reserve(end)
        self._buf[_tri(n) : _tri(end)] = stored
        self.n = end

    def _solve(self, b, trans):
        # one dtpsv on the packed rows, read as U = L^T, over a copy of b
        n, buf = self.n, self._buf
        x = _as_vec(b, n).copy()
        if n:
            _dtpsv(_COL_MAJOR, _UPPER, trans, _UNIT, n, _addr(buf), _addr(x), 1)
        return x

    def solve_unit_lower(self, b):
        # L t = b by forward substitution
        return self._solve(b, _TRANS)

    def solve_unit_upper_t(self, t):
        # L^T x = t by back substitution
        return self._solve(t, _NO_TRANS)

    def _block(self, idx):
        # rows idx as one zero-padded len(idx) x n block, for one product
        n, buf = self.n, self._buf
        out = np.zeros(len(idx) * n, dtype=_F64)
        for r, i in enumerate(idx):
            o = _tri(i)
            out[r * n : r * n + i] = buf[o : o + i]
        return out.reshape(len(idx), n)

    def rows_t_matvec(self, idx, u):
        # v = L(idx, :)^T u, full length n; add.at sums the unit diagonal
        # over repeats
        u = _as_vec(u, len(idx))
        v = u @ self._block(idx)
        np.add.at(v, idx, u)
        return v

    def rows_matvec(self, idx, x):
        # L(idx, :) x for a full-length x
        x = _as_vec(x, self.n)
        return self._block(idx) @ x + x[idx]

    def dense(self):
        out = np.zeros((self.n, self.n), dtype=_F64)
        out[np.tril_indices(self.n)] = self._buf[: _tri(self.n)]
        np.fill_diagonal(out, 1.0)
        return out


class SymMatrix:
    """Symmetric matrix in packed lower-triangle storage.

    Row-major packed rows coincide with BLAS upper-packed column-major
    order, so dspmv/dspr run directly on the buffer.  Symmetry is
    structural: there is no second copy of any off-diagonal entry.

    The packed triangle is lent, never handed out writable: packed is a
    read-only array over the buffer, made with np.frombuffer so that
    every slice of it keeps it alive, and held here by a weak reference.
    While any lent array lives, add_scaled_outer first moves the matrix
    to a copy of its buffer (copy on write), so a lent array never
    changes; a border append writes past every lent array and copies
    nothing.
    """

    __slots__ = ("_buf", "n", "_lent")

    def __init__(self):
        self._buf = np.zeros(8, dtype=_F64)
        self.n = 0
        self._lent = []  # weak references to the arrays lent over _buf

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=_F64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("need a square matrix, got %r" % (a.shape,))
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not symmetric")
        # the lower triangle row by row is the packed order
        return cls.from_packed(a[np.tril_indices(a.shape[0])], a.shape[0])

    @classmethod
    def from_packed(cls, packed, n):
        """The matrix of order n whose packed lower triangle is packed,
        sharing it: copy() gives a matrix of its own."""
        out = cls()
        out._buf = _as_vec(packed, _tri(n))
        out.n = n
        return out

    @property
    def packed(self):
        """The packed lower triangle, lent: a read-only array that never
        changes.  Reads between two writes share one."""
        size = _tri(self.n)
        lent = self._lent[-1]() if self._lent else None
        if lent is None or len(lent) != size:
            # over a memoryview, not the buffer itself: a slice of a
            # view of the buffer would keep only the buffer alive
            lent = np.frombuffer(memoryview(self._buf), dtype=_F64, count=size)
            lent.flags.writeable = False
            self._lent = [ref for ref in self._lent if ref() is not None]
            self._lent.append(weakref.ref(lent))
        return lent

    def entry(self, i, j):
        if j > i:
            i, j = j, i
        return float(self._buf[_tri(i) + j])

    def column(self, p):
        n = self.n
        out = np.empty(n, dtype=_F64)
        base = _tri(p)
        out[: p + 1] = self._buf[base : base + p + 1]
        if p + 1 < n:
            rows = np.arange(p + 1, n)
            out[p + 1 :] = self._buf[_tri(rows) + p]
        return out

    def matvec(self, x):
        n, buf = self.n, self._buf
        x, y = _as_vec(x, n), np.empty(n, dtype=_F64)
        if n:
            _dspmv(_COL_MAJOR, _UPPER, n, 1.0, _addr(buf), _addr(x), 1, 0.0, _addr(y), 1)
        return y

    def add_scaled_outer(self, alpha, u):
        # self += alpha * u u^T, in place on the packed buffer, or on a
        # copy of it while an array lent over it lives; a matrix over a
        # read-only buffer is refused with nothing written
        n = self.n
        u = _as_vec(u, n)
        if not self._buf.flags.writeable:
            raise ValueError("the matrix's packed buffer is read-only")
        if any(ref() is not None for ref in self._lent):
            buf = np.zeros(len(self._buf), dtype=_F64)
            buf[: _tri(n)] = self._buf[: _tri(n)]
            self._buf = buf
        self._lent = []
        if n:
            _dspr(_COL_MAJOR, _UPPER, n, alpha, _addr(u), 1, _addr(self._buf))

    def append_border_row(self, row):
        # grow to order n+1 with a new last row/column
        n = self.n
        row = _as_vec(row, n + 1)
        size = _tri(n)
        buf = _grown(self._buf, size + n + 1)
        if buf is not self._buf:  # the lent arrays keep the old buffer
            self._buf, self._lent = buf, []
        buf[size : size + n + 1] = row
        self.n = n + 1

    def to_dense(self):
        n = self.n
        out = np.zeros((n, n), dtype=_F64)
        out[np.tril_indices(n)] = self._buf[: _tri(n)]
        return out + np.tril(out, -1).T

    def copy(self):
        # with the capacity appends would have grown, so that the copy's
        # own first append does not copy it again
        out = SymMatrix()
        out._buf = _grown(out._buf, _tri(self.n))
        out._buf[: _tri(self.n)] = self._buf[: _tri(self.n)]
        out.n = self.n
        return out

    def __eq__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        size = _tri(self.n)
        return self.n == other.n and np.array_equal(self._buf[:size], other._buf[:size])

    def __hash__(self):  # pragma: no cover
        return object.__hash__(self)


# ===== triangular solves =================================================


def tri_solve_ldl(L, D, b):
    """Solve L diag(D) x = b with unit-lower L."""
    d = D.values
    if np.any(d <= 0.0):
        raise DegenerateGram("diagonal factor has non-positive entries")
    return L.solve_unit_lower(b) / d


def tri_solve_dlt(L, D, b):
    """Solve diag(D) L^T x = b with unit-lower L."""
    d = D.values
    if np.any(d <= 0.0):
        raise DegenerateGram("diagonal factor has non-positive entries")
    return L.solve_unit_upper_t(_as_vec(b, L.n) / d)


# ===== factor growth =====================================================


def ldl_append(L, D, k_head, k_self):
    """Next LDL^T row for a Gram matrix bordered by one input.

    k_head holds the kernel values against the already-stored inputs,
    k_self the new self-kernel value.  Returns (r, beta) where the new
    row of L is (r, 1) and the new diagonal entry is beta.  The caller
    appends; on rejection nothing is touched anywhere.
    """
    k_head = _as_vec(k_head, L.n)
    r = tri_solve_ldl(L, D, k_head)
    beta = float(k_self) - float(np.dot(r, D.values * r))
    if beta <= BETA_MIN_REL * max(1.0, float(k_self)):
        raise DegenerateGram(
            "pivot %.3e below threshold; input is numerically dependent" % beta
        )
    return r, beta


class FactorSet:
    """L, D and the bias map M grown one input at a time.

    Invariants: Gram = L D L^T for the shared kernel over the appended
    inputs, and L D M equals the bias matrix of those inputs.  Everyone
    runs the exact same append path here, so factors rebuilt from the
    same input sequence match the server's bit for bit.
    """

    __slots__ = ("L", "D", "_m", "bias_dim")

    def __init__(self, bias_dim):
        self.L = UnitLowerFactor()
        self.D = GrowVec()
        self.bias_dim = int(bias_dim)
        self._m = np.zeros((8, self.bias_dim), dtype=_F64)

    @property
    def n(self):
        return self.L.n

    @property
    def M(self):
        return self._m[: self.n]

    def bias_row(self, r, beta, psi_row):
        psi_row = _as_vec(psi_row, self.bias_dim)
        if self.n == 0:
            return psi_row / beta
        return (psi_row - np.dot(r * self.D.values, self.M)) / beta

    def append(self, k_head, k_self, psi_row):
        r, beta = ldl_append(self.L, self.D, k_head, k_self)
        mrow = self.bias_row(r, beta, psi_row)
        self.append_precomputed(r, beta, mrow)
        return r, beta

    @classmethod
    def of(cls, L, d, m):
        """Factors over a UnitLowerFactor L, the diagonal values d and
        the n x bias_dim bias map m.  They share d and m, and copy them
        out before their first append."""
        out = cls(m.shape[1])
        out.L = L
        out.D = GrowVec.over(d)
        out._m = m
        return out

    def view(self, n=None):
        """The factors of the first n inputs (all by default), sharing
        this set's buffers, whose rows below n never change."""
        n = self.n if n is None else n
        return FactorSet.of(self.L.view(n), self.D.values[:n], self.M[:n])

    def take(self):
        """These factors for a new holder, sharing the buffers and this
        set's right to append to L in place (see UnitLowerFactor.take)."""
        return FactorSet.of(self.L.take(), self.D.values, self.M)

    def append_precomputed(self, r, beta, mrow):
        n = self.n
        self._m = _grown(self._m, n + 1)
        self._m[n] = mrow
        self.L.append_row(r)
        self.D.append(beta)

    def append_rows(self, lower, d, m):
        """Append the factor rows of len(d) more inputs: L's rows as
        stored (see UnitLowerFactor.rows), D's values and M's rows;
        counts that do not fit raise ValueError with nothing appended."""
        n, count = self.n, len(d)
        m = np.asarray(m, dtype=_F64).reshape(count, self.bias_dim)
        self.L.append_rows(lower, count)
        self._m = _grown(self._m, n + count)
        self._m[n : n + count] = m
        self.D.extend(d)


# ===== rank-one inverse updates ==========================================
#
# Each update comes in two halves: a pure plan that computes the update
# vector and coefficient and raises with nothing touched, and an in-place
# apply that cannot fail.  Callers plan every change first and apply only
# once all plans have passed.


def smw_rank_one_plan(H, v, sigma, z=None, definite=False):
    """Plan H <- inverse of (H^-1 + sigma v v^T), via Sherman-Morrison.

    z is H v when the caller has it at hand (a column of H, or the
    product with H bordered by a pending diagonal entry); it is computed
    otherwise.  Returns (z, c) for H += c z z^T.  The update is rejected
    when its denominator is near zero, or, with definite set, when it
    would leave a positive-definite H indefinite.
    """
    v = _as_vec(v, H.n if z is None else len(z))
    if z is None:
        z = H.matvec(v)
    denom = 1.0 / sigma + float(np.dot(v, z))
    if definite:
        # H stays positive definite iff sigma * denom > 0
        margin = denom if sigma > 0.0 else -denom
        if margin <= EPS_SING:
            raise SingularUpdate(
                "update would lose positive definiteness (%.3e)" % margin
            )
    elif abs(denom) < EPS_SING:
        raise SingularUpdate("rank-one denominator %.3e too small" % denom)
    return z, -1.0 / denom


def smw_rank_one_apply(H, z, c):
    """H += c z z^T in place, with (z, c) from smw_rank_one_plan."""
    H.add_scaled_outer(c, z)


def smw_rank_one_inverse_update(H, v, sigma):
    """Inverse of (H^-1 + sigma v v^T) given H, via Sherman-Morrison.

    Returns a new SymMatrix; H itself is untouched.
    """
    z, c = smw_rank_one_plan(H, v, sigma)
    out = H.copy()
    smw_rank_one_apply(out, z, c)
    return out


def schur_enlarge_plan(R, ktilde, lambda_w):
    """Plan growing the inverse R of a SPD block by one row/column.

    ktilde carries the (already scaled) kernel values of the new point
    against the block's points, last entry the self value; lambda_w is
    the regularized weight added on the new diagonal.  Returns
    (u, gamma) for R <- blockdiag(R, 0) + gamma u u^T; rejects when the
    enlarged block would not be positive definite.
    """
    ell = R.n + 1
    ktilde = _as_vec(ktilde, ell)
    u = np.empty(ell, dtype=_F64)
    u[:-1] = R.matvec(ktilde[:-1])
    u[-1] = -1.0
    denom = float(lambda_w) - float(np.dot(u, ktilde))
    if denom <= EPS_SING:
        raise SingularUpdate(
            "enlarged block not positive definite (denominator %.3e)" % denom
        )
    return u, 1.0 / denom


def schur_enlarge_apply(R, u, gamma):
    """R <- blockdiag(R, 0) + gamma u u^T in place, from schur_enlarge_plan."""
    R.append_border_row(np.zeros(R.n + 1, dtype=_F64))
    R.add_scaled_outer(gamma, u)


def schur_enlarge_inverse(R, ktilde, lambda_w):
    """Grow the inverse R of a SPD block by one row/column.

    Arguments as for schur_enlarge_plan.  Returns (u, gamma, R_new) with
    R_new = blockdiag(R, 0) + gamma u u^T; R itself is untouched.
    """
    u, gamma = schur_enlarge_plan(R, ktilde, lambda_w)
    out = R.copy()
    schur_enlarge_apply(out, u, gamma)
    return u, gamma, out
