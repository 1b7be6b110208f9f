"""Metricity parameters of decay spaces (Definition 2.2 and Sec. 4.2).

The *metricity* ``zeta(D)`` of a decay space ``D = (V, f)`` is the smallest
exponent such that for every triple ``x, y, z``::

    f(x, y)^(1/zeta) <= f(x, z)^(1/zeta) + f(z, y)^(1/zeta)

For geometric path loss ``f = d^alpha`` over a metric ``d``, the metricity
is exactly ``alpha``.  The satisfying set of exponents is an interval
``[zeta(D), inf)`` because the map ``t -> (a^t + b^t)^(1/t)`` (the l_t norm
of the two detour decays) is non-increasing in ``t = 1/zeta``.

:func:`metricity` exploits this interval structure per *triple* rather than
globally: writing ``a = ln(f_xz / f_xy)`` and ``b = ln(f_zy / f_xy)``, a
triple constrains ``zeta`` only when both log-ratios are negative, and its
minimal exponent is the unique root of ``exp(a/zeta) + exp(b/zeta) = 1``.
The global metricity is the maximum root over all constraining triples.
One blocked pass per middle node screens triples with the *exact*
predicate at the running maximum ``best`` — which is simply the triangle
inequality in the induced quasi-distance ``g = f^(1/best)`` — and only
the violators (none, once ``best`` is right) reach the vectorized Newton
solve, which starts from the AM-GM feasible point
``zeta0 = -(a + b) / (2 ln 2)``.

The scan scales to thousands of nodes in three steps:

* **Bounded bootstrap.**  The incumbent starts as the largest root of
  the first constraining middle node.  Every root lies between
  ``L = -max(a, b) / ln 2`` and the AM-GM start ``U``, so only the
  triples with ``U >= max L`` — a few percent on measured spaces — are
  solved, in a way that reproduces the full batch's float exactly.
* **Pruned candidate gather.**  A triple violates only if
  ``g[z, y] < max_y' g[x, y'] - g[x, z]``.  Each row of ``f`` is sorted
  once, so for every ``(z, x)`` the candidates ``y`` are a prefix of
  row ``z``'s order, found by one ``searchsorted`` per middle node; the
  gathered triples get the exact float64 predicate.  On a measured
  n = 1600 space this examines under 1% of the ``n^3`` triples.
* **Count-chosen dense fallback.**  A middle node with more than
  ``n^2 / 8`` candidates — every node of a tie-heavy geometric space,
  where ``zeta = alpha`` exactly and collinear near-ties keep about half
  of the triples — is screened densely instead: one outer-add per block
  of middle nodes in float32 against a conservatively widened target,
  with the flagged triples re-tested in float64.  The float32 screen can
  only over-flag, never miss a violator.  Spaces whose dynamic range per
  unit of incumbent exceeds what float32 (resp. float64) powers can
  represent screen in float64 (resp. in the log domain via
  ``logaddexp``, always densely); the tier is re-chosen whenever the
  incumbent improves.

Both paths flag exactly the triples the dense float64 predicate flags,
and each block of middle nodes is screened at one incumbent snapshot and
confirmed in one solve, so with one worker the result is the all-dense
scan's float, bit for bit.  Blocks are independent — any stale incumbent
flags a superset of the triples the final incumbent would — so the scan
optionally runs on a thread pool (numpy releases the GIL inside the
block kernels); interleaving can then move the result within the solver
tolerance on spaces with tied roots.

The historical predicate-bisection implementation is retained as
:func:`metricity_bisection` for cross-checking; both agree to tolerance.

Section 4.2 of the paper additionally studies the *relaxed-triangle*
parameter ``varphi``: the smallest value such that
``f(x, z) <= varphi * (f(x, y) + f(y, z))`` for every triple, and its
logarithm ``phi = lg(varphi)``.

.. note::
   The displayed formula for ``varphi`` in the paper inverts the ratio
   relative to the prose definition quoted above; we implement the prose
   definition, under which the paper's own derivation yields
   ``varphi <= 2^zeta``, i.e. ``phi <= zeta`` (the paper's in-line claim
   "zeta <= phi" has the inequality reversed — its proof derives
   ``f_uv <= 2^zeta (f_uw + f_wv)``).
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro.core.decay import DecaySpace
from repro.errors import ConvergenceError, DecaySpaceError

__all__ = [
    "satisfies_metricity",
    "metricity",
    "metricity_bisection",
    "metricity_witness",
    "zeta_of_triple",
    "varphi",
    "phi",
    "varphi_witness",
]

#: Slack applied to the vectorized triple test to absorb float rounding.
_PREDICATE_SLACK = 1e-12

_LN2 = float(np.log(2.0))

#: Relative widening of the float32 screen target.  float32 rounding of the
#: quasi-distances and their sum perturbs the compare by at most a few ulp
#: (~4e-7 relative); a 1e-6 margin guarantees every float64 violator is
#: flagged while keeping false positives to near-tie triples.
_F32_SCREEN_MARGIN = 1e-6

#: Largest ``span / best`` (log2 dynamic range per unit of incumbent) the
#: float32 screen accepts: quasi-distances live in [2^(-span/best), 1] and
#: float32 normals stop at 2^-126, so 80 leaves ample headroom before
#: underflow erodes the screen's margin.
_F32_SPAN_LIMIT = 80.0

#: Beyond this ``span / best`` even float64 powers degrade; the screen then
#: runs in the log domain via ``logaddexp`` (exact, slower).
_LOG_SPAN_LIMIT = 1000.0

#: Auto-sized middle-node blocks target this many screened entries
#: (``block_size * n**2``) per outer-add: 2^23 is ~32 MB in float32, small
#: enough that the sum buffer stays cache-resident on typical cores.
_SCREEN_BLOCK_ELEMENTS = 1 << 23

#: Below this node count the thread pool is pure overhead.
_PARALLEL_MIN_NODES = 256

#: Absolute slack, in units of ``reach[x]``, added to the candidate bound
#: ``reach[x] - q[x, z]`` before it is mapped back to decay ratios: the
#: float sum and compare of the exact predicate round by at most a few ulp
#: of ``reach[x]``, so this can only over-include.
_CANDIDATE_SLACK = 8.0 * float(np.finfo(float).eps)

#: Relative widening, per unit of ``1 + best``, of the decay-ratio limit
#: ``bound ** best``: a ratio above it has a quasi-distance at least
#: ``bound`` even after the power's rounding (which ``1/best`` shrinks).
_CANDIDATE_MARGIN = 1e-12

#: Pruning pays while it keeps at most ``1 / _DENSE_SHARE`` of the work: a
#: middle node with more than ``n**2 / _DENSE_SHARE`` candidates is
#: screened densely (past that share the gather costs more than the
#: outer-add it replaces), and a bootstrap that keeps more than that share
#: of its triples solves them all.
_DENSE_SHARE = 8

#: The count is estimated from every ``_PROBE_STRIDE``-th row first, so a
#: node that goes dense (every node of a tie-heavy geometric space) pays
#: for one eighth of a full count.
_PROBE_STRIDE = 8

#: Relative margin on the bootstrap bracket test ``U >= max L``; it covers
#: the rounding of both bounds and of every iterate inside the bracket.
_BOOTSTRAP_MARGIN = 1e-12


def _as_matrix(space: DecaySpace | np.ndarray) -> np.ndarray:
    if isinstance(space, DecaySpace):
        return space.f
    f = np.asarray(space, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise DecaySpaceError(f"decay matrix must be square, got {f.shape}")
    return f


def _log_matrix(f: np.ndarray) -> np.ndarray:
    """Elementwise log of the decay matrix; the zero diagonal maps to -inf."""
    with np.errstate(divide="ignore"):
        return np.log(f)


def satisfies_metricity(
    space: DecaySpace | np.ndarray, zeta: float, slack: float = _PREDICATE_SLACK
) -> bool:
    """Whether every triple satisfies inequality (2) at exponent ``zeta``.

    The check is vectorized per middle node ``z`` (O(n) memory blocks,
    O(n^3) work).  It is performed on decay *ratios* in log space, so very
    large decays do not overflow: for the triple ``(x, y, z)`` the condition
    is rewritten as::

        exp((ln f_xz - ln f_xy) / zeta) + exp((ln f_zy - ln f_xy) / zeta) >= 1

    and exponents are clamped at zero (a non-negative exponent makes its term
    alone >= 1, trivially satisfying the triple).
    """
    f = _as_matrix(space)
    n = f.shape[0]
    if n <= 2:
        return True
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    logf = _log_matrix(f)
    eye = np.eye(n, dtype=bool)
    for z in range(n):
        # d_a[x, y] = ln f(x, z) - ln f(x, y);  d_b[x, y] = ln f(z, y) - ln f(x, y)
        # (the -inf log-diagonal produces NaNs on excluded triples only).
        with np.errstate(invalid="ignore"):
            d_a = logf[:, z][:, None] - logf
            d_b = logf[z, :][None, :] - logf
            term = np.exp(np.minimum(d_a, 0.0) / zeta) + np.exp(
                np.minimum(d_b, 0.0) / zeta
            )
        ok = term >= 1.0 - slack
        # Triples with repeated nodes are trivially satisfied.
        ok |= eye
        ok[z, :] = True
        ok[:, z] = True
        if not ok.all():
            return False
    return True


def metricity_witness(
    space: DecaySpace | np.ndarray, zeta: float, slack: float = _PREDICATE_SLACK
) -> tuple[int, int, int] | None:
    """A triple ``(x, y, z)`` violating inequality (2) at ``zeta``, if any.

    Returns ``None`` when ``zeta`` satisfies the metricity predicate.  The
    middle node of the returned witness is ``z``: the violated inequality is
    ``f(x, y)^(1/zeta) > f(x, z)^(1/zeta) + f(z, y)^(1/zeta)``.
    """
    f = _as_matrix(space)
    n = f.shape[0]
    if n <= 2:
        return None
    logf = _log_matrix(f)
    eye = np.eye(n, dtype=bool)
    for z in range(n):
        with np.errstate(invalid="ignore"):
            d_a = logf[:, z][:, None] - logf
            d_b = logf[z, :][None, :] - logf
            term = np.exp(np.minimum(d_a, 0.0) / zeta) + np.exp(
                np.minimum(d_b, 0.0) / zeta
            )
        term = np.nan_to_num(term, nan=2.0)
        bad = term < 1.0 - slack
        bad &= ~eye
        bad[z, :] = False
        bad[:, z] = False
        if bad.any():
            x, y = np.argwhere(bad)[0]
            return int(x), int(y), int(z)
    return None


def _newton_step(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One Newton step in ``u = 1/zeta`` on ``h(u) = exp(a u) + exp(b u)``."""
    ea = np.exp(a * u)
    eb = np.exp(b * u)
    hp = a * ea + b * eb  # h'(u), strictly negative on the domain
    return u + (1.0 - (ea + eb)) / hp


def _settle(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``1/u`` after stepping ``u`` (in place) back to the feasible side.

    Float safety: if rounding left an iterate infinitesimally past the
    root (``h < 1``), step ``u`` back until the predicate holds again.
    Elementwise, so each triple's result depends on its own iterate only.
    """
    for _ in range(8):
        bad = np.exp(a * u) + np.exp(b * u) < 1.0
        if not bad.any():
            break
        u[bad] *= 1.0 - 4.0 * np.finfo(float).eps
    return 1.0 / u


def _solve_triple_zetas(
    a: np.ndarray, b: np.ndarray, tol: float, max_iterations: int
) -> np.ndarray:
    """Vectorized roots of ``exp(a/zeta) + exp(b/zeta) = 1`` for ``a, b < 0``.

    Newton iteration in ``u = 1/zeta`` on the convex, decreasing map
    ``h(u) = exp(a u) + exp(b u)``.  Started from the AM-GM feasible point
    ``u0 = -2 ln 2 / (a + b)`` (where ``h(u0) >= 1``), convexity makes the
    iterates increase monotonically towards the root while keeping
    ``h >= 1``, so every iterate — in particular the returned one —
    satisfies the metricity predicate for its triple.  Convergence is
    quadratic; the iteration cap is a safety net, not a budget.  The
    whole batch stops at the first step where *every* element moved by at
    most ``tol``, so a converged element's last bits depend on the batch
    it was solved in (see :func:`_bootstrap_zeta`).
    """
    u = -2.0 * _LN2 / (a + b)
    z = 1.0 / u
    for _ in range(max_iterations):
        u = _newton_step(a, b, u)
        z_new = 1.0 / u
        if np.all(np.abs(z - z_new) <= tol):
            break
        z = z_new
    return _settle(a, b, u)


def _bootstrap_candidates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the triples whose root bracket ``[L, U]`` reaches ``max L``."""
    lower = np.maximum(a, b) / -_LN2
    upper = (a + b) / (-2.0 * _LN2)
    return upper >= lower.max() * (1.0 - _BOOTSTRAP_MARGIN)


def _bootstrap_zeta(
    a: np.ndarray, b: np.ndarray, tol: float, max_iterations: int
) -> float:
    """``_solve_triple_zetas(a, b, ...).max()``, bit for bit, from few roots.

    Each root lies in ``[L, U]`` with ``L = -max(a, b) / ln 2`` (the larger
    of the two terms is at least 1/2 at the root) and ``U = -(a + b) /
    (2 ln 2)`` (the AM-GM start, where ``h >= 1``).  Every iterate, settled
    or not, stays inside that bracket up to rounding, so only triples with
    ``U >= max L`` (less a relative margin) can hold the maximum; on
    measured spaces that is a few percent of them.  Where it is more than
    ``1 / _DENSE_SHARE`` of them (tie-heavy geometric spaces, whose roots
    crowd at the answer), the full batch is solved directly.

    The kept subset converges no later than the full batch would (the full
    batch stops only once every element, the kept ones included, has
    converged), but possibly earlier, and a converged iterate can still
    move by an ulp (converged iterates settle into short cycles of one to
    three steps).  So the subset keeps iterating from its first converged
    step until its whole state repeats (states are compared by a 128-bit
    digest) or the cap is reached, which covers every step count the full
    batch could stop at.  If the settled maximum is the same at all of
    them it is the full batch's maximum; otherwise (rare) the full batch
    is solved.
    """
    keep = _bootstrap_candidates(a, b)
    if np.count_nonzero(keep) * _DENSE_SHARE > keep.size:
        return float(_solve_triple_zetas(a, b, tol, max_iterations).max())
    sa, sb = a[keep], b[keep]
    u = -2.0 * _LN2 / (sa + sb)
    z = 1.0 / u
    tops: set[float] = set()
    seen: set[bytes] = set()
    for _ in range(max_iterations):
        u = _newton_step(sa, sb, u)
        z_new = 1.0 / u
        if seen or np.all(np.abs(z - z_new) <= tol):
            key = hashlib.blake2b(u, digest_size=16).digest()
            if key in seen:
                break  # the state cycles: every later one is recorded
            seen.add(key)
            tops.add(float(_settle(sa, sb, u.copy()).max()))
        z = z_new
    if not seen:  # never converged: the full batch also runs to the cap
        tops.add(float(_settle(sa, sb, u).max()))
    if len(tops) == 1:
        return tops.pop()
    return float(_solve_triple_zetas(a, b, tol, max_iterations).max())


def _log_noise_floor(logf: np.ndarray) -> float:
    """Absolute noise floor of log-ratio differences ``logf[i,j] - logf[k,l]``.

    Each entry of ``logf`` carries up to half an ulp of rounding, so a
    difference of two entries of magnitude ``L`` is only resolved to a few
    ``eps * L``.  A constraining log-ratio inside this floor is numerically
    indistinguishable from a tie; its per-triple root is ill-conditioned
    (sensitivity ``~ floor / |h'|`` can reach percent level on wide-range
    spaces) while the bisection oracle's predicate slack treats the triple
    as satisfied.  Dropping such triples keeps the two implementations
    convergent to the same value.
    """
    finite = logf[np.isfinite(logf)]
    lmax = float(np.abs(finite).max()) if finite.size else 0.0
    return 4.0 * float(np.finfo(float).eps) * max(1.0, lmax)


#: ``(best, mode, screen_q, target, quasi64, reach)``; see :class:`_ScreenState`.
#: In the float32 tier ``screen_q`` and ``target`` are ``None`` until
#: :meth:`_ScreenState.dense_snap` builds them.
_Snapshot = tuple[
    float, str, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None
]


class _ScreenState:
    """Incumbent and tier-dependent screen arrays for the middle-node scan.

    The screen tests the *exact* predicate at the incumbent: a triple can
    raise the maximum only if it violates the triangle inequality in the
    quasi-distance ``g = (f / max f)^(1/best)``, i.e.
    ``g[x, z] + g[z, y] < g[x, y]``.  The tier (``"f32"``, ``"f64"`` or
    ``"log"``) is chosen from ``span / best`` — the representable dynamic
    range shrinks as the incumbent grows — and re-chosen on every
    improvement.  ``snap`` holds one immutable tuple
    ``(best, mode, screen_q, target, quasi64)`` that workers read
    atomically; a stale snapshot only widens the screen (a triple violating
    at the final incumbent violates at every smaller one), so concurrent
    improvements never lose a violator whose root exceeds the final
    incumbent by more than the solver tolerance.  The snapshot's last
    entry is ``reach[x] = max_y q[x, y]``, the row maxima of ``quasi64``
    that bound the candidate gather (``None`` in the log tier).  The
    float32 tier's ``screen_q``/``target`` copies are left ``None`` and
    made by :meth:`dense_snap` only when a block has middle nodes for the
    dense screen: measured spaces prune every node and never need them.
    Repeated-node triples need no special casing: the zero (resp.
    ``-inf``) diagonal makes them non-violating under every tier.

    ``order`` and ``ratio_sorted`` hold each row of ``f / max f`` in
    ascending order (its argsort as int32, and the sorted values): the
    quasi-distance is a monotone power of that ratio, so for any
    incumbent the entries of a row below a bound form a prefix of its
    ``order`` row.
    """

    __slots__ = (
        "f", "logf", "fmax", "span", "log_noise", "order", "ratio_sorted",
        "snap", "_lock", "_dense",
    )

    def __init__(
        self, f: np.ndarray, logf: np.ndarray, log_noise: float, best: float
    ) -> None:
        self.f = f
        self.logf = logf
        self.fmax = float(f.max())
        with np.errstate(divide="ignore"):
            self.span = (
                float(np.log2(self.fmax) - np.log2(f[f > 0.0].min()))
                if self.fmax > 0
                else 0.0
            )
        self.log_noise = log_noise
        ratios = f / self.fmax
        order = np.argsort(ratios, axis=1)
        self.ratio_sorted = np.take_along_axis(ratios, order, axis=1)
        self.order = order.astype(np.int32)
        self._lock = threading.Lock()
        #: ``(snapshot, the same snapshot with float32 copies)`` of the
        #: last :meth:`dense_snap` build.
        self._dense: tuple[_Snapshot, _Snapshot] | None = None
        self.snap = self._build(best)

    @property
    def best(self) -> float:
        return self.snap[0]

    def _build(self, best: float) -> _Snapshot:
        ratio = np.inf if not np.isfinite(self.span) else self.span / best
        if ratio > _LOG_SPAN_LIMIT:
            quasi = self.logf / best
            return best, "log", quasi, quasi, None, None
        quasi64 = (self.f / self.fmax) ** (1.0 / best)
        reach = quasi64.max(axis=1)
        if ratio > _F32_SPAN_LIMIT:
            return best, "f64", quasi64, quasi64, quasi64, reach
        return best, "f32", None, None, quasi64, reach

    def dense_snap(self, snap: _Snapshot) -> _Snapshot:
        """``snap`` with the arrays the dense screen reads.

        The float32 copies are a pure function of ``quasi64``, built once
        per snapshot under the lock (so concurrent blocks share one
        build); a block still holding an older snapshot rebuilds its
        own, which only costs time.
        """
        if snap[2] is not None:
            return snap
        with self._lock:
            if self._dense is None or self._dense[0] is not snap:
                best, mode, _, _, quasi64, reach = snap
                screen = quasi64.astype(np.float32)
                target = (quasi64 * (1.0 + _F32_SCREEN_MARGIN)).astype(
                    np.float32
                )
                self._dense = (
                    snap, (best, mode, screen, target, quasi64, reach)
                )
            return self._dense[1]

    def improve(self, top: float) -> None:
        with self._lock:
            if top > self.snap[0]:
                self.snap = self._build(top)


class _BlockBuffers:
    """Preallocated per-worker scratch for one batched middle-node block.

    The flag buffer is a flat byte-bool array padded to a multiple of 8 so
    it can be viewed as ``uint64`` words: flagged-coordinate extraction
    scans 8 bools per compare instead of one (see :func:`_screen_block`).
    The padding tail is allocated zero and never written.
    """

    __slots__ = ("n", "block", "f32", "f64", "_flat", "flags")

    def __init__(self, n: int, block: int) -> None:
        self.n = n
        self.block = block
        self.f32: np.ndarray | None = None
        self.f64: np.ndarray | None = None
        total = block * n * n
        self._flat = np.zeros(-(-total // 8) * 8, dtype=bool)
        self.flags = self._flat[:total].reshape(block, n, n)

    def sums(self, k: int, mode: str) -> np.ndarray:
        if mode == "f32":
            if self.f32 is None:
                self.f32 = np.empty((self.block, self.n, self.n), dtype=np.float32)
            return self.f32[:k]
        if self.f64 is None:
            self.f64 = np.empty((self.block, self.n, self.n), dtype=np.float64)
        return self.f64[:k]

    def flagged_coordinates(
        self, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(b, x, y)`` coordinates of set flags, via a word-level scan.

        Only the first ``k * n * n`` flags are live; beyond them the buffer
        is zero (the final partial block leaves the tail untouched, and the
        padding is never written), so scanning the full word view is safe.
        A ``uint64`` view finds the words holding any flag ~5x faster than
        ``np.nonzero`` on the byte-bool buffer; only those words' bytes are
        then expanded.
        """
        words = self._flat.view(np.uint64)
        hits = np.flatnonzero(words)
        if hits.size == 0:
            return None
        expanded = self._flat.reshape(-1, 8)[hits]
        wi, bi = np.nonzero(expanded)
        flat_idx = hits[wi] * 8 + bi
        nn = self.n * self.n
        bj, rem = np.divmod(flat_idx, nn)
        xi, yi = np.divmod(rem, self.n)
        return bj, xi, yi


def _screen_block(
    zs: np.ndarray, snap: _Snapshot, buffers: _BlockBuffers
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Flagged ``(z, x, y)`` triple coordinates of a batch of middle nodes.

    One outer-add over the whole batch — ``cols[b, x] + rows[b, y]`` versus
    the target matrix — then a word-level gather of the flagged coordinates
    (see :meth:`_BlockBuffers.flagged_coordinates`).  In the float32 tier
    the gathered triples are re-tested strictly in float64 (an O(flagged)
    vectorized pass), which strips the margin-induced false positives —
    near-tie density scales like the square root of the margin in
    geometric spaces, so there can be thousands per block — before they
    reach the Newton solve.
    """
    _, mode, screen_q, target, quasi64, _ = snap
    k = len(zs)
    cols = screen_q[:, zs].T[:, :, None]
    rows = screen_q[zs, :][:, None, :]
    sums = buffers.sums(k, mode)
    if mode == "log":
        np.logaddexp(cols, rows, out=sums)
    else:
        np.add(cols, rows, out=sums)
    flags = buffers.flags[:k]
    np.less(sums, target[None, :, :], out=flags)
    if not flags.any():
        return None
    if k < buffers.block:
        buffers.flags[k:] = False  # final partial block: clear stale flags
    coords = buffers.flagged_coordinates(k)
    if coords is None:
        return None
    bj, xi, yi = coords
    z_arr = zs[bj]
    if mode == "f32":
        assert quasi64 is not None
        exact = quasi64[xi, z_arr] + quasi64[z_arr, yi] < quasi64[xi, yi]
        if not exact.any():
            return None
        z_arr, xi, yi = z_arr[exact], xi[exact], yi[exact]
    return z_arr, xi, yi


def _candidate_block(
    zs: np.ndarray, snap: _Snapshot, state: _ScreenState
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray] | None, np.ndarray]:
    """Exact violators among the pruned middle nodes of ``zs``, and the rest.

    A triple violates at the incumbent only if ``q[x, z] + q[z, y] <
    q[x, y] <= reach[x]``, so for middle node ``z`` only the ``y`` with
    ``q[z, y] < reach[x] - q[x, z]`` are candidates.  ``q`` is a monotone
    power of the decay ratio ``f / max f``, so each bound maps back to a
    ratio limit ``bound ** best`` (widened by an absolute slack before the
    power and a relative margin after it, so rounding can only
    over-include), one ``searchsorted`` per ``z`` counts each row's
    candidates, and they are the prefix ``order[z, :count[x]]``.  The
    gathered triples get the exact float64 predicate — the one the dense
    screen applies — so the flagged set is the dense screen's, exactly.

    Returns ``(flagged, dense_zs)``: the flagged ``(z, x, y)`` triples of
    the pruned middle nodes (or ``None``) and the middle nodes whose
    candidate count, estimated from every ``_PROBE_STRIDE``-th row,
    exceeds ``n**2 / _DENSE_SHARE`` (all of them in the log tier, which
    has no ``quasi64``), left for :func:`_screen_block`.
    """
    best, _, _, _, quasi64, reach = snap
    if quasi64 is None:
        return None, zs
    n = quasi64.shape[0]
    k = len(zs)
    bound = reach - quasi64[:, zs].T
    bound += _CANDIDATE_SLACK * reach
    limit = bound**best
    limit *= 1.0 + _CANDIDATE_MARGIN * (1.0 + best)
    limit += np.finfo(float).tiny
    pruned = np.zeros(k, dtype=bool)
    counts = np.zeros((k, n), dtype=np.intp)
    for j, z in enumerate(zs):
        row = state.ratio_sorted[z]
        probe = np.searchsorted(row, limit[j, ::_PROBE_STRIDE], "right")
        if int(probe.sum()) * _PROBE_STRIDE * _DENSE_SHARE <= n * n:
            pruned[j] = True
            counts[j] = np.searchsorted(row, limit[j], "right")
    counts[np.arange(k), zs] = 0  # x = z never violates
    dense_zs = zs[~pruned]
    counts = counts[pruned]
    totals = counts.sum(axis=1)
    total = int(totals.sum())
    if total == 0:
        return None, dense_zs
    # Flat gathers: segment (z, x) holds the candidates y = order[z, :count]
    # at flat positions z*n + rank; every read of ``quasi64`` stays in row
    # z or row x, so the gathers are cache-resident.
    zp = zs[pruned]
    flat = counts.ravel()
    seg_start = np.cumsum(flat) - flat
    src = np.arange(total) - np.repeat(seg_start - np.repeat(zp * n, n), flat)
    yi = state.order.ravel().take(src)
    z_row = np.repeat(zp * n, totals)
    x_row = np.repeat(np.tile(np.arange(0, n * n, n), len(zp)), flat)
    q = quasi64.ravel()
    q_xz = np.repeat(quasi64[:, zp].T.ravel(), flat)
    hit = q_xz + q.take(z_row + yi) < q.take(x_row + yi)
    if not hit.any():
        return None, dense_zs
    return (z_row[hit] // n, x_row[hit] // n, yi[hit]), dense_zs


def _scan_block(
    zs: np.ndarray,
    state: _ScreenState,
    buffers: _BlockBuffers,
    tol: float,
    max_iterations: int,
) -> None:
    """Screen one block of middle nodes at one snapshot, confirm its flags.

    The pruned gather and the dense screen of the block's remaining
    middle nodes read the same snapshot and their flags reach one
    :func:`_confirm_block` call, so the block flags and solves exactly
    what an all-dense screen of it would.
    """
    snap = state.snap
    flagged, dense_zs = _candidate_block(zs, snap, state)
    if dense_zs.size:
        screened = _screen_block(dense_zs, state.dense_snap(snap), buffers)
        if flagged is None:
            flagged = screened
        elif screened is not None:
            flagged = tuple(np.concatenate(p) for p in zip(flagged, screened))
    if flagged is not None:
        _confirm_block(flagged, state, tol, max_iterations)


def _confirm_block(
    flagged: tuple[np.ndarray, np.ndarray, np.ndarray],
    state: _ScreenState,
    tol: float,
    max_iterations: int,
) -> None:
    """float64 confirmation: resolve flagged triples' roots, raise incumbent.

    The log-ratios ``a = ln(f_xz/f_xy)``, ``b = ln(f_zy/f_xy)`` are exact
    float64 regardless of the screening tier.  Triples with
    ``max(a, b) >= -noise`` are dropped: a non-negative log-ratio never
    constrains, and one inside the noise floor (the rounding error of the
    log difference itself) has a root that is pure noise — the bisection
    oracle's predicate slack ignores exactly these, so resolving them
    would *diverge* from it, not refine it.

    Every remaining triple is solved and only a larger root raises the
    incumbent.  No incumbent-form predicate re-test happens here: the
    screens flag (at least) every strict violator at their snapshot, so a
    triple whose root exceeds the final incumbent by more than the solver
    tolerance is flagged and solved no matter how the blocks were
    partitioned or interleaved.  Partitioning can therefore shift the
    result only within the Newton tolerance (which triples are flagged at
    a stale-vs-fresh incumbent differs exactly for roots within ~tol of
    it), never beyond.
    """
    logf = state.logf
    z_arr, xi, yi = flagged
    base = logf[xi, yi]
    aa = logf[xi, z_arr] - base
    bb = logf[z_arr, yi] - base
    keep = np.maximum(aa, bb) < -state.log_noise
    if not keep.any():
        return
    roots = _solve_triple_zetas(aa[keep], bb[keep], tol, max_iterations)
    state.improve(float(roots.max()))


def _positive_int(name: str, value: object) -> int:
    """``value`` as an ``int``, refusing bools, non-integers and values < 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def _resolve_block_size(n: int, block_size: int | None) -> int:
    if block_size is not None:
        return _positive_int("block_size", block_size)
    return max(1, min(64, _SCREEN_BLOCK_ELEMENTS // max(n * n, 1)))


def _resolve_workers(n: int, workers: int | None) -> int:
    if workers is not None:
        return _positive_int("workers", workers)
    if n < _PARALLEL_MIN_NODES:
        return 1
    return min(4, os.cpu_count() or 1)


def metricity(
    space: DecaySpace | np.ndarray,
    tol: float = 1e-9,
    max_iterations: int = 200,
    *,
    block_size: int | None = None,
    workers: int | None = None,
) -> float:
    """The metricity ``zeta(D)`` of Definition 2.2, via per-triple roots.

    A blocked pass over middle nodes ``z`` screens every triple with the
    exact predicate at the running maximum — the triangle inequality in
    the induced quasi-distance (see module docstring) — and resolves the
    violating triples' log-ratios ``a = ln(f_xz/f_xy)``,
    ``b = ln(f_zy/f_xy)`` exactly with :func:`_solve_triple_zetas`
    (triples with ``max(a, b) >= 0`` are satisfied at every positive
    exponent and never constrain).  The result is the maximum per-triple
    root — the same value the predicate bisection of
    :func:`metricity_bisection` brackets, but computed in one sweep
    instead of ~40.

    The incumbent starts from the first constraining middle node, whose
    maximum root the bounded bootstrap (:func:`_bootstrap_zeta`) finds
    from the few triples whose root bracket reaches the largest lower
    bound.  Each later middle node screens only the candidates that the
    sorted-neighbour bound cannot rule out (:func:`_candidate_block`);
    a node with more than ``n**2 / 8`` candidates (tie-heavy geometric
    spaces, an early low incumbent, the log tier) is screened densely,
    in float32 with a conservative margin when the dynamic range permits.
    Both paths flag exactly the triples the dense float64 predicate
    flags, so the result does not depend on which one a node took.

    Middle nodes are processed ``block_size`` at a time (auto-sized to a
    ~32 MB dense screen buffer by default), one incumbent snapshot per
    block.  ``workers`` threads scan blocks concurrently (numpy releases
    the GIL in the block kernels); a stale incumbent only over-flags, so
    block size and worker count cannot move the result beyond the solver
    tolerance ``tol``.  Defaults: serial below 256 nodes, else
    ``min(4, cpu_count)``.  ``tol`` must be positive and finite;
    ``max_iterations``, ``block_size`` and ``workers`` must be integers
    >= 1 (bools refused); a bad value raises :class:`ValueError` before
    any work.

    Spaces in which every triple holds for arbitrarily small exponents
    (e.g. uniform decays) have an infimum of 0; this function then returns
    ``0.0`` by convention.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    max_iterations = _positive_int("max_iterations", max_iterations)
    f = _as_matrix(space)
    n = f.shape[0]
    block = _resolve_block_size(n, block_size)
    n_workers = _resolve_workers(n, workers)
    if n <= 2:
        return 0.0
    logf = _log_matrix(f)
    # Bootstrap: scan middle nodes until one constrains, then take the
    # maximum root of its constraining triples; earlier nodes had no
    # constraining triples and are complete.  The noise floor mirrors the
    # one applied during confirmation (see _log_noise_floor).
    noise = _log_noise_floor(logf)
    best = 0.0
    first_screened = n
    for z in range(n):
        with np.errstate(invalid="ignore"):
            d_a = logf[:, z][:, None] - logf
            d_b = logf[z, :][None, :] - logf
            nontrivial = np.maximum(d_a, d_b) < -noise
        if not nontrivial.any():
            continue
        best = _bootstrap_zeta(
            d_a[nontrivial], d_b[nontrivial], tol, max_iterations
        )
        first_screened = z + 1
        break
    if best == 0.0:
        return 0.0

    state = _ScreenState(f, logf, noise, best)
    blocks = [
        np.arange(start, min(start + block, n))
        for start in range(first_screened, n, block)
    ]

    if n_workers <= 1 or len(blocks) <= 1:
        buffers = _BlockBuffers(n, block)
        for zs in blocks:
            _scan_block(zs, state, buffers, tol, max_iterations)
    else:
        local = threading.local()

        def _scan(zs: np.ndarray) -> None:
            buffers = getattr(local, "buffers", None)
            if buffers is None:
                buffers = local.buffers = _BlockBuffers(n, block)
            _scan_block(zs, state, buffers, tol, max_iterations)

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(_scan, blocks))

    best = state.best
    return best if best > tol / 4.0 else 0.0


def metricity_bisection(
    space: DecaySpace | np.ndarray,
    tol: float = 1e-9,
    max_iterations: int = 200,
) -> float:
    """The metricity ``zeta(D)`` via global predicate bisection.

    Reference implementation kept for cross-validation of the vectorized
    kernel in :func:`metricity`; about an order of magnitude slower (one
    full O(n^3) predicate sweep per bisection step).  Returns the smallest
    ``zeta`` (within absolute tolerance ``tol``) such that every triple
    satisfies inequality (2); the returned value always *satisfies* the
    predicate (we bisect and report the feasible endpoint).
    """
    f = _as_matrix(space)
    n = f.shape[0]
    if n <= 2:
        return 0.0

    # Paper (Sec 2.2): zeta_0 = lg(max f / min f) always satisfies (2).
    off = f[~np.eye(n, dtype=bool)]
    ratio = float(off.max() / off.min())
    hi = max(1.0, float(np.log2(ratio)) if ratio > 1.0 else 0.0)
    for _ in range(max_iterations):
        if satisfies_metricity(f, hi):
            break
        hi *= 2.0
    else:  # pragma: no cover - paper guarantees the bound; defensive only
        raise ConvergenceError("could not bracket the metricity from above")

    lo = tol / 4.0
    if satisfies_metricity(f, lo):
        return 0.0

    for _ in range(max_iterations):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        if satisfies_metricity(f, mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


def zeta_of_triple(
    fxy: float, fxz: float, fzy: float, tol: float = 1e-12
) -> float:
    """Smallest exponent satisfying inequality (2) for a single triple.

    ``fxy`` is the direct decay, ``fxz`` and ``fzy`` the two detour decays.
    Returns ``0.0`` when the triple is satisfied by every positive exponent
    (which happens exactly when ``fxy <= max(fxz, fzy)``).
    """
    if min(fxy, fxz, fzy) <= 0:
        raise ValueError("triple decays must be positive")
    if fxy <= max(fxz, fzy):
        return 0.0
    a = np.array([np.log(fxz) - np.log(fxy)])
    b = np.array([np.log(fzy) - np.log(fxy)])
    return float(_solve_triple_zetas(a, b, tol, 200)[0])


def varphi(space: DecaySpace | np.ndarray) -> float:
    """The relaxed-triangle parameter of Sec. 4.2 (prose definition).

    ``varphi`` is the smallest value such that
    ``f(x, z) <= varphi * (f(x, y) + f(y, z))`` for every triple of distinct
    nodes, i.e. ``max f(x, z) / (f(x, y) + f(y, z))``.  For a metric,
    ``varphi <= 1``.
    """
    value, _ = varphi_witness(space)
    return value


def varphi_witness(
    space: DecaySpace | np.ndarray,
) -> tuple[float, tuple[int, int, int] | None]:
    """``varphi`` together with a maximising triple ``(x, y, z)``.

    The returned triple has middle node ``y``:
    ``varphi = f(x, z) / (f(x, y) + f(y, z))``.
    """
    f = _as_matrix(space)
    n = f.shape[0]
    if n <= 2:
        return 0.0, None
    best = -np.inf
    witness: tuple[int, int, int] | None = None
    eye = np.eye(n, dtype=bool)
    for y in range(n):
        denom = f[:, y][:, None] + f[y, :][None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = f / denom
        ratio[eye] = -np.inf
        ratio[y, :] = -np.inf
        ratio[:, y] = -np.inf
        idx = np.argmax(ratio)
        x, z = divmod(int(idx), n)
        if ratio[x, z] > best:
            best = float(ratio[x, z])
            witness = (x, y, z)
    return best, witness


def phi(space: DecaySpace | np.ndarray) -> float:
    """``phi = lg(varphi)``; may be negative for better-than-metric spaces."""
    v = varphi(space)
    if v <= 0:
        return float("-inf")
    return float(np.log2(v))


def metricities_along(
    spaces: Sequence[DecaySpace], tol: float = 1e-9
) -> np.ndarray:
    """Metricity of each space in a sequence (convenience for sweeps)."""
    return np.array([metricity(s, tol=tol) for s in spaces])
