"""Affectance: normalised interference between links (paper Sec. 2.4).

The affectance of link ``l_w`` on link ``l_v`` under power assignment ``P``
is the interference of ``l_w`` at ``r_v`` normalised to the received signal
of ``l_v``::

    a_w(v) = min(1, c_v * (P_w / P_v) * (f_vv / f_wv))

where ``f_wv = f(s_w, r_v)`` and ``c_v = beta / (1 - beta N / (P_v G_vv))``
absorbs ambient noise (``c_v = beta`` when ``N = 0``).  With at least two
links, the SINR constraint ``SINR_v >= beta`` is *equivalent* to the
unclipped in-affectance bound ``sum_{w in S} a_w(v) <= 1``; the clipped
variant is what the paper's algorithms account with (they coincide on
feasible sets, since a clipped entry implies in-affectance >= 1).

Matrix convention: ``A[w, v] = a_w(v)`` — row is the *acting* link, column
the *affected* link.  ``a_v(v) = 0`` by definition.

The schedulers read affectance through one access protocol, whichever the
backend: :func:`as_view` gives a dense matrix the interface of the sparse
views of :mod:`repro.core.affectance_sparse` (row/column reads, gathers,
member blocks and member sums), each method the numpy expression the
callers once inlined.
"""

from __future__ import annotations

import numpy as np

from repro.core.links import LinkSet
from repro.errors import InfeasibleLinkError, PowerError

__all__ = [
    "noise_constants",
    "noise_constants_from_lengths",
    "affectance_matrix",
    "in_affectance",
    "out_affectance",
    "in_affectances_within",
    "feasible_within",
    "total_affectance",
]


class _DenseView:
    """A dense ``(n, n)`` matrix behind the sparse views' interface.

    Each method is the numpy expression on the matrix itself, so reading
    through the view is float for float the inlined indexing.  A row's
    support is the whole row: :meth:`row` and :meth:`col` return
    ``slice(None)`` as their indices.  ``dense`` lets the two kernels
    that run a different algorithm per backend (first fit's and the
    repairers' member probes) choose it from the view.
    """

    __slots__ = ("a",)

    dense = True

    def __init__(self, a: np.ndarray) -> None:
        self.a = a

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def row(self, v: int) -> tuple[slice, np.ndarray]:
        return slice(None), self.a[v]

    def col(self, v: int) -> tuple[slice, np.ndarray]:
        return slice(None), self.a[:, v]

    def gather_row(self, v: int, cols) -> np.ndarray:
        return self.a[int(v), np.asarray(cols, dtype=int)]

    def gather_col(self, rows, v: int) -> np.ndarray:
        return self.a[np.asarray(rows, dtype=int), int(v)]

    def block(self, rows, cols) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        return self.a[np.ix_(rows, np.asarray(cols, dtype=int))]

    def dense_row(self, v: int) -> np.ndarray:
        return self.a[int(v)].copy()

    def add_row_to(self, out: np.ndarray, v: int) -> None:
        out += self.a[v]

    def add_col_to(self, out: np.ndarray, v: int) -> None:
        out += self.a[:, v]

    def rows_sum(self, members) -> np.ndarray:
        idx = np.asarray(members, dtype=int)
        if idx.size == 0:
            return np.zeros(self.a.shape[1])
        return self.a[idx].sum(axis=0)

    def cols_sum(self, members) -> np.ndarray:
        return self.a[:, np.asarray(members, dtype=int)].sum(axis=1)

    def sum_axis0(self) -> np.ndarray:
        return self.a.sum(axis=0)

    def sum_axis1(self) -> np.ndarray:
        return self.a.sum(axis=1)

    def in_affectances_within(self, subset) -> np.ndarray:
        idx = np.asarray(subset, dtype=int)
        return self.a[np.ix_(idx, idx)].sum(axis=0)


def as_view(a):
    """``a`` under the view protocol: a dense matrix is wrapped in a
    :class:`_DenseView`, a sparse view is returned as it is."""
    return _DenseView(a) if isinstance(a, np.ndarray) else a


def noise_constants_from_lengths(
    lengths: np.ndarray,
    powers: np.ndarray,
    noise: float = 0.0,
    beta: float = 1.0,
) -> np.ndarray:
    """``c_v`` from signal decays directly (no :class:`LinkSet` needed).

    The single implementation of the Sec. 2.4 formula
    ``c_v = beta / (1 - beta * N * f_vv / P_v)``; the sparse backend calls
    it with O(m) lengths so no cross-decay matrix is ever built.
    """
    if beta <= 0:
        raise PowerError(f"beta must be positive, got {beta}")
    if noise < 0:
        raise PowerError(f"noise must be non-negative, got {noise}")
    lens = np.asarray(lengths, dtype=float)
    p = np.asarray(powers, dtype=float)
    if p.shape != lens.shape:
        raise PowerError(f"power vector must have shape {lens.shape}")
    slack = 1.0 - beta * noise * lens / p
    if np.any(slack <= 0):
        bad = int(np.argmin(slack))
        raise InfeasibleLinkError(
            f"link {bad} cannot overcome ambient noise: "
            f"P/f_vv = {p[bad] / lens[bad]:.4g} <= beta*N = {beta * noise:.4g}"
        )
    return beta / slack


def noise_constants(
    links: LinkSet,
    powers: np.ndarray,
    noise: float = 0.0,
    beta: float = 1.0,
) -> np.ndarray:
    """The constants ``c_v`` of Sec. 2.4, one per link.

    ``c_v = beta / (1 - beta * N * f_vv / P_v)``.  Raises
    :class:`InfeasibleLinkError` when some link cannot reach SINR ``beta``
    even in isolation (``P_v / f_vv <= beta * N``).
    """
    p = np.asarray(powers, dtype=float)
    if p.shape != (links.m,):
        raise PowerError(f"power vector must have shape ({links.m},)")
    return noise_constants_from_lengths(
        links.lengths, p, noise=noise, beta=beta
    )


def affectance_matrix(
    links: LinkSet,
    powers: np.ndarray,
    noise: float = 0.0,
    beta: float = 1.0,
    clip: bool = True,
) -> np.ndarray:
    """The full affectance matrix ``A[w, v] = a_w(v)``.

    With ``clip=True`` (the paper's definition) entries are capped at 1.
    Pass ``clip=False`` to obtain the raw normalised interference, for which
    in-affectance sums are exactly SINR-equivalent.  Co-located interferers
    (``s_w == r_v``, zero decay) yield infinite raw affectance.
    """
    c = noise_constants(links, powers, noise=noise, beta=beta)
    p = np.asarray(powers, dtype=float)
    f_vv = links.lengths
    with np.errstate(divide="ignore"):
        ratio = f_vv[None, :] / links.cross_decay
    a = c[None, :] * (p[:, None] / p[None, :]) * ratio
    np.fill_diagonal(a, 0.0)
    if clip:
        a = np.minimum(a, 1.0)
    return a


def in_affectance(
    a: np.ndarray, subset: np.ndarray | list[int], v: int
) -> float:
    """``a_S(v)``: total affectance of the links in ``subset`` on link ``v``.

    ``v`` itself contributes nothing when it belongs to ``subset`` (the
    diagonal of the affectance matrix is zero).
    """
    idx = np.asarray(subset, dtype=int)
    return float(a[idx, v].sum())


def out_affectance(
    a: np.ndarray, v: int, subset: np.ndarray | list[int]
) -> float:
    """``a_v(S)``: total affectance of link ``v`` on the links in ``subset``."""
    idx = np.asarray(subset, dtype=int)
    return float(a[v, idx].sum())


def in_affectances_within(
    a: np.ndarray, subset: np.ndarray | list[int]
) -> np.ndarray:
    """Vector of ``a_S(v)`` for every ``v`` in ``subset`` (aligned to it).

    ``a`` is either a dense affectance matrix or a sparse view from
    :mod:`repro.core.affectance_sparse`; both sum the member rows in
    member order, so the floats are identical whenever the sparse
    pattern holds every pair of the subset.
    """
    return as_view(a).in_affectances_within(subset)


def feasible_within(
    a: np.ndarray, subset: np.ndarray | list[int]
) -> np.ndarray:
    """Mask of links in ``subset`` whose in-affectance within it is <= 1.

    The paper's simultaneous-feasibility test, one member at a time: with
    ``a`` unclipped, ``a_S(v) <= 1`` is exactly ``SINR_v >= beta`` under
    the transmission set ``S`` (Sec. 2.4).  This is the single shared
    implementation of the check the simulators and policies apply per
    slot; the returned mask is aligned with ``subset``.
    """
    return in_affectances_within(a, subset) <= 1.0


def total_affectance(a: np.ndarray, subset: np.ndarray | list[int]) -> float:
    """``sum_{v in S} a_S(v)`` — used by the averaging argument of Thm. 4."""
    idx = np.asarray(subset, dtype=int)
    return float(a[np.ix_(idx, idx)].sum())
