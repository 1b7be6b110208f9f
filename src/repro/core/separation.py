"""Link quasi-distances and eta-separation (paper Sec. 2.4).

The quasi-distance between two links is the minimum over the four endpoint
pairs::

    d(l_v, l_w) = min( d(s_v, r_w), d(s_w, r_v), d(s_v, s_w), d(r_v, r_w) )

computed in the induced quasi-metric ``d = f^(1/zeta)``.  A link ``l_v`` is
*eta-separated from a set L* when ``d(l_v, l_w) >= eta * d_vv`` for every
``l_w in L`` (note: relative to ``l_v``'s own length), and a set is
eta-separated when every member is eta-separated from the rest — which
makes the pairwise requirement ``d(l_v, l_w) >= eta * max(d_vv, d_ww)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.links import LinkSet

__all__ = [
    "link_distance_matrix",
    "quasi_lengths",
    "is_separated_from",
    "is_separated_set",
    "separation_violations",
    "separation_of_set",
]


def quasi_lengths(links: LinkSet, zeta: float | None = None) -> np.ndarray:
    """Quasi-distance lengths ``d_vv = f_vv^(1/zeta)`` of all links."""
    return links.quasi_lengths(zeta)


def link_distance_matrix(
    links: LinkSet, zeta: float | None = None
) -> np.ndarray:
    """Symmetric matrix of link quasi-distances ``d(l_v, l_w)``.

    The diagonal holds the link's own quasi-length ``d_vv = d(s_v, r_v)``
    (the paper's convention ``d_vv = d(s_v, r_v)``).  Only the three
    link blocks of ``f`` are raised to ``1/zeta`` — O(m^2) work however
    large the node pool — and the power is elementwise, so each entry
    equals that of ``f ** (1/zeta)`` gathered afterwards.
    """
    inv = 1.0 / links._resolve_zeta(zeta)
    f = links.space.f
    s, r = links.senders, links.receivers
    sv_rw = f[np.ix_(s, r)] ** inv  # d(s_v, r_w)
    sv_sw = f[np.ix_(s, s)] ** inv  # d(s_v, s_w)
    rv_rw = f[np.ix_(r, r)] ** inv  # d(r_v, r_w)
    # The four candidates; d(s_w, r_v) is the transpose of d(s_v, r_w).
    out = np.minimum(np.minimum(sv_rw, sv_rw.T), np.minimum(sv_sw, rv_rw))
    np.fill_diagonal(out, np.diagonal(sv_rw))
    return out


def is_separated_from(
    dist: np.ndarray,
    v: int,
    members: np.ndarray | list[int],
    eta: float,
) -> bool:
    """Whether link ``v`` is eta-separated from ``members``.

    ``dist`` is a link-distance matrix from :func:`link_distance_matrix`.
    Per the paper's definition the threshold is relative to ``d_vv`` only.
    """
    idx = np.asarray(members, dtype=int)
    idx = idx[idx != v]
    if idx.size == 0:
        return True
    return bool(np.all(dist[v, idx] >= eta * dist[v, v]))


def is_separated_set(
    dist: np.ndarray, subset: np.ndarray | list[int], eta: float
) -> bool:
    """Whether every link in ``subset`` is eta-separated from the rest."""
    return len(separation_violations(dist, subset, eta)) == 0


def separation_violations(
    dist: np.ndarray, subset: np.ndarray | list[int], eta: float
) -> list[tuple[int, int]]:
    """Pairs ``(v, w)`` in ``subset`` with ``d(l_v, l_w) < eta * d_vv``."""
    idx = np.asarray(subset, dtype=int)
    out: list[tuple[int, int]] = []
    if idx.size < 2:
        return out
    sub = dist[np.ix_(idx, idx)]
    need = eta * np.diagonal(sub)[:, None]
    bad = sub < need
    np.fill_diagonal(bad, False)
    for i, j in np.argwhere(bad):
        out.append((int(idx[i]), int(idx[j])))
    return out


def separation_of_set(
    dist: np.ndarray, subset: np.ndarray | list[int]
) -> float:
    """The largest eta for which ``subset`` is eta-separated.

    Returns ``inf`` for singletons.  This is
    ``min over pairs of d(l_v, l_w) / max(d_vv, d_ww)``.
    """
    idx = np.asarray(subset, dtype=int)
    if idx.size < 2:
        return float("inf")
    sub = dist[np.ix_(idx, idx)]
    lengths = np.diagonal(sub)
    denom = np.maximum(lengths[:, None], lengths[None, :])
    ratio = sub / denom
    k = idx.size
    ratio[np.eye(k, dtype=bool)] = np.inf
    return float(ratio.min())
