"""Links and link sets over a decay space (paper Sec. 2.1 and 2.4).

A *link* ``l_v = (s_v, r_v)`` is an ordered pair of nodes: a sender and a
receiver.  A :class:`LinkSet` binds a collection of links to a
:class:`~repro.core.decay.DecaySpace` and precomputes the *cross-decay
matrix* ``F[u, v] = f(s_u, r_v)`` — the decay from the sender of link
``l_u`` to the receiver of link ``l_v`` — which drives every SINR and
affectance computation.  The diagonal ``F[v, v] = f(s_v, r_v)`` is the
*signal decay* (informally: the "length") of link ``l_v``.

The paper's canonical precedence ``l_v < l_w  =>  f_vv <= f_ww`` (Sec. 2.4)
is realised by :meth:`LinkSet.order_by_length`, with index as tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.decay import DecaySpace
from repro.errors import LinkError

__all__ = ["Link", "LinkSet"]


@dataclass(frozen=True, order=True)
class Link:
    """An ordered sender/receiver pair of node indices."""

    sender: int
    receiver: int

    def __post_init__(self) -> None:
        if type(self.sender) is not int or type(self.receiver) is not int:
            # Python and numpy integers pass (stored as int); bools, floats
            # and anything else are refused rather than truncated.
            for end in (self.sender, self.receiver):
                if isinstance(end, bool) or not isinstance(end, (int, np.integer)):
                    raise LinkError(f"link endpoints must be integers, got {end!r}")
            object.__setattr__(self, "sender", int(self.sender))
            object.__setattr__(self, "receiver", int(self.receiver))
        if self.sender == self.receiver:
            raise LinkError(
                f"link sender and receiver must differ, got {self.sender}"
            )
        if self.sender < 0 or self.receiver < 0:
            raise LinkError("link endpoints must be non-negative node indices")

    def reversed(self) -> "Link":
        """The link with sender and receiver swapped."""
        return Link(self.receiver, self.sender)

    def __iter__(self) -> Iterator[int]:
        yield self.sender
        yield self.receiver


def _checked_zeta(zeta: float | None) -> float | None:
    """A metricity override, validated: ``None`` or a finite positive float.

    A NaN ``zeta`` would pass every separation test (each comparison
    with NaN is false, so nothing is ever rejected), and an infinite one
    collapses every ``1/zeta`` exponent; both are refused up front.
    """
    if zeta is None:
        return None
    z = float(zeta)
    if not 0.0 < z < float("inf"):
        raise LinkError(f"zeta must be positive and finite, got {zeta}")
    return z


def _coerce_links(links: Iterable[Link | tuple[int, int]]) -> tuple[Link, ...]:
    out: list[Link] = []
    for item in links:
        if isinstance(item, Link):
            out.append(item)
        else:
            s, r = item
            out.append(Link(s, r))
    return tuple(out)


class LinkSet:
    """A set of links bound to a decay space.

    Parameters
    ----------
    space:
        The underlying decay space; link endpoints index its nodes.
    links:
        Links as :class:`Link` instances or ``(sender, receiver)`` tuples.

    Notes
    -----
    Links are identified by their position (``0 .. m-1``) in the set; all
    matrix-valued attributes are aligned with that indexing.  Duplicate
    links are allowed (the paper places no distinctness requirement), but
    every endpoint must be a valid node of ``space``.
    """

    __slots__ = (
        "_space", "_links", "_senders", "_receivers", "_lengths", "_cross", "_cache"
    )

    def __init__(
        self, space: DecaySpace, links: Iterable[Link | tuple[int, int]]
    ) -> None:
        self._space = space
        self._links = _coerce_links(links)
        if not self._links:
            raise LinkError("link set must contain at least one link")
        senders = np.array([l.sender for l in self._links], dtype=int)
        receivers = np.array([l.receiver for l in self._links], dtype=int)
        top = max(int(senders.max()), int(receivers.max()))
        if top >= space.n:
            raise LinkError(
                f"link endpoint {top} out of range for a {space.n}-node space"
            )
        self._senders = senders
        self._receivers = receivers
        # Signal decays f_vv = f(s_v, r_v): O(m) via the pairwise accessor.
        lengths = np.asarray(space.decay_pairs(senders, receivers), dtype=float)
        lengths.setflags(write=False)
        self._lengths = lengths
        # Cross-decay matrix F[u, v] = f(s_u, r_v), built lazily: at sparse
        # scale it is never touched.
        self._cross = None
        self._cache: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def space(self) -> DecaySpace:
        """The underlying decay space."""
        return self._space

    @property
    def links(self) -> tuple[Link, ...]:
        """The links, in index order."""
        return self._links

    @property
    def m(self) -> int:
        """Number of links."""
        return len(self._links)

    @property
    def senders(self) -> np.ndarray:
        """Sender node index of each link."""
        return self._senders

    @property
    def receivers(self) -> np.ndarray:
        """Receiver node index of each link."""
        return self._receivers

    @property
    def cross_decay(self) -> np.ndarray:
        """``F[u, v] = f(s_u, r_v)``: decay from sender ``u`` to receiver ``v``.

        Materialized on first access (O(m^2) memory); the sparse scheduling
        backend never reads it.
        """
        if self._cross is None:
            cross = self._space.decay_block(self._senders, self._receivers)
            cross = np.ascontiguousarray(cross)
            cross.setflags(write=False)
            self._cross = cross
        return self._cross

    @property
    def lengths(self) -> np.ndarray:
        """Signal decays ``f_vv = f(s_v, r_v)`` of all links."""
        return self._lengths

    def length(self, v: int) -> float:
        """Signal decay ``f_vv`` of link ``v``."""
        return float(self._lengths[v])

    # ------------------------------------------------------------------
    # Ordering and subsets
    # ------------------------------------------------------------------
    def order_by_length(self, descending: bool = False) -> np.ndarray:
        """Link indices sorted by signal decay ``f_vv`` (index tie-break).

        This realises the paper's precedence relation: with the returned
        order ``o``, ``o[i]`` precedes ``o[j]`` for ``i < j`` and
        ``f_{o[i] o[i]} <= f_{o[j] o[j]}`` (reversed when ``descending``).
        """
        order = np.lexsort((np.arange(self.m), self.lengths))
        return order[::-1] if descending else order

    def subset(self, indices: Iterable[int]) -> "LinkSet":
        """A new :class:`LinkSet` containing the selected links (same space).

        Indices must be existing link positions ``0 .. m-1``; negative or
        out-of-range values raise :class:`LinkError` (Python's negative
        wrap-around would silently select the wrong link).
        """
        idx = [int(i) for i in indices]
        if not idx:
            raise LinkError("cannot build an empty link subset")
        bad = [i for i in idx if i < 0 or i >= self.m]
        if bad:
            raise LinkError(
                f"subset indices must be in 0..{self.m - 1}, got {bad[:5]}"
            )
        return LinkSet(self._space, [self._links[i] for i in idx])

    def quasi_lengths(self, zeta: float | None = None) -> np.ndarray:
        """Quasi-distance link lengths ``d_vv = f_vv^(1/zeta)``."""
        z = self._resolve_zeta(zeta)
        return self.lengths ** (1.0 / z)

    def _resolve_zeta(self, zeta: float | None) -> float:
        if zeta is not None:
            return _checked_zeta(zeta)
        z = self._space.metricity()
        return z if z > 0 else 1.0

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.m

    def __getitem__(self, v: int) -> Link:
        return self._links[v]

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinkSet(m={self.m}, space_n={self._space.n})"


def links_from_pairs(
    space: DecaySpace, pairs: Sequence[tuple[int, int]]
) -> LinkSet:
    """Convenience constructor mirroring ``LinkSet(space, pairs)``."""
    return LinkSet(space, pairs)
