"""Decay spaces: the central data structure of the paper (Definition 2.1).

A *decay space* is a pair ``D = (V, f)`` where ``V`` is a finite set of
nodes and ``f : V x V -> R>=0`` maps ordered node pairs to the
multiplicative *decay* a signal suffers between them.  The channel gain of
an ordered pair is ``G(p, q) = 1 / f(p, q)``.  Decay spaces generalise the
geometric path-loss assumption ``f(p, q) = d(p, q)^alpha`` of the GEO-SINR
model: they need be neither symmetric nor satisfy the triangle inequality
(they are *premetrics*).

This module provides :class:`DecaySpace`, a validated, immutable wrapper
around an ``(n, n)`` decay matrix, together with the derived objects used
throughout the paper: decay balls (Sec. 3.1), quasi-distances
``d = f^(1/zeta)`` (Sec. 2.2) and restrictions to sub-spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TYPE_CHECKING

import numpy as np

from repro.errors import DecaySpaceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.spaces.quasimetric import QuasiMetric

__all__ = ["DecaySpace", "PointDecaySpace", "SpaceGeometry"]

#: Relative tolerance used by :meth:`DecaySpace.is_symmetric`.
_SYMMETRY_RTOL = 1e-9

#: Largest node count for which a :class:`PointDecaySpace` will materialize
#: its full decay matrix on demand.  Above this, accessing ``.f`` raises:
#: the matrix would dominate memory (the lazy space exists precisely so the
#: sparse backend never builds it) — use :meth:`DecaySpace.decay_pairs` /
#: :meth:`DecaySpace.decay_block` instead.  The bound admits the 6000-node
#: dense_urban pool the m=2000 dense benchmarks schedule over (~0.5 GB at
#: the limit) while refusing the 10^4-link-and-up spaces only the sparse
#: backend can handle.
_MATERIALIZE_LIMIT = 8192


@dataclass(frozen=True)
class SpaceGeometry:
    """Euclidean positions underlying a decay space, with a certified floor.

    The sparse affectance backend needs two things a bare decay matrix
    cannot provide: node *positions* (to build a spatial cell index) and a
    certified lower bound ``f(p, q) >= floor * d(p, q)^alpha`` for distinct
    nodes (to bound the dropped far-field affectance).  ``floor = 1`` for
    pure geometric path loss; environmental scenarios measure the floor
    from their realised matrix (walls and shadowing only tighten it).

    Attributes
    ----------
    points:
        Read-only ``(n, dim)`` node coordinates.
    alpha:
        The path-loss exponent of the lower envelope.
    floor:
        Positive coefficient of the envelope ``f >= floor * d^alpha``.
    """

    points: np.ndarray
    alpha: float
    floor: float = 1.0

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise DecaySpaceError("geometry points must be a 2-D array (n, dim)")
        if self.alpha <= 0:
            raise DecaySpaceError(
                f"geometry path-loss exponent must be positive, got {self.alpha}"
            )
        if not self.floor > 0:
            raise DecaySpaceError(
                f"geometry decay floor must be positive, got {self.floor}"
            )
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "floor", float(self.floor))
        object.__setattr__(self, "_node_index_cache", {})

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def node_index(self, cell_size: float) -> "object":
        """The node-level spatial cell index at ``cell_size``, cached.

        Every sparse ``DynamicContext`` over this geometry (a live one
        and its checkpoint restores alike) queries a
        :class:`~repro.geometry.cells.CellIndex` over *all* nodes at the
        certified interaction radius.  Building it is O(n log n);
        caching per cell size here means one build serves every consumer
        of this geometry (positions are immutable, so the index never
        goes stale).
        """
        key = float(cell_size)
        cache = self._node_index_cache  # type: ignore[attr-defined]
        index = cache.get(key)
        if index is None:
            from repro.geometry.cells import CellIndex

            index = CellIndex(self.points, key)
            cache[key] = index
        return index

    @classmethod
    def measured(
        cls, points: np.ndarray, alpha: float, matrix: np.ndarray
    ) -> "SpaceGeometry":
        """Geometry with the empirical floor ``min f / d^alpha`` off-diagonal.

        For matrices built as ``d^alpha`` times bounded perturbations
        (walls, fading, shadowing, measurement noise) this extracts the
        realised envelope coefficient, making any positively-perturbed
        geometric space sparse-capable.  Coincident distinct nodes (zero
        distance but positive decay) are skipped — their envelope is
        vacuous.
        """
        pts = np.asarray(points, dtype=float)
        f = np.asarray(matrix, dtype=float)
        if f.shape != (pts.shape[0], pts.shape[0]):
            raise DecaySpaceError(
                f"matrix shape {f.shape} does not match {pts.shape[0]} points"
            )
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        mask = ~np.eye(pts.shape[0], dtype=bool)
        mask &= dist > 0
        if not mask.any():
            raise DecaySpaceError(
                "cannot measure a decay floor: all distinct nodes coincide"
            )
        ratio = f[mask] / dist[mask] ** alpha
        floor = float(ratio.min())
        if not floor > 0:
            raise DecaySpaceError(
                "cannot measure a decay floor: some distinct-pair decay is 0"
            )
        return cls(pts, alpha, floor)


def _validate_matrix(matrix: np.ndarray) -> None:
    """Check the decay-space axioms of Definition 2.1 on a matrix."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DecaySpaceError(
            f"decay matrix must be square, got shape {matrix.shape}"
        )
    if matrix.shape[0] == 0:
        raise DecaySpaceError("decay space must contain at least one node")
    if not np.all(np.isfinite(matrix)):
        raise DecaySpaceError(
            "decay matrix must be finite; model total blockage with a large "
            "finite decay (e.g. a measurement noise floor)"
        )
    diag = np.diagonal(matrix)
    if np.any(diag != 0.0):
        raise DecaySpaceError(
            "identity of indiscernibles: f(p, p) must be 0 on the diagonal"
        )
    off = matrix[~np.eye(matrix.shape[0], dtype=bool)]
    if off.size and not np.all(off > 0.0):
        raise DecaySpaceError(
            "decays between distinct nodes must be strictly positive"
        )


class DecaySpace:
    """A finite decay space ``(V, f)`` backed by a decay matrix.

    Parameters
    ----------
    matrix:
        ``(n, n)`` array with ``matrix[p, q] = f(p, q)``, the decay from
        node ``p`` to node ``q``.  The diagonal must be zero and all
        off-diagonal entries strictly positive and finite.
    labels:
        Optional human-readable node labels (length ``n``).
    validate:
        Skip axiom validation when ``False`` (for trusted internal callers).

    Notes
    -----
    The instance is immutable: the wrapped matrix is copied and marked
    read-only, and derived quantities such as the metricity ``zeta`` are
    cached on first use.
    """

    __slots__ = ("_f", "_labels", "_cache", "_geometry")

    def __init__(
        self,
        matrix: np.ndarray | Sequence[Sequence[float]],
        labels: Sequence[str] | None = None,
        *,
        validate: bool = True,
        geometry: SpaceGeometry | None = None,
    ) -> None:
        f = np.array(matrix, dtype=float)
        if validate:
            _validate_matrix(f)
        f.setflags(write=False)
        self._f = f
        if geometry is not None and geometry.n != f.shape[0]:
            raise DecaySpaceError(
                f"geometry has {geometry.n} points for {f.shape[0]} nodes"
            )
        self._geometry = geometry
        if labels is not None:
            if len(labels) != f.shape[0]:
                raise DecaySpaceError(
                    f"got {len(labels)} labels for {f.shape[0]} nodes"
                )
            self._labels = tuple(str(lab) for lab in labels)
        else:
            self._labels = None
        self._cache: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_distances(
        cls,
        distances: np.ndarray | Sequence[Sequence[float]],
        alpha: float,
        labels: Sequence[str] | None = None,
    ) -> "DecaySpace":
        """Geometric path loss: ``f(p, q) = d(p, q)^alpha`` (GEO-SINR).

        For such spaces the metricity equals ``alpha`` whenever ``d`` is a
        metric (Sec. 2.2 of the paper).
        """
        if alpha <= 0:
            raise DecaySpaceError(f"path-loss exponent must be positive, got {alpha}")
        d = np.asarray(distances, dtype=float)
        return cls(d**alpha, labels=labels)

    @classmethod
    def from_points(
        cls,
        points: np.ndarray | Sequence[Sequence[float]],
        alpha: float,
        labels: Sequence[str] | None = None,
    ) -> "DecaySpace":
        """Geometric path loss over Euclidean point coordinates.

        The coordinates are attached as :class:`SpaceGeometry` (exact
        envelope, ``floor = 1``), making the space sparse-capable.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise DecaySpaceError("points must be a 2-D array (n, dim)")
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        if alpha <= 0:
            raise DecaySpaceError(f"path-loss exponent must be positive, got {alpha}")
        return cls(
            dist**alpha, labels=labels, geometry=SpaceGeometry(pts, alpha)
        )

    @classmethod
    def from_gains(
        cls,
        gains: np.ndarray | Sequence[Sequence[float]],
        labels: Sequence[str] | None = None,
    ) -> "DecaySpace":
        """Build from a channel-gain matrix ``G`` via ``f = 1 / G``.

        The diagonal of ``G`` is ignored (set to infinite gain / zero decay).
        """
        g = np.array(gains, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DecaySpaceError(f"gain matrix must be square, got {g.shape}")
        if np.any(g[~np.eye(g.shape[0], dtype=bool)] <= 0):
            raise DecaySpaceError("gains between distinct nodes must be positive")
        with np.errstate(divide="ignore"):
            f = 1.0 / g
        np.fill_diagonal(f, 0.0)
        return cls(f, labels=labels)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def f(self) -> np.ndarray:
        """The read-only ``(n, n)`` decay matrix."""
        return self._f

    @property
    def n(self) -> int:
        """Number of nodes in the space."""
        return self._f.shape[0]

    @property
    def labels(self) -> tuple[str, ...] | None:
        """Optional node labels."""
        return self._labels

    @property
    def geometry(self) -> SpaceGeometry | None:
        """Euclidean positions + certified decay floor, when attached.

        ``None`` for purely matrix-defined spaces; such spaces cannot use
        the sparse affectance backend.
        """
        return self._geometry

    def decay(self, p: int, q: int) -> float:
        """The decay ``f(p, q)`` from node ``p`` to node ``q``."""
        return float(self._f[p, q])

    def decay_pairs(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Element-aligned decays ``f(p[i], q[i])`` without a full gather.

        The workhorse of the sparse backend: both index arrays must have
        the same shape; the result is ``f`` evaluated pairwise.  On a
        materialized space this is a fancy-index read of the exact matrix
        entries.
        """
        return self._f[np.asarray(p, dtype=int), np.asarray(q, dtype=int)]

    def decay_block(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The dense sub-matrix ``f[p x q]`` (outer product of the indices)."""
        return self._f[np.ix_(np.asarray(p, dtype=int), np.asarray(q, dtype=int))]

    def gain(self, p: int, q: int) -> float:
        """The channel gain ``G(p, q) = 1 / f(p, q)`` (``inf`` when p == q)."""
        fpq = self._f[p, q]
        return float("inf") if fpq == 0.0 else float(1.0 / fpq)

    def off_diagonal(self) -> np.ndarray:
        """All decays between distinct ordered pairs, as a flat array."""
        mask = ~np.eye(self.n, dtype=bool)
        return self.f[mask]

    def min_decay(self) -> float:
        """Smallest decay between distinct nodes."""
        off = self.off_diagonal()
        return float(off.min()) if off.size else float("nan")

    def max_decay(self) -> float:
        """Largest decay between distinct nodes."""
        off = self.off_diagonal()
        return float(off.max()) if off.size else float("nan")

    def decay_ratio(self) -> float:
        """The ratio ``max f / min f`` over distinct pairs."""
        return self.max_decay() / self.min_decay()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def is_symmetric(self, rtol: float = _SYMMETRY_RTOL) -> bool:
        """Whether ``f(p, q) == f(q, p)`` for all pairs (up to ``rtol``)."""
        f = self.f
        return bool(np.allclose(f, f.T, rtol=rtol, atol=0.0))

    def symmetrized(self, how: str = "max") -> "DecaySpace":
        """A symmetric space obtained by combining ``f(p,q)`` and ``f(q,p)``.

        ``how`` is one of ``"max"``, ``"min"``, ``"mean"`` or ``"geomean"``.
        """
        a, b = self.f, self.f.T
        if how == "max":
            g = np.maximum(a, b)
        elif how == "min":
            g = np.minimum(a, b)
        elif how == "mean":
            g = (a + b) / 2.0
        elif how == "geomean":
            g = np.sqrt(a * b)
        else:
            raise DecaySpaceError(f"unknown symmetrization {how!r}")
        return DecaySpace(g, labels=self._labels, validate=False)

    def restrict(self, nodes: Iterable[int]) -> "DecaySpace":
        """The sub-space induced by the given node indices (in given order)."""
        idx = np.asarray(list(nodes), dtype=int)
        if idx.size == 0:
            raise DecaySpaceError("cannot restrict to an empty node set")
        if len(set(idx.tolist())) != idx.size:
            raise DecaySpaceError("restriction indices must be distinct")
        if idx.min() < 0 or idx.max() >= self.n:
            raise DecaySpaceError("restriction index out of range")
        sub = self.f[np.ix_(idx, idx)]
        labels = (
            tuple(self._labels[i] for i in idx) if self._labels is not None else None
        )
        geo = self._geometry
        if geo is not None:
            geo = SpaceGeometry(geo.points[idx], geo.alpha, geo.floor)
        return DecaySpace(sub, labels=labels, validate=False, geometry=geo)

    def ball(self, center: int, radius: float) -> np.ndarray:
        """The decay ball ``B(center, radius)`` of Sec. 3.1.

        Returns the indices ``x`` with ``f(x, center) < radius`` — the nodes
        whose decay *towards* the center is below the radius.  The center
        itself is always included (``f(c, c) = 0``).
        """
        return np.flatnonzero(self.f[:, center] < radius)

    # ------------------------------------------------------------------
    # Metricity and induced quasi-metric (delegates to repro.core.metricity)
    # ------------------------------------------------------------------
    def metricity(self, tol: float = 1e-9) -> float:
        """The metricity ``zeta(D)`` of Definition 2.2 (cached)."""
        key = f"zeta:{tol}"
        if key not in self._cache:
            from repro.core.metricity import metricity

            self._cache[key] = metricity(self, tol=tol)
        return float(self._cache[key])  # type: ignore[arg-type]

    def varphi(self) -> float:
        """The relaxed-triangle parameter ``varphi`` of Sec. 4.2 (cached)."""
        if "varphi" not in self._cache:
            from repro.core.metricity import varphi

            self._cache["varphi"] = varphi(self)
        return float(self._cache["varphi"])  # type: ignore[arg-type]

    def phi(self) -> float:
        """``phi = lg(varphi)`` of Sec. 4.2."""
        from repro.core.metricity import phi

        return phi(self)

    def quasi_distances(self, zeta: float | None = None) -> np.ndarray:
        """The quasi-distance matrix ``d = f^(1/zeta)`` of Sec. 2.2.

        With the default ``zeta=None`` the space's own metricity is used, in
        which case ``d`` satisfies the directed triangle inequality.
        """
        z = self.metricity() if zeta is None else float(zeta)
        if z <= 0:
            # All-equal decay spaces have metricity 0 (every positive zeta
            # satisfies Definition 2.2); fall back to exponent 1.
            z = 1.0
        return self.f ** (1.0 / z)

    def induced_quasimetric(self, zeta: float | None = None) -> "QuasiMetric":
        """The induced quasi-metric ``D' = (V, d)`` of Sec. 2.2."""
        from repro.spaces.quasimetric import QuasiMetric

        return QuasiMetric(self.quasi_distances(zeta), validate=False)

    def zeta_upper_bound(self) -> float:
        """The generic bound ``zeta_0 = lg(max f / min f)`` from Sec. 2.2.

        Always a valid (possibly loose) upper bound on the metricity; the
        returned value is clamped below at a tiny positive constant so it can
        seed a bisection bracket.
        """
        ratio = self.decay_ratio()
        return max(float(np.log2(ratio)) if ratio > 1.0 else 0.0, 1e-12)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecaySpace):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._f, other._f))

    def __hash__(self) -> int:
        return hash((self.n, self._f.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sym = "symmetric" if self.is_symmetric() else "asymmetric"
        return f"DecaySpace(n={self.n}, {sym})"


class PointDecaySpace(DecaySpace):
    """A geometric decay space evaluated lazily from point coordinates.

    ``f(p, q) = d(p, q)^alpha * perturb(p, q)`` is computed on demand via
    :meth:`decay_pairs` / :meth:`decay_block` instead of being stored as an
    ``(n, n)`` matrix, so link sets with tens of thousands of nodes fit in
    memory.  Accessing :attr:`f` materializes the full matrix only while
    ``n`` stays within the materialize limit (the small-instance regime the
    dense cross-checks run in); beyond it the access raises
    :class:`DecaySpaceError` — at that scale only the sparse backend (which
    never touches ``f``) is meant to run.

    For ``n`` within the limit the materialized matrix is *entry-exact*
    with :meth:`DecaySpace.from_points` on the same coordinates (identical
    numpy expressions), which is what the dense-vs-sparse identity suites
    rely on.

    Parameters
    ----------
    points:
        ``(n, dim)`` node coordinates.
    alpha:
        Path-loss exponent.
    perturb:
        Optional deterministic multiplicative perturbation: a callable
        ``perturb(p, q) -> factors`` taking broadcast-compatible node index
        arrays and returning strictly positive finite factors.  It must be
        a pure function of the indices so lazy evaluation is reproducible.
    floor:
        Certified lower bound on the perturbation factors (1 when
        ``perturb`` is ``None``); the space's envelope is then
        ``f >= floor * d^alpha``.
    materialize_limit:
        Override of the node-count cap for full materialization.
    """

    __slots__ = ("_points", "_alpha", "_perturb", "_limit")

    def __init__(
        self,
        points: np.ndarray | Sequence[Sequence[float]],
        alpha: float,
        *,
        perturb: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        floor: float = 1.0,
        labels: Sequence[str] | None = None,
        materialize_limit: int | None = None,
    ) -> None:
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise DecaySpaceError("points must be a non-empty 2-D array (n, dim)")
        if alpha <= 0:
            raise DecaySpaceError(
                f"path-loss exponent must be positive, got {alpha}"
            )
        if perturb is None and floor != 1.0:
            raise DecaySpaceError(
                "floor must be 1 for an unperturbed geometric space"
            )
        pts.setflags(write=False)
        self._points = pts
        self._alpha = float(alpha)
        self._perturb = perturb
        self._limit = (
            _MATERIALIZE_LIMIT if materialize_limit is None else int(materialize_limit)
        )
        self._f = None  # type: ignore[assignment]
        self._geometry = SpaceGeometry(pts, alpha, floor)
        if labels is not None and len(labels) != pts.shape[0]:
            raise DecaySpaceError(
                f"got {len(labels)} labels for {pts.shape[0]} nodes"
            )
        self._labels = tuple(str(lab) for lab in labels) if labels else None
        self._cache: dict[str, object] = {}

    # -- lazy matrix ----------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """The read-only ``(n, dim)`` coordinate array."""
        return self._points

    @property
    def alpha(self) -> float:
        """The path-loss exponent."""
        return self._alpha

    @property
    def n(self) -> int:
        return self._points.shape[0]

    @property
    def f(self) -> np.ndarray:
        """Materialize (and cache) the full matrix — small spaces only."""
        if self._f is None:
            if self.n > self._limit:
                raise DecaySpaceError(
                    f"refusing to materialize the {self.n}x{self.n} decay "
                    f"matrix of a lazy point space (limit {self._limit}); "
                    "use decay_pairs/decay_block or the sparse backend"
                )
            idx = np.arange(self.n)
            f = self.decay_block(idx, idx)
            np.fill_diagonal(f, 0.0)
            f.setflags(write=False)
            self._f = f
        return self._f

    def decay_pairs(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=int)
        q = np.asarray(q, dtype=int)
        diff = self._points[p] - self._points[q]
        dist = np.sqrt((diff**2).sum(axis=-1))
        val = dist**self._alpha
        if self._perturb is not None:
            val = val * self._perturb(p, q)
        return val

    def decay_block(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=int)
        q = np.asarray(q, dtype=int)
        diff = self._points[p][:, None, :] - self._points[q][None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        val = dist**self._alpha
        if self._perturb is not None:
            val = val * self._perturb(p[:, None], q[None, :])
        return val

    def decay(self, p: int, q: int) -> float:
        return float(
            self.decay_pairs(np.array([p]), np.array([q]))[0]
        )

    def gain(self, p: int, q: int) -> float:
        fpq = self.decay(p, q)
        return float("inf") if fpq == 0.0 else float(1.0 / fpq)

    # -- dunder ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, PointDecaySpace):
            return (
                self._alpha == other._alpha
                and np.array_equal(self._points, other._points)
                and self._perturb is other._perturb
            )
        if isinstance(other, DecaySpace):
            return self.n == other.n and bool(np.array_equal(self.f, other.f))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self._alpha, self._points.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PointDecaySpace(n={self.n}, alpha={self._alpha}, "
            f"perturbed={self._perturb is not None})"
        )
