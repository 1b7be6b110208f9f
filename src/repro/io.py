"""Persistence for decay spaces and link sets.

Measured decay matrices are the natural interchange artefact of the
paper's methodology (Sec. 2.2: spaces are "relatively easily obtained by
measurements").  This module stores them as ``.npz`` archives together
with optional labels and link endpoints, so field measurements and
synthetic environments round-trip identically.

Paths round-trip with or without the ``.npz`` suffix:
``numpy.savez_compressed`` appends ``.npz`` to bare paths, so both the
savers and the loaders normalise the suffix — ``save_links("foo")``
followed by ``load_links("foo")`` opens the ``foo.npz`` that was
actually written.  Every archive carries a ``format_version`` and both
loaders reject versions newer than this build understands, instead of
silently misreading a future layout.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.core.affectance_sparse import SparseAffectance
from repro.core.decay import DecaySpace, SpaceGeometry
from repro.core.links import LinkSet
from repro.errors import ReproError

__all__ = [
    "archive_format_version",
    "save_space",
    "load_space",
    "save_links",
    "load_links",
    "save_sparse_affectance",
    "load_sparse_affectance",
    "save_scheduler_state",
    "load_scheduler_state",
]

#: Version 2 added the optional geometry arrays on space/link archives and
#: the sparse-affectance archive kind.  Version 3 added the
#: scheduler-state archive kind and the sidecar version cross-check
#: (``expect_version=`` on the sidecar loaders).  Version 4 stores the
#: metricity a scheduler state was served under (``ctx_zeta``) and drops
#: the repairer's link-subset keys.  Older archives load unchanged.
_FORMAT_VERSION = 4


def _npz_path(path: str | pathlib.Path) -> pathlib.Path:
    """``path`` with the ``.npz`` suffix ``savez_compressed`` enforces.

    ``np.savez_compressed`` silently appends ``.npz`` whenever the name
    does not already end in it; making that explicit here tells the
    savers (and their callers) the file that will actually be written.
    """
    p = pathlib.Path(path)
    return p if p.suffix == ".npz" else p.with_name(p.name + ".npz")


def _load_path(path: str | pathlib.Path) -> pathlib.Path:
    """Resolve a load path, matching the saver's suffix behaviour.

    A path that exists is opened as given (an archive renamed to e.g.
    ``.dat`` stays loadable); otherwise the ``.npz`` suffix the saver
    would have appended is tried, so ``save_links("foo")`` /
    ``load_links("foo")`` round-trips.
    """
    p = pathlib.Path(path)
    if p.suffix == ".npz" or p.is_file():
        return p
    return _npz_path(p)


def _write_archive(
    path: str | pathlib.Path,
    payload: dict[str, np.ndarray],
    labels: tuple[str, ...] | None,
) -> None:
    """Stamp the format version, attach labels, and write the archive."""
    payload["format_version"] = np.array([_FORMAT_VERSION])
    if labels is not None:
        payload["labels"] = np.array(labels, dtype=np.str_)
    np.savez_compressed(_npz_path(path), **payload)


def _checked_labels(
    archive,
    path: str | pathlib.Path,
    required: tuple[str, ...],
    kind: str,
    expect_version: int | None = None,
) -> list[str] | None:
    """The shared loader preamble: key check, version check, label decode.

    Raises :class:`ReproError` when the archive is missing the ``kind``'s
    required arrays or was written by a newer format than this build
    supports — a future layout silently misread would corrupt downstream
    results without a trace.  ``expect_version`` additionally pins the
    exact version a *sidecar* archive must carry (the main archive's),
    so a mixed-version pair is rejected instead of loaded.
    """
    for key in required:
        if key not in archive:
            raise ReproError(f"{path}: not a {kind} archive")
    if "format_version" not in archive:
        raise ReproError(
            f"{path}: not a {kind} archive (missing format_version)"
        )
    version = int(archive["format_version"][0])
    if version > _FORMAT_VERSION:
        raise ReproError(
            f"{path}: format version {version} is newer than supported "
            f"({_FORMAT_VERSION})"
        )
    if expect_version is not None and version != int(expect_version):
        raise ReproError(
            f"{path}: sidecar format version {version} disagrees with "
            f"the main archive's {int(expect_version)} — refusing to "
            "load a mixed-version archive pair"
        )
    return [str(x) for x in archive["labels"]] if "labels" in archive else None


def archive_format_version(path: str | pathlib.Path) -> int:
    """The ``format_version`` stamped on an ``.npz`` archive.

    The hook sidecar consumers use to pin their companions: read the
    main archive's version, then pass it as ``expect_version=`` to the
    sidecar loaders.  Raises :class:`ReproError` for an archive with no
    version stamp (not one of ours).
    """
    with np.load(_load_path(path), allow_pickle=False) as archive:
        if "format_version" not in archive:
            raise ReproError(f"{path}: archive carries no format_version")
        return int(archive["format_version"][0])


def _geometry_payload(payload: dict[str, np.ndarray], space: DecaySpace) -> None:
    """Attach the space's geometry arrays to an archive payload, if any."""
    geo = space.geometry
    if geo is not None:
        payload["geometry_points"] = np.asarray(geo.points, dtype=float)
        payload["geometry_params"] = np.array([geo.alpha, geo.floor])


def _geometry_of(archive) -> SpaceGeometry | None:
    """Reconstruct the geometry stored in an archive, if any."""
    if "geometry_points" not in archive:
        return None
    alpha, floor = archive["geometry_params"]
    return SpaceGeometry(archive["geometry_points"], float(alpha), float(floor))


def save_space(path: str | pathlib.Path, space: DecaySpace) -> None:
    """Write a decay space to an ``.npz`` archive.

    The geometry (positions + certified floor), when attached, rides
    along so a loaded space stays sparse-capable.
    """
    payload: dict[str, np.ndarray] = {"decay": space.f}
    _geometry_payload(payload, space)
    _write_archive(path, payload, space.labels)


def load_space(path: str | pathlib.Path) -> DecaySpace:
    """Read a decay space written by :func:`save_space` (re-validated)."""
    with np.load(_load_path(path), allow_pickle=False) as archive:
        labels = _checked_labels(archive, path, ("decay",), "decay-space")
        return DecaySpace(
            archive["decay"], labels=labels, geometry=_geometry_of(archive)
        )


def save_links(path: str | pathlib.Path, links: LinkSet) -> None:
    """Write a link set (decay space + endpoints) to an ``.npz`` archive."""
    payload = {
        "decay": links.space.f,
        "senders": links.senders,
        "receivers": links.receivers,
    }
    _geometry_payload(payload, links.space)
    _write_archive(path, payload, links.space.labels)


def load_links(path: str | pathlib.Path) -> LinkSet:
    """Read a link set written by :func:`save_links` (re-validated)."""
    with np.load(_load_path(path), allow_pickle=False) as archive:
        labels = _checked_labels(
            archive, path, ("decay", "senders", "receivers"), "link-set"
        )
        space = DecaySpace(
            archive["decay"], labels=labels, geometry=_geometry_of(archive)
        )
        pairs = list(zip(archive["senders"].tolist(), archive["receivers"].tolist()))
        return LinkSet(space, pairs)


def save_sparse_affectance(
    path: str | pathlib.Path, sparse: SparseAffectance
) -> None:
    """Write a thresholded affectance to an ``.npz`` archive.

    Stores the raw-value triplets together with everything that defines
    the certificate — ``eps``, the certified interaction radius, the
    cell size it was proved at, and the per-link dropped-tail bounds —
    so a loaded pattern carries the same guarantees as a fresh build.
    The clipped layer and the CSC arrangement are derived on load.
    """
    rows, cols, values = sparse.triplets()
    payload = {
        "sparse_rows": rows,
        "sparse_cols": cols,
        "sparse_values": values,
        "sparse_m": np.array([sparse.m], dtype=np.int64),
        "sparse_params": np.array(
            [sparse.eps, sparse.radius, sparse.cell_size]
        ),
        "tail_in": sparse.tail_in,
        "tail_out": sparse.tail_out,
    }
    _write_archive(path, payload, None)


def load_sparse_affectance(
    path: str | pathlib.Path, *, expect_version: int | None = None
) -> SparseAffectance:
    """Read a pattern written by :func:`save_sparse_affectance`.

    The constructor re-sorts the triplets into CSR/CSC and re-checks
    the shape invariants, so a tampered or truncated archive fails
    loudly instead of yielding a silently inconsistent pattern.  When
    the pattern rides as a sidecar next to a main archive, pass that
    archive's version (:func:`archive_format_version`) as
    ``expect_version`` — a mismatched pair is rejected.
    """
    required = (
        "sparse_rows",
        "sparse_cols",
        "sparse_values",
        "sparse_m",
        "sparse_params",
        "tail_in",
        "tail_out",
    )
    with np.load(_load_path(path), allow_pickle=False) as archive:
        _checked_labels(
            archive, path, required, "sparse-affectance", expect_version
        )
        eps, radius, cell_size = archive["sparse_params"]
        return SparseAffectance(
            int(archive["sparse_m"][0]),
            archive["sparse_rows"],
            archive["sparse_cols"],
            archive["sparse_values"],
            eps=float(eps),
            radius=float(radius),
            cell_size=float(cell_size),
            tail_in=archive["tail_in"],
            tail_out=archive["tail_out"],
        )


#: Keys the scheduler-state framing reserves for itself; an exported
#: state payload may not shadow them.
_STATE_RESERVED = frozenset({"format_version", "labels", "scheduler_kind"})


def save_scheduler_state(
    path: str | pathlib.Path, state: dict[str, np.ndarray], *, kind: str
) -> None:
    """Write a live scheduler's exported state to an ``.npz`` archive.

    ``state`` is the flat array mapping produced by the ``export_state``
    hooks (repairer and/or driver payloads merged by the caller);
    ``kind`` tags what produced it (e.g. ``"first_fit"``,
    ``"capacity"``) so a restore into the wrong
    scheduler shape fails before any array is interpreted.  The payload
    keys are stored verbatim — the archive is a dumb envelope; all
    semantic validation lives in the ``restore_state`` hooks.
    """
    clash = _STATE_RESERVED.intersection(state)
    if clash:
        raise ReproError(
            f"scheduler state payload shadows reserved archive keys: "
            f"{sorted(clash)}"
        )
    payload: dict[str, np.ndarray] = {
        "scheduler_kind": np.array([kind], dtype=np.str_)
    }
    for key, value in state.items():
        payload[key] = np.asarray(value)
    _write_archive(path, payload, None)


def load_scheduler_state(
    path: str | pathlib.Path, *, expect_kind: str | None = None
) -> tuple[str, dict[str, np.ndarray]]:
    """Read an archive written by :func:`save_scheduler_state`.

    Returns ``(kind, state)`` with the framing keys stripped; pass
    ``expect_kind`` to reject a checkpoint taken from a different
    scheduler shape up front.  The arrays are materialised before the
    archive closes, so the mapping is safe to hold.
    """
    with np.load(_load_path(path), allow_pickle=False) as archive:
        _checked_labels(archive, path, ("scheduler_kind",), "scheduler-state")
        kind = str(archive["scheduler_kind"][0])
        if expect_kind is not None and kind != expect_kind:
            raise ReproError(
                f"{path}: scheduler state was checkpointed from a "
                f"{kind!r} scheduler, expected {expect_kind!r}"
            )
        state = {
            key: np.array(archive[key])
            for key in archive.files
            if key not in _STATE_RESERVED
        }
        return kind, state
