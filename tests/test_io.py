"""Tests for decay-space / link-set / sparse-pattern / scheduler-state persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decay import DecaySpace
from repro.errors import ReproError
from repro.io import (
    load_links,
    load_space,
    load_sparse_affectance,
    save_links,
    save_space,
    save_sparse_affectance,
)
from tests.conftest import make_planar_links, random_decay_matrix


class TestSpaceRoundtrip:
    def test_roundtrip(self, tmp_path):
        space = DecaySpace(
            random_decay_matrix(8, seed=1, symmetric=False),
            labels=[f"n{i}" for i in range(8)],
        )
        path = tmp_path / "space.npz"
        save_space(path, space)
        loaded = load_space(path)
        assert loaded == space
        assert loaded.labels == space.labels

    def test_roundtrip_without_labels(self, tmp_path):
        space = DecaySpace(random_decay_matrix(5, seed=2))
        path = tmp_path / "space.npz"
        save_space(path, space)
        assert load_space(path) == space
        assert load_space(path).labels is None

    def test_bare_path_roundtrips(self, tmp_path):
        """savez appends .npz to bare paths; load must find the file."""
        space = DecaySpace(random_decay_matrix(4, seed=7))
        bare = tmp_path / "space_no_suffix"
        save_space(bare, space)
        assert (tmp_path / "space_no_suffix.npz").exists()
        assert load_space(bare) == space
        assert load_space(tmp_path / "space_no_suffix.npz") == space

    def test_directory_with_bare_name_does_not_shadow_archive(self, tmp_path):
        """A directory named like the bare path must not shadow the
        .npz the saver actually wrote next to it."""
        space = DecaySpace(random_decay_matrix(4, seed=12))
        (tmp_path / "results").mkdir()
        save_space(tmp_path / "results", space)  # writes results.npz
        assert load_space(tmp_path / "results") == space

    def test_renamed_archive_still_loads(self, tmp_path):
        """An existing file is opened as named — appending .npz is only
        a fallback for bare save-style paths, not a rewrite."""
        space = DecaySpace(random_decay_matrix(4, seed=11))
        save_space(tmp_path / "orig.npz", space)
        renamed = tmp_path / "measurement.dat"
        (tmp_path / "orig.npz").rename(renamed)
        assert load_space(renamed) == space

    def test_rejects_future_format_version(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(
            path,
            format_version=np.array([99]),
            decay=random_decay_matrix(4, seed=8),
        )
        with pytest.raises(ReproError, match="newer than supported"):
            load_space(path)

    def test_rejects_missing_format_version(self, tmp_path):
        path = tmp_path / "unversioned.npz"
        np.savez(path, decay=random_decay_matrix(4, seed=9))
        with pytest.raises(ReproError, match="format_version"):
            load_space(path)

    def test_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ReproError, match="not a decay-space"):
            load_space(path)

    def test_loaded_space_revalidated(self, tmp_path):
        # Corrupt archive: negative decay must be rejected on load.
        path = tmp_path / "bad.npz"
        f = random_decay_matrix(4, seed=3)
        f[0, 1] = -1.0
        np.savez(path, format_version=np.array([1]), decay=f)
        with pytest.raises(Exception):
            load_space(path)


class TestLinksRoundtrip:
    def test_roundtrip(self, tmp_path):
        links = make_planar_links(6, alpha=3.0, seed=4)
        path = tmp_path / "links.npz"
        save_links(path, links)
        loaded = load_links(path)
        assert loaded.m == links.m
        assert np.array_equal(loaded.senders, links.senders)
        assert np.array_equal(loaded.receivers, links.receivers)
        assert loaded.space == links.space

    def test_semantics_preserved(self, tmp_path):
        """Algorithms produce identical output on the reloaded instance."""
        from repro.algorithms.capacity import capacity_bounded_growth

        links = make_planar_links(8, alpha=3.0, seed=5)
        path = tmp_path / "links.npz"
        save_links(path, links)
        loaded = load_links(path)
        assert (
            capacity_bounded_growth(loaded).selected
            == capacity_bounded_growth(links).selected
        )

    def test_bare_path_roundtrips(self, tmp_path):
        """The historical trap: save_links("foo") wrote foo.npz but
        load_links("foo") tried to open the bare path and failed."""
        links = make_planar_links(5, alpha=3.0, seed=6)
        bare = tmp_path / "links_no_suffix"
        save_links(bare, links)
        assert (tmp_path / "links_no_suffix.npz").exists()
        for target in (bare, tmp_path / "links_no_suffix.npz"):
            loaded = load_links(target)
            assert np.array_equal(loaded.senders, links.senders)
            assert loaded.space == links.space

    def test_labels_preserved(self, tmp_path):
        space = DecaySpace(
            random_decay_matrix(6, seed=7),
            labels=[f"ap{i}" for i in range(6)],
        )
        from repro.core.links import LinkSet

        links = LinkSet(space, [(0, 1), (2, 3)])
        path = tmp_path / "labelled.npz"
        save_links(path, links)
        assert load_links(path).space.labels == space.labels

    def test_rejects_future_format_version(self, tmp_path):
        """load_links historically skipped the version check entirely, so
        a future-format archive was silently misread."""
        path = tmp_path / "future.npz"
        np.savez(
            path,
            format_version=np.array([99]),
            decay=random_decay_matrix(3, seed=2),
            senders=np.array([0]),
            receivers=np.array([1]),
        )
        with pytest.raises(ReproError, match="newer than supported"):
            load_links(path)

    def test_rejects_missing_format_version(self, tmp_path):
        path = tmp_path / "unversioned.npz"
        np.savez(
            path,
            decay=random_decay_matrix(3, seed=3),
            senders=np.array([0]),
            receivers=np.array([1]),
        )
        with pytest.raises(ReproError, match="format_version"):
            load_links(path)

    def test_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, decay=random_decay_matrix(3, seed=1))
        with pytest.raises(ReproError, match="not a link-set"):
            load_links(path)


class TestGeometryRoundtrip:
    def test_geometry_rides_along(self, tmp_path):
        links = make_planar_links(6, alpha=3.0, seed=4)
        assert links.space.geometry is not None
        save_space(tmp_path / "sp", links.space)
        save_links(tmp_path / "lk", links)
        for loaded_space in (
            load_space(tmp_path / "sp"),
            load_links(tmp_path / "lk").space,
        ):
            geo = loaded_space.geometry
            assert geo is not None
            assert np.array_equal(geo.points, links.space.geometry.points)
            assert geo.alpha == links.space.geometry.alpha
            assert geo.floor == links.space.geometry.floor

    def test_loaded_links_stay_sparse_capable(self, tmp_path):
        from repro.algorithms.context import SchedulingContext

        links = make_planar_links(10, alpha=3.0, seed=9)
        save_links(tmp_path / "lk", links)
        loaded = load_links(tmp_path / "lk")
        dense = SchedulingContext(links, noise=0.0, beta=1.0)
        sparse = SchedulingContext(
            loaded, noise=0.0, beta=1.0, backend="sparse", eps=1e-300
        )
        assert dense.first_fit() == sparse.first_fit()

    def test_version1_archive_without_geometry_loads(self, tmp_path):
        path = tmp_path / "v1.npz"
        f = random_decay_matrix(4, seed=6)
        np.savez(path, format_version=np.array([1]), decay=f)
        loaded = load_space(path)
        assert np.array_equal(loaded.f, f)
        assert loaded.geometry is None


class TestSparseAffectanceRoundtrip:
    def _build(self, eps=1e-2):
        from repro.algorithms.context import SchedulingContext

        links = make_planar_links(20, alpha=3.0, seed=8)
        ctx = SchedulingContext(
            links, noise=0.0, beta=1.0, backend="sparse", eps=eps
        )
        return links, ctx

    def test_roundtrip(self, tmp_path):
        _, ctx = self._build()
        sparse = ctx.sparse_affectance
        save_sparse_affectance(tmp_path / "sa", sparse)
        loaded = load_sparse_affectance(tmp_path / "sa")
        assert loaded.m == sparse.m
        assert loaded.nnz == sparse.nnz
        assert np.array_equal(loaded.row_ptr, sparse.row_ptr)
        assert np.array_equal(loaded.row_idx, sparse.row_idx)
        assert np.array_equal(loaded.col_ptr, sparse.col_ptr)
        assert np.array_equal(loaded.col_idx, sparse.col_idx)
        assert np.array_equal(loaded.triplets()[2], sparse.triplets()[2])
        assert np.array_equal(loaded.tail_in, sparse.tail_in)
        assert np.array_equal(loaded.tail_out, sparse.tail_out)
        assert (loaded.eps, loaded.radius, loaded.cell_size) == (
            sparse.eps,
            sparse.radius,
            sparse.cell_size,
        )

    def test_loaded_pattern_schedules_identically(self, tmp_path):
        links, ctx = self._build(eps=1e-300)
        sparse = ctx.sparse_affectance
        save_sparse_affectance(tmp_path / "sa", sparse)
        from repro.algorithms.context import SchedulingContext

        ctx2 = SchedulingContext(
            links, noise=0.0, beta=1.0, backend="sparse", eps=1e-300
        )
        ctx2._cache["sparse"] = load_sparse_affectance(tmp_path / "sa")
        assert ctx.first_fit() == ctx2.first_fit()
        assert ctx.repeated_capacity() == ctx2.repeated_capacity()

    def test_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, decay=random_decay_matrix(3, seed=1))
        with pytest.raises(ReproError, match="not a sparse-affectance"):
            load_sparse_affectance(path)

    def test_rejects_future_format_version(self, tmp_path):
        _, ctx = self._build()
        save_sparse_affectance(tmp_path / "sa", ctx.sparse_affectance)
        # Rewrite the version stamp alone, leaving the payload intact.
        with np.load(tmp_path / "sa.npz") as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["format_version"] = np.array([99])
        np.savez(tmp_path / "future.npz", **payload)
        with pytest.raises(ReproError, match="newer than supported"):
            load_sparse_affectance(tmp_path / "future.npz")

    def test_tampered_tails_fail_loudly(self, tmp_path):
        _, ctx = self._build()
        save_sparse_affectance(tmp_path / "sa", ctx.sparse_affectance)
        with np.load(tmp_path / "sa.npz") as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["tail_in"] = payload["tail_in"][:-1]
        np.savez(tmp_path / "bad.npz", **payload)
        with pytest.raises(Exception):
            load_sparse_affectance(tmp_path / "bad.npz")


class TestSchedulerStateArchive:
    """The dumb-envelope scheduler-state archive and the sidecar
    version cross-check it introduced (format version 3)."""

    def _state(self):
        return {
            "repair_slots": np.arange(5, dtype=np.int64),
            "repair_ledger": np.linspace(0.0, 1.0, 5),
        }

    def test_roundtrip(self, tmp_path):
        from repro.io import load_scheduler_state, save_scheduler_state

        state = self._state()
        save_scheduler_state(tmp_path / "st", state, kind="capacity")
        kind, loaded = load_scheduler_state(tmp_path / "st")
        assert kind == "capacity"
        assert set(loaded) == set(state)
        for key in state:
            assert np.array_equal(loaded[key], state[key])

    def test_wrong_kind_rejected_up_front(self, tmp_path):
        from repro.io import load_scheduler_state, save_scheduler_state

        save_scheduler_state(tmp_path / "st", self._state(), kind="first_fit")
        with pytest.raises(ReproError, match="checkpointed from a"):
            load_scheduler_state(tmp_path / "st", expect_kind="capacity")

    def test_payload_may_not_shadow_framing_keys(self, tmp_path):
        from repro.io import save_scheduler_state

        bad = dict(self._state(), scheduler_kind=np.array(["x"]))
        with pytest.raises(ReproError, match="reserved archive keys"):
            save_scheduler_state(tmp_path / "st", bad, kind="first_fit")

    def test_rejects_foreign_archive(self, tmp_path):
        from repro.io import load_scheduler_state

        path = tmp_path / "other.npz"
        np.savez(path, decay=random_decay_matrix(3, seed=1))
        with pytest.raises(ReproError, match="not a scheduler-state"):
            load_scheduler_state(path)


class TestSidecarVersionCrossCheck:
    """Regression: sidecar loaders used to accept any supported version,
    so a main archive paired with a sidecar written by a different
    build could load as a silently mixed-version pair."""

    def test_archive_format_version_reads_stamp(self, tmp_path):
        space = DecaySpace(random_decay_matrix(4, seed=3))
        save_space(tmp_path / "space", space)
        from repro.io import _FORMAT_VERSION, archive_format_version

        assert archive_format_version(tmp_path / "space") == _FORMAT_VERSION

    def test_archive_format_version_rejects_unstamped(self, tmp_path):
        from repro.io import archive_format_version

        path = tmp_path / "raw.npz"
        np.savez(path, decay=random_decay_matrix(3, seed=1))
        with pytest.raises(ReproError, match="no format_version"):
            archive_format_version(path)

    def _aged(self, tmp_path, save, name):
        """Save a sidecar, rewrite its stamp to version 2, return path."""
        save(tmp_path / name)
        with np.load(tmp_path / f"{name}.npz") as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["format_version"] = np.array([2])
        old = tmp_path / f"old_{name}.npz"
        np.savez(old, **payload)
        return old

    def test_mixed_version_sparse_pattern_pair_rejected(self, tmp_path):
        from repro.algorithms.context import SchedulingContext
        from repro.io import _FORMAT_VERSION

        links = make_planar_links(20, alpha=3.0, seed=8)
        ctx = SchedulingContext(
            links, noise=0.0, beta=1.0, backend="sparse", eps=1e-2
        )
        old = self._aged(
            tmp_path,
            lambda p: save_sparse_affectance(p, ctx.sparse_affectance),
            "sa",
        )
        load_sparse_affectance(old)
        with pytest.raises(ReproError, match="mixed-version"):
            load_sparse_affectance(old, expect_version=_FORMAT_VERSION)
