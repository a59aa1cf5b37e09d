"""Shared fixtures: small, fast system configurations for unit tests."""

from __future__ import annotations

import pytest

from repro.common.config import (
    AsymmetricConfig,
    CacheConfig,
    DRAMGeometry,
    HierarchyConfig,
    SystemConfig,
)
from repro.common.rng import make_rng


@pytest.fixture(scope="session", autouse=True)
def _isolated_session(tmp_path_factory):
    """Keep the suite hermetic: a session store and no ledger writes.

    Session-scoped, so it is set up before every module-scoped fixture
    (those of ``test_headline.py`` and ``test_workload_calibration.py``
    simulate through :func:`repro.sim.runner.run_workload`).  Without
    it, runs that do not isolate ``REPRO_CACHE_DIR`` would write to, and
    recall from, ``.repro_cache/`` in the checkout.  Ledger and store
    tests re-enable or re-point either variable with ``monkeypatch``.
    """
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("store")))
    patch.setenv("REPRO_NO_LEDGER", "1")
    yield
    patch.undo()


@pytest.fixture
def rng():
    """A deterministic RNG for tests."""
    return make_rng(1234, "test")


@pytest.fixture
def tiny_geometry():
    """A minimal DRAM geometry (1 channel, 1 rank, 2 banks, 128 rows)."""
    return DRAMGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=2,
        rows_per_bank=128,
        row_bytes=2048,
        line_bytes=64,
    )


@pytest.fixture
def tiny_hierarchy():
    """A tiny 3-level hierarchy for fast functional tests."""
    return HierarchyConfig(
        l1=CacheConfig(1024, 2, line_bytes=64, latency_cycles=4),
        l2=CacheConfig(4096, 4, line_bytes=64, latency_cycles=12),
        llc=CacheConfig(16384, 8, line_bytes=64, latency_cycles=20),
    )


@pytest.fixture
def tiny_config(tiny_geometry, tiny_hierarchy):
    """A full system config small enough for per-test simulation."""
    return SystemConfig(
        num_cores=1,
        geometry=tiny_geometry,
        hierarchy=tiny_hierarchy,
        asym=AsymmetricConfig(
            migration_group_rows=16,
            translation_cache_bytes=64,
        ),
        design="das",
        seed=7,
    )
