"""Tests for the design-variant factories."""

import pytest

from repro.controller.controller import ManagementPolicy
from repro.core.manager import DASManager, StaticAsymmetricManager
from repro.core.variants import (
    DESIGN_ORDER,
    PROFILED_DESIGNS,
    build_memory_system,
)
from repro.dram.timing import FAST, SLOW


@pytest.fixture
def config(tiny_config):
    return tiny_config


class TestFactories:
    def test_standard_is_homogeneous_slow(self, config):
        system = build_memory_system(config.replace(design="standard"))
        assert system.device.banks[0].classify(0) == SLOW
        assert type(system.manager) is ManagementPolicy

    def test_fs_is_homogeneous_fast(self, config):
        system = build_memory_system(config.replace(design="fs"))
        assert system.device.banks[0].classify(0) == FAST
        assert system.device.banks[0].classify(100) == FAST

    def test_das_manager(self, config):
        system = build_memory_system(config.replace(design="das"))
        assert isinstance(system.manager, DASManager)
        assert system.manager.engine.swap_latency_ns == pytest.approx(
            config.asym.migration_latency_ns)

    def test_das_fm_free_engine(self, config):
        system = build_memory_system(config.replace(design="das_fm"))
        assert isinstance(system.manager, DASManager)
        assert system.manager.engine.is_free

    def test_sas_requires_profile(self, config):
        with pytest.raises(ValueError):
            build_memory_system(config.replace(design="sas"))

    def test_sas_with_profile(self, config):
        system = build_memory_system(config.replace(design="sas"),
                                     row_heat={0: 10})
        assert isinstance(system.manager, StaticAsymmetricManager)

    def test_charm_has_faster_fast_column(self, config):
        charm = build_memory_system(config.replace(design="charm"),
                                    row_heat={0: 10})
        sas = build_memory_system(config.replace(design="sas"),
                                  row_heat={0: 10})
        assert (charm.device.timings[FAST].tCL
                < sas.device.timings[FAST].tCL)

    def test_asymmetric_banks_mix_classes(self, config):
        system = build_memory_system(config.replace(design="das"))
        bank = system.device.banks[0]
        classes = {bank.classify(row)
                   for row in range(config.geometry.rows_per_bank)}
        assert classes == {FAST, SLOW}

    def test_design_order_contents(self):
        assert set(DESIGN_ORDER) == {"sas", "charm", "das", "das_fm", "fs"}
        assert set(PROFILED_DESIGNS) == {"sas", "charm"}
