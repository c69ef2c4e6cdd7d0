"""Tests for the default device catalog."""

import pytest

from repro.hardware import DeviceKind, Precision, default_catalog
from repro.hardware.catalog import DeviceCatalog
from repro.hardware.device import KernelProfile


class TestCatalogContainer:
    def test_duplicate_names_rejected(self, catalog):
        cpu = catalog.get("epyc-class-cpu")
        fresh = DeviceCatalog()
        fresh.add(cpu)
        with pytest.raises(ValueError):
            fresh.add(cpu)

    def test_unknown_name_mentions_candidates(self, catalog):
        with pytest.raises(KeyError, match="epyc-class-cpu"):
            catalog.get("nonexistent")

    def test_contains_and_len(self, catalog):
        assert "hpc-gpu" in catalog
        assert len(catalog) == 8

    def test_names_sorted(self, catalog):
        names = catalog.names()
        assert names == sorted(names)


class TestDefaultCatalogContents:
    def test_every_paper_class_present(self, catalog):
        """One device per silicon class the paper names (§III.B, §III.E)."""
        kinds = {device.kind for device in catalog}
        assert kinds == {
            DeviceKind.CPU,
            DeviceKind.GPU,
            DeviceKind.SYSTOLIC,
            DeviceKind.WAFER_SCALE,
            DeviceKind.FPGA,
            DeviceKind.ANALOG,
            DeviceKind.OPTICAL,
            DeviceKind.EDGE_INFERENCE,
        }

    def test_all_devices_executable(self, catalog):
        """Every device must run some kernel it supports."""
        for device in catalog:
            precision = next(iter(device.spec.peak_flops))
            kernel = KernelProfile(
                flops=1e9, bytes_moved=1e6, precision=precision
            )
            assert device.time_for(kernel) > 0
            assert device.energy_for(kernel) > 0

    def test_specialization_beats_general_purpose_on_inference(self, catalog):
        """§III.B: specialised silicon wins INT8 MVM inference by a wide
        margin over the general-purpose CPU."""
        n = 4096
        kernel = KernelProfile(
            flops=2.0 * n * n,
            bytes_moved=float(n * n),
            precision=Precision.INT8,
            mvm_dimension=n,
        )
        cpu_time = catalog.get("epyc-class-cpu").time_for(kernel)
        dpe_time = catalog.get("analog-dpe").time_for(kernel)
        assert cpu_time / dpe_time > 5.0

    def test_analog_most_energy_efficient_on_mvm(self, catalog):
        """§III.B: neuromorphic engines execute MVMs 'in linear power'."""
        n = 4096
        kernel = KernelProfile(
            flops=2.0 * n * n,
            bytes_moved=float(n * n),
            precision=Precision.INT8,
            mvm_dimension=n,
        )
        dpe = catalog.get("analog-dpe")
        cpu = catalog.get("epyc-class-cpu")
        gpu = catalog.get("hpc-gpu")
        assert dpe.energy_for(kernel) < cpu.energy_for(kernel)
        assert dpe.energy_for(kernel) < gpu.energy_for(kernel)
