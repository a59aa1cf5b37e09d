"""DRAM energy model: the event-level meter."""

from .model import EnergyMeter, EnergyParams

__all__ = [
    "EnergyMeter",
    "EnergyParams",
]
