"""Nanopore macromolecular data storage toolkit.

Encodes bit payloads into nucleotide sequences, synthesizes calibrated
ionic-current traces of DNA translocation through alpha-haemolysin pores,
recovers the payload from such traces, and models chip-scale capacity and
throughput.

Importing the package loads none of its submodules: each public name is
imported from its module when it is first used.
"""

import importlib

__version__ = "0.1.0"

# The module each public name comes from.
_SOURCES = {
    "BaseSequence": "codec",
    "CalibrationTable": "calibration",
    "ChannelConfig": "calibration",
    "CurrentTrace": "poresim",
    "EventTable": "poresim",
    "MoleculeSpec": "poresim",
    "Nucleotide": "codec",
    "Orientation": "poresim",
    "RunLengthScheme": "codec",
    "capture_rate": "poresim",
    "decode_direct": "codec",
    "decode_runlength": "codec",
    "encode_direct": "codec",
    "encode_runlength": "codec",
    "gating_active": "poresim",
    "mean_duration": "poresim",
    "open_current": "poresim",
    "sample_event": "poresim",
    "simulate": "poresim",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value
