"""Nanopore macromolecular data storage toolkit.

Encodes bit payloads into nucleotide sequences, synthesizes calibrated
ionic-current traces of DNA translocation through alpha-haemolysin pores,
recovers the payload from such traces, and models chip-scale capacity and
throughput.
"""

__version__ = "0.1.0"

from .codec import (
    BaseSequence,
    Nucleotide,
    RunLengthScheme,
    decode_direct,
    decode_runlength,
    encode_direct,
    encode_runlength,
)
from .calibration import CalibrationTable, ChannelConfig
from .poresim import (
    CurrentTrace,
    EventTable,
    MoleculeSpec,
    Orientation,
    capture_rate,
    gating_active,
    mean_duration,
    open_current,
    sample_event,
    simulate,
)

__all__ = [
    "BaseSequence",
    "CalibrationTable",
    "ChannelConfig",
    "CurrentTrace",
    "EventTable",
    "MoleculeSpec",
    "Nucleotide",
    "Orientation",
    "RunLengthScheme",
    "capture_rate",
    "decode_direct",
    "decode_runlength",
    "encode_direct",
    "encode_runlength",
    "gating_active",
    "mean_duration",
    "open_current",
    "sample_event",
    "simulate",
]
