"""Dynamic analysis tools (the paper's Intel-Pin equivalent)."""

from repro.analysis.pin import PinFinding, RegisterPreservationTool

__all__ = ["PinFinding", "RegisterPreservationTool"]
