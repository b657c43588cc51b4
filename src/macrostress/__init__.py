"""Deterministic macro-financial stress-test engine for rapid AI adoption scenarios."""

__version__ = "0.1.0"
