"""Shared constants for the paper-figure benchmark suite."""

from __future__ import annotations

#: Scale of the benchmark database (documents per collection).
NUM_SECURITIES = 250
NUM_ORDERS = 250
NUM_CUSTOMERS = 120
SEED = 42
