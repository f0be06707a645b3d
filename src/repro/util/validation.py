"""Argument-validation helpers with consistent error messages.

The DMM model parameters recur across the whole library (``w`` banks,
``p`` threads, latency ``l``); validating them in one place keeps the
error messages uniform and the call sites terse.
"""

from __future__ import annotations

import argparse
import math
from typing import Callable

__all__ = [
    "int_at_least",
    "positive_float",
    "check_positive_int",
    "check_nonnegative_int",
    "check_power_of_two",
    "check_bank_count",
    "check_latency",
]


def int_at_least(minimum: int, hint: str = "") -> Callable[[str], int]:
    """An argparse ``type=`` accepting integers >= ``minimum``.

    Bad input becomes a one-line usage error (exit 2) at the command
    line instead of a traceback from deep inside the run.
    """

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {value!r}"
            ) from None
        if number < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}{hint}, got {number}"
            )
        return number

    return parse


def positive_float(value: str) -> float:
    """An argparse ``type=`` accepting finite floats > 0 (not nan/inf)."""
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {value!r}"
        ) from None
    if not (math.isfinite(number) and number > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {value}"
        )
    return number


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is an integer >= 1 and return it."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_nonnegative_int(value: int, name: str) -> int:
    """Validate that ``value`` is an integer >= 0 and return it."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_power_of_two(value: int, name: str) -> int:
    """Validate that ``value`` is a positive power of two and return it.

    GPU shared memories have power-of-two bank counts, and the paper's
    register-packing trick (Fig. 7) relies on ``w = 32``; several of our
    fast paths use masking that needs a power of two.
    """
    check_positive_int(value, name)
    if value & (value - 1) != 0:
        raise ValueError(f"{name} must be a power of two, got {value}")
    return int(value)


def check_bank_count(w: int) -> int:
    """Validate a DMM width (number of banks / warp size)."""
    return check_positive_int(w, "w (bank count / warp width)")


def check_latency(latency: int) -> int:
    """Validate a DMM memory-pipeline latency."""
    return check_positive_int(latency, "latency")
