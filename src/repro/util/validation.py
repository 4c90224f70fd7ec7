"""Lightweight argument validation helpers.

Every public entry point of the library validates its inputs through these
helpers so that misuse fails fast with a precise message instead of a
cryptic NumPy broadcast error deep inside a decoder loop.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np


def check_positive_int(value: Any, name: str) -> int:
    """Return ``value`` as ``int`` if it is a positive integer, else raise.

    Accepts Python ints and NumPy integer scalars; rejects bools, floats
    and anything non-integral.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative(value: Any, name: str) -> float:
    """Return ``value`` as ``float`` if it is finite and >= 0, else raise."""
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")
    return value


def check_probability(value: Any, name: str) -> float:
    """Return ``value`` as ``float`` if it lies in [0, 1], else raise."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_vector(arr: Any, name: str, *, length: int | None = None) -> np.ndarray:
    """Return ``arr`` as a 1-D ndarray, optionally enforcing its length."""
    arr = np.asarray(arr)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    return arr


def check_matrix(
    arr: Any,
    name: str,
    *,
    shape: tuple[int | None, int | None] | None = None,
) -> np.ndarray:
    """Return ``arr`` as a 2-D ndarray, optionally enforcing (rows, cols).

    ``None`` in ``shape`` leaves that dimension unconstrained.
    """
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if shape is not None:
        rows, cols = shape
        if rows is not None and arr.shape[0] != rows:
            raise ValueError(f"{name} must have {rows} rows, got {arr.shape[0]}")
        if cols is not None and arr.shape[1] != cols:
            raise ValueError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    return arr


def check_finite(arr: np.ndarray, name: str) -> np.ndarray:
    """Return ``arr`` if every entry is finite, else raise ValueError.

    One vectorised test over the whole array: detectors call it once per
    ``prepare`` on the channel and once per ``detect``/batch call on the
    received samples, so it stays off the per-node search path. A NaN or
    Inf that reached the tree search would poison every partial
    distance — the radius test then never prunes or never admits, which
    hangs breadth-first search and leaves best-first with no leaf.
    """
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite (no NaN or Inf entries)")
    return arr


def check_square_matrix(arr: Any, name: str) -> np.ndarray:
    """Return ``arr`` as a square 2-D ndarray or raise."""
    arr = check_matrix(arr, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def check_in(value: Any, name: str, allowed: Iterable[Any]) -> Any:
    """Return ``value`` if it is one of ``allowed``, else raise ValueError."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed!r}, got {value!r}")
    return value
