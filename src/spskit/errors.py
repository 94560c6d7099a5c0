"""Exception types shared across the toolkit, and the settings checks they share."""

import math


class SpsError(Exception):
    """Base class for all toolkit errors."""


class TreeSyntaxError(SpsError):
    """Malformed bracketed tree text (unbalanced brackets, empty node, ...)."""


class LabelError(SpsError):
    """A label is missing from the inventory, or the inventory is inconsistent."""


class RootPromotionError(SpsError):
    """Normalization would delete a multi-child root node."""


class UnmappedNodeError(SpsError):
    """Strict-mode conversion hit a node no mapping rule covers."""


class MappingTableError(SpsError):
    """A mapping table violates its invariants (duplicate priorities, bad labels)."""


class EmptyFeaturesError(SpsError):
    """instance_distance was given a candidate with no feature counts."""


class TokenMismatchError(SpsError):
    """Predicted and gold trees disagree on the leaf token sequence."""


class GenerationError(SpsError):
    """Sentence generation failed (empty or garbled backend reply)."""


class ModelFormatError(SpsError):
    """A persisted parser model fails validation on load."""


class ConfigError(SpsError):
    """A run or criterion configuration violates its invariants."""


def int_at_least(key, value, low=None):
    """``value`` if an int, not a bool, and >= ``low`` unless None; else a ConfigError."""
    bound = "" if low is None else f" >= {low}"
    if isinstance(value, bool) or not isinstance(value, int) or bound and value < low:
        raise ConfigError(f"{key!r} must be an integer{bound}, got {value!r}")
    return value


def non_negative_number(key, value):
    """``value`` if a finite int or float >= 0 and not a bool, else a ConfigError."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0 <= value < math.inf):  # NaN fails the range test too
        raise ConfigError(f"{key!r} must be a finite number >= 0, got {value!r}")
    return value


def probability(key, value):
    """``value`` if an int or float in [0, 1] and not a bool, else a ConfigError."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0 <= value <= 1):  # NaN fails the range test too
        raise ConfigError(f"{key!r} must be a number in [0, 1], got {value!r}")
    return value


def boolean(key, value):
    """``value`` if exactly True or False, else a ConfigError naming ``key``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key!r} must be true or false, got {value!r}")
    return value
