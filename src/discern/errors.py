"""Exception types shared across the package, and the JSON decoding and
shape checks that map malformed documents onto them."""

import json


class _PathError(Exception):
    """An input fault at ``path``, e.g. ``"classes[1].profile"``; ``message`` omits the path."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.message, self.path = message, path


class ParseError(_PathError):
    """Raised when an input document is not structurally valid."""


class ValidationError(_PathError):
    """Raised when a structurally valid document violates a scheme invariant."""


def first_repeat(items):
    """The first item equal to an earlier one, in one pass; None if all differ."""
    seen: set = set()
    return next((x for x in items if x in seen or seen.add(x)), None)


def first_not(items, types):
    """The index of the first item not of ``types`` (a bool is never a number), or None."""
    return next((i for i, x in enumerate(items) if not isinstance(x, types) or isinstance(x, bool)), None)


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object; a repeated key is refused, not collapsed."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ParseError(f"duplicate key {first_repeat(key for key, _ in pairs)!r}")
    return doc


def decode_json(text: str):
    """``json.loads``, raising ParseError for malformed JSON, an integer
    literal too long to convert, a key repeated within one object, and
    nesting too deep for the decoder."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError too
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply to decode") from exc


def expect(condition: bool, message: str, path: str):
    """Raise ParseError(message, path) unless ``condition`` holds."""
    if not condition:
        raise ParseError(message, path)


def expect_each(items: list, types, message: str, path: str):
    """One ``expect`` for a whole array: every item is of ``types`` (see
    ``first_not``); ``path[i]`` names the first item that is not."""
    bad = first_not(items, types)
    expect(bad is None, message, f"{path}[{bad}]")


class BarrierError(Exception):
    """Raised when an operation requires profile-injective classes but the
    scheme has colliding profiles (an information barrier)."""


class LimitError(Exception):
    """Raised when an exact algorithm is asked to run above its configured
    instance-size limit."""


class ConfigError(Exception):
    """Raised for invalid simulation configuration values."""


class EmptyInputError(Exception):
    """Raised when an operation requires a nonempty collection."""
