"""Exception types shared across the package, the JSON decoding and
shape checks that map malformed documents onto them, and the JSON writer."""

import json
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote


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
    """The index of the first item not of ``types`` (a bool is never a number), or None.

    Items whose types are all among ``types`` themselves pass in one C-speed
    set check; only other items are walked one at a time."""
    if {*map(type, items)} <= ({*types} if isinstance(types, tuple) else {types}):
        return None
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


_SCALARS = {str, int, float, bool, type(None)}
_INF = float("inf")


def _scalar(x):
    """``json``'s text of a scalar; None for anything else."""
    if isinstance(x, str):
        return _quote(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return float.__repr__(x) if abs(x) < _INF else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


@cache
def _flat(indent: str):
    """The C encoder with ``",\\n" + indent`` between items."""
    return json.JSONEncoder(separators=(",\n" + indent, ": ")).encode


def _walk(parts: list, value, indent: str):
    """Append ``json``'s text of ``value``, opened at ``indent``, to ``parts``."""
    if (text := _scalar(value)) is not None:
        return parts.append(text)
    inner = indent + "  "
    if not isinstance(value, (dict, list, tuple)) or not value:
        parts.append(_flat(indent)(value))  # "{}" or "[]", or json's TypeError
    elif isinstance(value, dict):
        sep = "{\n" + inner
        for key, item in value.items():  # a key of no JSON scalar type is a TypeError
            parts += sep, _quote(key if isinstance(key, str) else _scalar(key)), ": "
            _walk(parts, item, inner)
            sep = ",\n" + inner
        parts += "\n", indent, "}"
    elif (kinds := {*map(type, value)}) <= {str}:
        parts += "[\n", inner, (",\n" + inner).join(map(_quote, value)), "\n", indent, "]"
    elif kinds <= _SCALARS:
        parts += "[\n", inner, _flat(inner)(value)[1:-1], "\n", indent, "]"
    elif (kinds <= {list, tuple} or kinds <= {dict}) and all(value) and {
        *map(type, chain.from_iterable(map(dict.values, value) if dict in kinds else value))
    } <= _SCALARS:
        # Rows of scalars: one C call writes them all, one item a line.  With
        # ensure_ascii a raw newline occurs only in a separator, so the text
        # "],\n<deeper>[" (or "},\n<deeper>{") occurs only between two rows.
        close, open_, deeper = *("}{" if dict in kinds else "]["), inner + "  "
        boundary = f"\n{inner}{close},\n{inner}{open_}\n{deeper}"
        rows = _flat(deeper)(value)[2:-2].replace(f"{close},\n{deeper}{open_}", boundary)
        parts += "[\n", inner, open_, "\n", deeper, rows, "\n", inner, close, "\n", indent, "]"
    else:
        sep = "[\n" + inner
        for item in value:
            parts.append(sep)
            _walk(parts, item, inner)
            sep = ",\n" + inner
        parts += "\n", indent, "]"


def encode_json(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2)``, without its pure-Python encoder:
    flat lists and rows of scalars go through the C encoder."""
    parts: list = []
    _walk(parts, doc, "")
    return "".join(parts)


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
