"""Canonical data model for finite classification schemes.

A scheme is k named classes over n binary attributes, plus an optional
probability mass per class.  Every analysis in this package consumes a
validated, immutable ``Scheme``: its attribute and class names, one k x n
``bytes`` of 0/1 answers and its masses.  Each rule lives in one place:
``parse_scheme`` checks the JSON shape, proves a document's bits by
whole-document passes and builds every scheme one way; only a document
they refuse is walked entry by entry, for its first fault.  ``Profile``
checks a record's bits, and ``Scheme`` checks names, lengths, masses and
class indices.  ``ClassRecord``/``Profile`` records are a derived view,
built on first use of ``Scheme.classes``.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import ValidationError, decode_json, encode_json, expect, expect_each, first_not, first_repeat

if TYPE_CHECKING:
    import numpy as np
MASS_SUM_TOLERANCE = 1e-9
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # 0/1 answer bytes as base-2 digits


@dataclass(frozen=True)
class Profile:
    """Fixed-length bit vector of attribute answers for one class."""

    bits: tuple[int, ...]

    def __post_init__(self):
        for i, b in enumerate(self.bits):
            if not isinstance(b, int) or isinstance(b, bool) or b not in (0, 1):
                raise ValidationError(f"profile bit must be 0 or 1, got {b!r}", f"profile[{i}]")

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class ClassRecord:
    """A named class together with its attribute profile."""

    name: str
    profile: Profile


@dataclass(frozen=True, init=False)
class Scheme:
    """k classes over n binary attributes with per-class probability mass.

    ``Scheme(attributes, classes, masses=None)`` takes iterables, the
    classes as ``ClassRecord``s, and stores tuples; ``masses=None`` means
    uniform 1/k.  As in a document, names are strings and masses numbers
    (not bools), one per class.  Immutable after construction; all package
    operations are pure functions of a scheme, so instances are safe to
    share across threads.
    """

    attributes: tuple[str, ...]
    class_names: tuple[str, ...]
    answers: bytes
    masses: tuple[float, ...]

    def __init__(self, attributes, classes, masses=None):
        classes = tuple(classes)
        if (bad := first_not(classes, ClassRecord)) is not None:
            raise ValidationError("class entry must be a ClassRecord", f"classes[{bad}]")
        profiles = [c.profile for c in classes]
        if (bad := first_not(profiles, Profile)) is not None:
            raise ValidationError("profile must be a Profile", f"classes[{bad}].profile")
        names = tuple(c.name for c in classes)
        answers = b"".join(bytes(p.bits) for p in profiles)
        self._validate(attributes, names, answers, masses, [*map(len, profiles)])
        self.__dict__["classes"] = classes

    def _validate(self, attributes, names, answers, masses, profile_lengths):
        """Check the scheme rules in their fixed order, then store the fields."""
        attributes = tuple(attributes)
        if len(names) < 1:
            raise ValidationError("scheme needs at least one class", "classes")
        if (bad := first_not(attributes, str)) is not None:
            raise ValidationError("attribute name must be a string", f"attributes[{bad}]")
        if len(set(attributes)) != len(attributes):
            raise ValidationError("attribute names must be unique", "attributes")
        if (bad := first_not(names, str)) is not None:
            raise ValidationError("class name must be a string", f"classes[{bad}].name")
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate class name {first_repeat(names)!r}", "classes")
        n = len(attributes)
        for i, length in enumerate(profile_lengths):
            if length != n:
                raise ValidationError(f"profile has length {length}, expected {n}", f"classes[{i}].profile")
        masses = tuple(1.0 / len(names) for _ in names) if masses is None else tuple(masses)
        if len(masses) != len(names):
            raise ValidationError(f"got {len(masses)} masses for {len(names)} classes", "masses")
        # Plain floats pass in one C-speed set check.
        if not {*map(type, masses)} <= {float} and (bad := first_not(masses, (int, float))) is not None:
            raise ValidationError("mass must be a number", f"masses[{bad}]")
        for i, m in enumerate(masses):
            if not _float_mass(m, i) >= 0:  # NaN fails too
                raise ValidationError(f"mass must be nonnegative, got {m}", f"masses[{i}]")
        total = sum(masses)
        if not abs(total - 1) <= MASS_SUM_TOLERANCE:  # an integer total is compared exactly
            raise ValidationError(f"masses sum to {total}, expected 1", "masses")
        self.__dict__.update(attributes=attributes, class_names=names, answers=answers, masses=masses)

    def __hash__(self) -> int:
        # Every memoised tree lookup hashes its scheme; hash it once.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.attributes, self.class_names, self.answers, self.masses))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # String hashes differ between processes: a stored hash must not
        # outlive the process that computed it.  Only the fields travel;
        # ``bits`` and the records are rebuilt on first use.
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    @property
    def k(self) -> int:
        return len(self.class_names)

    @property
    def n(self) -> int:
        return len(self.attributes)

    def row(self, class_index: int) -> bytes:
        """One class's answers, one 0/1 byte per attribute (no range check)."""
        return self.answers[class_index * self.n:(class_index + 1) * self.n]

    @cached_property
    def classes(self) -> tuple[ClassRecord, ...]:
        """Per-class records, built from the names and answers on first use."""
        return tuple(
            ClassRecord(name, Profile(tuple(self.row(c)))) for c, name in enumerate(self.class_names)
        )

    @cached_property
    def bits(self) -> np.ndarray:
        """Read-only k x n boolean view of ``answers``; loads NumPy on first use."""
        import numpy as np
        return np.frombuffer(self.answers, dtype=bool).reshape(self.k, self.n)

    # Both packings read ``answers`` as base-2 digits, most significant bit
    # first, so attribute 0 and class 0 come last; the leading b"0" reads an
    # empty row (n = 0) or column (k = 0) as 0.
    @cached_property
    def profile_ints(self) -> tuple[int, ...]:
        """Per-class packed profiles (attribute q in bit q)."""
        digits, n = self.answers.translate(_DIGITS), self.n
        return tuple(int(b"0" + digits[c * n:(c + 1) * n][::-1], 2) for c in range(self.k))

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Per-attribute bitmask over classes (class c in bit c)."""
        # Reversed, the answers run from the last class back to class 0, and
        # column j's digits lie n apart from offset n - 1 - j.
        digits, n = self.answers.translate(_DIGITS)[::-1], self.n
        return tuple(int(b"0" + digits[n - 1 - j::n], 2) for j in range(n))

    @cached_property
    def quotient(self) -> tuple[tuple[int, ...], ...]:
        """Class indices grouped by profile: each block ascending, blocks
        ordered by their smallest member (a profile's first appearance)."""
        blocks: dict[int, list[int]] = {}
        for c, key in enumerate(self.profile_ints):
            blocks.setdefault(key, []).append(c)
        return tuple(map(tuple, blocks.values()))

    def check_class(self, class_index: int) -> int:
        """Return ``class_index``; IndexError outside 0 <= class_index < k
        (negative indexing is deliberately not supported)."""
        if not 0 <= class_index < self.k:
            raise IndexError(f"class index {class_index} out of range for k={self.k}")
        return class_index

    def index_of(self, class_name: str) -> int:
        try:
            return self.class_names.index(class_name)
        except ValueError:
            raise KeyError(class_name) from None


def _bit_indices(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending: a profile's attributes, or a column's classes."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return tuple(found)


def profile_of(scheme: Scheme, class_index: int) -> Profile:
    """Return the profile record of one class.

    Raises IndexError as ``Scheme.check_class`` does.
    """
    return scheme.classes[scheme.check_class(class_index)].profile


def _classes(entries: list) -> tuple[tuple[str, ...], bytes, list[int]]:
    """Class names, 0/1 answers and profile lengths of the class entries,
    proven well formed by a few whole-document passes (the lengths are left
    to ``Scheme._validate``).  Entries the passes refuse are walked one at
    a time, only to raise the first fault in their shape or bits."""
    try:
        if {*map(type, entries)} <= {dict}:
            names = tuple(map(itemgetter("name"), entries))
            rows = list(map(itemgetter("profile"), entries))
            if (
                {*map(type, names)} <= {str}
                and {*map(type, rows)} <= {list}
                and {*map(type, chain.from_iterable(rows))} <= {int}
                # Deleting every 0 and 1 byte leaves nothing only if every bit is 0 or 1.
                and not (answers := b"".join(map(bytes, rows))).translate(None, b"\0\1")
            ):
                return names, answers, [*map(len, rows)]
    except (KeyError, ValueError):  # a missing key; a bit outside 0..255
        pass
    for i, entry in enumerate(entries):
        expect(isinstance(entry, dict), "class entry must be an object", f"classes[{i}]")
        expect("name" in entry, "missing key", f"classes[{i}].name")
        expect("profile" in entry, "missing key", f"classes[{i}].profile")
        expect(isinstance(entry["name"], str), "class name must be a string", f"classes[{i}].name")
        raw_profile = entry["profile"]
        expect(isinstance(raw_profile, list), "profile must be an array", f"classes[{i}].profile")
        try:
            Profile(tuple(raw_profile))
        except ValidationError as exc:
            # ``Profile`` checks the bits; only a refused profile is searched
            # for the non-integer entry that outranks its error.
            expect_each(raw_profile, int, "profile entry must be an integer", f"classes[{i}].profile")
            raise ValidationError(exc.message, f"classes[{i}].{exc.path}") from exc
    raise AssertionError("class entries refused by the whole-document passes show no fault")


def _float_mass(m, i: int) -> float:
    """Mass ``m`` as a float; an integer too large for one is refused at ``masses[i]``."""
    try:
        return float(m)
    except OverflowError:
        raise ValidationError("mass does not fit in a float", f"masses[{i}]") from None


def parse_scheme(text: str, renormalize: bool = False) -> Scheme:
    """Parse and validate a scheme document.

    The document is a JSON object with keys ``attributes`` (array of strings),
    ``classes`` (array of ``{"name": ..., "profile": [0/1, ...]}``) and an
    optional ``masses`` array.  Missing masses default to uniform 1/k.
    Masses that do not sum to 1 are rejected unless ``renormalize`` is set;
    they are never rescaled silently.
    """
    doc = decode_json(text)
    expect(isinstance(doc, dict), "document must be a JSON object", "")
    expect("attributes" in doc, "missing key", "attributes")
    expect("classes" in doc, "missing key", "classes")
    unknown = set(doc) - {"attributes", "classes", "masses"}
    expect(not unknown, f"unknown keys {sorted(unknown)}", "")

    raw_attributes = doc["attributes"]
    expect(isinstance(raw_attributes, list), "must be an array", "attributes")
    expect_each(raw_attributes, str, "attribute name must be a string", "attributes")

    raw_classes = doc["classes"]
    expect(isinstance(raw_classes, list), "must be an array", "classes")
    names, answers, lengths = _classes(raw_classes)

    masses = None
    if "masses" in doc:
        raw_masses = doc["masses"]
        expect(isinstance(raw_masses, list), "must be an array", "masses")
        expect_each(raw_masses, (int, float), "mass must be a number", "masses")
        masses = tuple(_float_mass(m, i) for i, m in enumerate(raw_masses))
        if renormalize and masses:
            total = sum(masses)
            if total <= 0:
                raise ValidationError(f"cannot renormalize masses summing to {total}", "masses")
            masses = tuple(m / total for m in masses)

    scheme = object.__new__(Scheme)  # the answers are proven 0/1; _validate checks their lengths
    scheme._validate(raw_attributes, names, answers, masses, lengths)
    return scheme


def serialize_scheme(scheme: Scheme) -> str:
    """Canonical JSON form: keys attributes/classes/masses, two-space indent.

    ``parse_scheme(serialize_scheme(s))`` reproduces ``s`` bit-exactly.
    """
    doc = {
        "attributes": list(scheme.attributes),
        "classes": [
            {"name": name, "profile": list(scheme.row(c))} for c, name in enumerate(scheme.class_names)
        ],
        "masses": list(scheme.masses),
    }
    return encode_json(doc)


def load_scheme(path: str, renormalize: bool = False) -> Scheme:
    """Read a scheme document from a file path."""
    with open(path, encoding="utf-8") as handle:
        return parse_scheme(handle.read(), renormalize=renormalize)
