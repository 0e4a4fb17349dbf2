"""Canonical data model for finite classification schemes.

A scheme is k named classes over n binary attributes, plus an optional
probability mass per class.  Every analysis in this package consumes a
validated, immutable ``Scheme``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ParseError, ValidationError

MASS_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Profile:
    """Fixed-length bit vector of attribute answers for one class."""

    bits: tuple[int, ...]

    def __post_init__(self):
        for i, b in enumerate(self.bits):
            if b not in (0, 1) or isinstance(b, bool):
                raise ValidationError(f"profile bit must be 0 or 1, got {b!r}", f"profile[{i}]")

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits[i]

    def as_int(self) -> int:
        """Pack bits into an integer, attribute 0 in the lowest bit."""
        value = 0
        for i, b in enumerate(self.bits):
            value |= b << i
        return value


@dataclass(frozen=True)
class ClassRecord:
    """A named class together with its attribute profile."""

    name: str
    profile: Profile


@dataclass(frozen=True)
class Scheme:
    """k classes over n binary attributes with per-class probability mass.

    Immutable after construction; all package operations are pure functions
    of a scheme, so instances are safe to share across threads.
    """

    attributes: tuple[str, ...]
    classes: tuple[ClassRecord, ...]
    masses: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if len(self.classes) < 1:
            raise ValidationError("scheme needs at least one class", "classes")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValidationError("attribute names must be unique", "attributes")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            dup = next(name for i, name in enumerate(names) if name in names[:i])
            raise ValidationError(f"duplicate class name {dup!r}", "classes")
        n = len(self.attributes)
        for i, record in enumerate(self.classes):
            if len(record.profile) != n:
                raise ValidationError(
                    f"profile has length {len(record.profile)}, expected {n}",
                    f"classes[{i}].profile",
                )
        if not self.masses:
            object.__setattr__(self, "masses", tuple(1.0 / len(self.classes) for _ in self.classes))
        if len(self.masses) != len(self.classes):
            raise ValidationError(
                f"got {len(self.masses)} masses for {len(self.classes)} classes", "masses"
            )
        for i, m in enumerate(self.masses):
            if m < 0:
                raise ValidationError(f"mass must be nonnegative, got {m}", f"masses[{i}]")
        total = sum(self.masses)
        if abs(total - 1.0) > MASS_SUM_TOLERANCE:
            raise ValidationError(f"masses sum to {total}, expected 1", "masses")

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def n(self) -> int:
        return len(self.attributes)

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)

    @cached_property
    def profile_ints(self) -> tuple[int, ...]:
        """Per-class packed profiles (attribute q in bit q)."""
        return tuple(c.profile.as_int() for c in self.classes)

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Per-attribute bitmask over classes (class c in bit c)."""
        masks = []
        for q in range(self.n):
            mask = 0
            for c, record in enumerate(self.classes):
                mask |= record.profile[q] << c
            masks.append(mask)
        return tuple(masks)

    def index_of(self, class_name: str) -> int:
        for i, record in enumerate(self.classes):
            if record.name == class_name:
                return i
        raise KeyError(class_name)


def profile_of(scheme: Scheme, class_index: int) -> Profile:
    """Return the stored profile of one class; no recomputation.

    Raises IndexError outside 0 <= class_index < k (negative indexing is
    deliberately not supported).
    """
    if not 0 <= class_index < scheme.k:
        raise IndexError(f"class index {class_index} out of range for k={scheme.k}")
    return scheme.classes[class_index].profile


def _expect(condition: bool, message: str, path: str):
    if not condition:
        raise ParseError(message, path)


def parse_scheme(text: str, renormalize: bool = False) -> Scheme:
    """Parse and validate a scheme document.

    The document is a JSON object with keys ``attributes`` (array of strings),
    ``classes`` (array of ``{"name": ..., "profile": [0/1, ...]}``) and an
    optional ``masses`` array.  Missing masses default to uniform 1/k.
    Masses that do not sum to 1 are rejected unless ``renormalize`` is set;
    they are never rescaled silently.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "document must be a JSON object", "")
    _expect("attributes" in doc, "missing key", "attributes")
    _expect("classes" in doc, "missing key", "classes")
    unknown = set(doc) - {"attributes", "classes", "masses"}
    _expect(not unknown, f"unknown keys {sorted(unknown)}", "")

    raw_attributes = doc["attributes"]
    _expect(isinstance(raw_attributes, list), "must be an array", "attributes")
    for i, name in enumerate(raw_attributes):
        _expect(isinstance(name, str), "attribute name must be a string", f"attributes[{i}]")

    raw_classes = doc["classes"]
    _expect(isinstance(raw_classes, list), "must be an array", "classes")
    records = []
    for i, entry in enumerate(raw_classes):
        _expect(isinstance(entry, dict), "class entry must be an object", f"classes[{i}]")
        _expect("name" in entry, "missing key", f"classes[{i}].name")
        _expect("profile" in entry, "missing key", f"classes[{i}].profile")
        _expect(isinstance(entry["name"], str), "class name must be a string", f"classes[{i}].name")
        raw_profile = entry["profile"]
        _expect(isinstance(raw_profile, list), "profile must be an array", f"classes[{i}].profile")
        for j, b in enumerate(raw_profile):
            _expect(
                isinstance(b, int) and not isinstance(b, bool),
                "profile entry must be an integer",
                f"classes[{i}].profile[{j}]",
            )
        try:
            records.append(ClassRecord(entry["name"], Profile(tuple(raw_profile))))
        except ValidationError as exc:
            raise ValidationError(exc.message, f"classes[{i}].{exc.path}") from exc

    masses: tuple[float, ...] = ()
    if "masses" in doc:
        raw_masses = doc["masses"]
        _expect(isinstance(raw_masses, list), "must be an array", "masses")
        for i, m in enumerate(raw_masses):
            _expect(
                isinstance(m, (int, float)) and not isinstance(m, bool),
                "mass must be a number",
                f"masses[{i}]",
            )
        masses = tuple(float(m) for m in raw_masses)
        if renormalize and masses:
            total = sum(masses)
            if total <= 0:
                raise ValidationError(f"cannot renormalize masses summing to {total}", "masses")
            masses = tuple(m / total for m in masses)

    return Scheme(tuple(raw_attributes), tuple(records), masses)


def serialize_scheme(scheme: Scheme) -> str:
    """Canonical JSON form: keys attributes/classes/masses, two-space indent.

    ``parse_scheme(serialize_scheme(s))`` reproduces ``s`` bit-exactly.
    """
    doc = {
        "attributes": list(scheme.attributes),
        "classes": [
            {"name": c.name, "profile": list(c.profile.bits)} for c in scheme.classes
        ],
        "masses": list(scheme.masses),
    }
    return json.dumps(doc, indent=2)


def load_scheme(path: str, renormalize: bool = False) -> Scheme:
    """Read a scheme document from a file path."""
    with open(path, encoding="utf-8") as handle:
        return parse_scheme(handle.read(), renormalize=renormalize)
