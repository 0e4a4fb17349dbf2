"""Canonical data model for finite classification schemes.

A scheme is k named classes over n binary attributes, plus an optional
probability mass per class.  Every analysis in this package consumes a
validated, immutable ``Scheme``.  Each rule lives in one place:
``parse_scheme`` checks the JSON shape, ``Profile`` checks the bits, and
``Scheme`` checks lengths, names, masses and class indices.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError, decode_json, expect, expect_each

MASS_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Profile:
    """Fixed-length bit vector of attribute answers for one class."""

    bits: tuple[int, ...]

    def __post_init__(self):
        # Plain ints 0 and 1 pass in two C-speed set checks (a bool's type
        # is not int, and 1.0 fails the type check); any other profile is
        # walked bit by bit for its first fault.
        if {*map(type, self.bits)} <= {int} and {*self.bits} <= {0, 1}:
            return
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


@dataclass(frozen=True)
class Scheme:
    """k classes over n binary attributes with per-class probability mass.

    ``masses=None`` means uniform 1/k; given masses need one entry per
    class.  Immutable after construction; all package operations are pure
    functions of a scheme, so instances are safe to share across threads.
    """

    attributes: tuple[str, ...]
    classes: tuple[ClassRecord, ...]
    masses: tuple[float, ...] | None = None

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
        if self.masses is None:
            object.__setattr__(self, "masses", tuple(1.0 / len(self.classes) for _ in self.classes))
        if len(self.masses) != len(self.classes):
            raise ValidationError(
                f"got {len(self.masses)} masses for {len(self.classes)} classes", "masses"
            )
        for i, m in enumerate(self.masses):
            if not m >= 0:  # NaN fails too
                raise ValidationError(f"mass must be nonnegative, got {m}", f"masses[{i}]")
        total = sum(self.masses)
        if not abs(total - 1.0) <= MASS_SUM_TOLERANCE:
            raise ValidationError(f"masses sum to {total}, expected 1", "masses")

    def __hash__(self) -> int:
        # The generated hash walks every class record on each call, and
        # every memoised tree lookup hashes its scheme; hash it once.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.attributes, self.classes, self.masses))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # String hashes differ between processes: a stored hash must not
        # outlive the process that computed it.  An unpickled array is
        # writable, so ``bits`` is rebuilt read-only on first use instead.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("bits", None)
        return state

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def n(self) -> int:
        return len(self.attributes)

    @cached_property
    def class_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)

    @cached_property
    def bits(self) -> np.ndarray:
        """Read-only k x n boolean matrix of the profiles."""
        matrix = np.array([c.profile.bits for c in self.classes], dtype=bool)
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def profile_ints(self) -> tuple[int, ...]:
        """Per-class packed profiles (attribute q in bit q)."""
        return _pack_rows(self.bits)

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Per-attribute bitmask over classes (class c in bit c)."""
        return _pack_rows(self.bits.T)

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
        for i, record in enumerate(self.classes):
            if record.name == class_name:
                return i
        raise KeyError(class_name)


def _pack_rows(matrix: np.ndarray) -> tuple[int, ...]:
    """Each row of a boolean matrix as an integer, column j in bit j."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def profile_of(scheme: Scheme, class_index: int) -> Profile:
    """Return the stored profile of one class; no recomputation.

    Raises IndexError as ``Scheme.check_class`` does.
    """
    return scheme.classes[scheme.check_class(class_index)].profile


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
    records = []
    for i, entry in enumerate(raw_classes):
        expect(isinstance(entry, dict), "class entry must be an object", f"classes[{i}]")
        expect("name" in entry, "missing key", f"classes[{i}].name")
        expect("profile" in entry, "missing key", f"classes[{i}].profile")
        expect(isinstance(entry["name"], str), "class name must be a string", f"classes[{i}].name")
        raw_profile = entry["profile"]
        expect(isinstance(raw_profile, list), "profile must be an array", f"classes[{i}].profile")
        try:
            records.append(ClassRecord(entry["name"], Profile(tuple(raw_profile))))
        except ValidationError as exc:
            # ``Profile`` checks the bits; only a refused profile is searched
            # for the non-integer entry that outranks its error.
            expect_each(raw_profile, int, "profile entry must be an integer", f"classes[{i}].profile")
            raise ValidationError(exc.message, f"classes[{i}].{exc.path}") from exc

    masses = None
    if "masses" in doc:
        raw_masses = doc["masses"]
        expect(isinstance(raw_masses, list), "must be an array", "masses")
        expect_each(raw_masses, (int, float), "mass must be a number", "masses")
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
