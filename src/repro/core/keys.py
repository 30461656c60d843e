"""Resource keys and versions.

A resource type is identified by a globally unique *key*, "usually
consisting of a name and a version" (S3.1).  Versions are dotted integer
tuples ("6.0.18").  The DSL's version-range sugar ("OpenMRS depends on
versions of Tomcat before 6.0.29") lowers to disjunctions over the
concrete versions that satisfy a :class:`VersionRange`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Iterable, Optional

from repro.core.errors import ResourceModelError

_VERSION_RE = re.compile(r"^\d+(\.\d+)*$")


@total_ordering
@dataclass(frozen=True)
class Version:
    """A dotted integer version such as ``6.0.18``.

    Comparison is lexicographic on the integer components, with missing
    trailing components treated as zero (so ``6.0`` == ``6.0.0`` and
    ``6.0`` < ``6.0.18``).

    The canonical form (trailing zeros stripped) and its hash are
    computed once at construction: versions are dict keys on every
    registry and graph lookup.  Neither is pickled (see
    :meth:`__getstate__`).
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        canonical = self.parts
        while canonical and canonical[-1] == 0:
            canonical = canonical[:-1]
        object.__setattr__(self, "_canonical", canonical)
        object.__setattr__(self, "_hash", hash(canonical))

    def __getstate__(self) -> tuple[int, ...]:
        return self.parts

    def __setstate__(self, parts: tuple[int, ...]) -> None:
        object.__setattr__(self, "parts", parts)
        self.__post_init__()

    @staticmethod
    def parse(text: str) -> "Version":
        text = text.strip()
        if not _VERSION_RE.match(text):
            raise ResourceModelError(f"invalid version string: {text!r}")
        return Version(tuple(int(p) for p in text.split(".")))

    @staticmethod
    def is_valid(text: str) -> bool:
        return bool(_VERSION_RE.match(text.strip()))

    def _padded(self, width: int) -> tuple[int, ...]:
        return self.parts + (0,) * (width - len(self.parts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        # Equal padded forms <=> equal forms with trailing zeros stripped.
        return self._canonical == other._canonical

    def __lt__(self, other: "Version") -> bool:
        width = max(len(self.parts), len(other.parts))
        return self._padded(width) < other._padded(width)

    def __hash__(self) -> int:
        return self._hash

    def is_unversioned(self) -> bool:
        return not self.parts

    def __str__(self) -> str:
        return ".".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"Version({self})"


#: The version of "unversioned" keys (abstract types such as ``Server``).
UNVERSIONED = Version(())


@dataclass(frozen=True)
class VersionRange:
    """A half-open or closed interval of versions.

    ``lo``/``hi`` of ``None`` mean unbounded on that side.  Bounds are
    inclusive when the matching ``*_inclusive`` flag is set.  The default
    matches the common "at least 5.5 but before 6.0.29" idiom:
    lo-inclusive, hi-exclusive.
    """

    lo: Optional[Version] = None
    hi: Optional[Version] = None
    lo_inclusive: bool = True
    hi_inclusive: bool = False

    def contains(self, version: Version) -> bool:
        if self.lo is not None:
            if self.lo_inclusive:
                if version < self.lo:
                    return False
            elif version <= self.lo:
                return False
        if self.hi is not None:
            if self.hi_inclusive:
                if version > self.hi:
                    return False
            elif version >= self.hi:
                return False
        return True

    def __str__(self) -> str:
        lo = "[" if self.lo_inclusive else "("
        hi = "]" if self.hi_inclusive else ")"
        lo_s = str(self.lo) if self.lo is not None else "*"
        hi_s = str(self.hi) if self.hi is not None else "*"
        return f"{lo}{lo_s}, {hi_s}{hi}"


@dataclass(frozen=True, order=True)
class ResourceKey:
    """The globally unique identifier of a resource type: name + version.

    The hash is computed once at construction, and equality tests it
    before comparing fields, so a dict probe costs one int comparison in
    the common case.  The cached hash depends on the process's string
    hash seed, so it never crosses a pickle boundary: a key unpickled
    in a process with another ``PYTHONHASHSEED`` recomputes it.
    """

    name: str
    version: Version

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.version)))

    def __getstate__(self) -> tuple[str, Version]:
        return self.name, self.version

    def __setstate__(self, state: tuple[str, Version]) -> None:
        name, version = state
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "version", version)
        self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ResourceKey):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.name == other.name
            and self.version == other.version
        )

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def parse(text: str) -> "ResourceKey":
        """Parse a display form such as ``"Tomcat 6.0.18"``.

        The version is the final whitespace-separated token if it looks
        like a dotted number; everything before it is the name (names may
        contain spaces).  Text without a version token parses as an
        *unversioned* key -- used for abstract types such as ``Server``.

        Equal texts give the same object: a fleet spec names a few dozen
        types across thousands of instances, and identical keys make
        every dict probe an identity check.
        """
        return _parse_key(text)

    def display(self) -> str:
        if self.version.is_unversioned():
            return self.name
        return f"{self.name} {self.version}"

    def __str__(self) -> str:
        return self.display()


@lru_cache(maxsize=4096)
def _parse_key(text: str) -> ResourceKey:
    text = text.strip()
    if not text:
        raise ResourceModelError("empty resource key")
    name, _, version = text.rpartition(" ")
    if name and Version.is_valid(version):
        return ResourceKey(name.strip(), Version.parse(version))
    return ResourceKey(text, UNVERSIONED)


def select_versions(
    versions: Iterable[Version], version_range: VersionRange
) -> list[Version]:
    """Return the sorted subset of ``versions`` inside ``version_range``."""
    return sorted(v for v in set(versions) if version_range.contains(v))
