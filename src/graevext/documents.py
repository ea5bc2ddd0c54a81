"""Input files: reading a JSON file and checking a document's shape.

Every loader of the package (space, entourage, sequence and topology
files) reads its file with ``read_json``, checks a JSON object's fields
with ``check_document`` and builds its value with ``build``.  This
module loads nothing of the package but its errors, so the entourage
commands read their files without loading the rational spaces.
"""

from __future__ import annotations

from .errors import DomainError, FormatError


def read_json(path):
    """Parse a UTF-8 JSON file; bytes that are not UTF-8, malformed JSON,
    integers past Python's digit limit and nesting past the recursion
    limit all raise ``FormatError``."""
    import json
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: {exc}") from exc


def check_document(obj, kind: str, required, optional=()) -> None:
    """Raise ``FormatError`` unless ``obj`` is a JSON object with every
    required field and no field but the optional ones, its ``points`` a
    list and every other required field a list of lists."""
    if not isinstance(obj, dict):
        raise FormatError(f"{kind} document must be a JSON object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise FormatError(f"unknown {kind} fields: {sorted(unknown)}")
    if any(field not in obj for field in required):
        raise FormatError(f"{kind} document needs fields {list(required)}")
    if not isinstance(obj["points"], list):
        raise FormatError("'points' must be a list of symbols")
    for field in required:
        rows = obj[field]
        if field != "points" and (not isinstance(rows, list) or any(
                not isinstance(row, list) for row in rows)):
            raise FormatError(f"{field!r} must be a list of lists")


def build(cls, *fields):
    """``cls(*fields)``, with its ``DomainError`` raised as a ``FormatError``."""
    try:
        return cls(*fields)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc
