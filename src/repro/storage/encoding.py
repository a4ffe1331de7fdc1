"""Value encoding between Python tuples and SQLite storage classes.

SQLite natively stores ints, floats, and strings.  Booleans map to
0/1 (decoded back through the schema's declared attribute type), and
Skolem values (labeled nulls) are stored as tagged canonical-JSON
strings so that equal labeled nulls compare equal inside SQL joins —
the property data exchange needs from its canonical universal
solution.  The encoding is *self-describing*: a fresh codec (e.g. one
attached to a store reopened by path in a new connection or process)
reconstructs the ``SkolemValue`` — including nested Skolem arguments —
by parsing the string, with an intern cache only to keep one object
per distinct null within a codec.

Three more tagged encodings keep round-trips exact on edge values:

* Python ints outside SQLite's signed 64-bit range (which would raise
  ``OverflowError`` at bind time) are stored as ``@int:<decimal>``
  strings — equality-joinable, since the decimal rendering is
  canonical;
* non-finite floats (``nan``, ``±inf``) are stored as
  ``@float:<repr>`` strings: SQLite silently stores a bound NaN as
  NULL, which would round-trip as ``None`` and collide with
  labeled-null semantics, so they must never reach the binding layer
  raw.  The rendering is canonical, hence equality-joinable — SQL
  equality on the tag treats NaN as equal to itself.  The engines
  *share* that semantics: every NaN entering a CDSS is canonicalized
  to the single :data:`CANONICAL_NAN` object
  (:func:`canonical_value` / :func:`canonical_row`, applied at the
  ``insert_local``/``delete_local`` boundary), so the in-memory
  engine's hash joins — which compare tuple elements by identity
  before ``==`` — also see NaN as self-equal, and :meth:`decode`
  returns the same object for a stored ``@float:nan``.  A NaN used as
  a join variable therefore behaves identically on both engines
  (value semantics, not IEEE ``nan != nan``); see
  ``docs/architecture.md``;
* ordinary strings that *happen* to start with one of the tag prefixes
  are escaped with ``@str:`` so decoding is unambiguous.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

from repro.datalog.terms import SkolemValue
from repro.errors import StorageError
from repro.relational.schema import RelationSchema

_SKOLEM_TAG = "@sk:"
_INT_TAG = "@int:"
_STR_TAG = "@str:"
_FLOAT_TAG = "@float:"
_TAGS = (_SKOLEM_TAG, _INT_TAG, _STR_TAG, _FLOAT_TAG)

#: SQLite INTEGER is a signed 64-bit value.
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: the one NaN object of the whole system.  CPython compares tuple
#: elements by identity before ``==`` and (since 3.10) hashes NaN by
#: object id, so funneling every NaN through this single object makes
#: NaN behave as an ordinary self-equal value in hash joins, dict
#: keys, and set membership — exactly the semantics the SQL engine
#: gets from the canonical ``@float:nan`` string encoding.
CANONICAL_NAN: float = float("nan")


def canonical_value(value: object) -> object:
    """*value*, with any float NaN replaced by :data:`CANONICAL_NAN`.

    Applied at CDSS data boundaries (local insertion/deletion) so both
    engines join NaN by value; all other values pass through untouched.
    """
    if isinstance(value, float) and math.isnan(value):
        return CANONICAL_NAN
    return value


def canonical_row(row: Sequence[object]) -> tuple[object, ...]:
    """Tuple of *row* with NaNs canonicalized (see
    :func:`canonical_value`)."""
    return tuple(canonical_value(v) for v in row)


def _skolem_to_jsonable(value: SkolemValue) -> dict:
    """Canonical JSON-able form of a labeled null (recursive)."""

    def enc(arg: object) -> object:
        if isinstance(arg, SkolemValue):
            return {"f": arg.function, "a": [enc(a) for a in arg.args]}
        if arg is None or isinstance(arg, (bool, int, float, str)):
            return arg
        raise StorageError(
            f"cannot store Skolem argument of type {type(arg).__name__}"
        )

    return enc(value)


def _skolem_from_jsonable(obj: object) -> object:
    """Inverse of :func:`_skolem_to_jsonable`.  Dicts can only be
    Skolem markers: plain dicts are rejected on the way in."""
    if isinstance(obj, dict):
        return SkolemValue(
            obj["f"], tuple(_skolem_from_jsonable(a) for a in obj["a"])
        )
    return obj


class ValueCodec:
    """Encodes/decodes tuple values; caches decoded Skolem values."""

    def __init__(self) -> None:
        self._skolems: dict[str, SkolemValue] = {}

    def encode(self, value: object) -> object:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, SkolemValue):
            # Canonical rendering (sorted keys, no whitespace): the
            # same labeled null always encodes to the same string, so
            # the strings are equality-joinable in SQL.
            key = _SKOLEM_TAG + json.dumps(
                _skolem_to_jsonable(value),
                sort_keys=True,
                separators=(",", ":"),
            )
            self._skolems.setdefault(key, value)
            return key
        if isinstance(value, int) and not _INT64_MIN <= value <= _INT64_MAX:
            return _INT_TAG + str(value)
        if isinstance(value, float) and not math.isfinite(value):
            return _FLOAT_TAG + repr(value)
        if isinstance(value, str) and value.startswith(_TAGS):
            return _STR_TAG + value
        if value is None or isinstance(value, (int, float, str)):
            return value
        raise StorageError(f"cannot store value of type {type(value).__name__}")

    def decode(self, value: object, attribute_type: str) -> object:
        if isinstance(value, str):
            if value.startswith(_SKOLEM_TAG):
                cached = self._skolems.get(value)
                if cached is not None:
                    return cached
                # Not seen by this codec (e.g. a store reopened by
                # path): the encoding is self-describing, so rebuild
                # the labeled null from its canonical JSON.
                try:
                    obj = json.loads(value[len(_SKOLEM_TAG):])
                    if not isinstance(obj, dict):
                        raise ValueError("not a Skolem object")
                    skolem = _skolem_from_jsonable(obj)
                except (ValueError, KeyError, TypeError):
                    raise StorageError(
                        f"unknown Skolem encoding {value!r}"
                    ) from None
                self._skolems[value] = skolem
                return skolem
            if value.startswith(_INT_TAG):
                return int(value[len(_INT_TAG):])
            if value.startswith(_FLOAT_TAG):
                decoded = float(value[len(_FLOAT_TAG):])
                # All NaNs decode to the one canonical object so
                # decoded rows compare equal to in-memory rows (see
                # CANONICAL_NAN).
                return CANONICAL_NAN if math.isnan(decoded) else decoded
            if value.startswith(_STR_TAG):
                return value[len(_STR_TAG):]
        if attribute_type == "bool" and isinstance(value, int):
            return bool(value)
        return value

    def encode_row(self, row: Sequence[object]) -> tuple[object, ...]:
        return tuple(self.encode(v) for v in row)

    def decode_row(
        self, row: Sequence[object], schema: RelationSchema
    ) -> tuple[object, ...]:
        if len(row) != schema.arity:
            raise StorageError(
                f"row arity {len(row)} != schema arity {schema.arity} "
                f"for {schema.name}"
            )
        return tuple(
            self.decode(value, attr.type)
            for value, attr in zip(row, schema.attributes)
        )


def quote_identifier(name: str) -> str:
    """Defensively quote an SQL identifier."""
    if '"' in name:
        raise StorageError(f"illegal identifier {name!r}")
    return f'"{name}"'
