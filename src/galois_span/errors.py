"""Exception types shared across the library.

Every guard in the package raises one of these instead of a bare
ValueError so callers (and the CLI) can react to specific failure modes.
Bad input raises a `GaloisSpanError` (CLI exit code 2); a failed internal
invariant of the exact arithmetic raises `InvariantError` (exit code 3).
`load_json` is the one reader of JSON input files (graph, voltage,
relation and Cayley-table files), `json_int` their one integer check, and
`json_list` and `json_object` their shape checks.
"""

import json

# Python's default limit on the digits of an int read from text
MAX_INT_DIGITS = 4300


class GaloisSpanError(Exception):
    """Base class for all library errors."""


class InvariantError(ArithmeticError):
    """An exact-arithmetic invariant failed inside the library: a bug, not bad
    input.  The CLI reports it as `internal error: ...` with exit code 3."""


class DisconnectedGraphError(GaloisSpanError):
    """Operation requires a connected graph."""


class TooLargeError(GaloisSpanError):
    """Brute-force guard exceeded."""


class InvalidTableError(GaloisSpanError):
    """A Cayley table failed the group axioms."""


class GroupSpecError(GaloisSpanError, ValueError):
    """A group spec string (or the Cayley-table file it names) does not parse."""


class GroupConstructionError(GaloisSpanError, ValueError):
    """A group constructor given an order below 1, no generators, or
    generators that are not permutations of one domain."""


class CyclotomicError(GaloisSpanError, ValueError):
    """A cyclotomic integer with a conductor below 1 or the wrong number of
    coordinates, or an operation on two conductors."""


class GraphError(GaloisSpanError, ValueError):
    """Arrays or an edge list that do not form a Serre graph: inconsistent
    lengths, an odd number of directed edges, an endpoint out of range, an
    inversion that is not a fixed-point-free involution swapping endpoints,
    a name list of the wrong length, or a cycle with no vertex."""


class FamilyParameterError(GaloisSpanError, ValueError):
    """A parameter of a cyclic bouquet family or of its lemmas is out of range
    or does not parse: repeated or non-prime primes, a negative exponent, b or
    a outside 0..s, t < 0, a trivial cyclic group, or a non-integer entry of
    `--p`, `--s` or `--b`."""


class VoltageError(GaloisSpanError, ValueError):
    """A voltage assignment does not fit its base graph or group: the wrong
    number of voltages, an element index out of range, or an edge index out
    of range in a voltage file."""


class PosetError(GaloisSpanError, ValueError):
    """Keys, labels and an order relation that do not form a poset: repeated
    keys, fields of different lengths, a relation matrix that is not square,
    reflexive, antisymmetric and transitive, an adjoined bound whose key is
    taken, or a classical Moebius argument below 1."""


class SettingError(GaloisSpanError, ValueError):
    """An environment variable the library reads holds a value it cannot
    use: a `GALOIS_SPAN_MAX_ORDER` that is not a positive decimal integer."""


class ClosureTooLargeError(GaloisSpanError):
    """Permutation closure exceeded the configured bound."""


class OrderTooLargeError(GaloisSpanError):
    """Group order exceeds the configured bound."""


class NotNormalError(GaloisSpanError):
    """Quotient requested by a non-normal subgroup."""


class NoSuitablePrimeError(GaloisSpanError):
    """No prime found for the character-table computation within bounds."""


class MismatchedGroupError(GaloisSpanError):
    """Operands belong to different groups."""


class NotAbelianError(GaloisSpanError):
    """Operation requires an abelian group."""


class NotGaloisError(GaloisSpanError):
    """Cover is not Galois (derived graph disconnected)."""


class NoConnectedAssignmentFoundError(GaloisSpanError):
    """Random voltage search failed to produce a connected cover."""


class EulerZeroError(GaloisSpanError):
    """Operation requires (or forbids) Euler characteristic zero."""


class WrongGroupError(GaloisSpanError):
    """Verifier applied to a group outside its scope."""


class NotABrauerRelationError(GaloisSpanError):
    """Coefficients do not annihilate the induced trivial characters."""


class LengthMismatchError(GaloisSpanError):
    """Componentwise operation on vectors of different lengths."""


class NotSquareError(GaloisSpanError):
    """Determinant of a non-square matrix."""


class InterpolationMismatchError(GaloisSpanError):
    """Interpolated polynomial has an unexpected degree."""


def _json_integer(text: str) -> int:
    if len(text.lstrip("-")) > MAX_INT_DIGITS:
        raise ValueError(f"an integer of more than {MAX_INT_DIGITS} digits")
    return int(text)


def load_json(path: str, what: str):
    """The JSON value in the file at `path`.  Invalid UTF-8, invalid JSON and an
    integer past `MAX_INT_DIGITS` digits raise `GaloisSpanError` naming `what`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"), parse_int=_json_integer)
    except UnicodeDecodeError as exc:
        raise GaloisSpanError(f"{what} {path} is not UTF-8: byte {exc.start} is invalid") from None
    except (ValueError, RecursionError) as exc:
        raise GaloisSpanError(f"{what} {path} is not valid JSON: {exc}") from None


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer; a float, bool or string raises `GaloisSpanError`.

    Input files are read exactly: 0.5 or 2.9 is refused, never truncated.
    """
    if type(value) is not int:
        raise GaloisSpanError(f"{what} must be an integer, got {value!r}")
    return value


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def json_list(value, what: str) -> list:
    """`value` if it is a JSON array; anything else raises `GaloisSpanError`."""
    if type(value) is not list:
        raise GaloisSpanError(f"{what} must be a JSON array, got {_brief(value)}")
    return value


def json_object(value, what: str, *keys: str) -> dict:
    """`value` if it is a JSON object holding every one of `keys`; anything
    else raises `GaloisSpanError` naming the expected shape."""
    if type(value) is not dict or any(key not in value for key in keys):
        shape = " {" + ", ".join(f'"{key}": ...' for key in keys) + "}" if keys else ""
        raise GaloisSpanError(f"{what} must be a JSON object{shape}, got {_brief(value)}")
    return value
