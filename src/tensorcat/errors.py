"""Exception types shared across the package."""

from __future__ import annotations


class TensorcatError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DegreeCapExceeded(TensorcatError):
    """A computation was refused because it would pass the degree cap."""

    def __init__(self, degree: int, cap: int, what: str = "degree"):
        self.degree = degree
        self.cap = cap
        super().__init__(f"{what} {degree} exceeds the configured cap {cap}")


class GuardExceeded(TensorcatError):
    """An explicit group-algebra computation was refused by the size guard."""

    def __init__(self, size: int, guard: int, what: str = "total boxes"):
        self.size = size
        self.guard = guard
        super().__init__(f"{what} {size} exceeds the group-algebra guard {guard}")


class LimitExceeded(TensorcatError):
    """A computation was refused by a limit fixed in the program, not a setting."""

    def __init__(self, size: int, limit: int, what: str):
        self.size = size
        self.limit = limit
        super().__init__(f"{what} {size} exceeds the fixed limit {limit}")


class ParseError(TensorcatError):
    """Bad input text; carries the offending token and its position."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        self.message = message
        super().__init__(f"{message} at position {pos} in {text!r}")
