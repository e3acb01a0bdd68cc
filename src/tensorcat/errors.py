"""Exception types shared across the package.

Every refusal, whichever limit it hits, is one ``LimitExceeded``, raised by
``config.check_limit``; the CLI maps it to exit 2.
"""

from __future__ import annotations


class TensorcatError(Exception):
    """Base class for all errors raised deliberately by this package."""


class LimitExceeded(TensorcatError):
    """A computation was refused by a limit: the degree cap, the group guard or
    a limit fixed in the program.  Raised only by ``config.check_limit``."""

    def __init__(self, size: int, limit: int, what: str, bound: str = "the fixed limit"):
        self.size = size
        self.limit = limit
        super().__init__(f"{what} {size} exceeds {bound} {limit}")


class ParseError(TensorcatError):
    """Bad input text; carries the offending token and its position inside the text."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos = min(pos, max(len(text) - 1, 0))  # an empty last field starts past the end
        self.message = message
        super().__init__(f"{message} at position {pos} in {text!r}")
