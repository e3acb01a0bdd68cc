"""Runtime limits and their resolution order.

Settings are resolved as: explicit flag > environment variable > config file
> built-in default.  The config file is plain ``key = value`` lines with ``#``
comments; recognized keys are ``degree_cap`` and ``group_guard``, and other
keys are ignored.  Values, from the environment or the file, are ASCII
integers: an optional ``-`` then digits (``diagrams.ascii_int``); only ASCII
whitespace is skipped, and a file over CONFIG_FILE_LIMIT bytes is refused.

Environment variables: TENSORCAT_DEGREE_CAP, TENSORCAT_GROUP_GUARD,
TENSORCAT_CONFIG (path of a config file).

``check_limit`` is the one place a refusal is raised: the degree cap
(``check_cap``), the group guard (``check_guard``) and every limit fixed in
the program go through it, so each raises ``errors.LimitExceeded``.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .diagrams import WHITESPACE, ascii_int
from .errors import LimitExceeded

DEFAULT_DEGREE_CAP = 12
DEFAULT_GROUP_GUARD = 8
CONFIG_FILE_LIMIT = 64 * 1024  # bytes

ENV_PREFIX = "TENSORCAT_"
ENV_DEGREE_CAP = ENV_PREFIX + "DEGREE_CAP"
ENV_GROUP_GUARD = ENV_PREFIX + "GROUP_GUARD"
ENV_CONFIG = ENV_PREFIX + "CONFIG"


class Config(NamedTuple):
    degree_cap: int = DEFAULT_DEGREE_CAP
    group_guard: int = DEFAULT_GROUP_GUARD


def check_limit(value: int, limit: int, what: str, bound: str = "the fixed limit") -> None:
    """Refuse ``value`` above ``limit``; the message names ``what`` and ``bound``."""
    if value > limit:
        raise LimitExceeded(value, limit, what, bound)


def check_cap(value: int, cap: int | None, what: str = "degree") -> None:
    """Refuse ``value`` above the degree cap (the default cap when None)."""
    check_limit(value, DEFAULT_DEGREE_CAP if cap is None else cap, what, "the configured cap")


def check_guard(value: int, guard: int | None, what: str = "total boxes") -> None:
    """Refuse ``value`` above the group-algebra guard (the default when None)."""
    check_limit(value, DEFAULT_GROUP_GUARD if guard is None else guard, what, "the group-algebra guard")


def read_config_file(path: str) -> dict[str, str]:
    """Parse a ``key = value`` file, ignoring blanks and # comments."""
    with open(path, "rb") as handle:
        data = handle.read(CONFIG_FILE_LIMIT + 1)
    if len(data) > CONFIG_FILE_LIMIT:
        raise ValueError(f"config file {path} exceeds {CONFIG_FILE_LIMIT} bytes")
    values: dict[str, str] = {}
    for raw in data.decode("utf-8").replace("\r", "\n").split("\n"):
        line = raw.split("#", 1)[0].strip(WHITESPACE)
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line {raw.rstrip()!r} in {path}")
        key, value = line.split("=", 1)
        values[key.strip(WHITESPACE)] = value.strip(WHITESPACE)
    return values


def resolve_config(
    *,
    degree_cap: int | None = None,
    group_guard: int | None = None,
    config_file: str | None = None,
    env: dict[str, str] | None = None,
) -> Config:
    """Build a Config honoring flag > env > file > default precedence."""
    env = os.environ if env is None else env

    file_path = config_file or env.get(ENV_CONFIG)
    file_values = read_config_file(file_path) if file_path else {}

    def pick(flag, env_name, file_key, default):
        if flag is not None:
            return flag
        if env_name in env:
            return ascii_int(env[env_name], env_name)
        if file_key in file_values:
            return ascii_int(file_values[file_key], file_key)
        return default

    return Config(
        degree_cap=pick(degree_cap, ENV_DEGREE_CAP, "degree_cap", DEFAULT_DEGREE_CAP),
        group_guard=pick(group_guard, ENV_GROUP_GUARD, "group_guard", DEFAULT_GROUP_GUARD),
    )
