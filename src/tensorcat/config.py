"""Runtime limits and their resolution order.

Settings are resolved as: explicit flag > environment variable > config file
> built-in default.  The config file is plain ``key = value`` lines with ``#``
comments; recognized keys are ``degree_cap`` and ``group_guard``, and other
keys are ignored.

Environment variables: TENSORCAT_DEGREE_CAP, TENSORCAT_GROUP_GUARD,
TENSORCAT_CONFIG (path of a config file).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_DEGREE_CAP = 12
DEFAULT_GROUP_GUARD = 8

ENV_PREFIX = "TENSORCAT_"
ENV_DEGREE_CAP = ENV_PREFIX + "DEGREE_CAP"
ENV_GROUP_GUARD = ENV_PREFIX + "GROUP_GUARD"
ENV_CONFIG = ENV_PREFIX + "CONFIG"


@dataclass(frozen=True)
class Config:
    degree_cap: int = DEFAULT_DEGREE_CAP
    group_guard: int = DEFAULT_GROUP_GUARD


def effective_cap(cap: int | None) -> int:
    return DEFAULT_DEGREE_CAP if cap is None else cap


def effective_guard(guard: int | None) -> int:
    return DEFAULT_GROUP_GUARD if guard is None else guard


def read_config_file(path: str) -> dict[str, str]:
    """Parse a ``key = value`` file, ignoring blanks and # comments."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line {raw.rstrip()!r} in {path}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
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

    def pick(flag, env_name, file_key, default, convert):
        if flag is not None:
            return flag
        if env_name in env:
            return convert(env[env_name])
        if file_key in file_values:
            return convert(file_values[file_key])
        return default

    return Config(
        degree_cap=pick(degree_cap, ENV_DEGREE_CAP, "degree_cap", DEFAULT_DEGREE_CAP, int),
        group_guard=pick(group_guard, ENV_GROUP_GUARD, "group_guard", DEFAULT_GROUP_GUARD, int),
    )
