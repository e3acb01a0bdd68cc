"""Runtime limits and their resolution order.

Settings are resolved as: explicit flag > environment variable > config file
> built-in default.  The config file is plain ``key = value`` lines with ``#``
comments; recognized keys are ``degree_cap`` and ``group_guard``, and other
keys are ignored.  Each value, from a flag, the environment or the file, is
read by ``diagrams.ascii_int``, which names its source; only ASCII whitespace
is skipped; a file over CONFIG_FILE_LIMIT bytes, or not UTF-8, is refused, and
so is an empty config path from the flag or the environment.

Environment variables: TENSORCAT_DEGREE_CAP, TENSORCAT_GROUP_GUARD,
TENSORCAT_CONFIG (path of a config file).

``check_limit`` is the one place a refusal is raised: the degree cap
(``check_cap``), the group guard (``check_guard``) and every limit fixed in
the program go through it, so each raises ``errors.LimitExceeded``.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Mapping

from .diagrams import WHITESPACE, ascii_int
from .errors import LimitExceeded

DEFAULT_DEGREE_CAP = 12
DEFAULT_GROUP_GUARD = 8
CONFIG_FILE_LIMIT = 64 * 1024  # bytes

ENV_PREFIX = "TENSORCAT_"
ENV_DEGREE_CAP = ENV_PREFIX + "DEGREE_CAP"
ENV_GROUP_GUARD = ENV_PREFIX + "GROUP_GUARD"
ENV_CONFIG = ENV_PREFIX + "CONFIG"


Config = namedtuple("Config", "degree_cap group_guard", defaults=(DEFAULT_DEGREE_CAP, DEFAULT_GROUP_GUARD))


def check_limit(value: int, limit: int, what: str, bound: str = "the fixed limit") -> None:
    """Refuse ``value`` above ``limit``; the message names ``what`` and ``bound``."""
    if value > limit:
        raise LimitExceeded(value, limit, what, bound)


def check_cap(value: int, cap: int | None, what: str = "degree") -> None:
    """Refuse ``value`` above the degree cap (the default cap when None)."""
    check_limit(value, DEFAULT_DEGREE_CAP if cap is None else cap, what, "the configured cap")


def check_guard(value: int, guard: int | None) -> None:
    """Refuse a total of ``value`` boxes above the group-algebra guard (the default when None)."""
    check_limit(value, DEFAULT_GROUP_GUARD if guard is None else guard, "total boxes", "the group-algebra guard")


def _open_without_waiting(path: str, flags: int) -> int:
    """Open without waiting for a FIFO's writer, then read blocking: a FIFO with no writer reads as empty."""
    fd = os.open(path, flags | os.O_NONBLOCK)
    os.set_blocking(fd, True)
    return fd


def read_config_file(path: str) -> dict[str, str]:
    """Parse a ``key = value`` file, ignoring blanks and # comments."""
    with open(path, "rb", opener=_open_without_waiting) as handle:
        data = handle.read(CONFIG_FILE_LIMIT + 1)
    if len(data) > CONFIG_FILE_LIMIT:
        raise ValueError(f"config file {path} exceeds {CONFIG_FILE_LIMIT} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"config file {path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    values: dict[str, str] = {}
    for raw in text.replace("\r", "\n").split("\n"):
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
    degree_cap: str | None = None,
    group_guard: str | None = None,
    config_file: str | None = None,
    env: Mapping[str, str],
) -> Config:
    """Build a Config from the flags' text and ``env``, honoring flag > env > file > default precedence."""
    source, file_path = ("--config", config_file) if config_file is not None else (ENV_CONFIG, env.get(ENV_CONFIG))
    if file_path == "":  # an empty path names no file; it does not fall through to the next source
        raise ValueError(f"bad {source} '': empty path")
    file_values = read_config_file(file_path) if file_path else {}

    def pick(flag, flag_name, env_name, file_key, default):
        for name, text in ((flag_name, flag), (env_name, env.get(env_name)), (file_key, file_values.get(file_key))):
            if text is not None:
                return ascii_int(text, name)
        return default

    return Config(degree_cap=pick(degree_cap, "--degree-cap", ENV_DEGREE_CAP, "degree_cap", DEFAULT_DEGREE_CAP),
                  group_guard=pick(group_guard, "--group-guard", ENV_GROUP_GUARD, "group_guard", DEFAULT_GROUP_GUARD))
