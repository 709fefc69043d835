"""Service configuration: defaults, config file, environment, flag overrides.

Precedence, lowest to highest: built-in defaults, config file (ASCII
``key=value`` lines), ``RACLIB_*`` environment variables, explicit flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

from .cache import DEFAULT_BUCKET_TTL, DEFAULT_BUCKET_WIDTH
from .store import DEFAULT_RECORD_SIZE

ENV_PREFIX = "RACLIB_"


@dataclass
class Config:
    library_dir: Path = Path("library")
    cache_root: Path = Path("cache")
    record_size: int = DEFAULT_RECORD_SIZE
    port: int = 8080
    bucket_ttl_seconds: int = DEFAULT_BUCKET_TTL
    bucket_width_seconds: int = DEFAULT_BUCKET_WIDTH

    def validate(self) -> "Config":
        if self.record_size < 1:
            raise ValueError(f"record_size must be >= 1, got {self.record_size}")
        if self.bucket_ttl_seconds < self.bucket_width_seconds:
            raise ValueError(
                f"bucket_ttl_seconds {self.bucket_ttl_seconds} shorter than "
                f"bucket_width_seconds {self.bucket_width_seconds}"
            )
        if not 0 < self.port < 65536:
            raise ValueError(f"port out of range: {self.port}")
        return self


def _coerce(key: str, value, source: str = "") -> object:
    """``value`` as config field ``key``'s type; an error starts with ``source``, where the value came from."""
    for field in fields(Config):
        if field.name == key:
            try:
                return type(field.default)(value)
            except ValueError as e:
                raise ValueError(f"{source}{key}: {e}") from None
    raise ValueError(f"{source}unknown config key: {key}")


def _parse_file(path: Path) -> dict:
    values = {}
    for lineno, line in enumerate(path.read_text("ascii").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        values[key.strip()] = _coerce(key.strip(), value.strip(), f"{path}:{lineno}: ")
    return values


def load_config(config_file: str | Path | None = None, env=None, **overrides) -> Config:
    """Merge defaults, file, environment, and keyword overrides (None skipped)."""
    if env is None:
        env = os.environ
    values: dict = {}
    if config_file is not None:
        values.update(_parse_file(Path(config_file)))
    for field in fields(Config):
        variable = ENV_PREFIX + field.name.upper()
        if variable in env:
            values[field.name] = _coerce(field.name, env[variable], f"{variable}: ")
    for key, value in overrides.items():
        if value is not None:
            values[key] = _coerce(key, value)
    return Config(**values).validate()
