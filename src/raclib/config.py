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

    def validate(self, sources: dict[str, str] | None = None) -> "Config":
        """Check every value; with ``sources`` (field -> where its value came from), name where each came from."""
        for key in ("record_size", "port"):
            _check(key, getattr(self, key))
        if self.bucket_ttl_seconds < self.bucket_width_seconds:
            def where(key):
                return "" if sources is None else f" ({sources.get(key, 'default')})"
            raise ValueError(
                f"bucket_ttl_seconds {self.bucket_ttl_seconds}{where('bucket_ttl_seconds')} shorter than "
                f"bucket_width_seconds {self.bucket_width_seconds}{where('bucket_width_seconds')}"
            )
        return self


def _check(key: str, value, prefix: str = "") -> None:
    """Refuse a ``record_size`` or ``port`` out of range; an error starts with ``prefix``."""
    if key == "record_size" and value < 1:
        raise ValueError(f"{prefix}record_size must be >= 1, got {value}")
    if key == "port" and not 0 < value < 65536:
        raise ValueError(f"{prefix}port out of range: {value}")


def _coerce(key: str, value, source: str = "") -> object:
    """``value`` as config field ``key``'s type, in range; an error starts with ``source``, where the value came from."""
    prefix = f"{source}: " if source else ""
    for field in fields(Config):
        if field.name == key:
            try:
                value = type(field.default)(value)
            except ValueError as e:
                raise ValueError(f"{prefix}{key}: {e}") from None
            _check(key, value, prefix)
            return value
    raise ValueError(f"{prefix}unknown config key: {key}")


def _parse_file(path: Path) -> dict:
    """Each key's (value, "path:line") from the file; a later line of a key wins."""
    values = {}
    for lineno, line in enumerate(path.read_text("ascii").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        source = f"{path}:{lineno}"
        values[key.strip()] = (_coerce(key.strip(), value.strip(), source), source)
    return values


def load_config(config_file: str | Path | None = None, env=None, **overrides) -> Config:
    """Merge defaults, file, environment, and keyword overrides (None skipped)."""
    if env is None:
        env = os.environ
    found: dict = {}  # field -> (value, where it came from)
    if config_file is not None:
        found.update(_parse_file(Path(config_file)))
    for field in fields(Config):
        variable = ENV_PREFIX + field.name.upper()
        if variable in env:
            found[field.name] = (_coerce(field.name, env[variable], variable), variable)
    for key, value in overrides.items():
        if value is not None:
            found[key] = (_coerce(key, value), "argument")
    config = Config(**{key: value for key, (value, _) in found.items()})
    return config.validate({key: source for key, (_, source) in found.items()})
