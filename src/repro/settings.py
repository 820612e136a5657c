"""Process configuration: the three ``REPRO_*`` environment variables.

:meth:`Settings.from_env` is the only code in the package that reads the
environment.  :class:`~repro.estocada.Estocada` calls it once, at
construction, and passes plain values down (a standalone
:class:`~repro.runtime.engine.ExecutionEngine` calls it for its default
width), so a variable changed later affects only facades built later.  One
parse rule covers every variable: unset or blank means the default, any
other value is accepted or raises a :class:`~repro.errors.ConfigurationError`
naming the variable.  Explicit constructor arguments always win.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["Settings"]

_SWITCH = {"": False, "0": False, "false": False, "no": False, "off": False,
           "1": True, "true": True, "yes": True, "on": True}


def _width(raw: str) -> int | None:
    if not raw:
        return 1
    return int(raw) if raw.isdecimal() and int(raw) >= 1 else None


def _durable(raw: str) -> bool | str | None:
    switch = _SWITCH.get(raw.lower())
    if switch is None and os.path.isabs(raw):
        return raw
    return switch


def _read(variable: str, parse, accepted: str):
    raw = os.environ.get(variable, "").strip()
    value = parse(raw)
    if value is None:
        raise ConfigurationError(
            f"{variable}={raw!r} is not accepted: expected {accepted}", variable=variable
        )
    return value


@dataclass(frozen=True, slots=True)
class Settings:
    """The environment's configuration; the defaults are an empty environment's.

    ``parallelism`` (``REPRO_PARALLELISM``, an integer >= 1) is the default
    executor width.  ``durable`` (``REPRO_DURABLE``) is False for in-memory
    stores, True (``1/true/yes/on``) for a temporary directory the facade
    creates and removes again, or the absolute directory the stores persist
    under.  ``service`` (``REPRO_SERVICE``) routes facade queries through an
    ambient :class:`~repro.service.QueryService`.
    """

    parallelism: int = 1
    durable: bool | str = False
    service: bool = False

    @classmethod
    def from_env(cls) -> "Settings":
        """Read and check every ``REPRO_*`` variable; raise on a bad value."""
        switch = "1/true/yes/on or 0/false/no/off"
        return cls(
            parallelism=_read("REPRO_PARALLELISM", _width, "an integer >= 1"),
            durable=_read("REPRO_DURABLE", _durable, f"{switch} or an absolute path"),
            service=_read("REPRO_SERVICE", lambda raw: _SWITCH.get(raw.lower()), switch),
        )
