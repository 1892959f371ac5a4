"""Engine tunables, read from an optional JSON config file.

Keys the file sets replace the defaults; unknown keys and values of the
wrong type or out of range are rejected with ``ConfigError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Union


DEFAULT_TEXT_DICTIONARY = ("hello", "42", "lorem ipsum", "test@example.com", "")

_FRACTIONS = (
    "string_similarity_threshold",
    "xpath_similarity_threshold",
    "layout_similarity_threshold",
    "default_meta_probability",
)
_COUNTS = ("retrigger_cap", "max_plan_length")


class ConfigError(ValueError):
    """A config document or value the engine cannot use."""


@dataclass
class EngineConfig:
    # similarity thresholds
    string_similarity_threshold: float = 0.4
    xpath_similarity_threshold: float = 0.4
    layout_similarity_threshold: float = 0.8
    # phase budget split (fractions of the total action budget)
    phase_caps: tuple[float, float, float] = (0.5, 0.3, 0.2)
    # stop re-triggering an input after this many tries without coverage gain
    retrigger_cap: int = 3
    # planner
    default_meta_probability: float = 0.5
    max_plan_length: int = 8
    # text payloads tried for TextFill inputs
    text_dictionary: tuple[str, ...] = DEFAULT_TEXT_DICTIONARY

    def __post_init__(self) -> None:
        for name in _FRACTIONS:
            value = getattr(self, name)
            if not _is_fraction(value):
                raise ConfigError(f"{name} must be a number in [0, 1], got {value!r}")
        for name in _COUNTS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        caps = self.phase_caps
        if not (
            isinstance(caps, tuple)
            and len(caps) == 3
            and all(_is_fraction(c) for c in caps)
            and sum(caps) <= 1
        ):
            raise ConfigError(
                f"phase_caps must be three numbers in [0, 1] summing to at most 1, got {caps!r}"
            )
        words = self.text_dictionary
        if not (isinstance(words, tuple) and words and all(isinstance(t, str) for t in words)):
            raise ConfigError(f"text_dictionary must be a non-empty list of strings, got {words!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "EngineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        for name in ("phase_caps", "text_dictionary"):
            if isinstance(kwargs.get(name), list):
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


def _is_fraction(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value <= 1


def load_config(path: Union[str, Path]) -> EngineConfig:
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise ConfigError(f"config {path} is not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return EngineConfig.from_dict(doc)
