"""Engine tunables, read from an optional JSON config file.

Keys the file sets replace the defaults; unknown keys and similarity
thresholds outside [0, 1] are rejected with ``ConfigError``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Union


DEFAULT_TEXT_DICTIONARY = ("hello", "42", "lorem ipsum", "test@example.com", "")

_THRESHOLDS = (
    "string_similarity_threshold",
    "xpath_similarity_threshold",
    "layout_similarity_threshold",
)


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
        for name in _THRESHOLDS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0 <= value <= 1:
                raise ConfigError(f"{name} must be a number in [0, 1], got {value!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["phase_caps"] = list(self.phase_caps)
        d["text_dictionary"] = list(self.text_dictionary)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EngineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        if "phase_caps" in kwargs:
            kwargs["phase_caps"] = tuple(kwargs["phase_caps"])
        if "text_dictionary" in kwargs:
            kwargs["text_dictionary"] = tuple(kwargs["text_dictionary"])
        return cls(**kwargs)


def load_config(path: Union[str, Path]) -> EngineConfig:
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise ConfigError(f"config {path} is not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return EngineConfig.from_dict(doc)
