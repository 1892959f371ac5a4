"""Update-aware, model-based GUI test generation over a simulated app platform."""

from importlib import resources
from pathlib import Path

from .model import (  # noqa: F401
    AppModel,
    ModelError,
    deserialize_model,
    serialize_model,
    validate_integrity,
)

__version__ = "0.1.0"


def fixture_path(name: str) -> Path:
    """Path of a bundled example app spec (e.g. ``diary``, ``dialog``)."""
    path = resources.files("uptest") / "fixtures" / f"{name}.json"
    return Path(str(path))
