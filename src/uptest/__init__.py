"""Update-aware, model-based GUI test generation over a simulated app platform."""

from pathlib import Path

from .model import (  # noqa: F401
    AppModel,
    ModelError,
    deserialize_model,
    serialize_model,
    validate_integrity,
)

__version__ = "0.1.0"

_FIXTURES = Path(__file__).with_name("fixtures")


def fixture_path(name: str) -> Path:
    """Path of a bundled example app spec (e.g. ``diary``, ``dialog``).

    The specs ship as files in the package's ``fixtures`` directory, next to
    this module, so the package must be installed on disk, not in a zip.
    """
    return _FIXTURES / f"{name}.json"
