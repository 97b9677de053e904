"""Canonical JSON: the one spelling every campaign, artifact and trace uses."""

import json


def canonical_json(value) -> str:
    """Byte-deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
