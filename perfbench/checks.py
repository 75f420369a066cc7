"""Output checks: every served or batch report against an in-process reference.

Extraction runs in float32 and the server coalesces concurrent requests into
one forward pass, so a case's probe values can move by about 1e-7 with the
company it was batched with.  Floats are therefore compared to ``FLOAT_TOL``
(absolute); integers, strings and the dominant defect must match exactly.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.wire import get_codec

FLOAT_TOL = 1e-6


def differences(served: object, reference: object, path: str = "") -> List[str]:
    """Where ``served`` and ``reference`` disagree beyond the tolerance."""
    if isinstance(reference, dict):
        if not isinstance(served, dict) or set(served) != set(reference):
            return [f"{path or '/'}: keys {sorted(served) if isinstance(served, dict) else served!r}"
                    f" != {sorted(reference)}"]
        out: List[str] = []
        for key in reference:
            out.extend(differences(served[key], reference[key], f"{path}/{key}"))
        return out
    if isinstance(reference, bool) or isinstance(served, bool):
        return [] if served == reference else [f"{path}: {served!r} != {reference!r}"]
    if isinstance(reference, float) or isinstance(served, float):
        if isinstance(served, (int, float)) and abs(float(served) - float(reference)) <= FLOAT_TOL:
            return []
        return [f"{path}: {served!r} != {reference!r}"]
    return [] if served == reference else [f"{path}: {served!r} != {reference!r}"]


def served_document(body: bytes, codec: str) -> Dict:
    """The v1 report document of a served response body."""
    if codec == "json":
        return json.loads(body)
    return get_codec(codec).decode_report(body).to_dict()

