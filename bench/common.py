"""Helpers shared by the workloads: input derivation and output checks.

Standard library only, so the ``cli`` workload process never loads numpy
itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET

METRIC = "top1_error"
PAPER_SIZES = (900, 1800, 3600, 9000, 22500, 45000, 90000)
N_CLASSES = 9
TRUE_ALPHA = -0.62
# Relative measurement noise used by every synthetic curve.
SIGMA = 0.05
# |alpha - truth| allowed on a fitted exponent (the release criterion's worst case).
ALPHA_TOL = 0.06
# Relative slack when comparing two routes to the same float quantity.
REL_TOL = 1e-9


def derive(seed: int, op: int, label: str) -> int:
    """Non-negative 31-bit integer that depends only on (seed, op, label)."""
    digest = hashlib.blake2b(f"{seed}:{op}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 33


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def svg_problems(text: str, markers: int) -> list[str]:
    """The SVG must parse and carry one data marker per distinct N."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    found = sum(1 for el in root.iter() if el.get("class") == "marker")
    if found != markers:
        return [f"SVG has {found} data markers, expected {markers}"]
    return []


def scrub_created_at(text: str) -> str:
    """JSON text with every ``created_at`` field removed, canonically dumped."""

    def strip(node):
        if isinstance(node, dict):
            node.pop("created_at", None)
            for value in node.values():
                strip(value)
        elif isinstance(node, list):
            for value in node:
                strip(value)

    doc = json.loads(text)
    strip(doc)
    return json.dumps(doc, sort_keys=True)


def planning_problems(alpha: float, c: float, n_hi: int, at_n: int, pred_value: float,
                      pred_extrapolated: bool, target: float, needed: int) -> list[str]:
    """Closed-form checks of ``extrapolate`` and ``required_sample_size``."""
    problems = []
    if not close(pred_value, c * float(at_n) ** alpha):
        problems.append(f"extrapolate({at_n}) = {pred_value}, closed form {c * at_n ** alpha}")
    if pred_extrapolated != (at_n > n_hi):
        problems.append(f"extrapolate({at_n}) marks extrapolated={pred_extrapolated}")
    if c * float(needed) ** alpha > target * (1 + REL_TOL):
        problems.append(f"required_sample_size {needed} misses target {target}")
    if needed > 1 and c * float(needed - 1) ** alpha <= target * (1 - REL_TOL):
        problems.append(f"required_sample_size {needed} is not the smallest N for {target}")
    return problems
