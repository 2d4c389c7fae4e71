"""Deterministic file emission: CSV data tables and JSON run summaries.

Every command writes its numeric tables as CSV (header row, '.' decimal
separator, ``\\n`` line endings, 17 significant digits for reals) plus a
JSON summary embedding the exact run configuration, the code version, and
per-estimate seed provenance.  All formatting choices here exist so that a
rerun with an identical configuration and seed re-emits byte-identical
files; nothing environment-dependent (timestamps, absolute paths, locale)
ever reaches the output.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._version import VERSION

__all__ = [
    "VERSION",
    "format_cell",
    "write_csv",
    "json_ready",
    "optional_infinite",
    "write_summary",
]


def format_cell(value) -> str:
    """Render one CSV cell.

    Reals use 17 significant digits (lossless double round-trip), booleans
    become 0/1, ``None`` becomes the empty cell.  Strings must not need
    quoting; this module never emits quoted cells, so a comma, quote, or
    newline in a value is refused rather than silently mangled.
    """
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    text = str(value)
    if any(c in text for c in ',"\n\r'):
        raise ValueError(f"CSV cell would need quoting, refusing: {text!r}")
    return text


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Stream a CSV table, ``\\n``-terminated, to a temporary file that becomes ``path`` when whole."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="ascii", newline="") as out:
            out.write(",".join(header) + "\n")
            for row in rows:
                cells = [format_cell(c) for c in row]
                if len(cells) != len(header):
                    raise ValueError(f"row width {len(cells)} does not match header width {len(header)}")
                out.write(",".join(cells) + "\n")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return tmp.replace(path)


def json_ready(obj):
    """Recursively convert dataclasses / numpy values to JSON-serializable form.

    A float +inf (a deviation over a zero standard error, say) becomes the
    tagged :func:`optional_infinite` encoding; NaN and -inf stay floats and
    are rejected downstream (``allow_nan=False``).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: json_ready(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return optional_infinite(None) if obj == math.inf else float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a run summary")


def optional_infinite(value: float | None) -> dict:
    """Tagged encoding of a possibly-unbounded quantity.

    ``None`` or +inf means "no finite value exists" and is encoded
    explicitly; a floating infinity never appears in any output file.
    """
    if value is None or value == math.inf:
        return {"value": None, "infinite": True}
    return {"value": float(value), "infinite": False}


def write_summary(
    path,
    *,
    command: str,
    config: Mapping,
    results,
    passed: bool,
    seeds: Mapping | None = None,
) -> Path:
    """Write the JSON run summary: command, config, version, results, verdict."""
    payload = {
        "command": command,
        "version": VERSION,
        "config": json_ready(config),
        "results": json_ready(results),
        "passed": bool(passed),
    }
    if seeds is not None:
        payload["seeds"] = json_ready(seeds)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path = Path(path)
    path.write_bytes(text.encode("ascii"))
    return path
