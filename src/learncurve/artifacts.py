"""File formats and run artifacts.

Measurements travel as CSV (trainer-agnostic, appendable), computed
results as JSON with canonical serialization (sorted keys, shortest
round-trip floats) so identical inputs reproduce identical bytes.  Every
JSON artifact carries one envelope: content digests of its input files,
a full parameter echo, schema and tool versions, and a timestamp
quarantined in the single ``created_at`` field, which digests and
reproducibility comparisons exclude.
"""

from __future__ import annotations

import datetime
import errno
import hashlib
import json
import os
import re
import stat
from dataclasses import dataclass, fields
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterator

from .errors import DataError, ToolkitError
from .fitting import PowerLawFit, RegionSegmentation
from .manifest import RecordColumns, SubsetManifest
from .model import Measurement, MeasurementSet
from .planning import NoiseImpactReport

MEASUREMENT_HEADER = "metric,n,replicate,value"
IMAGES_HEADER = "image_id,class,capture_group"
# Version of the JSON layout written here; files without the key predate it.
SCHEMA_VERSION = 1
# A created_at entry as dumps_canonical writes it, at any depth.
CREATED_AT = re.compile(rb'"created_at": "[^"]*"')


def utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _digest(data: bytes) -> str:
    return hashlib.sha256(CREATED_AT.sub(b"", data)).hexdigest()


def sha256_path(path: str | Path) -> str:
    """SHA-256 of a file without its ``created_at`` entries, so an artifact
    derived from a rerun of the same command gets the same digest."""
    return _digest(read_file(path, text=False))


@dataclass(frozen=True)
class InputFile:
    """An input file read once: its UTF-8 text and the digest of the same
    bytes (as :func:`sha256_path` computes it).  Every reader here accepts
    it in place of a path, so what is parsed is what is digested."""

    path: str
    text: str
    digest: str

    @classmethod
    def read(cls, path: str | Path) -> "InputFile":
        data = read_file(path, text=False)
        return cls(str(path), _decode(data, Path(path)), _digest(data))

    def __str__(self) -> str:  # messages name the file
        return self.path


def format_float(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def read_file(path: str | Path | InputFile, text: bool = True) -> str | bytes:
    """A file's contents, decoded as UTF-8 when ``text``; any failure to
    read or decode it is a DataError naming the file.  An InputFile gives
    its text without another read."""
    if isinstance(path, InputFile):
        return path.text
    p = Path(path)
    try:
        data = p.read_bytes()
    except FileNotFoundError:
        raise DataError(f"no such file: {p}") from None
    except OSError as exc:
        raise DataError(f"cannot read {p}: {exc.strerror or exc}") from None
    return _decode(data, p) if text else data


def _decode(data: bytes, path: str | Path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def write_files(*files: tuple[str | Path, str]) -> None:
    """Write ``(path, text)`` pairs as UTF-8, each replacing its target atomically.

    Every text goes in full to a temporary sibling first; then one
    ``os.replace`` per file puts it in place.  A failure before the renames
    leaves every target as it was, one on a later rename leaves the earlier
    targets replaced; no temporary is left behind.  Any failure is a DataError.

    As with a plain write, a symlink is written through (its target file is
    replaced), an existing file keeps its permission bits, a new one gets
    the umask default, and a file the caller may not write is refused.
    """
    temps: list[Path] = []
    try:
        for path, text in files:
            target = Path(os.path.realpath(path))
            if target.exists() and not os.access(target, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            temps.append(target.parent / f".{target.name}.{os.getpid()}.tmp")
            temps[-1].write_text(text, encoding="utf-8")
            if target.is_file():
                os.chmod(temps[-1], stat.S_IMODE(target.stat().st_mode))
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, os.path.realpath(path))
    except (OSError, UnicodeEncodeError) as exc:
        raise DataError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}") from None
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def write_json(obj: Any, path: str | Path) -> None:
    write_files((path, dumps_canonical(obj)))


def load_json(path: str | Path) -> Any:
    try:
        return json.loads(read_file(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None


def envelope(kind: str, body: dict, inputs: dict, params: dict, created_at: str | None = None) -> dict:
    """An artifact's JSON document: ``body``, the ``inputs`` digests under
    their own keys (``input_digest``, ...), and the shared provenance."""
    from . import __version__

    return {
        **body,
        **inputs,
        "kind": kind,
        "params": dict(params),
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "created_at": created_at if created_at is not None else utc_now(),
    }


def load_artifact(path: str | Path, kind: str) -> Any:
    """Decode the JSON artifact of the given kind at ``path``.

    Any other kind, a schema newer than ``SCHEMA_VERSION`` or malformed
    content raises a DataError naming the file.
    """
    doc = load_json(path)
    found = doc.get("kind") if isinstance(doc, dict) else None
    if found != kind:
        what = f"kind={found!r}" if isinstance(doc, dict) else f"a JSON {type(doc).__name__}"
        hint = "; a --method both file holds two fits, pick one" if found == "fit_pair" else ""
        raise DataError(f"{path}: expected a {kind} artifact (kind={kind!r}), got {what}{hint}")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or version > SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported schema_version {version!r}, this learncurve reads up to {SCHEMA_VERSION}")
    try:
        return _DECODERS[kind](doc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError, ToolkitError) as exc:
        raise DataError(f"{path}: malformed {kind} artifact ({type(exc).__name__}: {exc})") from None


# ---------------------------------------------------------------------------
# Measurement CSV
# ---------------------------------------------------------------------------


def _csv_rows(path: str | Path, header: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank row under an exact header."""
    lines = read_file(path).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[0] != header:
        raise DataError(f"{path}:1: header must be exactly {header!r}, got {lines[0]!r}")
    width = header.count(",") + 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise DataError(f"{path}:{lineno}: expected {width} columns, got {len(cells)}")
        yield lineno, cells


def read_measurements(path: str | Path) -> MeasurementSet:
    """Parse a measurement CSV with line-precise diagnostics.

    The header must be exactly ``metric,n,replicate,value``; a row with the
    wrong column count, a malformed number or a broken MeasurementSet rule
    is rejected with its line number.  Blank lines are ignored.
    """
    points: list[Measurement] = []
    linenos: list[int] = []
    for lineno, (metric, n_s, r_s, v_s) in _csv_rows(path, MEASUREMENT_HEADER):
        try:
            n, r = int(n_s), int(r_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: n and replicate must be integers") from None
        try:
            v = float(v_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: value {v_s!r} is not a number") from None
        points.append(Measurement(metric, n, r, v))
        linenos.append(lineno)
    try:
        return MeasurementSet(tuple(points))
    except ToolkitError as exc:
        raise DataError(f"{path}:{linenos[exc.index]}: {exc}") from None


def measurements_to_csv(ms: MeasurementSet) -> str:
    lines = [MEASUREMENT_HEADER]
    for pt in sorted(ms.points):
        lines.append(f"{pt.metric},{pt.n},{pt.replicate},{format_float(pt.value)}")
    return "\n".join(lines) + "\n"


def write_measurements(ms: MeasurementSet, path: str | Path) -> None:
    write_files((path, measurements_to_csv(ms)))


def read_images(path: str | Path) -> list[tuple[str, str, str | None]]:
    """Parse an image-pool CSV: header ``image_id,class,capture_group``."""
    rows: list[tuple[str, str, str | None]] = []
    for lineno, (image_id, class_name, group) in _csv_rows(path, IMAGES_HEADER):
        if not image_id or not class_name:
            raise DataError(f"{path}:{lineno}: image_id and class must be non-empty")
        rows.append((image_id, class_name, group or None))
    return rows


# ---------------------------------------------------------------------------
# Fit artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class FitArtifact(PowerLawFit):
    """A fit plus everything needed to audit and reproduce it."""

    metric: str
    input_digest: str
    params: dict
    created_at: str

    @classmethod
    def from_fit(
        cls, fit: PowerLawFit, metric: str, input_digest: str, params: dict, created_at: str | None = None
    ) -> "FitArtifact":
        return cls(
            **_fit_fields(fit),
            metric=metric,
            input_digest=input_digest,
            params=dict(params),
            created_at=created_at if created_at is not None else utc_now(),
        )

    def fit(self) -> PowerLawFit:
        return PowerLawFit(**_fit_fields(self))

    def to_dict(self) -> dict:
        body = {k: list(v) if isinstance(v, tuple) else v for k, v in _fit_fields(self).items()}
        body["metric"] = self.metric
        return envelope("fit", body, {"input_digest": self.input_digest}, self.params, self.created_at)

    @classmethod
    def from_dict(cls, d: dict) -> "FitArtifact":
        return cls(
            alpha=float(d["alpha"]),
            c=float(d["c"]),
            method=str(d["method"]),
            n_range=(int(d["n_range"][0]), int(d["n_range"][1])),
            rss=float(d["rss"]),
            r_squared=None if d["r_squared"] is None else float(d["r_squared"]),
            ci_alpha=None if d["ci_alpha"] is None else (float(d["ci_alpha"][0]), float(d["ci_alpha"][1])),
            iterations=None if d.get("iterations") is None else int(d["iterations"]),
            metric=d["metric"],
            input_digest=d["input_digest"],
            created_at=d["created_at"],
            params=dict(d.get("params", {})),
        )


def _fit_fields(fit: PowerLawFit) -> dict:
    return {f.name: getattr(fit, f.name) for f in fields(PowerLawFit)}


def load_fit_artifact(path: str | Path) -> FitArtifact:
    return load_artifact(path, "fit")


# ---------------------------------------------------------------------------
# Region / noise-impact artifacts
# ---------------------------------------------------------------------------


def region_to_dict(
    region: RegionSegmentation, metric: str, input_digest: str, params: dict, created_at: str | None = None
) -> dict:
    body = {
        "metric": metric,
        "n_start_power_law": region.n_start_power_law,
        "n_end_power_law": region.n_end_power_law,
        "diagnostics": [
            {"candidate_n": n, "r_squared": r2}
            for n, r2 in sorted(region.diagnostics.items())
        ],
    }
    return envelope("region", body, {"input_digest": input_digest}, params, created_at)


def region_from_dict(d: dict) -> RegionSegmentation:
    return RegionSegmentation(
        n_start_power_law=int(d["n_start_power_law"]),
        n_end_power_law=None if d["n_end_power_law"] is None else int(d["n_end_power_law"]),
        diagnostics={int(e["candidate_n"]): e["r_squared"] for e in d.get("diagnostics", [])},
    )


def noise_impact_to_dict(
    report: NoiseImpactReport, clean_digest: str, noisy_digest: str, params: dict, created_at: str | None = None
) -> dict:
    body = {
        "delta_alpha": report.delta_alpha,
        "multipliers": [
            {"target_loss": t, "multiplier": m} for t, m in report.multipliers
        ],
    }
    inputs = {"clean_digest": clean_digest, "noisy_digest": noisy_digest}
    return envelope("noise_impact", body, inputs, params, created_at)


# ---------------------------------------------------------------------------
# Manifest JSON
# ---------------------------------------------------------------------------


def _manifest_doc(m: SubsetManifest, input_digest: str | None, params: dict | None, records: list) -> dict:
    body = {
        "classes": list(m.classes),
        "per_class_pool": m.per_class_pool,
        "sizes": list(m.sizes),
        "seed": m.seed,
        "diagnostics": dict(m.diagnostics),
        "records": records,
    }
    return envelope("manifest", body, {"input_digest": input_digest}, params or {})


def _record_fields(m: SubsetManifest, ids, labels) -> Iterator[tuple]:
    """Each image's record fields in sorted-key order, class then rank order."""
    recs = m.records
    for image_id, t, a, rank in zip(ids, recs.labels().tolist(), recs.assigned.tolist(), recs.ranks().tolist()):
        yield labels[a], rank, image_id, a != t, labels[t]


def manifest_to_dict(m: SubsetManifest, input_digest: str | None = None, params: dict | None = None) -> dict:
    keys = ("assigned_label", "class_rank", "image_id", "noise_flag", "true_label")
    records = [dict(zip(keys, fields)) for fields in _record_fields(m, m.records.ids, m.classes)]
    return _manifest_doc(m, input_digest, params, records)


def manifest_from_dict(d: dict) -> SubsetManifest:
    return SubsetManifest(
        classes=tuple(d["classes"]),
        per_class_pool=int(d["per_class_pool"]),
        sizes=tuple(int(s) for s in d["sizes"]),
        seed=int(d["seed"]),
        records=RecordColumns(
            [r["image_id"] for r in d["records"]],
            [r["true_label"] for r in d["records"]],
            [r["assigned_label"] for r in d["records"]],
            [bool(r["noise_flag"]) for r in d["records"]],
            [int(r["class_rank"]) for r in d["records"]],
        ),
        diagnostics={str(k): int(v) for k, v in d.get("diagnostics", {}).items()},
    )


# One record as dumps_canonical lays it out inside a manifest's records list.
_RECORD = (
    '    {\n      "assigned_label": %s,\n      "class_rank": %d,\n      "image_id": %s,\n'
    '      "noise_flag": %s,\n      "true_label": %s\n    }'
)


def write_manifest(
    m: SubsetManifest, path: str | Path, input_digest: str | None = None, params: dict | None = None
) -> None:
    """Write ``dumps_canonical(manifest_to_dict(m, input_digest, params))``,
    formatting the records straight from the manifest's columns."""
    try:
        ids, labels = list(map(encode_basestring, m.records.ids)), list(map(encode_basestring, m.classes))
    except TypeError:  # a non-string id or class: json lays it out
        return write_json(manifest_to_dict(m, input_digest, params), path)
    block = ",\n".join([_RECORD % (a, r, i, "true" if f else "false", t) for a, r, i, f, t in _record_fields(m, ids, labels)])
    text = dumps_canonical(_manifest_doc(m, input_digest, params, []))
    write_files((path, text.replace('\n  "records": []', '\n  "records": [\n' + block + "\n  ]", 1)))


def read_manifest(path: str | Path) -> SubsetManifest:
    return load_artifact(path, "manifest")


_DECODERS = {"fit": FitArtifact.from_dict, "region": region_from_dict, "manifest": manifest_from_dict}
