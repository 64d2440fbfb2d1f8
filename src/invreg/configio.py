"""Flat key=value configs, CSV files and run manifests.

Configs are INI sections of scalar keys, archivable and diffable.  CSVs
carry a header row, period decimal separator and repr-round-trip floats,
so identical runs produce identical bytes.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import InvregError


class ConfigError(InvregError):
    """Bad or missing configuration value."""


class DataError(InvregError):
    """Bad or missing data file content."""


def load_config(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    return cp


def _parse(kind, token: str):
    """kind(token); a float must be finite (``nan`` and ``inf`` raise ValueError)."""
    value = kind(token)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def cfg_value(cp, section: str, key: str, kind=str, default=None, required=False):
    """Typed lookup with uniform error reporting."""
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    raw = cp.get(section, key).strip()
    try:
        if kind is bool:
            return raw.lower() in ("1", "true", "yes", "on")
        return _parse(kind, raw)
    except ValueError:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}")


def cfg_list(cp, section: str, key: str, kind=float, default=None, required=False):
    raw = cfg_value(cp, section, key, str, None, required)
    if raw is None:
        return default
    try:
        return [_parse(kind, tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"bad list for [{section}] {key}: {raw!r}")


# ---------------------------------------------------------------------------
# CSV


def write_csv(path: str, header, rows, comments=()) -> None:
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_columns(path: str, expect: list[str] | None = None):
    """Read a numeric CSV into {column: ndarray}; cites the failing row."""
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise DataError(f"data file not found: {path}")
    with fh:
        rows = [r for r in csv.reader(fh)
                if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if expect is not None:
        missing = [c for c in expect if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing}, have {header}")
    cols = {h: [] for h in header}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i} has {len(row)} fields, "
                            f"expected {len(header)}")
        for h, tok in zip(header, row):
            try:
                cols[h].append(_parse(float, tok))
            except ValueError:
                raise DataError(f"{path}: row {i}: cannot parse {tok!r} "
                                f"in column {h} as a finite number")
    return {h: np.array(v) for h, v in cols.items()}


def read_matrix_csv(path: str) -> np.ndarray:
    """Numeric matrix CSV (header row, one grid point per row)."""
    cols = read_csv_columns(path)
    return np.column_stack(list(cols.values()))


def fmt(v) -> str:
    """Round-trip float formatting; NaN prints as the NA marker."""
    if isinstance(v, float):
        if v != v:
            return "NA"
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# run manifests


ARTIFACT_VERSION = "0.1.0"


@dataclass
class RunManifest:
    """Reproducibility record written next to every command's outputs."""

    command: str
    config: dict
    seed: int | None
    version: str = ARTIFACT_VERSION
    started: str = ""
    finished: str = ""
    outputs: list[str] = field(default_factory=list)

    def start(self):
        self.started = datetime.now(timezone.utc).isoformat()
        return self

    def finish(self, out_dir: str, path: str = "manifest.json") -> str:
        self.finished = datetime.now(timezone.utc).isoformat()
        target = os.path.join(out_dir, path)
        with open(target, "w") as fh:
            json.dump({
                "command": self.command,
                "config": self.config,
                "seed": self.seed,
                "version": self.version,
                "started": self.started,
                "finished": self.finished,
                "outputs": sorted(self.outputs),
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return target

    def add(self, path: str) -> str:
        self.outputs.append(os.path.basename(path))
        return path


def config_echo(cp) -> dict:
    return {s: dict(cp.items(s)) for s in cp.sections()}
