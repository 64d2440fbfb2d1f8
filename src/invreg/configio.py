"""Flat key=value configs, CSV files and run manifests.

Configs are INI sections of scalar keys, archivable and diffable.  CSVs
carry a header row and one text per cell (``cell``), so identical runs
produce identical bytes.  A command's ``RunManifest`` owns its output
directory and writes every file in it.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
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


def cell(v) -> str:
    """The text of one CSV cell: a float (Python or numpy) as its repr, NaN
    as the NA marker, a flag as 0/1, anything else as str."""
    if type(v) is float:
        return repr(v) if v == v else "NA"
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return cell(float(v))
    return str(v)


# Rows of a float array that ``write_csv`` turns into Python floats at a time.
WRITE_BLOCK_ROWS = 256


def _is_float_block(rows) -> bool:
    return isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64


def write_csv(path: str, header, rows, comments=()) -> None:
    """Comment lines, the header, then the rows.

    ``rows`` is a 2-D float array or an iterable of rows, each a sequence of
    values or a 2-D float array standing for its own rows (a row block).  A
    float array is written row by row as float reprs, NaN as NA (the rule of
    ``cell``), WRITE_BLOCK_ROWS rows at a time, so the bytes depend neither
    on that size nor on how the rows are cut into blocks; any other row goes
    value by value through ``cell``.
    """
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in [rows] if _is_float_block(rows) else rows:
            if not _is_float_block(row):
                writer.writerow(map(cell, row))
                continue
            for lo in range(0, row.shape[0], WRITE_BLOCK_ROWS):
                block = row[lo:lo + WRITE_BLOCK_ROWS]
                has_nan = np.isnan(block).any(axis=1).tolist()
                fh.writelines(",".join(map(cell if nan else repr, values)) + "\r\n"
                              for values, nan in zip(block.tolist(), has_nan))


def _parse_field(token: str) -> float:
    """A CSV number as ``np.loadtxt`` reads it: ASCII, no ``_`` separators,
    finite."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a plain decimal token {token!r}")
    return _parse(float, token)


def _split_header(fh):
    """(header, lines) of the open CSV ``fh``: the first row of the lines
    that are neither comments nor empty (None if there is none) and an
    iterator over those below it.  ``np.loadtxt`` skips empty lines too."""
    lines = (line for line in fh
             if line.strip("\r\n") and not line.lstrip().startswith("#"))
    first = next((row for row in csv.reader(lines) if row), None)
    return first, lines


def _bad_body(path: str, header: list[str], reason) -> DataError:
    """The error for a body that failed the fast parse: it reads the file
    again and cites the first row with a wrong field count or a token that
    is not a finite number (the header is row 1; comment and blank lines are
    not counted), else states ``reason``."""
    with open(path, newline="") as fh:
        _, lines = _split_header(fh)
        rows = (row for row in csv.reader(lines) if row)
        for i, row in enumerate(rows, start=2):
            if len(row) != len(header):
                return DataError(f"{path}: row {i} has {len(row)} fields, "
                                 f"expected {len(header)}")
            for h, tok in zip(header, row):
                try:
                    _parse_field(tok)
                except ValueError:
                    return DataError(f"{path}: row {i}: cannot parse {tok!r} "
                                     f"in column {h} as a finite number")
    return DataError(f"{path}: {reason}")


@contextlib.contextmanager
def open_table(path: str, expect: list[str] | None = None):
    """Open a numeric CSV to read its body in row blocks: yields
    ``(header, take)``, where ``take(k)`` parses the next k body rows (all
    that are left for k None) into a float array of len(header) columns,
    with fewer rows at the end of the body and none after it.

    Lines whose first non-blank character is ``#`` are comments; the first
    other non-empty line is the header.  Each block streams through one
    ``np.loadtxt``; only when that fails, or finds a value that is not
    finite, is the file read again to cite its first bad row.  A body
    without rows is a DataError too, and so is a file that cannot be read
    or decoded.
    """
    try:
        with open(path, newline="") as fh:
            first, lines = _split_header(fh)
            if first is None:
                raise DataError(f"{path}: empty file")
            header = [h.strip() for h in first]
            repeated = sorted({h for h in header if header.count(h) > 1})
            if repeated:
                raise DataError(f"{path}: repeated column names {repeated}")
            if expect is not None:
                missing = [c for c in expect if c not in header]
                if missing:
                    raise DataError(f"{path}: missing columns {missing}, "
                                    f"have {header}")
            # np.loadtxt warns on an empty body, so the first row is found here
            row = next(lines, None)
            if row is None:
                raise DataError(f"{path}: no data rows below the header")
            lines = itertools.chain([row], lines)

            def take(k: int | None = None) -> np.ndarray:
                body = lines if k is None else itertools.islice(lines, k)
                row = next(body, None)
                if row is None:
                    return np.empty((0, len(header)))
                try:
                    values = np.loadtxt(itertools.chain([row], body), delimiter=",",
                                        quotechar='"', comments=None, ndmin=2)
                except UnicodeDecodeError:   # a ValueError, but a fault of the bytes
                    raise
                except ValueError as exc:
                    raise _bad_body(path, header, exc)
                if values.shape[1] != len(header) or not np.isfinite(values).all():
                    raise _bad_body(path, header, "width or finiteness check failed")
                return values

            yield header, take
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}")


def read_csv_columns(path: str, expect: list[str] | None = None):
    """Read a numeric CSV into {column: ndarray}; cites the failing row (see
    ``open_table``)."""
    with open_table(path, expect) as (header, take):
        values = take()
    # one contiguous array per column, so that products on a column take
    # the same BLAS path whatever the width of the file
    return dict(zip(header, np.ascontiguousarray(values.T)))


# ---------------------------------------------------------------------------
# run manifests


ARTIFACT_VERSION = "0.1.0"


@dataclass
class RunManifest:
    """Reproducibility record of one command, and the writer of its outputs.

    ``start`` creates ``out_dir``; ``csv`` and ``text`` write a file into
    it and record its name; ``finish`` writes the record as manifest.json.
    """

    command: str
    config: dict
    seed: int | None
    out_dir: str
    version: str = ARTIFACT_VERSION
    started: str = ""
    finished: str = ""
    outputs: list[str] = field(default_factory=list)

    def start(self):
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.out_dir}: {exc}")
        self.started = datetime.now(timezone.utc).isoformat()
        return self

    def _write(self, name: str, write) -> str:
        """Call ``write(path)`` for the file ``name`` in the output directory;
        a file that cannot be written there is a config error."""
        path = os.path.join(self.out_dir, name)
        try:
            write(path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}")
        return path

    def csv(self, name: str, header, rows, comments=()) -> None:
        self.outputs.append(name)
        self._write(name, lambda path: write_csv(path, header, rows, comments))

    def text(self, name: str, text: str) -> None:
        self.outputs.append(name)
        self._write(name, lambda path: Path(path).write_text(text))

    def finish(self) -> str:
        self.finished = datetime.now(timezone.utc).isoformat()
        record = json.dumps({
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "started": self.started,
            "finished": self.finished,
            "outputs": sorted(self.outputs),
        }, indent=2, sort_keys=True) + "\n"
        return self._write("manifest.json", lambda path: Path(path).write_text(record))


def config_echo(cp) -> dict:
    return {s: dict(cp.items(s)) for s in cp.sections()}
