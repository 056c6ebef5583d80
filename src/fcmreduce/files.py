"""Every read and write of a work-directory file.

Stage files are UTF-8 text. A reader turns a missing, unreadable (a
directory, say), undecodable or malformed file into ConfigError (CLI exit
1): read_text is the one reader of a file's text, and json_errors the one
mapping of a JSON decode failure. read_csv is the one CSV row parser: it
checks the header and each row's field count, and applies the field types
that the owning module declares next to its header, a number type only to
plain ASCII text (the rule of errors). Each format's semantic checks
(ranges, duplicates, run indices) stay with the module that owns the
format. A writer writes `<path>.tmp` and then replaces the target, so a
failed write leaves the previous file intact.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import contextmanager, suppress

from .errors import ConfigError, number_text


@contextmanager
def writing(path):
    """Yield a UTF-8 text handle whose content replaces `path` on success."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header: list, rows) -> None:
    with writing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, value) -> None:
    with writing(path) as fh:
        json.dump(value, fh, indent=2, sort_keys=True)


def read_text(path, what: str) -> str:
    """The whole UTF-8 text of a `what` file. The file is decoded before a
    caller parses any of it, so a byte that is not UTF-8 is reported as such
    rather than as a parse error before it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{what} file {path} cannot be read: {exc}") from exc


def read_csv(path, header: list, what: str, types: tuple):
    """Yield the non-blank rows of a CSV file whose first row is `header`,
    each with exactly the header's fields and field k converted by
    `types[k]`."""
    reader = csv.reader(io.StringIO(read_text(path, what), newline=""))
    try:
        found = next(reader, None)
        if found != header:
            raise ConfigError(f"unexpected {what} header {found!r} in {path}")
        for row in filter(None, reader):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, expected {len(header)}")
                yield [kind(f if kind is str else number_text(f)) for kind, f in zip(types, row)]
            except ValueError as exc:
                raise ConfigError(f"malformed {what} row {row!r} in {path}: {exc}") from exc
    except csv.Error as exc:
        raise ConfigError(f"{what} file {path} is not valid CSV: {exc}") from exc


@contextmanager
def json_errors(path, what: str):
    """Turn a failure to decode `path` as JSON into ConfigError."""
    try:
        yield
    except (json.JSONDecodeError, RecursionError) as exc:
        # json raises RecursionError on arrays or objects nested too deeply
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc


def read_json(path, what: str):
    text = read_text(path, what)
    with json_errors(path, what):
        return json.loads(text)
