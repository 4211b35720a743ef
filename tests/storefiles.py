"""File-level access to an ``fs`` store's segments, for tests and CI.

The store API never says where a record lives.  Tests that damage,
remove or inspect stored records at the file level go through these
helpers instead, which read the segment layout that
:mod:`repro.perf.store` documents (a header line listing the keys, then
one record line per key; the newest segment naming a key wins).

Run as a script, it prints a store's canonical per-key dump, produced
through the store API: every readable record, then every failure
record, each as ``json.dumps(..., sort_keys=True)`` — the exact text
the store writes — sorted by key::

    PYTHONPATH=src python tests/storefiles.py STORE_LOCATOR > dump.txt

Two stores hold the same records and failures iff their dumps are
byte-identical, however their segments happen to be cut.  A store with
neither (or no store at all) is an error, not an empty dump.
"""

import json
import os
import sys
import time
from pathlib import Path

from repro.perf.store import SEGMENT_SUFFIX


def _directory(store):
    return Path(getattr(store, "directory", store))


def segments(store):
    """Segment paths of ``store`` (a store or its directory), oldest first."""
    directory = _directory(store)
    if not directory.is_dir():
        return []
    return sorted(p for p in directory.iterdir() if p.name.endswith(SEGMENT_SUFFIX))


def segment_lines(path):
    """``(keys, lines)`` of segment ``path``: the keys its header lists
    that have a complete line, and those lines, as text.  A torn header
    yields nothing."""
    header, *lines = path.read_text().split("\n")
    try:
        keys = json.loads(header)
    except ValueError:
        return [], []
    lines = lines[:-1]  # whatever follows the last newline is torn
    return keys[: len(lines)], lines[: len(keys)]


def record_texts(store):
    """Key -> text of its newest line, for every key a segment names."""
    texts = {}
    for path in segments(store):
        keys, lines = segment_lines(path)
        texts.update(zip(keys, lines))
    return texts


def record_text(store, key):
    """The text of ``key``'s newest line (KeyError if no segment names it)."""
    return record_texts(store)[key]


def location(store, key):
    """``(segment name, line number)`` of ``key``'s newest line, or None.

    A record rewritten by any later write moves to a new segment, so an
    unchanged location means the record was left alone.
    """
    found = None
    for path in segments(store):
        keys, _ = segment_lines(path)
        if key in keys:
            found = (path.name, len(keys) - keys[::-1].index(key))
    return found


def write_segment(store, data):
    """Add a segment holding the raw bytes ``data``, newer than every
    segment already there; returns its path."""
    directory = _directory(store)
    directory.mkdir(parents=True, exist_ok=True)
    newest = max((int(p.name.split("-")[0]) for p in segments(store)), default=0)
    stamp = max(time.time_ns(), newest + 1)
    path = directory / f"{stamp:020d}-{os.urandom(8).hex()}{SEGMENT_SUFFIX}"
    path.write_bytes(data)
    return path


def plant(store, key, text):
    """Make ``text`` (a record, or torn or foreign text) ``key``'s newest
    line — what a hand edit or a tear of its record file used to do."""
    return write_segment(store, f"{json.dumps([key])}\n{text}\n".encode())


def remove(store, key):
    """Delete ``key``'s record from every segment naming it.

    A segment that keeps other keys is rewritten under a new name with
    the same stamp (the store never expects a name's bytes to change);
    one left empty is deleted.
    """
    for path in segments(store):
        keys, lines = segment_lines(path)
        if key not in keys:
            continue
        kept = [(k, line) for k, line in zip(keys, lines) if k != key]
        if kept:
            stamp = path.name.split("-")[0]
            fresh = path.with_name(f"{stamp}-{os.urandom(8).hex()}{SEGMENT_SUFFIX}")
            header = json.dumps([k for k, _ in kept])
            body = "".join(f"{line}\n" for _, line in kept)
            fresh.write_text(f"{header}\n{body}")
        path.unlink()


def dump(store):
    """The canonical per-key dump of ``store`` (see the module docstring)."""
    lines = [
        f"record {key} {json.dumps(store.record(key), sort_keys=True)}"
        for key in store.keys()
    ]
    lines += [
        f"failure {key} {json.dumps(store.failure(key), sort_keys=True)}"
        for key in store.failure_keys()
    ]
    return "".join(f"{line}\n" for line in lines)


if __name__ == "__main__":
    from repro.perf.backends import open_store

    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} STORE_LOCATOR")
    text = dump(open_store(sys.argv[1]))
    if not text:  # two missing or empty stores must not compare equal
        sys.exit(f"{sys.argv[1]}: no records and no failures")
    sys.stdout.write(text)
