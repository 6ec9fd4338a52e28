"""File arguments: a path (str, bytes, os.PathLike) or an open stream."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def opened(file, mode):
    """Open a path for the block and close it after; pass a stream through
    untouched, leaving it open for the caller."""
    if isinstance(file, (str, bytes, os.PathLike)):
        with open(file, mode) as fh:
            yield fh
    else:
        yield file


def write_table(file, header, rows, comment):
    """Write a CSV table: a '# comment' line unless comment is None, the
    header names, then one line per row with every value formatted as
    %.12g."""
    with opened(file, "w") as fh:
        if comment is not None:
            fh.write("# %s\n" % comment)
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.12g" % v for v in row) + "\n")
