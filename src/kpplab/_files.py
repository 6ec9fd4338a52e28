"""CSV tables, written to a path (str, bytes, os.PathLike) or an open text
stream."""

from __future__ import annotations

import contextlib
import os


def write_table(file, header, rows, comment):
    """Write a CSV table: a '# comment' line unless comment is None, the
    header names, then one line per row with every value formatted as
    %.12g.  A path is opened and closed here; a stream is written as it is
    and left open for the caller."""
    with (open(file, "w") if isinstance(file, (str, bytes, os.PathLike))
          else contextlib.nullcontext(file)) as fh:
        if comment is not None:
            fh.write("# %s\n" % comment)
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.12g" % v for v in row) + "\n")
