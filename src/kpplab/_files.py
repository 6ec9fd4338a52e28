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
