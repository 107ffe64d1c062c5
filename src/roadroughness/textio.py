"""Text artifacts written a block at a time, and their blake2b digests.

``write_text`` writes UTF-8 strings to a file and returns the digest of
the bytes written; a write that fails part way removes its partial file.
Writers format ``BLOCK_ROWS`` lines at a time (``joined``), so that no
whole-file string is held. ``unreadable`` names the text that numpy's
readers may take otherwise than ``int`` and ``float``."""
from __future__ import annotations

import hashlib
from itertools import islice
from pathlib import Path

# Lines formatted and written at a time: bounds the strings held at once.
BLOCK_ROWS = 1024

def digest_of(data: bytes) -> bytes:
    """The blake2b digest of ``data``, as ``write_text`` returns it."""
    return hashlib.blake2b(data).digest()


def write_text(path, chunks) -> bytes:
    """Write the strings ``chunks`` to ``path`` as UTF-8 and return the
    blake2b digest of the bytes written. A write that fails part way, in
    making a chunk or in writing it, removes the partial file."""
    hasher = hashlib.blake2b()
    try:
        with open(path, "wb") as f:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                hasher.update(data)
                f.write(data)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
    return hasher.digest()


def joined(lines):
    """The strings of ``lines`` joined BLOCK_ROWS at a time."""
    lines = iter(lines)
    while block := "".join(islice(lines, BLOCK_ROWS)):
        yield block


# numpy's integer reader misreads some non-ASCII text: it takes "1\uc6ca"
# for 50852, and "1\U0002c6ca" can crash it. On printable ASCII and tabs it
# accepts exactly what ``int`` and ``float`` accept, less digit-group
# underscores, with the same values.
_READABLE = bytes([ord("\t"), *range(ord(" "), ord("~") + 1)])


def unreadable(text: str) -> bool:
    """Whether ``text`` holds a character other than tab and printable
    ASCII, which numpy's readers may take otherwise than int and float."""
    return (not text.isascii()
            or bool(text.encode("ascii").translate(None, _READABLE)))
