"""How a result becomes a file: one CSV cell rule and one atomic writer."""

import os
import uuid
from pathlib import Path


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)  # shortest text that parses back to the same float
    return str(value)


def csv_text(header, rows) -> str:
    """CSV text: floats as repr, bools as 0/1, every other cell as str."""
    lines = [",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_atomic(path, data) -> None:
    """Replace `path` with `data` (str as utf-8, or bytes) so that the file
    holds either its old bytes or all of the new ones, never a partial write.

    The data goes to a temp file in the target directory, is synced to disk,
    then renamed over the target; the temp file is removed if any step fails.
    Syncing the directory afterwards makes the rename itself durable.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data.encode() if isinstance(data, str) else data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
