"""Run the ``cskfam`` command line in process, with stdout and stderr captured."""

import contextlib
import io
from dataclasses import dataclass

from cskfam.cli import main


@dataclass
class Result:
    exit_code: int
    stdout_bytes: bytes
    stderr_bytes: bytes
    exception: BaseException | None

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode("utf-8")

    @property
    def stderr(self) -> str:
        return self.stderr_bytes.decode("utf-8")

    @property
    def output(self) -> str:
        """Stdout, then stderr."""
        return self.stdout + self.stderr


def invoke(args) -> Result:
    """Call ``main`` in standalone mode on ``args`` (each made a ``str``).

    A ``SystemExit`` gives its code, and is kept as ``exception`` when the
    code is not 0; any other exception gives exit code 1 and is kept.
    """
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:  # a crash: kept for the test to inspect
            code, exception = 1, exc
    out.flush()
    err.flush()
    return Result(code, out.buffer.getvalue(), err.buffer.getvalue(), exception)
