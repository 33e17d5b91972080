"""Run the command-line interface in-process, as the CLI tests do."""

import contextlib
import io

from sepwords.cli import main


class CliRun:
    """One run's exit code and captured streams; `output` is stdout then
    stderr."""

    def __init__(self, exit_code, stdout: str, stderr: str):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.output = stdout + stderr


def invoke(*args: str) -> CliRun:
    """Call `main(args)` with stdout and stderr captured. The exit code is
    main's return value or that of a SystemExit (a usage error exits so).
    Any other exception propagates, so a traceback fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as e:
            code = e.code
    return CliRun(code, out.getvalue(), err.getvalue())
