"""Run one `sixjvol.cli` command with the span recorder installed.

Usage: python bench/traced_cli.py <cli arguments...>

Prints one JSON line: {"code", "stdout", "trace"}, where "stdout" is
what the command wrote and "trace" the recorder's summary.  The traced
`cold` run starts this in a fresh process per command, so its layer
figures include every first-time cost that a user's process pays.
"""

import contextlib
import io
import json
import sys
import warnings


def main(argv: list[str]) -> int:
    from sixjvol import cli
    from sixjvol.growth import LevelSkipped

    from spans import Tracer

    out, err = io.StringIO(), io.StringIO()
    with Tracer() as tracer, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True):
        warnings.simplefilter("always", LevelSkipped)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    print(json.dumps({"code": code, "stdout": out.getvalue(),
                      "trace": tracer.summary()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
