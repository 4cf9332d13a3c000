"""Run one ``orthocal`` command with the span tracer installed.

    python3 bench/traced_cli.py SPANS_FILE PROC COMMAND [ARGS...]

The cli_cold workload's traced run uses this in place of
``python -m orthocal COMMAND ...``.  The command's spans are appended to
SPANS_FILE, tagged with the process number PROC, when it returns.
"""

import sys


def main() -> int:
    spans_path, proc, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import orthocal
    import orthocal.cli

    from spans import Tracer

    tracer = Tracer()
    tracer.install(orthocal)
    code = tracer.wrap(orthocal.cli.main, "cli")(argv)
    tracer.dump(spans_path, proc)
    return code


if __name__ == "__main__":
    sys.exit(main())
