"""Traced stand-in for ``python -m fracperim.cli``, used by the traced
``cli_cold`` run:

    python3 perfbench/launcher.py SPANS_OUT SUBCOMMAND [OPTIONS...]

It times the import of ``fracperim.cli``, installs the tracer's wrappers,
calls ``fracperim.cli.main`` with the remaining arguments, writes the
spans to SPANS_OUT and exits with the command's exit code.  Its own
import of the tracer counts as tracing overhead.
"""

from __future__ import annotations

import time

T0 = time.monotonic()

import sys  # noqa: E402

from tracing import Tracer  # noqa: E402

IMPORT_S = time.monotonic() - T0


def main() -> int:
    spans_out, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import fracperim.cli
    tracer.install()
    code = 0
    idx = tracer.open("cli.main")
    try:
        fracperim.cli.main(cli_args, prog_name="fracperim")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tracer.close(idx)
        tracer.dump(spans_out, extra_s=IMPORT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())
