"""Run one recon-census command in a fresh process, as the console script does.

Usage: python3 launch.py MARK_FILE SPAN_FILE ARGS...

Imports ``recon_census.cli`` and calls ``main(ARGS)``.  On exit it writes to
MARK_FILE the ``time.monotonic()`` at which ``main`` was entered, so the
parent can split the process's wall time into set-up (interpreter start and
imports) and work.  With SPAN_FILE other than ``-`` the public functions are
wrapped by ``spans.install`` first and the spans are written to SPAN_FILE.
"""

import sys
import time


def _run() -> int:
    mark_path, span_path, *argv = sys.argv[1:]
    from recon_census import cli

    recorder = None
    if span_path != "-":
        import spans

        recorder = spans.install()
    entered = time.monotonic()
    try:
        return cli.main(argv)
    finally:
        with open(mark_path, "w", encoding="utf-8") as fh:
            fh.write(repr(entered))
        if recorder is not None:
            recorder.dump(span_path)


if __name__ == "__main__":
    raise SystemExit(_run())
