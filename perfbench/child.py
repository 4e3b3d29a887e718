"""Run one prodex CLI command in this process, optionally traced.

    python3 perfbench/child.py [--trace-out FILE --trace-id ID --proc TAG
                                --phase PHASE] -- <prodex CLI arguments>

The command goes through ``prodex.cli.main`` exactly as the ``prodex`` entry
point would run it, from the checkout's ``src``. With ``--trace-out`` the
public functions are wrapped in spans (see tracer.py) under one root span
named ``cli``, and the spans are written to FILE after the command returns.
The exit code is the command's.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out")
    parser.add_argument("--trace-id", default="")
    parser.add_argument("--proc", default="p0")
    parser.add_argument("--phase", default="run")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    import click
    from prodex import cli

    tracer = None
    if opts.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def command():
        cli.main(args=cli_args, prog_name="prodex", standalone_mode=False)

    code = 0
    try:
        (tracer.wrap("cli", command) if tracer else command)()
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    except click.exceptions.Exit as exc:
        code = exc.exit_code
    except Exception:
        traceback.print_exc()
        code = 1
    if tracer is not None:
        start = time.perf_counter_ns()
        tracer.write(opts.trace_out, opts.trace_id, opts.proc, opts.phase)
        with open(opts.trace_out, "a", encoding="utf-8") as fh:
            fh.write(f'{{"write_ns": {time.perf_counter_ns() - start}}}\n')
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
