"""Command-line entry point: ``ssi <config> [--script FILE] ...``."""

from __future__ import annotations

import argparse
import sys

from .config import build_session, load_config
from .errors import SsiError
from .repl import Repl, run_script
from .session import ASK, BRANCH_POLICIES, DEFAULT_MAX_STEPS, FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssi",
        description="Run one module of a C codebase under a gdb-style REPL, "
                    "with unmodeled system APIs treated as symbolic values.",
    )
    parser.add_argument("config", help="SSI configuration file (JSON)")
    parser.add_argument("--script", help="run commands from FILE instead of stdin")
    parser.add_argument("--branch-policy", choices=BRANCH_POLICIES,
                        help="what to do when control flow depends on a "
                             "symbolic value (default: ask interactively, "
                             "fail in script mode)")
    parser.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS,
                        help="statement budget per command")
    parser.add_argument("--without-model", action="append", default=[],
                        metavar="NAME",
                        help="drop a registered model (repeatable); useful "
                             "for seeing what breaks without it")
    args = parser.parse_args(argv)
    if args.max_steps < 1:
        parser.error(f"argument --max-steps: must be at least 1, not {args.max_steps}")

    policy = args.branch_policy or (FAIL if args.script else ASK)
    try:
        config = load_config(args.config)
        session, interp = build_session(
            config,
            branch_policy=policy,
            max_steps=args.max_steps,
            without_models=args.without_model,
        )
    except SsiError as e:
        print(f"ssi: {e}", file=sys.stderr)
        return 2
    try:
        if args.script:
            return run_script(session, interp, args.script, sys.stdout)
        return Repl(session, interp, sys.stdin, sys.stdout,
                    interactive=True).run()
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
