"""Set-up probe: a fresh interpreter imports the CLI, loads and validates a
config, prints "ready" and exits.  run.py times it from spawn to "ready".

    python3 perfbench/probe.py CONFIG.ini SUBCOMMAND
"""

import sys


def main(config, subcommand):
    import hierctrl.cli  # noqa: F401  (part of what a user waits for)
    from hierctrl.config import load_config, validate_for

    validate_for(load_config(config), subcommand)
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:3])
