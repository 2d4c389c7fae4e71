"""Run the rso CLI in this process and record when the first field draw starts.

Usage: python perfbench/launch.py <stamp-file> <rso argument>...

This is ``rso <argument>...`` with one addition: the first call of
``rsolab.field.sample_rig`` (both samplers draw through it) writes its
CLOCK_MONOTONIC time to <stamp-file> at exit and then puts the original
function back, so the rest of the run is untouched.  The parent takes the
stamp minus its launch time as the run's set-up time.
"""

import sys
import time

from rsolab import cli, field


def main() -> int:
    stamp_path, argv = sys.argv[1], sys.argv[2:]
    draw = field.sample_rig
    first = []

    def first_draw(*args, **kwargs):
        if not first:
            first.append(time.monotonic())
            field.sample_rig = draw
        return draw(*args, **kwargs)

    field.sample_rig = first_draw
    code = cli.main(argv)
    with open(stamp_path, "w") as fh:
        fh.write(repr(min(first)) if first else "")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
