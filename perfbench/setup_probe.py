"""Time one benchmark set-up in a fresh interpreter and print the seconds,
scaled to the host-speed reference (see hostspeed.py).

    python3 perfbench/setup_probe.py WORKLOAD SEED

run.py starts several of these, one after another, and reports the median
set-up time: importing rlct, generating the inputs and one warm-up op.
"""

import sys

from run import setup

if __name__ == "__main__":
    print(setup(sys.argv[1], int(sys.argv[2]))[2])
