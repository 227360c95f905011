"""Time segflow's set-up in this fresh interpreter and print the seconds.

Usage: python3 setup_probe.py <segflow src dir> <config.json>

Set-up is what precedes the first experiment: importing segflow (and with
it numpy and scipy), parsing the config, building the model and resolving
the numerics.
"""

import sys
from time import perf_counter


def main() -> None:
    t0 = perf_counter()
    sys.path.insert(0, sys.argv[1])
    from segflow.config import parse_config

    cfg = parse_config(sys.argv[2])
    cfg.resolved_numerics(cfg.build_model())
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main()
