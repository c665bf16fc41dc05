"""Time the network kernel against the traced autodiff program, per paradigm.

For each paradigm at batch 32 and 256 (16→32→32→3), prints the best-of-N
microseconds per call of forward, JVP and VJP for ``models.Network`` and
for the same network traced by ``autodiff`` (the oracle in
``tests/test_network.py``), and checks that both return the same bytes.
Exits 1 if any pair differs. fuselab is imported from this checkout's src/:

    python3 tools/layer_timing.py [--repeats N] [--loops L]
"""

import argparse
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def as_bytes(result) -> bytes:
    return b"".join(a.tobytes() for a in (result if isinstance(result, tuple) else (result,)))


def main(argv=None) -> int:
    import numpy as np
    from fuselab import autodiff as ad
    from fuselab.models import ModeTag, Network
    from test_network import setup, traced_program

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7, help="best of this many timings")
    parser.add_argument("--loops", type=int, default=50, help="calls per timing")
    args = parser.parse_args(argv)
    print(f"{'mode':<12}{'batch':>6}  {'op':<8}{'kernel_us':>10}{'traced_us':>11}{'ratio':>8}  bits")
    differ = 0
    for mode in ModeTag:
        for batch in (32, 256):
            spec, theta0, init, point, direction, x = setup(mode, batch)
            net = Network(spec, theta0, x, init)
            f = traced_program(spec, theta0, x, init)
            ct = np.random.default_rng(batch).standard_normal((batch, spec.num_classes))
            ops = {"forward": (lambda: net.forward(point), lambda: f(point)),
                   "jvp": (lambda: net.jvp(point, direction), lambda: ad.jvp(f, point, direction)),
                   "vjp": (lambda: net.vjp(point, ct), lambda: ad.vjp(f, point, ct))}
            for op, (kernel, traced) in ops.items():
                kernel_us, traced_us = (
                    1e6 * min(timeit.repeat(fn, number=args.loops, repeat=args.repeats)) / args.loops
                    for fn in (kernel, traced))
                same = as_bytes(kernel()) == as_bytes(traced())
                differ += not same
                print(f"{mode.value:<12}{batch:>6}  {op:<8}{kernel_us:>10.1f}{traced_us:>11.1f}"
                      f"{traced_us / kernel_us:>7.1f}x  {'equal' if same else 'DIFFERENT'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
