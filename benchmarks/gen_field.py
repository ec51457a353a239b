"""Draw the dataset workload's field and write it as a measurement file.

    python3 benchmarks/gen_field.py --seed 1 --nodes 1000 --degree 20 \
        --pair-count 9000 --table benchmarks/ref/fd_field_64_1e-06.txt \
        --field field.txt --pairs pairs.txt

Nodes are dropped with ``deploy_poisson`` on a square sized for the
requested node count, at the intensity that gives the requested mean
neighbor count. ``synthesize_measurements`` draws the RSS map. Draws are
repeated until the field holds exactly that many nodes and at least
``--pair-count`` linked pairs; that many of its linked pairs, drawn at
random, go to the pairs file in sorted order, one ``i-j`` token per line.
So every seed gives the same amount of work: the dataset command's cost
is linear in the pairs requested and grows with the cube of the node
count.
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import rangefuse  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--degree", type=float, required=True)
    parser.add_argument("--pair-count", type=int, required=True)
    parser.add_argument("--table", required=True)
    parser.add_argument("--field", required=True)
    parser.add_argument("--pairs", required=True)
    args = parser.parse_args()
    model = rangefuse.load_fd_model(args.table)
    intensity = args.degree / model.s_mass
    side = math.sqrt(args.nodes / intensity)
    rng = np.random.default_rng([args.seed, 0x5EED])
    while True:
        dep = rangefuse.deploy_poisson(side, intensity, rng)
        if len(dep.nodes) != args.nodes:
            continue
        ms = rangefuse.synthesize_measurements(dep, model.params, rng)
        if len(ms.rss) >= args.pair_count:
            break
    linked = sorted(ms.rss)
    picked = np.sort(rng.choice(len(linked), size=args.pair_count, replace=False))
    rangefuse.save_measurements(ms, args.field)
    Path(args.pairs).write_text("".join("%d-%d\n" % linked[k] for k in picked))


if __name__ == "__main__":
    main()
