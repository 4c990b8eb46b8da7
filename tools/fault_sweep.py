"""Fault sweep: one count of one answer moved by one, every way, on chosen
acceptance configs.

For each chosen config of the acceptance corpus (``tests/test_acceptance.py``,
positions 0-49), a true reconstruction logs the distinct directions it
asks.  Then, for every such direction, every k in 0..d, every level of the
true answer and each shift +1 and -1, the config is reconstructed through
``TamperedOracle`` (``tests/conftest.py``), which answers that one
direction with its k-simplex count at that level moved by the shift
(``shifted_count``) and every other direction truly.  Each run ends in one
of four outcomes:

    typed    an ApdrecError is raised
    exact    the recovered complex is the true one
    silent   a wrong complex is returned without an error
    untyped  any other exception

Directions of the lifted pass, one entry longer, are tampered in the
answers of the lifted oracle.  The acceptance corpus asks none, so the
argument ``lifted`` sweeps the CLI's lifted example, ``L.cx`` of the
README, whose top dimension comes back through the lifted pass:

    apdrec generate --seed 2 --n0 6 --dim 3 --kappa 3 --density 0.9,0.9,0.9 --codim-zero

Run from anywhere, with the config positions, or ``lifted``, as arguments
(none means all 50):

    python tools/fault_sweep.py 5 20
    python tools/fault_sweep.py lifted

It prints one line per config and stage, the stage being the span that
first asked the direction ("vertices", "edges" or "predicate"), then the
totals, and exits 1 if any run is silent or untyped.
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from apdrec import (  # noqa: E402
    ApdrecError,
    GeneratorConfig,
    Oracle,
    complexes_match,
    generate_complex,
)
from apdrec.higher import reconstruct  # noqa: E402

from conftest import TamperedOracle  # noqa: E402
from test_acceptance import _trial_configs  # noqa: E402

OUTCOMES = ("typed", "exact", "silent", "untyped")
# the CLI's lifted example: 3 tetrahedra, recovered through the lifted pass
LIFTED = GeneratorConfig(3, 6, 3, densities=[0.9, 0.9, 0.9], seed=2,
                         lift_general_position=True)


def first_stages(log):
    """Each distinct direction of the log, in the order first asked, with the
    stage of the span that first asked it."""
    stages = {}
    directions = iter(log.directions)
    for label, queries in log.spans:
        stage = "predicate" if isinstance(label, int) else label
        for _ in range(queries):
            stages.setdefault(next(directions), stage)
    return stages


def outcome(K, direction, k, height, delta):
    """The outcome of one reconstruction of K with one count moved."""
    try:
        recovered = reconstruct(TamperedOracle(K, direction, k, height, delta))
    except ApdrecError:
        return "typed"
    except Exception:
        return "untyped"
    return "exact" if complexes_match(recovered, K) else "silent"


def sweep(K):
    """Counter of (stage, outcome) over every single shifted count of K."""
    oracle = Oracle(K)
    reconstruct(oracle)
    d = K.ambient_dim
    tally = Counter()
    for direction, stage in first_stages(oracle.log).items():
        answering = Oracle(K) if len(direction) == d else Oracle(K).lifted()
        for height in answering.query(direction).levels:
            for k in range(d + 1):
                for delta in (1, -1):
                    tally[stage, outcome(K, direction, k, height, delta)] += 1
    return tally


def main(argv) -> int:
    configs = {str(i): config for i, config in enumerate(_trial_configs())}
    chosen = argv or list(configs)
    configs["lifted"] = LIFTED
    total = Counter()
    print(f"{'config':>6}  {'stage':<9}  " + "  ".join(f"{o:>7}" for o in OUTCOMES))
    for name in chosen:
        tally = sweep(generate_complex(configs[name]))
        for stage in ("vertices", "edges", "predicate"):
            if any(tally[stage, o] for o in OUTCOMES):
                counts = "  ".join(f"{tally[stage, o]:>7}" for o in OUTCOMES)
                print(f"{name:>6}  {stage:<9}  {counts}", flush=True)
        for (_, o), n in tally.items():
            total[o] += n
    print(f"{'total':>6}  {'':<9}  " + "  ".join(f"{total[o]:>7}" for o in OUTCOMES))
    return 1 if total["silent"] or total["untyped"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
