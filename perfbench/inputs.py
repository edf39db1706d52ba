"""Seeded operation lists for every workload.

Each workload draws its operations from a fixed pool whose expected
outputs were recorded from the program (``expected/``), so every
operation's output can be checked.  ``--seed`` chooses the order in
which the pool is visited (and, for the service, which earlier jobs are
resubmitted); the program only ever sees the generated inputs.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, Iterator, List, Tuple

# -- cli-paper ---------------------------------------------------------
#: One ``repro`` process per entry: the paper's networks through the two
#: user-facing commands (Table VI default sweep for VGG-16, the Table IV
#: large bank, CaffeNet and the validation MLP).
CLI_COMMANDS: Tuple[Tuple[str, ...], ...] = (
    ("simulate", "vgg16"),
    ("explore", "vgg16"),
    ("simulate", "caffenet"),
    ("explore", "large-bank"),
    ("simulate", "validation-mlp"),
    ("explore", "mlp:784,256,10"),
)

# -- mc-accuracy -------------------------------------------------------
MC_POOL = 256
MC_SIZE = 64
MC_TRIALS = 2


def mc_payload(index: int) -> Dict[str, Any]:
    """A 64x64 RRAM Monte-Carlo payload with its own seed."""
    return {
        "kind": "montecarlo",
        "config": {"crossbar_size": MC_SIZE},
        "montecarlo": {
            "trials": MC_TRIALS,
            "seed": 1000 + index,
            "size": MC_SIZE,
            "input_mode": "random",
        },
        "execution": {"jobs": 1},
    }


# -- xbar-worst --------------------------------------------------------
XBAR_POOL = 10
XBAR_SIZE = 64
XBAR_INTERCONNECT = 45


def xbar_drive(index: int) -> List[float]:
    """Row drive pattern (fraction of the read voltage): mostly driven,
    one to three rows left at 0 V."""
    rng = random.Random(f"xbar-{index}")
    drive = [1.0] * XBAR_SIZE
    for row in rng.sample(range(XBAR_SIZE), rng.randint(1, 3)):
        drive[row] = 0.0
    return drive


# -- service-jobs ------------------------------------------------------
SERVICE_POOL = 2048
RESUBMIT_SHARE = 0.15
_PAPER_NETWORKS = ("vgg16", "caffenet", "large-bank", "validation-mlp",
                   "jpeg")


def _network(rng: random.Random) -> Dict[str, Any]:
    if rng.random() < 0.3:
        return {"topology": rng.choice(_PAPER_NETWORKS)}
    hidden = [rng.randrange(16, 513, 16) for _ in range(2)]
    return {"topology": "mlp", "sizes": [784] + hidden + [10]}


def _service_candidate(rng: random.Random) -> Dict[str, Any]:
    draw = rng.random()
    if draw < 0.4:
        return {
            "kind": "simulate",
            "network": _network(rng),
            "config": {
                "crossbar_size": rng.choice([64, 128, 256]),
                "parallelism_degree": rng.choice([1, 16]),
                "interconnect_tech": rng.choice([28, 45]),
            },
        }
    if draw < 0.7:
        return {
            "kind": "explore",
            "network": _network(rng),
            "sweep": {
                "crossbar_sizes": sorted(rng.sample([64, 128, 256], 2)),
                "parallelism_degrees": sorted(
                    rng.sample([1, 16], rng.randint(1, 2))),
                "interconnect_nodes": sorted(
                    rng.sample([28, 45], rng.randint(1, 2))),
                "max_error_rate": round(rng.uniform(0.05, 0.5), 3),
            },
        }
    return {
        "kind": "faults",
        "faults": {
            "size": 8,
            "trials": 2,
            "rates": [0.0, 0.02, 0.05],
            "modes": [rng.choice(["stuck_mixed", "open_cell", "drift"])],
            "seed": rng.randrange(1 << 30),
        },
    }


def service_pool() -> List[Dict[str, Any]]:
    """The service's distinct job payloads (no two share an identity)."""
    rng = random.Random("service-pool")
    seen = set()
    pool: List[Dict[str, Any]] = []
    while len(pool) < SERVICE_POOL:
        doc = _service_candidate(rng)
        key = json.dumps(doc, sort_keys=True)
        if key not in seen:
            seen.add(key)
            pool.append(doc)
    return pool


def service_ops(seed: int) -> Iterator[Tuple[int, bool]]:
    """``(pool_index, resubmission)`` pairs in submission order.

    New jobs visit the pool in a seeded order; a seeded share of
    operations resubmits an earlier job exactly (a deduplication hit).
    Ends when every pool job has been submitted once.
    """
    rng = random.Random(f"service-ops-{seed}")
    order = list(range(SERVICE_POOL))
    rng.shuffle(order)
    issued: List[int] = []
    for index in order:
        while issued and rng.random() < RESUBMIT_SHARE:
            yield rng.choice(issued), True
        issued.append(index)
        yield index, False


def seeded_order(seed: int, size: int, tag: str) -> List[int]:
    """A seeded permutation of ``range(size)``."""
    order = list(range(size))
    random.Random(f"{tag}-{seed}").shuffle(order)
    return order
