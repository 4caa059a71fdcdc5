"""Seeded synthetic inputs standing in for the UCI votes file and real
trade flows. The same seed (and size) always gives the same bytes.

votes: 435 records (267 D, 168 R) over 16 bills in the house-votes-84
layout. Each bill draws one yea probability per party; about 4% of
votes are '?'.

trade: 214 countries with lognormal(0, 2) economic masses. Each ordered
pair trades with probability 0.35, at volume
mass(exporter) * mass(importer) * lognormal(0, 1).
"""

from __future__ import annotations

import random

VOTES_PARTIES = (("democrat", 267), ("republican", 168))
VOTES_BILLS = 16
VOTES_ABSTAIN = 0.04

TRADE_COUNTRIES = 214
TRADE_FLOW_PROB = 0.35


def votes_text(seed: int, parties=VOTES_PARTIES, bills: int = VOTES_BILLS) -> str:
    rng = random.Random(f"votes-{seed}")
    # A partisan bill pulls the two parties apart; a consensus bill has
    # one yea probability for both.
    yea = []
    for _ in range(bills):
        if rng.random() < 0.75:
            lean = rng.uniform(0.25, 0.45) * rng.choice((1, -1))
            yea.append({"democrat": 0.5 + lean, "republican": 0.5 - lean})
        else:
            p = rng.uniform(0.6, 0.95)
            yea.append({"democrat": p, "republican": p})
    members = [party for party, count in parties for _ in range(count)]
    rng.shuffle(members)
    lines = []
    for party in members:
        tokens = [party]
        for bill in yea:
            if rng.random() < VOTES_ABSTAIN:
                tokens.append("?")
            else:
                tokens.append("y" if rng.random() < bill[party] else "n")
        lines.append(",".join(tokens))
    return "\n".join(lines) + "\n"


def trade_text(seed: int, countries: int = TRADE_COUNTRIES) -> str:
    rng = random.Random(f"trade-{seed}")
    names = [f"C{i:03d}" for i in range(countries)]
    mass = [rng.lognormvariate(0.0, 2.0) for _ in names]
    lines = ["exporter,importer,volume"]
    for i, exporter in enumerate(names):
        for j, importer in enumerate(names):
            if i != j and rng.random() < TRADE_FLOW_PROB:
                volume = mass[i] * mass[j] * rng.lognormvariate(0.0, 1.0)
                lines.append(f"{exporter},{importer},{volume!r}")
    return "\n".join(lines) + "\n"
