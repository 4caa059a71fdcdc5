"""The trade side of the census and ingest layers: clique censuses of
orders 3 to 5, maximum cliques and neighborhood densities of a coloring
(trade.census), and trade flows parsed into a top-k partner coloring
(trade.ingest). Only trade and chi2 --kind trade run them, so the votes
and simulate commands never compile or load this package. The module
names are their layers' names, census and ingest, as in the top-level
modules the votes side keeps.
"""
