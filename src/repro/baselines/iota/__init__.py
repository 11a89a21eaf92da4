"""IOTA (Tangle) baseline.

The tokenless DAG blockchain of Popov's "The Tangle": every new
transaction approves two earlier transactions (tips), there are no
miners, and — the property Figs. 7-8 punish — **every node stores the
entire tangle** and every transaction is gossiped to the whole network.

``tangle``
    The DAG structure, tip tracking and cumulative weights.
``tip_selection``
    Uniform-random and weighted-random-walk (MCMC) tip selection.
``node``
    Gossip-flooding nodes over the shared wireless substrate.
``costmodel``
    Closed-form storage/traffic for the Fig. 7/8 sweeps.
"""
