"""Simulator and verification harness for online collateral maintenance.

A settlement operator holds collateral C and commits part of it against
incoming transactions; committed collateral is reclaimed only by flushing,
which knocks the flushed capacity offline for F slots.  This package
provides the online policies from the accompanying analysis, over
wallets or a divisible pool, stepped slot by slot, brute-force offline
optima, workload generators and adversaries, closed-form competitive
ratios, and a harness that measures policies against their proven bounds.  Each name is imported from the module
that defines it, ``collatsim.policies`` and the like; the package itself
exports none.
"""
