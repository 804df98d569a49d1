#!/usr/bin/env python3
"""Exact references for the failure-domain count law, in rational arithmetic.

    python3 tools/exact_complements.py

Prints the exact probability that standard-quorum Raft is NOT live (fewer than a majority of
nodes up) when nodes fail independently with base probabilities `nodes` and each rack's
event fails all of its members. Every probability is read as the double the C++ code
holds, and every configuration of nodes and rack events is enumerated with Fractions, so
the only rounding is the final conversion to a double.
PlacementTest.CountLawKeepsTheSmallComplement checks the library's count law and its 2^n
enumeration against the value printed here. Uses only the standard library; not run by CI.
"""

from fractions import Fraction


def raft_not_live(nodes, racks, rack_of):
    """Exact P(#failed nodes > n - majority) of the failure-domain model."""
    n = len(nodes)
    majority = n // 2 + 1
    p = [Fraction(x) for x in nodes]
    q = [Fraction(x) for x in racks]
    total = Fraction(0)
    for events in range(1 << len(racks)):
        event_mass = Fraction(1)
        for d, qd in enumerate(q):
            event_mass *= qd if events >> d & 1 else 1 - qd
        for failed in range(1 << n):
            if n - bin(failed).count("1") >= majority:
                continue
            mass = event_mass
            for i, pi in enumerate(p):
                down = events >> rack_of[i] & 1
                if failed >> i & 1:
                    mass *= 1 if down else pi
                else:
                    mass *= 0 if down else 1 - pi
            total += mass
    return total


def main():
    nodes = [1e-6, 2e-6, 5e-7, 1e-6, 3e-6, 1e-6, 2e-6]
    racks = [1e-9, 1e-8, 1e-7]
    rack_of = [0, 1, 2, 0, 1, 2, 0]
    exact = raft_not_live(nodes, racks, rack_of)
    print(f"nodes {nodes}")
    print(f"racks {racks}, rack_of {rack_of}")
    print(f"Raft not-live complement: {float(exact):.17g}")


if __name__ == "__main__":
    main()
