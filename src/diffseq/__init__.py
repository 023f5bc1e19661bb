"""Exact Ramsey-type computations over gap sets of positive integers:
certified fractional-part colorings from a nested-interval construction,
exhaustive avoidance scans, least-forcing-length search with witnesses
(``delta``, the one search entry point), and distance-graph chromatic bounds.
"""

__version__ = "0.1.0"
