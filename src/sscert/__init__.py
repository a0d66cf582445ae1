"""Branching-hyperplane infeasibility certificates for low density subset sum.

A right-hand side beta of a.x = beta, x in {0,1}^n is certified
infeasible by exhibiting an integral direction v whose LP range over
the relaxation is trapped strictly between consecutive integers. The
direction comes from exact LLL-based diophantine approximation of a,
and every quantitative claim is checkable against a brute-force oracle
at desk scale. All arithmetic is exact (big integers and fractions).
"""

from .lll import kernel_name
