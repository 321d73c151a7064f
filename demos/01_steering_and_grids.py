"""
Steering vectors and sin-domain grids
=====================================

A half-wavelength uniform linear array responds to a plane wave from
angle theta with a pure spatial sinusoid in sin(theta). This demo builds
steering vectors, shows the DFT-ordered sin grid, and checks that the
multiplier-1 grid is exactly the unitary DFT.
"""

import math

import numpy as np

from beamcs import beam_sin_values, build_grid, steering_vector

# an array is its antenna count: 8 elements at half-wavelength spacing
n_ant = 8
print("antennas:", n_ant, " spacing (wavelengths): 0.5")

# broadside (0 rad) gives the flat vector, endfire alternates sign
for deg in (0.0, 30.0, 90.0):
    v = steering_vector(n_ant, math.radians(deg))
    print("theta=%5.1f deg  first entries:" % deg, np.round(v[:4], 4))

# every steering vector has unit norm
angles = np.linspace(-math.pi / 2, math.pi / 2, 7)
norms = [np.linalg.norm(steering_vector(n_ant, a)) for a in angles]
print("norms:", np.round(norms, 12))

# the grid is a matrix of atoms, one column per sin(theta) sample, taken
# uniformly in DFT order: 0, 2/G, ... up to 1, then wraps to the negative side
grid1 = build_grid(n_ant, 1)
print("multiplier 1 sin grid:", beam_sin_values(grid1.shape[1]))

# multiplier 1 means one atom per antenna: the atoms form the unitary DFT,
# so the Gram matrix is the identity
gram = grid1.conj().T @ grid1
print("multiplier 1 max |Gram - I|: %.2e" % np.abs(gram - np.eye(n_ant)).max())

# multiplier 3 oversamples the same range three-fold for sparse recovery
grid3 = build_grid(n_ant, 3)
print("multiplier 3 bins:", grid3.shape[1], " first sins:", beam_sin_values(grid3.shape[1])[:5])

# adjacent oversampled atoms are highly correlated; that is the price of
# resolving angles between the DFT directions
corr = np.abs(grid3[:, 0].conj() @ grid3[:, 1])
print("neighbor atom correlation: %.3f" % corr)
