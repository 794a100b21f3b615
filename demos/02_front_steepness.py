"""How the steepness of a moving front controls spectral decay.

A sigmoid front 1 / (1 + exp(-k (t - x))) advects across the unit
interval. Small k means a stretched, smooth front; large k approaches
the discontinuous jump. Sweeping k shows mode counts rising smoothly
from diffusion-like to jump-like, and the log-log decay slope
steepening accordingly: smoothness, not the underlying transport PDE,
sets the reduced-order-model budget.

Run:  python demos/02_front_steepness.py
"""

from podsnap import Grid1D, decompose, modes_for_energy
from podsnap.analysis import fit_decay
from podsnap.cases1d import gen_advected_jump, gen_sigmoid

grid = Grid1D(256)

print("front              modes@99.99%   loglog slope [4, 64]")
for label, k in (("k = 5", 5.0), ("k = 15 (stretched)", 15.0), ("k = 50", 50.0),
                 ("k = 100 (steep)", 100.0), ("k = 400", 400.0)):
    spectrum = decompose(gen_sigmoid(grid, 128, k=k)).spectrum
    needed = modes_for_energy(spectrum, 0.9999).modes_needed
    fit = fit_decay(spectrum, "loglog")
    slope = f"{fit.slope:8.3f}" if fit else "     (spectrum hits round-off inside the window)"
    print(f"{label:20s}     {needed:5d}       {slope}")

spectrum = decompose(gen_advected_jump(grid, 128)).spectrum
needed = modes_for_energy(spectrum, 0.9999).modes_needed
slope = fit_decay(spectrum, "loglog").slope
print(f"{'jump (k -> inf)':20s}     {needed:5d}       {slope:8.3f}")

print()
print("Counts increase monotonically with steepness; the jump's slope of")
print("about -1 is the classical rate of the advected-step kernel.")
