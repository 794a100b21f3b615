"""Smooth diffusion vs. advected discontinuity: the two extremes of
singular-value decay.

The heat equation smears its initial rectangle into ever-smoother
profiles, so a handful of POD modes reconstructs every snapshot. The
advected jump keeps a sharp front moving through the domain, and no
small set of fixed spatial modes can track a moving discontinuity:
its singular values decay like 1/n (the Volterra-kernel rate), so the
energy criterion keeps asking for more modes.

Run:  python demos/01_smooth_vs_advected.py
"""

import os
import tempfile

from podsnap import Grid1D, decompose, modes_for_energy, normalized_spectrum
from podsnap.cases1d import Heat1DConfig, gen_advected_jump, solve_heat1d
from podsnap.snapshots import read_snap, write_snap

# Both cases use the same 256-node grid and 128 snapshots.
heat = solve_heat1d(Heat1DConfig())
jump = gen_advected_jump(Grid1D(256), 128)

# Snapshot matrices persist in the SNAP1 binary format, bit-exactly.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "heat_demo.snap")
    write_snap(heat, path)
    assert read_snap(path) == heat

print("case        sigma_n / sigma_1 at n = 1, 5, 10, 20, 40")
for name, matrix in (("heat", heat), ("jump", jump)):
    spectrum = decompose(matrix).spectrum
    norm = normalized_spectrum(spectrum)
    picks = ", ".join(f"{norm[n - 1]:9.2e}" for n in (1, 5, 10, 20, 40))
    print(f"{name:10s}  {picks}")

print()
print("modes needed to capture a fraction of the snapshot energy:")
print("case        90%    99%    99.99%")
for name, matrix in (("heat", heat), ("jump", jump)):
    spectrum = decompose(matrix).spectrum
    row = "  ".join(
        f"{modes_for_energy(spectrum, t).modes_needed:5d}" for t in (0.9, 0.99, 0.9999)
    )
    print(f"{name:10s}{row}")

print()
print("The jump needs almost the full snapshot count at 99.99%: a linear")
print("reduced basis cannot compress a moving discontinuity.")
