"""Two-sided bounds for a self-affine carpet on the 2 x 3 grid.

The digit set keeps two cells in the first column and one in the second,
so the Hausdorff and box dimensions separate and the spectrum has to
climb between them.
"""

import math

import dimspect as ds

spec = ds.CarpetSpec.create(2, 3, [(0, 0), (0, 2), (1, 1)])
der = ds.mcmullen_weights(spec)
columns = spec.column_counts()

print("carpet m=2, n=3, digits {(0,0), (0,2), (1,1)}")
print(f"  columns:            {columns} (occupied: {sum(c > 0 for c in columns)})")
print(f"  hausdorff dimension {der.d:.10f}")
print(f"  box dimension       {der.box:.10f}")
print(f"  digit weights       {[round(b, 6) for b in der.b_ell]}")
print(f"  entropy             {der.entropy_H:.10f}  (log|D| = {math.log(3):.10f})")

# the natural measure of approximate squares: nearly square unions of
# level-k rectangles whose masses drive both bounds
word = [(0, 0), (1, 1), (0, 2)]
print(f"\napproximate square through {word}: mu = "
      f"{ds.approx_square_measure(spec, word):.6e}")

# linear lower bound (entropy slope) against the capped upper bound
grid = ds.default_theta_grid(11)
spectrum = ds.carpet_spectrum(spec, grid)
print("\ntheta   lower      upper      method")
for s in spectrum.samples:
    print(f"{s.theta:5.2f} {s.lower:.8f} {s.upper:.8f}  {s.method}")

# the logarithmic upper bound only beats the box dimension very close to
# zero; its excess over dim_H decays like 1/log(1/theta)
print("\nexcess of the small-theta upper bound over dim_H:")
for theta in (1e-2, 1e-4, 1e-8, 1e-16, 1e-32):
    print(f"  theta={theta:8.0e}  excess={ds.log_upper_excess(spec, theta):.5f}")

# a known Assouad dimension sharpens the lower bound near theta = 1
sharpened = ds.carpet_spectrum(spec, grid, assouad_dim=1.6)
print("\nwith an Assouad dimension of 1.6 supplied:")
for s in sharpened.samples[-3:]:
    print(f"  theta={s.theta:4.2f}  lower={s.lower:.8f}")

from dimspect.cli import spectrum_to_csv

with open("carpet_2x3_spectrum.csv", "w", newline="") as fh:
    fh.write(spectrum_to_csv(ds.carpet_spectrum(spec, ds.default_theta_grid(101))))
print("\nwrote carpet_2x3_spectrum.csv")
