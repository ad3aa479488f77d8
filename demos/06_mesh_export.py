#!/usr/bin/env python3
"""Sampling surfaces into OBJ / CSV meshes for external viewers.

Hyperplanar surfaces project to 3D by dropping their frozen coordinate;
anything else picks a coordinate explicitly.  Scalar channels (K, H1, H2,
the sup-norm of the mean curvature vector, W) ride along per vertex.
"""
import io

from bour4 import grid_for, make_helicoid, sample_mesh
from bour4.meshes import resolve_projection, write_csv, write_obj

spec = make_helicoid("I", 1.0, {"x": "u", "z": "c1", "w": "0"},
                     (1.5, 3.0), constants={"c1": 0.5})
grid = grid_for(spec, nu=9, nv=17)
mesh = sample_mesh(spec, grid)  # sampled block by block as the writers read it
print("vertices:", grid.nu * grid.nv, " faces:", (grid.nu - 1) * (grid.nv - 1))
print("drop-constant picks coordinate index", resolve_projection(mesh, "drop-constant"),
      "(the frozen z)")

obj = io.StringIO()
write_obj(mesh, obj, "drop-constant")
print("--- first OBJ lines ---")
print("\n".join(obj.getvalue().splitlines()[:6]))

csv = io.StringIO()
rows = write_csv(mesh, csv)
print(f"--- CSV: {rows} rows ---")
print("\n".join(csv.getvalue().splitlines()[:3]))

# from the shell, the same thing:
#   bour4 export --spec spec.json --grid 33x33 --format obj --out mesh.obj
#   bour4 example 1 --out-dir out/   (writes both surfaces of the first pair)
