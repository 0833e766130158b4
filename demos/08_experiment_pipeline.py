#!/usr/bin/env python3
"""The batch pipeline end to end, without leaving Python.

Everything the CLI does is importable: pick a preset, override its
seeds, run it into a directory, inspect the manifest, and emit a
standalone plot script.  Re-running the same config at the same pool
width reproduces the CSVs byte for byte (the manifest records their
digests, and the BLAS thread count the width chose).
"""
import json
import pathlib
import tempfile

from precondrisk import emit_plot_script, get_preset, run

out = pathlib.Path(tempfile.mkdtemp(prefix="precondrisk_demo_"))

config = get_preset("fig3a").to_dict()
config["seeds"] = list(range(5))  # lighter than the shipped preset
manifest = run(config, out_dir=str(out), workers=2)

print(f"experiment {manifest.experiment} -> {out}")
print(f"config hash {manifest.config_hash[:16]}...")
for name, digest in manifest.outputs.items():
    print(f"  {name}  sha256 {digest[:16]}...")

print(f"BLAS threads {manifest.blas['threads']} "
      f"for {manifest.blas['workers']} workers")

again = run(config, out_dir=str(out / "again"), workers=2)
print("byte-identical on re-run:", again.outputs == manifest.outputs)

script = out / "plot_fig3a.py"
emit_plot_script([str(out / "fig3a_theory.csv"),
                  str(out / "fig3a_sim.csv")], "gamma", str(script))
print(f"plot script written to {script} (plain matplotlib, no imports")
print("from this package; run it anywhere the CSVs are).")

meta = json.loads((out / "fig3a_manifest.json").read_text())
print("recorded generator:", meta["generator"])
