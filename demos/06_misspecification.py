#!/usr/bin/env python3
"""When the linear model is wrong, whitening starts to win.

Two ways to break the model: a quadratic term in the teacher, or
features the regression never sees.  Both act like extra effective
label noise, and noise is what the inverse-Fisher flow handles best,
so the GD-vs-NGD ranking flips as misspecification grows.
"""
import numpy as np

from precondrisk import (LabelModel, MisspecSpec, PreconditionerSpec,
                         make_joint, make_two_atom, misspecified_bias,
                         sample_design, simulate_risk)


def iso(x):
    return np.ones_like(np.asarray(x, dtype=float))


fx = make_two_atom(20.0)
n, gamma = 300, 2.0
d = int(round(gamma * n))
designs = [sample_design(n, d, fx, "gaussian", s) for s in range(4)]
GD = PreconditionerSpec.identity()
NGD = PreconditionerSpec.inverse_pop_fisher()

print("quadratic teacher, sigma^2 = 0.1  (exact risk given X, 4 seeds)")
print(f"{'alpha_q':>8} {'GD':>8} {'NGD':>8}")
for alpha_q in (0.0, 0.005, 0.01, 0.02):
    model = LabelModel(kind="quadratic", sigma=np.sqrt(0.1),
                       prior_map=iso, alpha_q=alpha_q)
    risks = [simulate_risk(designs, p, model).mean_risk for p in (GD, NGD)]
    flip = "  <- NGD now ahead" if risks[1] < risks[0] else ""
    print(f"{alpha_q:8.3f} {risks[0]:8.4f} {risks[1]:8.4f}{flip}")

print()
print("unobserved feature block (bias only; exact formula vs simulation)")
print(f"{'trace':>6} {'GD theory':>10} {'GD sim':>8} {'NGD theory':>11} "
      f"{'NGD sim':>8}")
for tau in (0.1, 0.3, 1.0):
    row = [tau]
    for p in (GD, NGD):
        theory = misspecified_bias(make_joint(fx, iso, p), gamma,
                                   MisspecSpec(tau))
        model = LabelModel(kind="unobserved", sigma=1.0, prior_map=iso,
                           trace_term=tau)
        sim = simulate_risk(designs, p, model).mean_bias
        row += [theory, sim]
    print(f"{row[0]:6.1f} {row[1]:10.4f} {row[2]:8.4f} {row[3]:11.4f} "
          f"{row[4]:8.4f}")

print()
print("the unseen block inflates bias by trace * (1 + V0), so the")
print("low-variance flow also takes the smaller misspecification hit.")
