"""Why the discriminator is not a code breaker: mixtures change the game.

A referee prepares |0> or the designated state psi with a coin flip and
keeps a record of the choice. Run separately, each pure state is flagged
perfectly. Run as the labeled mixture the referee actually holds, the loop
settles on a fixed point that depends on the whole mixture, and the output
carries no trace of the label: the joint state factorizes and the mutual
information is zero. Evolving each branch and averaging afterwards predicts
the wrong answer; that shortcut is only valid for linear maps.
"""

import numpy as np

from ctcsim import experiments, run_discrimination, trace_distance

THETA = 0.6


def main():
    res = experiments.mixture(theta=THETA, probs=0.5)
    print("uniform labeled mixture of |0> and psi through the discriminator")
    print(f"  label-output mutual information: "
          f"{res['mutual_info_bits']:.3e} bits")
    print(f"  distance from product form:      "
          f"{res['product_distance']:.3e}")
    print(f"  guessing success probability:    {res['success_prob']:.4f}")
    print(f"  best linear strategy would get:  {res['helstrom_bound']:.4f}")
    print(f"  counts as success:               {res['success']}")
    print("  per-branch runs (each with its own consistent loop state):")
    for label, d in res["per_pure_vs_targets"].items():
        print(f"    label {label} alone -> distance to flag |{label}><{label}| "
              f"= {d:.3e}")

    # the naive prediction evolves each labeled branch and averages: it
    # keeps the label-flag correlation that the real run destroys
    circuit, ens = experiments.labeled_pair(THETA, 0.5)
    outcome = run_discrimination(circuit, ens)
    naive = np.zeros((4, 4), dtype=complex)
    for label, out in outcome.per_pure_outputs:
        tag = np.zeros((2, 2), dtype=complex)
        tag[label, label] = 0.5
        naive += np.kron(tag, out)
    print(f"  naive branch average vs truth:   "
          f"{trace_distance(naive, outcome.rho_out):.4f}  (joint state)")

    # weights enter nonlinearly: swapping 3/4 and 1/4 moves the output
    for p0 in (0.75, 0.25):
        o = run_discrimination(*experiments.labeled_pair(THETA, p0))
        diag = np.diag(o.rho_out.reshape(2, 2, 2, 2)
                       .trace(axis1=0, axis2=2)).real
        print(f"  weights {p0:.2f}/{1 - p0:.2f} -> output register diagonal "
              f"({diag[0]:.4f}, {diag[1]:.4f})")


if __name__ == "__main__":
    main()
