"""Feed half of a maximally entangled pair through a time machine.

Alice and Bob share the pair (|00> + |11>)/sqrt(2). Bob's half is swapped
with the register that loops back in time. Self-consistency forces the
looping register into the maximally mixed state, and the swap hands that
state back to Bob: the pair comes out in the product state I/2 x I/2, with
every bit of correlation gone.
"""

from ctcsim import experiments


def main():
    res = experiments.epr()
    fp = res["fixed_point"]

    print("disentangling a shared pair with one swap through the loop")
    print(f"  consistent loop state:   distance to I/2 = "
          f"{res['sigma_vs_half_identity']:.3e}")
    print(f"  fixed-point residual:    {fp['residual']:.3e} "
          f"(space dimension {fp['fixed_space_dim']})")
    print(f"  output state:            distance to I/4 = "
          f"{res['output_vs_quarter_identity']:.3e}")
    print(f"  mutual information in:   "
          f"{res['input_mutual_info_bits']:.6f} bits")
    print(f"  mutual information out:  "
          f"{res['output_mutual_info_bits']:.3e} bits")


if __name__ == "__main__":
    main()
