"""Tell two nonorthogonal states apart with one use of a time machine.

No ordinary measurement can distinguish |0> from cos(t)|0> + sin(t)|1> with
certainty. The two-state discriminator circuit exploits the loop's
self-consistency instead: on input |0> the loop settles at |0> and the
output is flagged |0>; on the designated state it settles at |1> and the
output is flagged |1>. The flags are exactly orthogonal for every angle,
even as the two inputs become nearly identical.
"""

import math

from ctcsim import experiments


def main():
    print("angle   overlap   output distance   best linear success")
    for theta in (1.2, 0.8, 0.4, 0.2, 0.1):
        separation = experiments.bhw2(theta=theta)["output_trace_distance"]
        linear = experiments.mixture(theta=theta)["helstrom_bound"]
        overlap = math.cos(theta) ** 2
        print(f" {theta:.1f}    {overlap:.4f}        {separation:.6f}"
              f"         {linear:.6f}")

    print()
    print("the output distance stays at 1 (perfect discrimination) while")
    print("the optimal linear success probability falls toward 1/2")


if __name__ == "__main__":
    main()
