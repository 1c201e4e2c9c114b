"""Replace the time machine with an ordinary quantum channel.

Once the mixture's fixed point sigma* is known, the loop's effect on that
mixture is the linear channel rho -> Tr_loop(U (rho x sigma*) U+). Feeding
the loop register sigma* from a fresh preparation reproduces every labeled
mixture statistic without any closed loop. The catch: the channel depends
on the mixture it was frozen for, so it cannot beat the linear limits on
state discrimination.
"""

from ctcsim import experiments


def main():
    res = experiments.sim_equivalence(trials=10, seed=2024)
    print("random interactions, random two-state ensembles:")
    for trial, gap in enumerate(res["per_trial_distances"]):
        print(f"  trial {trial}: loop vs channel distance {gap:.3e}")
    print(f"  worst disagreement over {res['trials']} trials: "
          f"{res['max_trace_distance']:.3e}")
    print(f"  largest fixed-point residual: "
          f"{res['max_fixed_point_residual']:.3e}")


if __name__ == "__main__":
    main()
