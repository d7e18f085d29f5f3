"""Run the comparator verification suites at desk scale and print verdicts.

Each suite samples distributions under the factorization the comparison
requires, evaluates its table of identity expressions through one compiled
map per distribution, and projects the regions to check containment.
Everything is reproducible from the seeds shown in the reports.
"""

from cifc.verify import run_suite, sampled_region_containment
from cifc.channel import random_channel


def show(report):
    flag = "ok " if report.ok else "FAIL"
    print(f"[{flag}] suite {report.suite}")
    for c in report.checks:
        print(f"    {c.check_id}: seeds={c.seeds_run} max|v|={c.max_abs_violation:.2e}"
              + (f" details={c.details}" if c.details else ""))


print("equation-by-equation comparison of the enlarged regions")
show(*run_suite("devroye", samples=60, seed=0))

print("\nmerged-satellite reduction and pinned-region equality")
show(*run_suite("cc", samples=60, seed=0))

print("\nindependent-common-messages comparator")
show(*run_suite("jiang", samples=60, seed=0))
show(sampled_region_containment("RTD_JIANG", "JIANG", samples=30, seed=20_000))

print("\nsplit-primary-input merge")
show(*run_suite("maric", samples=60, seed=0))

print("\nsampled containment: enlarged comparator inside restricted unified region")
show(sampled_region_containment("RTD_IN", "DMT_OUT", channel=random_channel(7),
                                samples=40, seed=0))
