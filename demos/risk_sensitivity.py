#!/usr/bin/env python3
"""Fault-tree arithmetic: how much risk the human factors carry.

Evaluates the top-event failure probability at the baseline, then sweeps
the two factors an attacker can reach (trust in a false advisory, missed
real threats) and prints where the risk ratio goes.
"""

from tcassim import HumanFactors, top_event
from tcassim.fta import PHANTOM_ATTACK_OVERRIDES, sensitivity_sweep, sweep_to_csv

base = top_event(HumanFactors())
print("=== baseline, all human-factor probabilities at zero ===")
print(f"unresolved-threat branch  {base.p_unresolved:.3f}")
print(f"induced-collision branch  {base.p_induced:.3f}")
print(f"top event (sum)           {base.p_top_sum:.3f}")
print(f"top event (published)     {base.p_top_published:.3f}")
print("the two top-event constants disagree by "
      f"{base.p_top_sum - base.p_top_published:.3f}; both are reported")

print()
print("=== one pilot who always trusts a displayed advisory ===")
trusting = top_event(HumanFactors(ti=1.0), baseline_top=base.p_top_sum)
print(f"top event   {trusting.p_top_sum:.3f}   risk ratio {trusting.risk_ratio:.2f}")
if trusting.flags:
    print(f"flags: {trusting.flags}  (probabilities above 1 are reported, not clamped)")

print()
print("=== phantom attack pressure on VNA and VMIR ===")
sweep = sensitivity_sweep(
    grid={"ti": [0.0, 0.25, 0.5], "vna": [0.0, 0.3]},
    overrides=PHANTOM_ATTACK_OVERRIDES)
r = sweep.report
print(f"{'vna':>5} {'ti':>5} {'p_top':>8} {'ratio':>7}  flags")
for vna, ti, p_top, ratio, flags in zip(sweep.factors.vna, sweep.factors.ti,
                                        r.p_top_sum, r.risk_ratio, r.flags):
    print(f"{vna:>5.2f} {ti:>5.2f} {p_top:>8.4f} {ratio:>7.3f}  {';'.join(flags)}")

print()
print("same table as csv (feed to any plotting tool):")
print(sweep_to_csv(sweep))
