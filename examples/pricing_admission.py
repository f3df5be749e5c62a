"""Admission control: how much generic capacity should a provider sell?

The paper's introduction argues load-balancing quality is "a source of
revenue" for a cloud provider; the analysis then optimizes response
time at a *given* load.  This example adds the missing business layer:
tasks pay full price only when served fast (linear decay to zero at an
SLA deadline), so admitting more traffic earns more fees per second but
each fee shrinks as queues build.  Somewhere between empty and
saturated lies the profit-maximizing admission level.

Run with::

    python examples/pricing_admission.py
"""

from repro.core.economics import (
    LinearDecayRevenue,
    optimize_admission,
    profit_rate,
)
from repro.workloads import example_group

group = example_group()
sla = LinearDecayRevenue(price=1.0, free_threshold=1.0, deadline=4.0)

print(
    f"fleet: {group!r}\n"
    f"pricing: {sla.price:.2f}/task below {sla.free_threshold:.1f}s, "
    f"decaying to 0 at {sla.deadline:.1f}s\n"
)

print(f"{'admitted':>9} {'of sat.':>8} {'T_opt':>8} {'rev/task':>9} {'profit/s':>9}")
for frac in (0.2, 0.4, 0.6, 0.8, 0.9, 0.97):
    lam = frac * group.max_generic_rate
    from repro import solve

    t = solve(group, lam).mean_response_time
    p = profit_rate(group, lam, sla, cost_per_time=0.0)
    print(
        f"{lam:>9.2f} {frac:>8.0%} {t:>8.4f} {sla.per_task(t):>9.4f} {p:>9.4f}"
    )

best = optimize_admission(group, sla)
print(
    f"\nprofit-maximizing admission: {best.admitted_rate:.2f} tasks/s "
    f"({best.load_fraction:.0%} of saturation)\n"
    f"  mean response time {best.distribution.mean_response_time:.4f} s, "
    f"revenue/task {best.revenue_per_task:.4f}, profit {best.profit:.4f}/s"
)
print(
    "\nreading: revenue/task is flat until queueing pushes T' past the\n"
    "free threshold; beyond the optimum, each extra admitted task costs\n"
    "more in degraded fees than it brings in - the provider should cap\n"
    "admission there even though 'capacity' remains."
)
