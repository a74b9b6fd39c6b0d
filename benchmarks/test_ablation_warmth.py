"""Ablation: resolver delegation-cache warmth (the attenuation knob).

DESIGN.md § 2 scales sensor visibility through cache warmth.  This bench
sweeps it and verifies the mechanism: warmer top-of-tree caches mean an
authority sees fewer distinct queriers per originator — the exact effect
the paper attributes to "caching of the top of the tree" (§ II, § IV-D).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.activity import SimulationEngine, build_campaign
from repro.dnssim import Authority, AuthorityLevel, DnsHierarchy, ResolverConfig
from repro.experiments.common import format_rows
from repro.netmodel import World, WorldConfig
from repro.sensor.engine import SensorEngine


@pytest.fixture(scope="module")
def warmth_world():
    return World(WorldConfig(seed=91, scale=0.7))


def _national_footprints(world, warmth: float, campaign) -> int:
    hierarchy = DnsHierarchy(
        world,
        seed=17,
        resolver_config=ResolverConfig(
            national_warm_shared=warmth, national_warm_self=warmth
        ),
    )
    sensor = hierarchy.attach_national(
        Authority(
            name="jp", level=AuthorityLevel.NATIONAL, country="jp",
            scope_slash8=frozenset(world.geo.blocks_of("jp")),
        )
    )
    engine = SimulationEngine(world, hierarchy)
    engine.add(campaign)
    engine.run(0.0, 2 * 86400.0)
    window = SensorEngine().collect(sensor.log, 0.0, 2 * 86400.0)
    observation = window.observations.get(campaign.originator)
    return observation.footprint if observation else 0


def test_ablation_cache_warmth(once, warmth_world):
    campaign = build_campaign(
        warmth_world, "spam", np.random.default_rng(3),
        start=0.0, duration_days=2.0, audience_size=600, home_country="jp",
    )

    def sweep():
        return {
            warmth: _national_footprints(warmth_world, warmth, campaign)
            for warmth in (0.0, 0.5, 0.9, 0.99)
        }

    footprints = once(sweep)
    print("\n" + format_rows(
        ["cache warmth", "sensor footprint", "of audience"],
        [
            [f"{w:.2f}", f, f"{f / campaign.footprint:.2f}"]
            for w, f in sorted(footprints.items())
        ],
    ))
    ordered = [footprints[w] for w in sorted(footprints)]
    # Fully cold caches show the sensor (nearly) the whole audience;
    # warmth attenuates monotonically and strongly.
    assert ordered[0] >= 0.9 * campaign.footprint
    assert all(b <= a for a, b in zip(ordered, ordered[1:]))
    # Warm top caches hide roughly a third of the audience at this
    # vantage (the short national delegation TTL re-exposes queriers as
    # entries expire over the two-day window).
    assert footprints[0.99] < 0.75 * footprints[0.0]
