"""Pool parity: the two shapes of the one engine pool read alike.

A server group is the many-tenant pool (born at the source's ``tau``,
sweeping ``[birth, ∞)``, a spec attached with ``acquire``); a
supervised session holds the one-tenant pool (``spec=``: the window
``[lo, hi]``, the spec attached from birth, subscribed to the MOD
through ``group.apply``).  The same spec through both and through one
single engine must give equal instant answers at every probe and equal
window answers, for all three kinds — the one-tenant pool for multiknn
too, which no session class opens.
"""

import pytest

from repro.server.group import EngineGroup

from tests._oracle import (
    KNN,
    MULTIKNN,
    WITHIN,
    _scenario_spec,
    answers_equal,
    assert_probes_equal,
    generate_scenario,
    run_group,
    run_single,
)

SEEDS = {
    KNN: range(0, 12),
    WITHIN: range(1000, 1012),
    MULTIKNN: range(2000, 2012),
}


def run_one_tenant_pool(sc, mode):
    """Final answer + probe answers from a ``spec=`` pool subscribed to
    the scenario's MOD, as a supervised session holds it."""
    db = sc.build_db()
    spec = _scenario_spec(sc, mode).over(sc.start, sc.horizon)
    group = EngineGroup(0, db, spec.gdistance, spec.constants, spec=spec)
    db.subscribe(group.apply)
    probes = []
    for update, probe in sc.schedule():
        db.apply(update)
        if probe is not None:
            group.advance_to(probe)
            probes.append((probe, group.members(spec)))
    group.advance_to(sc.horizon)
    group.finalize()
    final = group.partial(spec, sc.start, sc.horizon)
    db.unsubscribe(group.apply)
    group.shutdown()
    return final, probes


@pytest.mark.parametrize(
    "mode, seed",
    [(mode, seed) for mode, seeds in SEEDS.items() for seed in seeds],
)
def test_both_pools_agree_with_one_engine(mode, seed):
    sc = generate_scenario(seed)
    single_final, single_probes = run_single(sc, mode)
    paths = {
        "many-tenant pool": run_group(sc, mode),
        "one-tenant pool": run_one_tenant_pool(sc, mode),
    }
    for label, (final, probes) in paths.items():
        assert_probes_equal(probes, single_probes, f"seed {seed} {mode} {label}")
        assert answers_equal(final, single_final), f"seed {seed} {mode} {label}"
