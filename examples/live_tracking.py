"""Live tracking: future queries, eager maintenance, and why periodic
re-search is not enough (Figure 2).

Run with::

    python examples/live_tracking.py

Part 1 replays Figure 2 of the paper with a continuous 1-NN session:
an intersection event predicted at time D is cancelled by one update
and replaced, by a later update, with an exchange at C < D.  The sweep
engine catches the exchange exactly; the Song-Roussopoulos-style
periodic re-search baseline [26] holds a stale answer through it.

Part 2 runs a larger randomized update stream and reports the sweep's
bookkeeping costs (Theorem 5 / Corollary 6 in action) next to the
baseline's staleness.
"""

from repro import ContinuousQuerySession, Interval, SquaredEuclideanDistance
from repro.baselines.naive import naive_knn_answer
from repro.baselines.periodic_knn import PeriodicKNNBaseline, staleness
from repro.workloads.generator import UpdateStream, random_linear_mod
from repro.workloads.paperfigures import figure2_scenario


def figure2_live() -> None:
    sc = figure2_scenario()
    session = ContinuousQuerySession.knn(
        sc.db, sc.query, k=1, start=0.0, until=sc.interval.hi
    )
    # The session's live host keeps one candidate engine in force (a
    # re-plan may replace it): with two objects, both are candidates.
    live = session.engine

    print("Figure 2, live:")
    print(f"  t=0: nearest={sorted(session.members)}; "
          f"exchange predicted at D={live.engine._queue.peek_time():g}")

    sc.db.apply(sc.update_a)  # o1 stops: the predicted exchange vanishes
    print(f"  t={sc.update_a.time:g}: o1 stops; queued events: "
          f"{live.engine.queue_length}")

    sc.db.apply(sc.update_b)  # o2 flees: a new, earlier exchange appears
    print(f"  t={sc.update_b.time:g}: o2 flees; exchange now at "
          f"C={live.engine._queue.peek_time():g}")

    session.advance_to(9.0)
    print(f"  t=9: nearest={sorted(session.members)} (exchanged at C=8.4)")
    answer = session.close(at=sc.interval.hi)

    # The periodic baseline refreshes at both updates and still misses C.
    baseline = PeriodicKNNBaseline(sc.db, sc.query, k=1, period=100.0)
    stale = baseline.snapshot_answer(
        sc.interval, update_times=[sc.update_a.time, sc.update_b.time]
    )
    print(f"  baseline at t=9 says {sorted(stale.at(9.0))} "
          f"(stale for {staleness(stale, answer, sc.interval):.0%} of the interval)")


def randomized_stream(n_objects: int = 40, n_updates: int = 60) -> None:
    db = random_linear_mod(n_objects, seed=11, extent=60.0, speed=6.0)
    depot = [0.0, 0.0]
    horizon = 240.0
    session = ContinuousQuerySession.knn(db, depot, k=3, until=horizon)
    stream = UpdateStream(db, seed=12, mean_gap=2.0, extent=60.0, speed=6.0)
    stream.run(n_updates)
    end = min(db.last_update_time + 5.0, horizon)
    answer = session.close(at=end)
    stats = session.engine.stats

    print(f"\nRandomized stream: {n_objects} objects, {n_updates} updates")
    print(f"  support changes processed: {stats.support_changes} "
          f"(swaps={stats.swaps}, inserts={stats.insertions}, "
          f"removals={stats.removals})")
    print(f"  curves under the bar at the close: {session.engine.candidates} "
          f"of {db.object_count} objects, after {session.engine.replans} "
          f"re-bars")

    exact = naive_knn_answer(
        db, SquaredEuclideanDistance(depot), Interval(0.0, end), 3
    )
    agreement = answer.approx_equals(exact, atol=1e-6)
    print(f"  sweep answer equals O(N^2) naive recomputation: {agreement}")

    for period in (8.0, 2.0, 0.5):
        baseline = PeriodicKNNBaseline(db, session.engine.gdistance.query_trajectory, k=3, period=period)
        stale = baseline.snapshot_answer(Interval(0.0, end))
        rate = staleness(stale, exact, Interval(0.0, end))
        print(f"  periodic baseline, period {period:4g}: "
              f"stale {rate:.1%} of the time "
              f"({baseline.refresh_count} re-searches)")


def main() -> None:
    figure2_live()
    randomized_stream()


if __name__ == "__main__":
    main()
