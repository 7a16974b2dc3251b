"""repro — a reproduction of "On Moving Object Queries"
(Mokhtar, Su, Ibarra, PODS 2002).

The library implements the paper end to end:

- the **moving object data model** (Section 2): piecewise-linear
  trajectories, the MOD triple ``(O, T, tau)``, and the
  ``new``/``terminate``/``chdir`` update algebra —
  :mod:`repro.trajectory`, :mod:`repro.mod`;
- the **constraint query language** of Section 3 with its
  quantifier-elimination evaluation (Proposition 1) and the
  past/continuing/future taxonomy (Definitions 4-5, Theorem 2) —
  :mod:`repro.constraints`;
- **generalized distances** (Section 4) — :mod:`repro.gdist` — and the
  **FO(f) query language** with snapshot / accumulative / persevering
  answers — :mod:`repro.query`;
- the **plane-sweep evaluation engine** (Section 5, Theorems 4, 5, 10,
  Lemma 9) — :mod:`repro.sweep`;
- baselines, synthetic workloads, and the paper's worked scenarios —
  :mod:`repro.baselines`, :mod:`repro.workloads`.

Quickstart::

    from repro import MovingObjectDatabase, evaluate_knn, Interval

    db = MovingObjectDatabase()
    db.create("cab-7", time=1.0, position=[2.0, 1.0], velocity=[0.5, 0.0])
    db.create("cab-9", time=2.0, position=[9.0, 3.0], velocity=[-1.0, 0.0])
    answer = evaluate_knn(db, query=[0.0, 0.0], interval=Interval(2.0, 20.0), k=1)
    print(answer)
"""

from repro.cache import QueryCache
from repro.core.api import (
    ContinuousQuerySession,
    evaluate_knn,
    evaluate_multiknn,
    evaluate_query,
    evaluate_within,
    serve,
    serve_tcp,
)
from repro.geometry.intervals import Interval, IntervalSet
from repro.geometry.poly import Polynomial
from repro.geometry.vectors import Vector
from repro.gdist.arrival import ArrivalTimeGDistance, SquaredArrivalTimeGDistance
from repro.gdist.base import GDistance
from repro.gdist.approx import PolynomialApproximation
from repro.gdist.coordinate import CoordinateValue, WeightedSquaredDistance
from repro.gdist.euclidean import SquaredEuclideanDistance
from repro.mod.database import MovingObjectDatabase
from repro.mod.log import RecordingDatabase, UpdateLog
from repro.mod.updates import ChangeDirection, New, Terminate
from repro.obs import (
    ComplexityAudit,
    ExplainReport,
    Instrumentation,
    MetricsRegistry,
    QueryProfile,
    QueryProfiler,
    SlowQueryLog,
    TraceContext,
    Tracer,
    WorkloadAttribution,
    as_instrumentation,
    explain,
)
from repro.query.answers import SnapshotAnswer
from repro.query.query import Query, knn_query, within_query
from repro.resilience.ingest import IngestPipeline, IngestStats, RejectedUpdate
from repro.resilience.supervisor import SupervisedQuerySession, SupervisorStats
from repro.resilience.wal import WriteAheadLog, recover
from repro.server import (
    AdmissionError,
    QueryServer,
    ServerConfig,
    ServerClosedError,
    ServerError,
    ServerSession,
    SessionClosedError,
    SessionQuarantinedError,
    SessionQueuedError,
    SessionShedError,
)
from repro.sweep.engine import SweepEngine
from repro.trajectory.builder import from_waypoints, linear_from, stationary
from repro.trajectory.trajectory import Trajectory

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "ArrivalTimeGDistance",
    "ChangeDirection",
    "ComplexityAudit",
    "ContinuousQuerySession",
    "CoordinateValue",
    "ExplainReport",
    "GDistance",
    "IngestPipeline",
    "IngestStats",
    "Instrumentation",
    "Interval",
    "IntervalSet",
    "MetricsRegistry",
    "MovingObjectDatabase",
    "New",
    "Polynomial",
    "PolynomialApproximation",
    "Query",
    "QueryCache",
    "QueryProfile",
    "QueryProfiler",
    "QueryServer",
    "RecordingDatabase",
    "RejectedUpdate",
    "ServerClosedError",
    "ServerConfig",
    "ServerError",
    "ServerSession",
    "SessionClosedError",
    "SessionQuarantinedError",
    "SessionQueuedError",
    "SessionShedError",
    "SlowQueryLog",
    "SnapshotAnswer",
    "SquaredArrivalTimeGDistance",
    "SquaredEuclideanDistance",
    "SupervisedQuerySession",
    "SupervisorStats",
    "SweepEngine",
    "Terminate",
    "TraceContext",
    "Tracer",
    "Trajectory",
    "UpdateLog",
    "Vector",
    "WeightedSquaredDistance",
    "WorkloadAttribution",
    "WriteAheadLog",
    "as_instrumentation",
    "evaluate_knn",
    "evaluate_multiknn",
    "evaluate_query",
    "evaluate_within",
    "explain",
    "from_waypoints",
    "knn_query",
    "linear_from",
    "recover",
    "serve",
    "serve_tcp",
    "stationary",
    "within_query",
]
