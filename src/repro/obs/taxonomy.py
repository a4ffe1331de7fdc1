"""The span taxonomy: every span name the instrumentation may emit.

``docs/observability.md`` documents each of these in its taxonomy
table, and ``tools/check_docs.py`` cross-checks the two (both ways) —
the same contract ``docs/analysis.md`` has with the analyzer's
diagnostic codes.  Instrumentation code must not invent names outside
this dict; tests assert that traced lifecycles emit a subset of it.

:data:`METRICS` plays the same role for the *named* metrics counters a
docs page commits to (beyond the generic ``{kind}.{field}`` mirroring
of ``EvaluationResult`` stats): ``docs/graph-index.md`` documents each
one and ``tools/check_docs.py`` cross-checks that table too.
"""

from __future__ import annotations

#: span name -> one-line description (mirrors docs/observability.md).
SPANS: dict[str, str] = {
    # -- update exchange ---------------------------------------------------
    "exchange": "One CDSS.exchange call (attrs: engine, resident, rounds, firings).",
    "exchange.validate": "Pre-flight static analysis of the mapping program.",
    "exchange.compile": "Mapping-program compilation / cache fetch (attrs: cache_hit).",
    "exchange.mirror": "Ship of pending local rows into the store (attrs: rows, relations).",
    "exchange.round": "One semi-naive round of either engine (attrs: round).",
    "exchange.rule": "One compiled plan over one delta, memory engine (attrs: rule).",
    "exchange.statement": "One SQL statement of a round, sqlite engine (attrs: rule, phase, fingerprint).",
    "exchange.publish": "Head-insert + provenance publication of a sqlite round.",
    "exchange.sqlite": "sqlite statement-hook rollup for one run (attrs: statements, fingerprints).",
    # -- deletion propagation ----------------------------------------------
    "deletion": "One CDSS.propagate_deletions call (attrs: engine).",
    "deletion.annotate": "Derivability annotation of the in-memory graph.",
    "deletion.fixpoint": "SQL liveness fixpoint over the lowered program.",
    "deletion.kill": "Kill sweep: delete unsupported rows and dead P_m rows.",
    "fixpoint.round": "One round of the shared SQL liveness fixpoint (attrs: round, firings).",
    # -- graph queries ------------------------------------------------------
    "graph_query": "One CDSS.{derivability,lineage,trusted} call (attrs: query, engine).",
    "walk.round": "One backward-walk round of the resident lineage query (attrs: round).",
    # -- maintained reachability index ---------------------------------------
    "index.maintain": "Post-run maintenance of the reachability index (attrs: mode, fires).",
    "index.rebuild": "Query-time index rebuild from the stored firing history (attrs: fires).",
    # -- concurrent serving --------------------------------------------------
    "serve.query": "One read-only reader answer (attrs: kind, epoch, cache_hit, path).",
    "serve.checkpoint": "Writer WAL checkpoint under checkpoint_with_retry (attrs: mode, busy, retries).",
    # -- ProQL --------------------------------------------------------------
    "query.unfold": "ProQL-to-datalog unfolding of one query (attrs: rules, mode).",
    "query.compile": "Datalog-to-SQL translation, accumulated across unfolded rules.",
    "query.sql": "SQL execution against the store, accumulated across unfolded rules.",
    "query.reconstruct": "Row-to-graph reconstruction of the query answer.",
    "unfold.expand": "Unfolding stage: mapping application / alternative expansion.",
    "unfold.merge_specs": "Unfolding stage: merging projection specs into rewritten rules.",
    "unfold.dedupe": "Unfolding stage: canonical-form deduplication of rewritings.",
    "unfold.prune": "Unfolding stage: oracle pruning + subsumption factorization (attrs: rules).",
}

#: metric name -> one-line description (mirrors docs/graph-index.md).
METRICS: dict[str, str] = {
    "graph_query.index_hit": "Resident graph query answered from the maintained (current) reachability index.",
    "graph_query.index_miss": "Resident graph query forced a query-time index rebuild before answering.",
}

#: serving-tier metric name -> one-line description (mirrors
#: docs/serving.md; kept separate from :data:`METRICS` because each
#: docs page cross-checks exactly its own catalog).
SERVE_METRICS: dict[str, str] = {
    "serve.queries": "Reader queries answered (any path, including cache hits).",
    "serve.cache_hits": "Reader queries answered from the session's per-epoch result cache.",
    "serve.snapshot_refreshes": "Snapshots that observed a new epoch and dropped the session caches.",
    "serve.stale_retries": "Snapshot attempts refused because the index was stale or a run was dirty.",
    "serve.busy_retries": "SQLITE_BUSY/LOCKED attempts retried while opening or reading.",
    "serve.unavailable": "Queries that exhausted the retry budget (ServeUnavailable raised).",
    "serve.checkpoints": "Writer checkpoints issued through checkpoint_with_retry.",
    "serve.checkpoint_retries": "Checkpoint attempts repeated because a reader snapshot pinned the WAL.",
}
