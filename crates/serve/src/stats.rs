//! Serving statistics: what the operator of a prediction node watches.

exa_telemetry::stats_struct! {
    /// A point-in-time snapshot of a [`PredictionServer`](crate::PredictionServer)'s
    /// counters (totals since start unless the stat says otherwise).
    ///
    /// This declaration is the only place a serve stat is named: the field is
    /// the key of the `serve` object in `GET /v1/stats`, `exa_serve_<field>`
    /// in `GET /metrics`, the first doc line is the `# HELP` text and the
    /// leading word the `# TYPE` (see [`ServerStats::STATS`]).
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct ServerStats {
        /// Requests accepted into the serve queue.
        Counter requests_submitted: u64,
        /// Requests answered successfully by the serve layer.
        Counter requests_served: u64,
        /// Requests answered with an error by the serve layer.
        /// (Bad query, model failure.)
        Counter requests_failed: u64,
        /// Model calls made, one per answered request.
        /// Inline runs included.
        Counter batches_executed: u64,
        /// Requests merged into another request's model call; always 0.
        /// Requests are never merged. The key stays so readers of
        /// `/v1/stats` and `/metrics` keep their schema.
        Counter requests_coalesced: u64,
        /// Total prediction points answered.
        Counter points_served: u64,
        /// Queue-depth high-water mark.
        /// (Pending requests at submit time.)
        Counter max_queue_depth: u64,
        /// Requests currently queued in the serve layer.
        /// (Submitted, not yet claimed by a worker.)
        Gauge queue_depth: u64,
        /// Sum of per-request submit-to-response latencies.
        /// Seconds.
        Gauge total_latency_seconds: f64,
        /// Worst single-request latency.
        /// Seconds.
        Gauge max_latency_seconds: f64,
        /// Mean submit-to-response latency.
        /// Seconds; 0 when nothing completed.
        Gauge mean_latency_seconds: f64,
        /// Median serve latency from the latency histogram.
        /// (Bucket upper bound, ≤ 3.2 % above the exact order statistic; 0
        /// before the first request.)
        Gauge latency_p50_seconds: f64,
        /// 95th-percentile serve latency from the latency histogram.
        Gauge latency_p95_seconds: f64,
        /// 99th-percentile serve latency from the latency histogram.
        Gauge latency_p99_seconds: f64,
        /// 99.9th-percentile serve latency from the latency histogram.
        Gauge latency_p999_seconds: f64,
        /// Cholesky factorizations performed by serve workers (must stay 0).
        /// The serving layer only ever applies cached factors; this is
        /// surfaced so load tests and benches can assert it. Streaming
        /// ingestion does not move it: incremental updates never `potrf` the
        /// full matrix, and background refits run on their own thread.
        Counter factorizations_during_serving: u64,
        /// Observe batches applied successfully (the write path).
        Counter observes_applied: u64,
        /// Observation points ingested by successful observes.
        Counter observe_points_ingested: u64,
        /// Observe batches rejected or failed.
        Counter observes_failed: u64,
        /// Observes that fell back to a synchronous full refit.
        /// (Tile/TLR factors cannot update incrementally.)
        Counter observe_sync_refits: u64,
        /// Background refactorizations scheduled by drift during an observe.
        Counter observe_refits_triggered: u64,
        /// Median observe latency from the observe histogram.
        /// (Update or fallback refit.)
        Gauge observe_p50_seconds: f64,
        /// 95th-percentile observe latency from the observe histogram.
        Gauge observe_p95_seconds: f64,
        /// 99th-percentile observe latency from the observe histogram.
        Gauge observe_p99_seconds: f64,
        /// Incremental updates applied since the last refactorization (max over resident models).
        Gauge ingest_updates_since_refactor: u64,
        /// Lifetime observe/expire calls across resident models.
        /// A gauge like the five below: the sum runs over the models resident
        /// *now*, so an eviction lowers it.
        Gauge ingest_updates_total: u64,
        /// Lifetime observation points ingested across resident models.
        Gauge ingest_points_ingested: u64,
        /// Lifetime observation points expired across resident models.
        Gauge ingest_points_expired: u64,
        /// Background refactorizations scheduled by drift policy.
        Gauge ingest_refits_triggered: u64,
        /// Refactorizations (background or fallback) completed.
        Gauge ingest_refits_completed: u64,
        /// Write operations replayed onto freshly refactored models.
        Gauge ingest_replayed_updates: u64,
        /// Condition-estimate growth since the last refactorization (max over resident models).
        Gauge ingest_condition_growth: f64,
        /// Per-point log-likelihood drift since the last refactorization (max over resident models).
        Gauge ingest_loglik_drift: f64,
    }
}
