//! HTTP serving metric families.
//!
//! `nous-serve` records every wire-level event through this one façade so
//! the serving surface shows up in `/metrics` with a consistent naming
//! scheme and so the latency histograms carry exemplar trace ids (the
//! p99-alert workflow: scrape the exemplar, resolve it in the flight
//! recorder, read the span tree).
//!
//! Families:
//!
//! - `nous_http_requests_total{route,status}` — one increment per
//!   completed request, including error responses.
//! - `nous_http_request_seconds{route}` — wall time from first request
//!   byte to response flush, exemplar-linked to the request trace.
//! - `nous_http_in_flight` — requests currently being handled by a
//!   worker (admission-queue occupancy is bounded separately).
//! - `nous_http_shed_total{reason}` — load-shed responses: the admission
//!   queue was full (`queue_full`) or a tenant ran out of rate-limit
//!   tokens (`rate_limit`).

use crate::metrics::{Counter, Gauge};
use crate::registry::MetricsRegistry;

/// Handle bundle for the HTTP serving families. Cheap to clone; the
/// per-`(route, status)` series are get-or-created on first observation,
/// so a route that never sheds never shows a shed series.
#[derive(Clone)]
pub struct HttpMetrics {
    registry: MetricsRegistry,
    /// Requests currently executing in a worker.
    pub in_flight: Gauge,
    /// Accepted connections waiting in the worker queue.
    pub queued: Gauge,
}

impl HttpMetrics {
    pub fn new(registry: &MetricsRegistry) -> Self {
        let in_flight = registry.gauge(
            "nous_http_in_flight",
            "HTTP requests currently being handled by a worker",
        );
        let queued = registry.gauge(
            "nous_http_queued",
            "Accepted connections waiting in the worker queue",
        );
        Self {
            registry: registry.clone(),
            in_flight,
            queued,
        }
    }

    /// The `{route,status}` request counter (get-or-create).
    pub fn requests(&self, route: &str, status: u16) -> Counter {
        self.registry.counter_with(
            "nous_http_requests_total",
            "HTTP requests completed, by route and response status",
            &[("route", route), ("status", &status.to_string())],
        )
    }

    /// Record one completed request: bump the `{route,status}` counter
    /// and feed the per-route latency histogram, exemplar-linked to the
    /// request trace (0 = no trace).
    pub fn observe(&self, route: &str, status: u16, elapsed_nanos: u64, trace_id: u64) {
        self.requests(route, status).inc();
        let hist = self.registry.latency_with(
            "nous_http_request_seconds",
            "HTTP request wall time from first byte read to response flush",
            &[("route", route)],
        );
        hist.observe_traced(elapsed_nanos, trace_id);
    }

    /// Record one load-shed response (`reason` ∈ {`queue_full`,
    /// `rate_limit`}).
    pub fn shed(&self, reason: &str) {
        self.registry
            .counter_with(
                "nous_http_shed_total",
                "HTTP requests shed by admission control, by reason",
                &[("reason", reason)],
            )
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_render_into_prometheus() {
        let registry = MetricsRegistry::new();
        let http = HttpMetrics::new(&registry);
        http.in_flight.add(1);
        http.observe("/query", 200, 1_500_000, 0xABCD);
        http.observe("/query", 400, 2_000, 0);
        http.shed("queue_full");
        http.in_flight.add(-1);

        let text = registry.render_prometheus();
        assert!(text.contains("nous_http_requests_total"), "{text}");
        assert!(
            text.contains(r#"route="/query""#) && text.contains(r#"status="200""#),
            "{text}"
        );
        assert!(text.contains("nous_http_request_seconds"), "{text}");
        assert!(
            text.contains(r#"nous_http_shed_total{reason="queue_full"} 1"#),
            "{text}"
        );
        assert_eq!(
            registry.counter_value(
                "nous_http_requests_total",
                &[("route", "/query"), ("status", "200")]
            ),
            Some(1)
        );
        assert_eq!(registry.gauge_value("nous_http_in_flight", &[]), Some(0));
        assert_eq!(registry.gauge_value("nous_http_queued", &[]), Some(0));
    }
}
