//! Observability layer for the EMBSAN stack: structured event tracing, a
//! typed metrics registry and feature-gated hot-path profilers.
//!
//! The layer is threaded through emu → core → fuzz → cli and is designed
//! around two constraints:
//!
//! - **zero cost when disabled** — every subsystem holds a [`Tracer`]
//!   handle that is a single `Option` check when tracing is off, and the
//!   [`profile`] timers compile to unit structs unless the `profile`
//!   cargo feature is enabled;
//! - **determinism** — events are tagged with the machine's
//!   lifetime-retired instruction clock plus a per-buffer sequence number,
//!   so a trace is a pure function of guest execution. The
//!   [`trace::TraceConfig::deterministic`] preset excludes the events that
//!   depend on translation-cache warmth (and therefore on worker schedule
//!   or kill/resume replay), which is what lets parallel campaigns merge
//!   per-iteration trace spans into a stream that is identical for every
//!   worker count.
//!
//! Exports: JSONL (`embsan-trace-v1`, one event per line) and Chrome
//! `trace_event` JSON for flame views; metric snapshots as
//! `embsan-metrics-v1` JSON with a deterministic/telemetry split.
//!
//! The crate also holds the primitives every layer shares: the one JSON
//! codec ([`json`]) behind all wire formats, and the FNV-1a hash
//! ([`fnv1a`]) behind content identities and signatures.

pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use event::{AllocOp, Event, EventKind, ProbeKind};
pub use metrics::{
    Histogram, MetricClass, MetricEntry, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use profile::{Phase, ProfileReport, Profiler};
pub use trace::{
    jsonl_header, trace_to_chrome, trace_to_jsonl, MergedTrace, TraceConfig, TraceSpan, Tracer,
};

/// The 64-bit FNV-1a offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into the 64-bit FNV-1a state `hash` (start from
/// [`FNV_OFFSET`]). Chaining calls hashes the concatenation.
#[inline]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), 0x8594_4171_f739_67e8);
    }
}
