//! Network configuration.
//!
//! Defaults follow Tables 4.2 / 4.3 of the thesis: virtual cut-through
//! flow control, 2 Gbps links, 2 MB router buffers, 1024-byte packets.

use prdrb_simcore::time::Time;
use prdrb_simcore::QueueKind;

/// Link bandwidth in Gbps (Table 4.2: 2 Gbps).
pub const LINK_GBPS: f64 = 2.0;
/// Router buffer capacity in bytes per input port per virtual channel
/// (Table 4.2 gives 2 MB per router split over ports × VCs; 64 KiB per
/// queue is the same order for the 12-port router of Fig 4.5).
pub const INPUT_BUF_BYTES: u32 = 64 * 1024;
/// Output queue capacity in bytes per port.
pub const OUTPUT_BUF_BYTES: u32 = 64 * 1024;
/// ACK packet size in bytes (routing info + status, Fig 3.17).
pub(crate) const ACK_BYTES: u32 = 64;
/// Fixed routing/arbitration delay per router.
pub(crate) const ROUTING_DELAY_NS: Time = 40;
/// Wire propagation delay per link, before the per-class extra.
pub(crate) const WIRE_DELAY_NS: Time = 10;
/// Cut-through handoff latency (header serialization).
pub(crate) const HEADER_NS: Time = 32;
/// Maximum contending flows carried per predictive header (`n`, a
/// system parameter — §3.3.1).
pub(crate) const MAX_FLOWS: usize = 8;
/// Minimum share of queue occupancy for a flow to be notified (§3.2.7:
/// only the flows contributing most to congestion).
pub(crate) const MIN_SHARE: f64 = 0.15;
/// Per-output-port refractory period between notifications
/// ("notification performed only once per buffer access").
pub(crate) const COOLDOWN_NS: Time = 20_000;

/// How congestion notifications reach sources (§3.2.2 vs §3.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyMode {
    /// No monitoring (baseline policies).
    Off,
    /// Contending flows travel in the data packet's predictive header and
    /// come back in the destination's ACK (§3.2.2, Fig 3.4).
    Destination,
    /// Congested routers inject predictive ACKs directly (early
    /// detection, §3.4.1, Fig 3.21); destinations still ACK latency.
    Router,
}

/// Congestion-monitoring parameters (the LU/CFD/GPA modules of Fig 3.19).
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Notification scheme.
    pub mode: NotifyMode,
    /// Output-queue wait that flags a router as congested and triggers
    /// contending-flow identification (§3.2.2 "high threshold").
    pub router_threshold_ns: Time,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            mode: NotifyMode::Destination,
            router_threshold_ns: 8_000,
        }
    }
}

/// Physical network parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Data packet payload+header size in bytes (Table 4.2: 1024).
    pub packet_bytes: u32,
    /// Extra propagation delay per latency class on top of the base
    /// wire delay `WIRE_DELAY_NS`, indexed by
    /// [`Topology::link_class`](prdrb_topology::Topology::link_class):
    /// `[local, global, server]`. All-zero by default, which reproduces
    /// the uniform-wire model exactly; nonzero global delay models long
    /// spine / inter-group cables (the dragonfly figure's 500 ns global
    /// wires).
    pub wire_class_extra_ns: [Time; prdrb_topology::NUM_LINK_CLASSES],
    /// Generate destination ACKs for data packets (DRB family needs
    /// them; pure baselines run without the overhead).
    pub acks_enabled: bool,
    /// Monitoring / notification parameters.
    pub monitor: MonitorConfig,
    /// Track per-router contention time series (costs memory; used by
    /// the latency-map and contention figures).
    pub contention_series_bucket_ns: Option<Time>,
    /// Event-calendar backend. Cannot change simulation results, only
    /// wall-clock speed (the golden-digest test enforces this), so it is
    /// deliberately excluded from the run-cache key.
    pub queue: QueueKind,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            packet_bytes: 1024,
            wire_class_extra_ns: [0; prdrb_topology::NUM_LINK_CLASSES],
            acks_enabled: true,
            monitor: MonitorConfig::default(),
            contention_series_bucket_ns: None,
            queue: QueueKind::Wheel,
        }
    }
}

impl NetworkConfig {
    /// Serialization time of `bytes` on a link.
    pub fn ser_ns(&self, bytes: u32) -> Time {
        prdrb_simcore::time::serialization_ns(bytes as u64, LINK_GBPS)
    }

    /// Propagation delay of a wire in latency class `class`.
    pub fn link_delay_ns(&self, class: u8) -> Time {
        let extra = self
            .wire_class_extra_ns
            .get(class as usize)
            .copied()
            .unwrap_or(0);
        WIRE_DELAY_NS.saturating_add(extra)
    }

    /// Panic on configurations that cannot make progress.
    pub fn validate(&self) {
        assert!(
            self.packet_bytes <= INPUT_BUF_BYTES,
            "a packet must fit in an input buffer or credits can never cover it"
        );
        assert!(
            self.packet_bytes <= OUTPUT_BUF_BYTES,
            "a packet must fit in an output buffer"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_tables() {
        let c = NetworkConfig::default();
        assert_eq!(c.packet_bytes, 1024);
        assert_eq!(c.ser_ns(1024), 4096);
        assert_eq!(c.wire_class_extra_ns, [0, 0, 0]);
        c.validate();
    }

    #[test]
    fn link_delay_adds_per_class_extra() {
        let c = NetworkConfig {
            wire_class_extra_ns: [0, 160, 5],
            ..NetworkConfig::default()
        };
        assert_eq!(c.link_delay_ns(0), WIRE_DELAY_NS);
        assert_eq!(c.link_delay_ns(1), WIRE_DELAY_NS + 160);
        assert_eq!(c.link_delay_ns(2), WIRE_DELAY_NS + 5);
        // Out-of-range classes fall back to the base delay.
        assert_eq!(c.link_delay_ns(7), WIRE_DELAY_NS);
    }

    #[test]
    #[should_panic(expected = "input buffer")]
    fn rejects_packet_larger_than_buffer() {
        let c = NetworkConfig {
            packet_bytes: 1 << 20,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn ack_smaller_than_data() {
        let c = NetworkConfig::default();
        assert!(ACK_BYTES < c.packet_bytes);
        assert_eq!(c.ser_ns(ACK_BYTES), 256);
    }
}
