//! Network configuration.
//!
//! Defaults follow Tables 4.2 / 4.3 of the thesis: virtual cut-through
//! flow control, 2 Gbps links, 2 MB router buffers, 1024-byte packets.

use prdrb_simcore::time::Time;
use prdrb_simcore::QueueKind;

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
    /// Maximum contending flows carried per predictive header
    /// (`n`, a system parameter — §3.3.1).
    pub max_flows: usize,
    /// Minimum share of queue occupancy for a flow to be notified
    /// (§3.2.7: only the flows contributing most to congestion).
    pub min_share: f64,
    /// Per-output-port refractory period between notifications
    /// ("notification performed only once per buffer access").
    pub cooldown_ns: Time,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            mode: NotifyMode::Destination,
            router_threshold_ns: 8_000,
            max_flows: 8,
            min_share: 0.15,
            cooldown_ns: 20_000,
        }
    }
}

/// Physical network parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Link bandwidth in Gbps (Table 4.2: 2 Gbps).
    pub link_gbps: f64,
    /// Router buffer capacity in bytes per input port per virtual
    /// channel (Table 4.2 gives 2 MB per router; divided across queues).
    pub input_buf_bytes: u32,
    /// Output queue capacity in bytes per port.
    pub output_buf_bytes: u32,
    /// Data packet payload+header size in bytes (Table 4.2: 1024).
    pub packet_bytes: u32,
    /// ACK packet size in bytes (routing info + status, Fig 3.17).
    pub ack_bytes: u32,
    /// Fixed routing/arbitration delay per router.
    pub routing_delay_ns: Time,
    /// Wire propagation delay per link.
    pub wire_delay_ns: Time,
    /// Extra propagation delay per latency class on top of
    /// `wire_delay_ns`, indexed by [`Topology::link_class`]:
    /// `[local, global, server]`. All-zero by default, which reproduces
    /// the uniform-wire model exactly; nonzero global delay models long
    /// inter-board / spine cables and widens the safe lookahead window
    /// of the sharded driver when a partition cuts only global wires.
    pub wire_class_extra_ns: [Time; prdrb_topology::NUM_LINK_CLASSES],
    /// Cut-through handoff latency (header serialization).
    pub header_ns: Time,
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
            link_gbps: 2.0,
            // 2 MB per router split over (ports × VCs) queues; 64 KiB per
            // queue is the same order for the 12-port router of Fig 4.5.
            input_buf_bytes: 64 * 1024,
            output_buf_bytes: 64 * 1024,
            packet_bytes: 1024,
            ack_bytes: 64,
            routing_delay_ns: 40,
            wire_delay_ns: 10,
            wire_class_extra_ns: [0; prdrb_topology::NUM_LINK_CLASSES],
            header_ns: 32,
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
        prdrb_simcore::time::serialization_ns(bytes as u64, self.link_gbps)
    }

    /// Propagation delay of a wire in latency class `class`.
    pub fn link_delay_ns(&self, class: u8) -> Time {
        let extra = self
            .wire_class_extra_ns
            .get(class as usize)
            .copied()
            .unwrap_or(0);
        self.wire_delay_ns.saturating_add(extra)
    }

    /// Panic on configurations that cannot make progress.
    pub fn validate(&self) {
        assert!(self.link_gbps > 0.0, "link bandwidth must be positive");
        assert!(
            self.packet_bytes <= self.input_buf_bytes,
            "a packet must fit in an input buffer or credits can never cover it"
        );
        assert!(
            self.packet_bytes <= self.output_buf_bytes,
            "a packet must fit in an output buffer"
        );
        assert!(self.ack_bytes <= self.input_buf_bytes);
        assert!(self.monitor.max_flows >= 1);
        assert!((0.0..=1.0).contains(&self.monitor.min_share));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_tables() {
        let c = NetworkConfig::default();
        assert_eq!(c.link_gbps, 2.0);
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
        assert_eq!(c.link_delay_ns(0), c.wire_delay_ns);
        assert_eq!(c.link_delay_ns(1), c.wire_delay_ns + 160);
        assert_eq!(c.link_delay_ns(2), c.wire_delay_ns + 5);
        // Out-of-range classes fall back to the base delay.
        assert_eq!(c.link_delay_ns(7), c.wire_delay_ns);
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
        assert!(c.ack_bytes < c.packet_bytes);
        assert_eq!(c.ser_ns(c.ack_bytes), 256);
    }
}
