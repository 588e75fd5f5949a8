//! Simulated time.
//!
//! Time is an integer count of nanoseconds. All of the paper's parameters
//! fit comfortably: a 1024-byte packet on a 2 Gbps link serializes in
//! 4096 ns, and the longest simulations span a few simulated seconds,
//! far below `u64::MAX` ns (~584 years).

/// Simulated time in nanoseconds since the start of the run.
pub type Time = u64;

/// One nanosecond.
pub const NANOSECOND: Time = 1;
/// One microsecond in nanoseconds.
pub const MICROSECOND: Time = 1_000;
/// One millisecond in nanoseconds.
pub const MILLISECOND: Time = 1_000_000;
/// One second in nanoseconds.
pub const SECOND: Time = 1_000_000_000;

/// Serialization time of `bytes` on a link of `gbps` gigabits per second,
/// rounded up to a whole nanosecond (a packet never takes zero time).
pub fn serialization_ns(bytes: u64, gbps: f64) -> Time {
    debug_assert!(gbps > 0.0, "link bandwidth must be positive");
    let bits = bytes as f64 * 8.0;
    (bits / gbps).ceil().max(1.0) as Time
}

/// Convert a byte rate expressed in Mbps into the deterministic message
/// inter-arrival gap for messages of `bytes` bytes.
pub fn interarrival_ns(bytes: u64, mbps: f64) -> Time {
    debug_assert!(mbps > 0.0, "injection rate must be positive");
    let bits = bytes as f64 * 8.0;
    (bits / (mbps / 1000.0)).ceil().max(1.0) as Time
}

/// Convert nanoseconds to microseconds as `f64` (the unit the paper's
/// latency figures report, e.g. POP's 14–16 µs averages).
pub fn ns_to_us(t: Time) -> f64 {
    t as f64 / MICROSECOND as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_serialization_matches_paper_parameters() {
        // Table 4.2: 1024-byte packets on 2 Gbps links.
        assert_eq!(serialization_ns(1024, 2.0), 4096);
        // A 64-byte ACK.
        assert_eq!(serialization_ns(64, 2.0), 256);
    }

    #[test]
    fn serialization_never_zero() {
        assert_eq!(serialization_ns(0, 2.0), 1);
        assert!(serialization_ns(1, 1000.0) >= 1);
    }

    #[test]
    fn interarrival_for_400mbps() {
        // 1024 B at 400 Mbps: 8192 bits / 0.4 bits-per-ns = 20480 ns.
        assert_eq!(interarrival_ns(1024, 400.0), 20_480);
        // 600 Mbps is proportionally faster.
        assert!(interarrival_ns(1024, 600.0) < interarrival_ns(1024, 400.0));
    }

    #[test]
    fn ns_to_us_roundtrip() {
        assert!((ns_to_us(4096) - 4.096).abs() < 1e-12);
    }
}
