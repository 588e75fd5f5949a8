//! Result-reporting helpers for the `repro` summary: the per-target
//! wall-clock block and the run-cache hit/miss line.

/// One `  id  1.23 s  [ok]` line (the per-target shape).
pub fn timing_line(id: &str, secs: f64, ok: bool) -> String {
    format!(
        "  {:<22} {:>8.2} s  [{}]",
        id,
        secs,
        if ok { "ok" } else { "!!" }
    )
}

/// A titled block of [`timing_line`]s.
pub fn timing_block(title: &str, rows: &[(String, f64, bool)]) -> String {
    let mut out = format!("{title}:\n");
    for (id, secs, ok) in rows {
        out.push_str(&timing_line(id, *secs, *ok));
        out.push('\n');
    }
    out
}

/// The run-cache status line from the process's one cache instance.
pub fn cache_line() -> String {
    match crate::run_cache() {
        Some(c) => {
            let (hits, misses) = c.stats();
            format!(
                "run cache: {hits} hit(s), {misses} miss(es) in {}",
                c.dir().display()
            )
        }
        None => "run cache: disabled (PRDRB_CACHE=off)".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_line_shape() {
        let ok = timing_line("fig4_13", 1.5, true);
        assert!(ok.contains("fig4_13") && ok.contains("1.50 s") && ok.contains("[ok]"));
        assert!(timing_line("x", 0.0, false).contains("[!!]"));
    }

    #[test]
    fn timing_block_has_title_and_rows() {
        let b = timing_block("per-target wall-clock", &[("a".into(), 2.0, true)]);
        assert!(b.starts_with("per-target wall-clock:\n"));
        assert!(b.contains("  a "));
    }
}
