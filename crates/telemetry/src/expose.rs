//! Exposition: Prometheus-style text rendering and structured stderr
//! diagnostics.

use crate::snapshot::{is_gauge, TelemetrySnapshot};
use matrix_geometry::ServerId;

/// One-line `# HELP` text per metric name (a stable generic line for
/// names without a curated description — Prometheus requires the line,
/// not prose quality).
fn metric_help(name: &str) -> &'static str {
    match name {
        "recorder_capacity" => "Flight-recorder ring capacity in events (0 = disabled)",
        "events_seen" => "Flight-recorder events ever recorded",
        "events_dropped" => "Flight-recorder events evicted before being read",
        n if n.starts_with("slo_burn_bp_") => {
            "Freshness SLO error-budget burn rate, basis points (10000 = 1.0)"
        }
        n if n.starts_with("slo_target_us_") => "Freshness SLO staleness target (us)",
        n if n.starts_with("slo_samples_") => "Traced samples in the SLO window",
        n if n.starts_with("slo_over_") => "Traced samples over target in the SLO window",
        n if n.starts_with("slo_breached_") => "Whether the ring is currently in breach (0/1)",
        n if n.starts_with("delivery_latency_") => {
            "End-to-end delivery latency of traced items (us)"
        }
        n if n.starts_with("staleness_") => "Staleness-at-apply of traced items (us)",
        _ => "Matrix telemetry metric",
    }
}

/// Renders a set of per-node snapshots as Prometheus-style text
/// exposition: counters as `matrix_<name>{server="N"}`, histograms as
/// summaries (`_count`, `_sum` and `quantile`-labelled samples), each
/// metric preceded (once) by its `# HELP` and `# TYPE` lines.
/// Deterministic: output order follows the input order, quantiles
/// ascend.
pub fn render_prometheus(nodes: &[(ServerId, TelemetrySnapshot)]) -> String {
    use std::fmt::Write as _;
    fn note_type(typed: &mut Vec<String>, out: &mut String, name: &str, kind: &str) {
        use std::fmt::Write as _;
        if !typed.iter().any(|n| n == name) {
            typed.push(name.to_string());
            let _ = writeln!(out, "# HELP matrix_{name} {}", metric_help(name));
            let _ = writeln!(out, "# TYPE matrix_{name} {kind}");
        }
    }
    let mut out = String::new();
    let mut typed: Vec<String> = Vec::new();
    for (server, snap) in nodes {
        let sid = server.0;
        for (name, value) in &snap.counters {
            let kind = if is_gauge(name) { "gauge" } else { "counter" };
            note_type(&mut typed, &mut out, name, kind);
            let _ = writeln!(out, "matrix_{name}{{server=\"{sid}\"}} {value}");
        }
        for hist in &snap.hists {
            note_type(&mut typed, &mut out, &hist.name, "summary");
            let name = &hist.name;
            let h = hist.to_histogram();
            for (label, q) in [
                ("0.5", 0.5),
                ("0.95", 0.95),
                ("0.99", 0.99),
                ("0.999", 0.999),
            ] {
                if let Some(v) = h.quantile(q) {
                    let _ = writeln!(
                        out,
                        "matrix_{name}{{server=\"{sid}\",quantile=\"{label}\"}} {v}"
                    );
                }
            }
            let _ = writeln!(
                out,
                "matrix_{name}_count{{server=\"{sid}\"}} {}",
                hist.count
            );
            let _ = writeln!(out, "matrix_{name}_sum{{server=\"{sid}\"}} {}", hist.sum);
        }
        note_type(&mut typed, &mut out, "events_seen", "counter");
        let _ = writeln!(
            out,
            "matrix_events_seen{{server=\"{sid}\"}} {}",
            snap.events_seen
        );
        note_type(&mut typed, &mut out, "events_dropped", "counter");
        let _ = writeln!(
            out,
            "matrix_events_dropped{{server=\"{sid}\"}} {}",
            snap.events_dropped
        );
    }
    out
}

/// Formats one structured diagnostic line: `component=<c> event=<e>`
/// followed by the fields, values quoted when they contain whitespace,
/// quotes or `=`. One line, no trailing newline.
pub fn diag_line(component: &str, event: &str, fields: &[(&str, &str)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "component={component} event={event}");
    for (key, value) in fields {
        let needs_quotes = value.is_empty()
            || value
                .chars()
                .any(|c| c.is_whitespace() || c == '"' || c == '=');
        if needs_quotes {
            let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(out, " {key}=\"{escaped}\"");
        } else {
            let _ = write!(out, " {key}={value}");
        }
    }
    out
}

/// Writes one structured diagnostic line to stderr.
pub fn emit_diag(component: &str, event: &str, fields: &[(&str, &str)]) {
    eprintln!("{}", diag_line(component, event, fields));
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrix_metrics::Histogram;

    #[test]
    fn prometheus_text_carries_counters_and_quantiles() {
        let mut snap = TelemetrySnapshot::new();
        snap.counter("joins", 12);
        let mut h = Histogram::new();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        snap.hist("flush_us", &h);
        let text = render_prometheus(&[(ServerId(3), snap)]);
        assert!(text.contains("# TYPE matrix_joins counter"));
        assert!(text.contains("# HELP matrix_joins Matrix telemetry metric"));
        assert!(text.contains("matrix_joins{server=\"3\"} 12"));
        assert!(text.contains("# TYPE matrix_flush_us summary"));
        assert!(text.contains("matrix_flush_us_count{server=\"3\"} 1000"));
        assert!(text.contains("quantile=\"0.999\""));
    }

    #[test]
    fn recorder_state_and_slo_metrics_render_as_gauges() {
        let mut snap = TelemetrySnapshot::new();
        snap.counter("recorder_capacity", 256);
        snap.counter("slo_burn_bp_r0", 5_000);
        snap.events_dropped = 7;
        let text = render_prometheus(&[(ServerId(1), snap)]);
        assert!(text.contains("# TYPE matrix_recorder_capacity gauge"));
        assert!(text.contains(
            "# HELP matrix_recorder_capacity Flight-recorder ring capacity in events (0 = disabled)"
        ));
        assert!(text.contains("matrix_recorder_capacity{server=\"1\"} 256"));
        assert!(text.contains("# TYPE matrix_slo_burn_bp_r0 gauge"));
        assert!(text.contains("matrix_slo_burn_bp_r0{server=\"1\"} 5000"));
        // The ring's eviction count is one field and one metric.
        assert!(text.contains("# TYPE matrix_events_dropped counter"));
        assert!(text.contains("matrix_events_dropped{server=\"1\"} 7"));
        assert!(!text.contains("recorder_dropped"), "{text}");
    }

    #[test]
    fn diag_lines_quote_awkward_values() {
        let line = diag_line(
            "experiments",
            "save_failed",
            &[("path", "out/fig 2.txt"), ("err", "disk \"full\"")],
        );
        assert_eq!(
            line,
            "component=experiments event=save_failed path=\"out/fig 2.txt\" \
             err=\"disk \\\"full\\\"\""
        );
    }
}
