//! Metric tables (mirrored by `BENCHMARK.json`), the line protocol
//! between a measuring child and the parent that reports, and the result
//! object the benchmark contract asks for.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// The gated metrics with the share of the parent's median by which each
/// may worsen. The bounds come from the spreads recorded in NOISE.md.
pub const END_TO_END: [(MetricDef, f64); 3] = [
    (lower("wall_s", "s"), 0.25),
    (higher("ops_per_s", "1/s"), 0.25),
    (lower("setup_s", "s"), 0.25),
];

/// Self-time layers of the traced pass (`trace.self_ms.<layer>`).
pub const SPAN_LAYERS: [&str; 7] = [
    "himeno",
    "nanopowder",
    "minimpi",
    "clmpi",
    "minicl",
    "obs",
    "check",
];

/// The ungated metrics of single layers. Simulated quantities carry a
/// `sim_` unit: they are the model's answer and repeat exactly.
pub const PER_LAYER: [MetricDef; 61] = [
    // Counts of the workload's own repetition.
    lower("virtual_ms", "sim_ms"),
    lower("simtime.events", "count"),
    lower("simtime.us_per_event", "us"),
    higher("simnet.delivered", "count"),
    lower("simnet.drops", "count"),
    lower("simnet.jitter_ns", "sim_ns"),
    lower("clmpi.ops", "count"),
    lower("clmpi.ops_failed", "count"),
    lower("clmpi.bytes_sent", "bytes"),
    lower("clmpi.chunks", "count"),
    lower("clmpi.chunk_retries", "count"),
    lower("clmpi.chunk_drops", "count"),
    lower("clmpi.rma_bytes", "bytes"),
    lower("clmpi.coll_bytes", "bytes"),
    higher("clmpi.max_in_flight", "count"),
    higher("clmpi.overlap_pct", "%"),
    lower("clmpi.retry_share", "ratio"),
    lower("clmpi.us_per_op", "us"),
    lower("obs.spans", "count"),
    lower("obs.op_spans", "count"),
    // Rungs measured at the workload's own size.
    lower("obs.summary_us_per_span", "us"),
    lower("obs.chrome_us_per_span", "us"),
    lower("himeno.kernel_s", "s"),
    lower("himeno.halo_s", "s"),
    lower("nanopowder.model_s", "s"),
    // Host diagnostics and the traced pass.
    lower("host.cpu_s", "s"),
    lower("host.sys_share", "ratio"),
    lower("host.peak_rss_mb", "MB"),
    lower("host.threads_peak", "count"),
    lower("trace.overhead_x", "x"),
    lower("trace.self_ms.himeno", "ms"),
    lower("trace.self_ms.nanopowder", "ms"),
    lower("trace.self_ms.minimpi", "ms"),
    lower("trace.self_ms.clmpi", "ms"),
    lower("trace.self_ms.minicl", "ms"),
    lower("trace.self_ms.obs", "ms"),
    lower("trace.self_ms.check", "ms"),
    // Layer probes, the same on every workload.
    lower("simtime.advance_ns", "ns"),
    lower("simtime.handoff_us", "us"),
    lower("simtime.machine_step_ns.m64", "ns"),
    lower("simtime.machine_step_ns.m1024", "ns"),
    lower("minimpi.launch_us_per_rank.w8", "us"),
    lower("minimpi.launch_us_per_rank.w256", "us"),
    lower("minimpi.pingpong_us.w2", "us"),
    lower("minimpi.pingpong_us.w64", "us"),
    lower("minimpi.pingpong_us.w256", "us"),
    lower("minimpi.stampede_x", "x"),
    lower("minimpi.barrier_us.w8", "us"),
    lower("minimpi.barrier_us.w256", "us"),
    lower("simnet.reserve_ns", "ns"),
    lower("simnet.pump_ns_per_grant", "ns"),
    lower("simnet.mailbox_ns.d1", "ns"),
    lower("simnet.mailbox_ns.d256", "ns"),
    lower("minicl.enqueue_us", "us"),
    lower("minicl.kernel_us", "us"),
    lower("minicl.buffer_ms.16m", "ms"),
    lower("clmpi.bringup_us_per_rank.w8", "us"),
    lower("clmpi.bringup_us_per_rank.w256", "us"),
    lower("clmpi.send_us.64k", "us"),
    lower("clmpi.send_us.16m", "us"),
    lower("clmpi.bcast_ms.w16.16m", "ms"),
];

/// What a measuring child printed: `metric <name> <value> <unit>` and
/// `result <key> <integer>` lines; anything else is text for the reader.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, (f64, String)>,
    pub results: BTreeMap<String, u64>,
    pub text: Vec<String>,
}

pub fn emit_metric(name: &str, value: f64, unit: &str) {
    println!("metric {name} {value} {unit}");
}

pub fn emit_result(key: &str, value: u64) {
    println!("result {key} {value}");
}

impl Report {
    pub fn parse(stdout: &str) -> Report {
        let mut report = Report::default();
        for line in stdout.lines() {
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            match fields[..] {
                ["metric", name, value, unit] => {
                    if let Ok(v) = value.parse() {
                        report.metrics.insert(name.into(), (v, unit.into()));
                        continue;
                    }
                }
                ["result", key, value] => {
                    if let Ok(v) = value.parse() {
                        report.results.insert(key.into(), v);
                        continue;
                    }
                }
                _ => {}
            }
            report.text.push(line.to_string());
        }
        report
    }

    pub fn merge(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.results.extend(other.results);
        self.text.extend(other.text);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    pub fn result(&self, key: &str) -> u64 {
        self.results.get(key).copied().unwrap_or(0)
    }

    /// The contract's result object over exactly the metrics `defs`
    /// names; `Err` names the first one the children did not report.
    pub fn contract_json<'a>(
        &self,
        defs: impl IntoIterator<Item = &'a MetricDef>,
    ) -> Result<String, String> {
        let mut metrics = Vec::new();
        for def in defs {
            let (value, unit) = self
                .metrics
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not reported", def.name))?;
            if !value.is_finite() || unit != def.unit {
                return Err(format!("metric {} reads {value} {unit}", def.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                def.name
            ));
        }
        let (attempted, failed) = (self.result("attempted"), self.result("failed"));
        if attempted == 0 {
            return Err("no op was attempted".into());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{valid_name, WORKLOADS};

    #[test]
    fn child_lines_round_trip_into_a_well_formed_result_object() {
        let stdout = "setting up\nmetric wall_s 0.30671234 s\nmetric ops_per_s 417.33 1/s\n\
                      metric setup_s 0.5612 s\nresult attempted 5120\nresult failed 0\n\
                      metric broken line\n";
        let report = Report::parse(stdout);
        assert_eq!(report.value("wall_s"), Some(0.30671234));
        assert_eq!(report.text, ["setting up", "metric broken line"]);
        let json = report
            .contract_json(END_TO_END.iter().map(|(d, _)| d))
            .unwrap();
        clmpi::obs::validate_json(&json).expect("result object must be well-formed JSON");
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 5120, \"failed\": 0,"));
        assert!(json.contains("\"wall_s\": {\"value\": 0.30671234, \"unit\": \"s\"}"));
        // A metric nobody reported is an error, not an omission.
        assert!(report.contract_json(PER_LAYER.iter()).is_err());
    }

    #[test]
    fn failed_ops_make_the_result_incorrect() {
        let report = Report::parse("metric wall_s 1 s\nresult attempted 10\nresult failed 3\n");
        let json = report.contract_json([&END_TO_END[0].0]).unwrap();
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 3,"));
    }

    /// The value of `"key": "..."` in the object that starts at `from`.
    fn string_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
        let at = text.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(&text[at..at + text[at..].find('"')?])
    }

    /// `BENCHMARK.json` is the contract the driver reads; the tables in
    /// this file are what the binary prints. They must name the same
    /// metrics, units, directions, bounds and workloads.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        clmpi::obs::validate_json(&text).expect("BENCHMARK.json must be well-formed");
        let section = |key: &str| {
            let from = text.find(&format!("\"{key}\": [")).expect(key);
            &text[from..from + text[from..].find(']').expect("closing bracket")]
        };
        let objects = |key: &str| -> Vec<String> {
            section(key)
                .split('{')
                .skip(1)
                .map(|o| format!("{{{o}"))
                .collect()
        };
        let layers = objects("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (obj, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(string_field(obj, "name"), Some(def.name));
            assert_eq!(string_field(obj, "unit"), Some(def.unit), "{}", def.name);
            assert_eq!(
                string_field(obj, "better"),
                Some(def.better),
                "{}",
                def.name
            );
        }
        let gated = objects("end_to_end");
        assert_eq!(gated.len(), END_TO_END.len());
        for (obj, (def, bound)) in gated.iter().zip(&END_TO_END) {
            assert_eq!(string_field(obj, "name"), Some(def.name));
            assert_eq!(string_field(obj, "unit"), Some(def.unit));
            assert_eq!(string_field(obj, "better"), Some(def.better));
            assert!(obj.contains(&format!("\"bound\": {bound}")), "{obj}");
        }
        let workloads = objects("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (obj, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(string_field(obj, "name"), Some(w.name));
            assert_eq!(string_field(obj, "why"), Some(w.why));
        }
    }

    #[test]
    fn metric_names_and_units_fit_the_contract() {
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all: Vec<&MetricDef> = END_TO_END
            .iter()
            .map(|(d, _)| d)
            .chain(&PER_LAYER)
            .collect();
        for (i, def) in all.iter().enumerate() {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(unit_ok(def.unit), "{}", def.unit);
            assert!(all[..i].iter().all(|o| o.name != def.name), "{}", def.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|(_, bound)| (0.0..=0.25).contains(bound)));
        for layer in SPAN_LAYERS {
            let name = format!("trace.self_ms.{layer}");
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
    }
}
