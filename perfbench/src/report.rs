//! What one run reports, and how it is printed and saved.

use serde::Value;

/// A named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics of `BENCHMARK.json`, reported by every
/// workload (see README.md for what each means per workload).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_per_s", "1/s"),
    ("fresh_p50_ms", "ms"),
    ("comm_bytes", "B"),
    ("sse_ratio", "ratio"),
];

/// The per-layer metrics of `BENCHMARK.json`, reported by every traced
/// run. A layer the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("wh-data.scan_s", "s"),
    ("wh-data.sample_s", "s"),
    ("wh-wavelet.sparse_transform_s", "s"),
    ("wh-wavelet.coefs", "count"),
    ("wh-wavelet.top_k_s", "s"),
    ("wh-wavelet.centralized_bit_diffs", "count"),
    ("wh-mapreduce.map_s", "s"),
    ("wh-mapreduce.shuffle_s", "s"),
    ("wh-mapreduce.reduce_s", "s"),
    ("wh-mapreduce.pairs", "count"),
    ("wh-mapreduce.rounds", "count"),
    ("wh-mapreduce.state_bytes", "B"),
    ("wh-mapreduce.frames", "count"),
    ("wh-mapreduce.tasks_retried", "count"),
    ("wh-query.compile_s", "s"),
    ("wh-serve.publish_s", "s"),
    ("pipeline.unattributed_s", "s"),
    ("wh-serve.batch1d_us", "us"),
    ("wh-serve.batch2d_us", "us"),
    ("wh-query.batch1d_direct_us", "us"),
    ("wh-query.batch2d_direct_us", "us"),
    ("wh-serve.generations_seen", "count"),
    ("wh-core.merge_ms", "ms"),
    ("wh-core.snapshot_ms", "ms"),
    ("wh-core.distinct_keys", "count"),
    ("wh-query.recompile_ms", "ms"),
    ("wh-serve.refresh_publish_ms", "ms"),
    ("refresh.lateness_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.build_s_traced", "s"),
    ("trace.overhead_build_s", "s"),
    ("trace.serve_qps_traced", "1/s"),
    ("trace.overhead_serve_qps", "1/s"),
];

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations checked: builds, reader batches, refreshes and set-ups.
    pub attempted: u64,
    /// Operations that failed or produced a wrong answer.
    pub failed: u64,
    /// First few failure descriptions, printed for diagnosis.
    pub failures: Vec<String>,
    /// The `END_TO_END` metrics (measured runs).
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end figures under the names of the
    /// benchmark's design (`build_s`, `serve_qps`, …).
    pub detail: Vec<Metric>,
    /// The `PER_LAYER` metrics (traced runs).
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Counts one checked operation; `err` is its failure, if any.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Fills in 0 for every per-layer metric this workload did not set,
    /// and orders them as `PER_LAYER` does.
    pub fn complete_per_layer(&mut self) {
        let mut out = Vec::with_capacity(PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            let value = self
                .per_layer
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            out.push(Metric { name, value, unit });
        }
        self.per_layer = out;
    }
}

fn metrics_object(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the run's mode.
pub fn result_line(report: &Report, traced: bool) -> Value {
    let metrics = if traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    Value::Object(vec![
        ("correct".into(), Value::Bool(report.failed == 0)),
        ("attempted".into(), Value::UInt(report.attempted)),
        ("failed".into(), Value::UInt(report.failed)),
        ("metrics".into(), metrics_object(metrics)),
    ])
}

/// The saved result: the run's parameters, the machine, and every metric.
pub fn result_file(report: &Report, header: Vec<(String, Value)>, machine: Value) -> Value {
    let mut fields = header;
    fields.push(("machine".into(), machine));
    fields.push(("attempted".into(), Value::UInt(report.attempted)));
    fields.push(("failed".into(), Value::UInt(report.failed)));
    fields.push(("failed_frac".into(), Value::Float(report.failed_frac())));
    fields.push((
        "failures".into(),
        Value::Array(
            report
                .failures
                .iter()
                .map(|f| Value::Str(f.clone()))
                .collect(),
        ),
    ));
    fields.push(("end_to_end".into(), metrics_object(&report.end_to_end)));
    fields.push(("detail".into(), metrics_object(&report.detail)));
    fields.push(("per_layer".into(), metrics_object(&report.per_layer)));
    Value::Object(fields)
}

/// Prints a metric table, one `name value unit` row each.
pub fn print_table(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("{title}");
    for m in metrics {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

/// Adapts a built [`Value`] to the serializer's trait.
struct Json<'a>(&'a Value);

impl serde::Serialize for Json<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Compact JSON text of `v`; fails only on a non-finite number.
pub fn to_json(v: &Value) -> Result<String, serde::Error> {
    serde_json::to_string(&Json(v))
}
