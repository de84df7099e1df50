//! Everything `BENCHMARK.json` names: the command, the workloads and every
//! metric with its unit, direction and bound. `--manifest` prints it; the
//! tests check that the file in the repository equals it.

use std::collections::BTreeMap;

use serde_json::Value;

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 30;

/// The command the benchmark runs as, from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Workload names and why each is in the benchmark.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "forecast",
        "BH and CP_SD aging forecasts to 50% NVM capacity (scaled, mix 1): the longest job, the only one through faulty frames and the predict loop",
    ),
    (
        "sweep",
        "policy x capacity x mix grid of 120 short jobs on nproc runner workers: per-job set-up and skewed job costs, campaign traffic",
    ),
    (
        "replay",
        "a paper-geometry (4096-set) mix 6 recording encoded, loaded and replayed under 3 policies: traceio paths, no generation or BDI work",
    ),
];

/// An end-to-end metric: name, unit, direction, bound.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

pub const END_TO_END: [EndToEnd; 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("refs_per_s", "refs/s", "higher", 0.25),
    ("job_p50_s", "s", "lower", 0.25),
    ("job_p90_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("sim_ipc", "IPC", "higher", 0.05),
];

/// A per-layer metric: name, unit, direction.
pub type PerLayer = (&'static str, &'static str, &'static str);

pub const PER_LAYER: [PerLayer; 39] = [
    ("trace.instantiate_s", "s", "lower"),
    ("trace.refs", "count", "lower"),
    ("trace.next_s", "s", "lower"),
    ("traceio.record_s", "s", "lower"),
    ("traceio.bytes", "bytes", "lower"),
    ("traceio.load_s", "s", "lower"),
    ("traceio.next_s", "s", "lower"),
    ("traceio.sizes_s", "s", "lower"),
    ("compress.calls", "count", "lower"),
    ("compress.s", "s", "lower"),
    ("compress.mean_bytes", "bytes", "lower"),
    ("sim.accesses", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.driver_s", "s", "lower"),
    ("sim.l1_hit_frac", "fraction", "higher"),
    ("sim.l2_hit_frac", "fraction", "higher"),
    ("sim.llc_req_per_kref", "req/kref", "lower"),
    ("core.requests", "count", "lower"),
    ("core.request_s", "s", "lower"),
    ("core.inserts", "count", "lower"),
    ("core.insert_s", "s", "lower"),
    ("core.ns_per_req", "ns", "lower"),
    ("core.hit_rate", "fraction", "higher"),
    ("core.nvm_insert_frac", "fraction", "lower"),
    ("core.migrations", "count", "lower"),
    ("core.write_stall_cycles", "cycles", "lower"),
    ("nvm.sample_s", "s", "lower"),
    ("nvm.degrade_s", "s", "lower"),
    ("nvm.bytes_per_kref", "bytes/kref", "lower"),
    ("nvm.capacity_end", "fraction", "higher"),
    ("forecast.phases", "count", "lower"),
    ("forecast.phase_s", "s", "lower"),
    ("forecast.predict_s", "s", "lower"),
    ("forecast.lifetime_x_bh", "x", "higher"),
    ("runner.jobs", "count", "higher"),
    ("runner.busy_frac", "fraction", "higher"),
    ("runner.tail_s", "s", "lower"),
    ("runner.job_cv", "ratio", "lower"),
    ("trace_overhead", "ratio", "lower"),
];

/// The paper's CP_SD lifetime multiple over BH (Fig. 10a).
pub const PAPER_LIFETIME_X_BH: f64 = 16.8;

/// The unit of a metric the catalog names.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

fn object(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    object(vec![
        (
            "command",
            Value::Array(COMMAND.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Array(vec![text("perfbench")])),
        ("run_seconds", serde_json::to_value(&RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(n, why)| object(vec![("name", text(n)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|(n, u, b, bound)| {
                        object(vec![
                            ("name", text(n)),
                            ("unit", text(u)),
                            ("better", text(b)),
                            ("bound", serde_json::to_value(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|(n, u, b)| {
                        object(vec![
                            ("name", text(n)),
                            ("unit", text(u)),
                            ("better", text(b)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
