//! The experiment a recording replays: the spec its header carries, and the
//! one check that a replay's system fits the recording.

use hllc_config::{check_cycle_budget, ExperimentSpec};
use hllc_core::Policy;

use crate::reader::TraceContent;

/// The experiment a recording was made under: the embedded spec when the
/// header carries one (v2), else the `scaled` preset at the recorded set
/// count, mix, seed, policy and cycle budget (every v1 recording's system).
/// A policy label `Policy::parse` cannot read, or a budget outside
/// `check_cycle_budget`'s range, keeps the preset's value: neither is
/// geometry, so neither stops the recording from replaying.
pub fn trace_spec(content: &TraceContent) -> Result<ExperimentSpec, String> {
    let h = &content.header;
    if let Some(text) = &h.spec_json {
        return ExperimentSpec::from_str(text)
            .map_err(|e| format!("embedded spec in trace header: {e}"));
    }
    let mut spec = ExperimentSpec::preset("scaled").map_err(|e| format!("scaled preset: {e}"))?;
    spec.system.llc_sets = h.sets as usize;
    spec.workload.seed = h.seed;
    if (1..=10).contains(&usize::from(h.mix)) {
        spec.workload.mix = usize::from(h.mix);
    }
    if let Some(policy) = Policy::parse(&h.policy) {
        spec.hybrid.policy = policy.label();
    }
    if let Ok(cycles) = check_cycle_budget(h.cycles) {
        spec.run.cycles = cycles;
    }
    spec.validate()
        .map_err(|e| format!("trace header implies an invalid system: {e}"))?;
    Ok(spec)
}

/// Checks that `content` replays on `spec`'s system. The spec's geometry
/// must match the recording's — replaying 512-set references onto a
/// different set count or way split would silently measure a system the
/// trace was never recorded for — and the trace's cores must fit it.
pub fn check_replay(content: &TraceContent, spec: &ExperimentSpec) -> Result<(), String> {
    let (want, got) = (&trace_spec(content)?.system, &spec.system);
    let mismatches: Vec<String> = [
        ("llc_sets", want.llc_sets, got.llc_sets),
        ("sram_ways", want.sram_ways, got.sram_ways),
        ("nvm_ways", want.nvm_ways, got.nvm_ways),
        ("cores", want.cores, got.cores),
    ]
    .into_iter()
    .filter(|(_, want, got)| want != got)
    .map(|(field, want, got)| format!("{field}: spec {got} vs recording {want}"))
    .collect();
    if !mismatches.is_empty() {
        return Err(format!(
            "geometry mismatch between the spec and the recording: {}",
            mismatches.join(", ")
        ));
    }
    content.check_cores(spec.system.cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceHeader;
    use hllc_sim::Access;

    fn v1(policy: &str, cycles: f64) -> TraceContent {
        TraceContent {
            header: TraceHeader {
                cores: 2,
                mix: 3,
                seed: 9,
                sets: 256,
                cycles,
                policy: policy.into(),
                workload: "mix 3".into(),
                spec_json: None,
            },
            accesses: vec![Access::load(0, 0x40), Access::load(1, 0x80)],
            sizes: Vec::new(),
        }
    }

    #[test]
    fn a_v1_header_gives_the_whole_recorded_experiment() {
        let spec = trace_spec(&v1("BH", 5e4)).unwrap();
        assert_eq!(spec.hybrid.policy, "bh");
        assert_eq!(spec.run.cycles, 5e4);
        assert_eq!(spec.system.llc_sets, 256);
        assert_eq!((spec.workload.mix, spec.workload.seed), (3, 9));
        // A label the parser cannot read keeps the preset's policy.
        let unread = trace_spec(&v1("CA(cpth=58)", 5e4)).unwrap();
        assert_eq!(unread.hybrid.policy, "cp_sd");
        // So does a budget the format allows but a run refuses, and the
        // recording still replays (with `--cycles` or as is).
        let preset = ExperimentSpec::preset("scaled").unwrap().run.cycles;
        for cycles in [0.0, 2e10] {
            let content = v1("BH", cycles);
            let spec = trace_spec(&content).unwrap();
            assert_eq!(spec.run.cycles, preset, "{cycles}");
            assert_eq!(check_replay(&content, &spec), Ok(()));
        }
    }

    #[test]
    fn check_replay_names_every_mismatched_field() {
        let content = v1("BH", 5e4);
        let mut spec = trace_spec(&content).unwrap();
        assert_eq!(check_replay(&content, &spec), Ok(()));
        spec.system.llc_sets = 512;
        spec.system.sram_ways = 3;
        spec.system.nvm_ways = 13;
        let e = check_replay(&content, &spec).unwrap_err();
        assert!(e.starts_with("geometry mismatch"), "{e}");
        for field in [
            "llc_sets: spec 512 vs recording 256",
            "sram_ways: spec 3 vs recording 4",
            "nvm_ways: spec 13 vs recording 12",
        ] {
            assert!(e.contains(field), "{e}");
        }
        let mut beyond = content.clone();
        beyond.header.cores = 1;
        let e = check_replay(&beyond, &trace_spec(&beyond).unwrap()).unwrap_err();
        assert!(e.contains("access 1 names core 1"), "{e}");
    }
}
