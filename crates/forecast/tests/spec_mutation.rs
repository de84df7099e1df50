//! Mutation test of the spec load path: a preset's JSON text is corrupted
//! (bytes flipped, the text truncated, a run of it spliced in elsewhere,
//! a number or a string value replaced by an extreme or foreign one), then
//! parsed the way `hllc --spec` parses a file.
//!
//! Every mutated spec must give `Ok` or a `SpecError`, never a panic, and
//! every spec that validates must build its phase: `system_config()`,
//! `llc_config()`, and the [`PhaseSetup`] and [`ForecastConfig`] on top of
//! them. Mutations are drawn by SplitMix64 from seeds the vendored
//! proptest supplies, as in the trace mutation test.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hllc_config::{ExperimentSpec, SpecError};
use hllc_forecast::{ForecastConfig, PhaseSetup};
use proptest::prelude::*;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in `0..n` (`n > 0`).
fn below(x: &mut u64, n: usize) -> usize {
    (splitmix(x) % n as u64) as usize
}

/// Numbers at and beyond the edges of every range the schema checks.
const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "1",
    "-1",
    "0.5",
    "1.5",
    "17",
    "33",
    "255",
    "256",
    "65536",
    "16385",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "1e10",
    "1e300",
    "-1e300",
    "1e-300",
    "3.0e38",
];

/// String values: every name a field accepts somewhere, and some no field
/// accepts.
const STRINGS: &[&str] = &[
    "\"bh\"",
    "\"cp_sd_th4\"",
    "\"ca_cpth0\"",
    "\"ca_cpth255\"",
    "\"tap_h0\"",
    "\"fpc\"",
    "\"FPC\"",
    "\"\"",
    "\"lzw\"",
    "\"cp_sd_th1e300\"",
    "null",
    "true",
    "[]",
    "{}",
];

/// A token's byte range in the text.
type Span = (usize, usize);

/// Byte ranges of the JSON number and string-value tokens in `text`.
fn tokens(text: &str) -> (Vec<Span>, Vec<Span>) {
    let bytes = text.as_bytes();
    let (mut numbers, mut strings) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    i += 1;
                }
                i += 1;
                // A string followed by ':' is a key, not a value.
                if bytes[i] != b':' {
                    strings.push((start, i));
                }
            }
            b'-' | b'0'..=b'9' => {
                while i < bytes.len() && b"+-.eE0123456789".contains(&bytes[i]) {
                    i += 1;
                }
                numbers.push((start, i));
            }
            _ => i += 1,
        }
    }
    (numbers, strings)
}

/// One mutation of `original`, chosen and placed by `seed`.
fn mutate(original: &str, seed: u64) -> String {
    let mut x = seed;
    let mut bytes = original.as_bytes().to_vec();
    let (numbers, strings) = tokens(original);
    match below(&mut x, 6) {
        // Flip 1–8 bytes anywhere.
        0 => {
            for _ in 0..1 + below(&mut x, 8) {
                let at = below(&mut x, bytes.len());
                bytes[at] ^= 1 + below(&mut x, 255) as u8;
            }
        }
        // Truncate.
        1 => bytes.truncate(below(&mut x, original.len())),
        // Splice: copy a run of the text over another place, or insert it.
        2 => {
            let from = below(&mut x, original.len());
            let len = 1 + below(&mut x, (original.len() - from).min(64));
            let run = bytes[from..from + len].to_vec();
            let to = below(&mut x, bytes.len());
            if splitmix(&mut x) & 1 == 0 {
                let end = (to + len).min(bytes.len());
                bytes.splice(to..end, run);
            } else {
                bytes.splice(to..to, run);
            }
        }
        // Replace one to three values, most often numbers.
        kind => {
            let mut edits = Vec::new();
            for _ in 0..1 + below(&mut x, 3) {
                let (tokens, values) = if kind == 5 {
                    (&strings, STRINGS)
                } else {
                    (&numbers, NUMBERS)
                };
                let at = tokens[below(&mut x, tokens.len())];
                edits.push((at, values[below(&mut x, values.len())]));
            }
            // Apply right to left so earlier ranges stay valid.
            edits.sort_by_key(|&((start, _), _)| std::cmp::Reverse(start));
            edits.dedup_by_key(|&mut ((start, _), _)| start);
            for ((start, end), value) in edits {
                bytes.splice(start..end, value.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The `--spec` load path, then the phase every command builds from a
/// spec that validates.
fn load(text: &str) -> Result<(), SpecError> {
    let spec = ExperimentSpec::from_str(text)?;
    spec.system_config();
    spec.llc_config();
    let cycles = spec.run.cycles;
    PhaseSetup::from_spec(&spec, spec.run.warmup_cycles(cycles), cycles);
    ForecastConfig::from_spec(&spec);
    Ok(())
}

#[test]
fn every_preset_loads_unmutated() {
    for name in ExperimentSpec::preset_names() {
        let text = ExperimentSpec::preset(name).unwrap().to_string_pretty();
        load(&text).unwrap();
        let (numbers, strings) = tokens(&text);
        assert!(numbers.len() > 20 && strings.len() >= 3, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_specs_fail_cleanly_or_build_their_phase(seed in any::<u64>()) {
        let names = ExperimentSpec::preset_names();
        let name = names[(seed % names.len() as u64) as usize];
        let original = ExperimentSpec::preset(name).unwrap().to_string_pretty();
        let text = mutate(&original, seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| load(&text)));
        prop_assert!(
            outcome.is_ok(),
            "seed {seed:#x}: loading the mutated '{name}' spec panicked:\n{text}"
        );
    }
}
