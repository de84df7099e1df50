//! The 20 SPEC CPU 2006/2017-like application models used by Table V.
//!
//! Footprints, write behaviour, pattern archetypes, and compressibility
//! profiles are calibrated so that (a) the average block population matches
//! Figure 2 (~49 % HCR, ~29 % LCR, ~22 % incompressible; GemsFDTD/zeusmp
//! almost fully compressible, xz17/milc fully incompressible), (b) the
//! mixes are memory-intensive with aggregate working sets exceeding the
//! 4 MB LLC, and (c) looping applications partially fit the LLC so that
//! loop-blocks/read-reuse are actually observable there — the behaviour the
//! NVM-aware insertion policies feed on. Footprints are in 64-byte blocks
//! (16384 blocks = 1 MB).

use crate::app::AppSpec;
use crate::pattern::Pattern;
use crate::profile::Profile;

const MB: u64 = 16_384; // blocks per megabyte

fn phased(a: Pattern, b: Pattern, period: u64) -> Pattern {
    Pattern::Phased {
        a: Box::new(a),
        b: Box::new(b),
        period,
    }
}

#[allow(clippy::too_many_arguments)]
fn app(
    name: &'static str,
    footprint_blocks: u64,
    pattern: Pattern,
    write_fraction: f64,
    writable_fraction: f64,
    mean_inst_gap: f64,
    profile: Profile,
) -> AppSpec {
    // Hot regions sit at the start of the footprint; making them read-only
    // models the coefficient/lookup arrays that loop-block detection feeds
    // on. Apps without a hot region get no read-only prefix.
    let read_only_prefix = match &pattern {
        Pattern::LoopHot { hot_fraction, .. } => *hot_fraction,
        Pattern::HotCold { hot_fraction, .. } => hot_fraction * 0.6,
        Pattern::Phased { a, .. } => match a.as_ref() {
            Pattern::LoopHot { hot_fraction, .. } => *hot_fraction,
            Pattern::HotCold { hot_fraction, .. } => hot_fraction * 0.6,
            Pattern::Loop { .. }
            | Pattern::Stream { .. }
            | Pattern::Random
            | Pattern::Phased { .. } => 0.0,
        },
        Pattern::Loop { .. } | Pattern::Stream { .. } | Pattern::Random => 0.0,
    };
    AppSpec {
        name,
        footprint_blocks,
        pattern,
        write_fraction,
        writable_fraction,
        read_only_prefix,
        mean_inst_gap,
        profile,
    }
}

/// Builds the full application registry.
pub fn spec_apps() -> Vec<AppSpec> {
    vec![
        // Floating-point loop nests: LLC-resident read arrays, highly
        // compressible data.
        app(
            "zeusmp06",
            8 * MB,
            phased(
                Pattern::LoopHot {
                    stride: 1,
                    hot_fraction: 0.11,
                    hot_probability: 0.55,
                },
                Pattern::Loop { stride: 1 },
                120_000,
            ),
            0.65,
            0.50,
            7.0,
            Profile::from_fractions(0.93, 0.07, 0.00, 0.35),
        ),
        app(
            "GemsFDTD06",
            8 * MB,
            Pattern::LoopHot {
                stride: 1,
                hot_fraction: 0.11,
                hot_probability: 0.55,
            },
            0.65,
            0.50,
            6.0,
            Profile::from_fractions(0.96, 0.04, 0.00, 0.40),
        ),
        app(
            "cactuBSSN17",
            8 * MB,
            Pattern::LoopHot {
                stride: 1,
                hot_fraction: 0.11,
                hot_probability: 0.55,
            },
            0.60,
            0.50,
            7.0,
            Profile::from_fractions(0.68, 0.22, 0.10, 0.20),
        ),
        app(
            "leslie3d06",
            8 * MB,
            Pattern::LoopHot {
                stride: 1,
                hot_fraction: 0.11,
                hot_probability: 0.55,
            },
            0.65,
            0.55,
            6.0,
            Profile::from_fractions(0.58, 0.27, 0.15, 0.20),
        ),
        app(
            "wrf06",
            6 * MB,
            Pattern::LoopHot {
                stride: 2,
                hot_fraction: 0.11,
                hot_probability: 0.55,
            },
            0.60,
            0.50,
            7.0,
            Profile::from_fractions(0.55, 0.30, 0.15, 0.20),
        ),
        app(
            "libquantum06",
            6 * MB,
            Pattern::LoopHot {
                stride: 1,
                hot_fraction: 0.14,
                hot_probability: 0.60,
            },
            0.55,
            0.60,
            5.0,
            Profile::from_fractions(0.80, 0.15, 0.05, 0.40),
        ),
        app(
            "bwaves17",
            10 * MB,
            phased(
                Pattern::LoopHot {
                    stride: 1,
                    hot_fraction: 0.09,
                    hot_probability: 0.55,
                },
                Pattern::Stream { spread: 2 },
                100_000,
            ),
            0.60,
            0.50,
            5.0,
            Profile::from_fractions(0.52, 0.33, 0.15, 0.25),
        ),
        app(
            "roms17",
            8 * MB,
            phased(
                Pattern::LoopHot {
                    stride: 1,
                    hot_fraction: 0.11,
                    hot_probability: 0.55,
                },
                Pattern::Stream { spread: 3 },
                80_000,
            ),
            0.65,
            0.55,
            6.0,
            Profile::from_fractions(0.62, 0.23, 0.15, 0.25),
        ),
        // Streaming / thrashing applications.
        app(
            "lbm17",
            8 * MB,
            Pattern::Stream { spread: 2 },
            0.70,
            0.80,
            5.0,
            Profile::from_fractions(0.38, 0.32, 0.30, 0.10),
        ),
        app(
            "milc06",
            8 * MB,
            Pattern::Stream { spread: 4 },
            0.65,
            0.70,
            6.0,
            Profile::incompressible(),
        ),
        app(
            "bzip206",
            3 * MB,
            phased(Pattern::Stream { spread: 4 }, Pattern::Random, 60_000),
            0.65,
            0.70,
            8.0,
            Profile::from_fractions(0.30, 0.35, 0.35, 0.05),
        ),
        app(
            "xz17",
            4 * MB,
            phased(Pattern::Random, Pattern::Stream { spread: 2 }, 70_000),
            0.70,
            0.80,
            8.0,
            Profile::incompressible(),
        ),
        // Irregular / pointer-heavy applications.
        app(
            "mcf17",
            6 * MB,
            phased(
                Pattern::HotCold {
                    hot_fraction: 0.10,
                    hot_probability: 0.65,
                },
                Pattern::Random,
                90_000,
            ),
            0.55,
            0.60,
            7.0,
            Profile::from_fractions(0.42, 0.33, 0.25, 0.10),
        ),
        app(
            "omnetpp06",
            3 * MB,
            Pattern::HotCold {
                hot_fraction: 0.12,
                hot_probability: 0.7,
            },
            0.70,
            0.70,
            9.0,
            Profile::from_fractions(0.55, 0.25, 0.20, 0.12),
        ),
        app(
            "soplex06",
            3 * MB,
            Pattern::HotCold {
                hot_fraction: 0.12,
                hot_probability: 0.65,
            },
            0.45,
            0.55,
            9.0,
            Profile::from_fractions(0.48, 0.22, 0.30, 0.15),
        ),
        app(
            "gobmk06",
            2 * MB,
            Pattern::HotCold {
                hot_fraction: 0.15,
                hot_probability: 0.6,
            },
            0.55,
            0.60,
            14.0,
            Profile::from_fractions(0.45, 0.25, 0.30, 0.10),
        ),
        app(
            "xalancbmk06",
            3 * MB,
            phased(
                Pattern::Random,
                Pattern::HotCold {
                    hot_fraction: 0.15,
                    hot_probability: 0.8,
                },
                50_000,
            ),
            0.45,
            0.55,
            10.0,
            Profile::from_fractions(0.60, 0.25, 0.15, 0.20),
        ),
        // Hot/cold working sets.
        app(
            "astar06",
            3 * MB,
            Pattern::HotCold {
                hot_fraction: 0.1,
                hot_probability: 0.7,
            },
            0.55,
            0.60,
            11.0,
            Profile::from_fractions(0.50, 0.20, 0.30, 0.10),
        ),
        app(
            "hmmer06",
            MB / 2,
            Pattern::HotCold {
                hot_fraction: 0.1,
                hot_probability: 0.85,
            },
            0.70,
            0.70,
            12.0,
            Profile::from_fractions(0.50, 0.30, 0.20, 0.10),
        ),
        app(
            "dealII06",
            6 * MB,
            phased(
                Pattern::LoopHot {
                    stride: 1,
                    hot_fraction: 0.11,
                    hot_probability: 0.55,
                },
                Pattern::Random,
                40_000,
            ),
            0.60,
            0.55,
            10.0,
            Profile::from_fractions(0.55, 0.25, 0.20, 0.15),
        ),
    ]
}

/// Looks an application model up by its SPEC-style name.
pub fn app_by_name(name: &str) -> Option<AppSpec> {
    spec_apps().into_iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SynthClass;

    #[test]
    fn twenty_apps_with_unique_names() {
        let apps = spec_apps();
        assert_eq!(apps.len(), 20);
        let names: std::collections::BTreeSet<_> = apps.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn lookup_by_name() {
        assert!(app_by_name("zeusmp06").is_some());
        assert!(app_by_name("GemsFDTD06").is_some());
        assert!(app_by_name("doom").is_none());
    }

    #[test]
    fn figure2_population_average() {
        // Average class fractions across all apps should approximate the
        // paper's 49 % HCR / 29 % LCR / 22 % incompressible (±8 points —
        // the calibration is by-eye from Figure 2).
        let apps = spec_apps();
        let mut hcr = 0.0;
        let mut lcr = 0.0;
        let mut inc = 0.0;
        let n = 10_000u64;
        for app in &apps {
            for b in 0..n {
                match app.profile.sample_class(b).nominal_size() {
                    s if s <= 37 => hcr += 1.0,
                    64 => inc += 1.0,
                    _ => lcr += 1.0,
                }
            }
        }
        let total = (apps.len() as f64) * n as f64;
        let (hcr, lcr, inc) = (hcr / total, lcr / total, inc / total);
        assert!((hcr - 0.49).abs() < 0.08, "HCR {hcr}");
        assert!((lcr - 0.29).abs() < 0.08, "LCR {lcr}");
        assert!((inc - 0.22).abs() < 0.08, "incompressible {inc}");
    }

    #[test]
    fn extreme_apps_match_paper() {
        let gems = app_by_name("GemsFDTD06").unwrap();
        let compressible = (0..1000)
            .filter(|&b| gems.profile.sample_class(b) != SynthClass::Incompressible)
            .count();
        assert!(
            compressible == 1000,
            "GemsFDTD should be fully compressible"
        );

        let xz = app_by_name("xz17").unwrap();
        let incompressible = (0..1000)
            .filter(|&b| xz.profile.sample_class(b) == SynthClass::Incompressible)
            .count();
        assert_eq!(incompressible, 1000, "xz17 should be fully incompressible");
    }

    #[test]
    fn footprints_exceed_private_caches() {
        // Every app must at least spill out of the 128 KB L2.
        for app in spec_apps() {
            assert!(
                app.footprint_blocks * 64 > 128 * 1024,
                "{} too small",
                app.name
            );
        }
    }

    #[test]
    fn write_behaviour_is_bounded() {
        for app in spec_apps() {
            assert!((0.0..=1.0).contains(&app.write_fraction), "{}", app.name);
            assert!((0.0..=1.0).contains(&app.writable_fraction), "{}", app.name);
        }
    }
}
