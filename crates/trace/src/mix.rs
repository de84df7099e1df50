//! The multi-programmed mixes of Table V.

use crate::app::AppSpec;
use crate::data::WorkloadData;
use crate::spec::app_by_name;
use crate::stream::{AppStream, Fill};

/// A four-application multi-programmed workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Mix {
    /// Mix label ("mix 1" … "mix 10").
    pub name: &'static str,
    /// The four applications, one per core.
    pub apps: Vec<AppSpec>,
}

impl Mix {
    fn from_names(name: &'static str, names: [&str; 4]) -> Self {
        let apps = names
            .iter()
            .map(|n| app_by_name(n).unwrap_or_else(|| panic!("unknown app {n}")))
            .collect();
        Mix { name, apps }
    }

    /// Creates one reference stream per core, with footprints scaled by
    /// `scale` (1.0 for the paper's 4 MB LLC). The streams generate in
    /// batches, on a helper thread when a hardware thread is free at their
    /// first pull (see [`AppStream`]).
    pub fn instantiate(&self, scale: f64, seed: u64) -> Vec<AppStream> {
        self.instantiate_with(scale, seed, Fill::Auto)
    }

    /// [`Mix::instantiate`] with the batch-filling mode fixed.
    pub(crate) fn instantiate_with(&self, scale: f64, seed: u64, fill: Fill) -> Vec<AppStream> {
        let gens = self
            .apps
            .iter()
            .enumerate()
            .map(|(slot, app)| app.instantiate(slot, scale, seed.wrapping_add(slot as u64 * 7919)))
            .collect();
        AppStream::for_mix(gens, fill)
    }

    /// Builds the matching data model (one compressibility profile per app
    /// slot), sizing blocks with `kind`: the paper's BDI, or FPC.
    pub fn data_model_with(&self, kind: hllc_compress::CompressorKind, seed: u64) -> WorkloadData {
        let profiles = self.apps.iter().map(|a| a.profile.clone()).collect();
        WorkloadData::new(profiles, kind, seed)
    }
}

/// The ten mixes of Table V.
pub fn mixes() -> Vec<Mix> {
    vec![
        Mix::from_names("mix 1", ["zeusmp06", "gobmk06", "dealII06", "bzip206"]),
        Mix::from_names("mix 2", ["hmmer06", "bzip206", "wrf06", "roms17"]),
        Mix::from_names("mix 3", ["zeusmp06", "cactuBSSN17", "hmmer06", "soplex06"]),
        Mix::from_names("mix 4", ["omnetpp06", "astar06", "milc06", "libquantum06"]),
        Mix::from_names("mix 5", ["xalancbmk06", "leslie3d06", "bwaves17", "mcf17"]),
        Mix::from_names("mix 6", ["lbm17", "xz17", "GemsFDTD06", "wrf06"]),
        Mix::from_names(
            "mix 7",
            ["cactuBSSN17", "dealII06", "libquantum06", "xalancbmk06"],
        ),
        Mix::from_names("mix 8", ["gobmk06", "milc06", "mcf17", "lbm17"]),
        Mix::from_names("mix 9", ["xz17", "astar06", "bwaves17", "soplex06"]),
        Mix::from_names(
            "mix 10",
            ["GemsFDTD06", "omnetpp06", "roms17", "leslie3d06"],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hllc_compress::CompressorKind;

    #[test]
    fn ten_mixes_of_four() {
        let ms = mixes();
        assert_eq!(ms.len(), 10);
        assert!(ms.iter().all(|m| m.apps.len() == 4));
    }

    #[test]
    fn every_registered_app_appears_in_some_mix() {
        let ms = mixes();
        for app in crate::spec::spec_apps() {
            assert!(
                ms.iter().any(|m| m.apps.iter().any(|a| a.name == app.name)),
                "{} unused",
                app.name
            );
        }
    }

    #[test]
    fn instantiation_slots_are_disjoint() {
        let _serial = crate::serial_helpers();
        let mix = &mixes()[0];
        let mut streams = mix.instantiate(0.1, 1);
        let mut slots = std::collections::BTreeSet::new();
        for (i, s) in streams.iter_mut().enumerate() {
            slots.insert(s.next_access(i as u8).addr >> crate::APP_SLOT_SHIFT);
        }
        assert_eq!(slots.len(), 4);
    }

    #[test]
    fn data_model_has_four_profiles() {
        use hllc_sim::DataModel;
        let mix = &mixes()[5]; // lbm, xz, Gems, wrf
        let mut d = mix.data_model_with(CompressorKind::Bdi, 1);
        // Slot 1 is xz17: incompressible.
        let xz_block = 1u64 << (crate::APP_SLOT_SHIFT - 6);
        assert_eq!(d.compressed_size(xz_block | 5), 64);
    }
}
