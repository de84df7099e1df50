//! The shared endurance map behind `HybridLlc::new`: every LLC with the
//! same geometry, endurance model and seed gets the limits a fresh seeded
//! sample would draw, from one shared allocation.

use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::thread;

use hllc_core::{HybridConfig, HybridLlc, Policy};
use hllc_nvm::NvmArray;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The memo is process-wide; tests that reason about what it holds take
/// turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn config(sets: usize, nvm_ways: usize, cv: f64, seed: u64) -> HybridConfig {
    HybridConfig::new(sets, 4, nvm_ways, Policy::cp_sd())
        .with_endurance(1e6, cv)
        .with_seed(seed)
}

fn array(cfg: &HybridConfig) -> NvmArray {
    HybridLlc::new(cfg)
        .into_array()
        .expect("the config has NVM ways")
}

/// What `HybridLlc::new` drew before the memo existed.
fn fresh(cfg: &HybridConfig) -> NvmArray {
    NvmArray::new(
        cfg.sets,
        cfg.nvm_ways,
        &cfg.endurance,
        cfg.policy.granularity(),
        &mut StdRng::seed_from_u64(cfg.seed),
    )
}

fn frames_equal(a: &NvmArray, b: &NvmArray) -> bool {
    (a.sets(), a.ways()) == (b.sets(), b.ways())
        && (0..a.sets()).all(|s| (0..a.ways()).all(|w| a.frame(s, w) == b.frame(s, w)))
}

fn shares_map(a: &NvmArray, b: &NvmArray) -> bool {
    (0..a.sets()).all(|s| {
        (0..a.ways()).all(|w| Arc::ptr_eq(a.frame(s, w).endurance(), b.frame(s, w).endurance()))
    })
}

#[test]
fn one_config_shares_the_fresh_sample() {
    let _turn = serial();
    let cfg = config(16, 12, 0.2, 101);
    let (a, b) = (array(&cfg), array(&cfg));
    let reference = fresh(&cfg);
    assert!(frames_equal(&a, &reference));
    assert!(frames_equal(&b, &reference));
    assert!(shares_map(&a, &b));
    assert!(!shares_map(&a, &reference));
    // The policy picks the granularity, not the endurance map.
    let bh = HybridConfig {
        policy: Policy::Bh,
        ..cfg
    };
    assert!(shares_map(&a, &array(&bh)));
}

#[test]
fn changing_geometry_model_or_seed_resamples() {
    let _turn = serial();
    let base = config(16, 12, 0.2, 202);
    for other in [
        config(8, 12, 0.2, 202),
        config(16, 6, 0.2, 202),
        config(16, 12, 0.25, 202),
        config(16, 12, 0.2, 203),
        base.clone().with_endurance(2e6, 0.2),
    ] {
        // Sample the base first, so the memo holds it when `other` asks.
        let a = array(&base);
        let b = array(&other);
        assert!(frames_equal(&b, &fresh(&other)));
        assert!(!Arc::ptr_eq(
            a.frame(0, 0).endurance(),
            b.frame(0, 0).endurance()
        ));
    }
}

#[test]
fn concurrent_samplers_get_equal_arrays() {
    let _turn = serial();
    let cfg = config(32, 12, 0.2, 303);
    let start = Arc::new(Barrier::new(4));
    let arrays: Vec<NvmArray> = (0..4)
        .map(|_| {
            let (cfg, start) = (cfg.clone(), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                array(&cfg)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("sampler thread"))
        .collect();
    let reference = fresh(&cfg);
    for a in &arrays {
        assert!(frames_equal(a, &reference));
        assert!(shares_map(a, &arrays[0]));
    }
}

#[test]
fn at_most_one_map_outlives_its_arrays() {
    let _turn = serial();
    let a = array(&config(16, 12, 0.2, 404));
    let first = Arc::downgrade(a.frame(0, 0).endurance());
    drop(a);
    assert!(first.upgrade().is_some(), "the latest map stays memoised");
    let b = array(&config(16, 12, 0.2, 405));
    assert!(first.upgrade().is_none(), "a superseded map must be freed");
    // A map in use survives being superseded.
    let second = Arc::downgrade(b.frame(0, 0).endurance());
    let _c = array(&config(16, 12, 0.2, 406));
    assert!(second.upgrade().is_some());
    drop(b);
    assert!(second.upgrade().is_none());
}
