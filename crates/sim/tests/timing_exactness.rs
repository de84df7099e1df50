//! Exact timing accounting of the hierarchy's analytical model, on the
//! Table IV latencies: base CPI 0.25, L2 hit 12 cycles, memory 180
//! cycles, loads stalling for 0.6 and stores for 0.15 of a latency.

use hllc_sim::{Access, ConstSizeData, Hierarchy, NullLlc, SystemConfig};

fn cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.cores = 1;
    cfg
}

#[test]
fn cold_load_charges_memory_latency() {
    let cfg = cfg();
    let mut h = Hierarchy::new(&cfg, NullLlc::default(), ConstSizeData::new(64));
    let stall = h.access(&Access {
        inst_gap: 7,
        ..Access::load(0, 0)
    });
    assert_eq!(stall, 180.0 * 0.6);
    // Clock = 8 instructions at base CPI + the stall.
    assert_eq!(h.core_clock(0), 8.0 * 0.25 + stall);
}

#[test]
fn l1_hits_are_free_of_stall() {
    let cfg = cfg();
    let mut h = Hierarchy::new(&cfg, NullLlc::default(), ConstSizeData::new(64));
    h.access(&Access::load(0, 0));
    let stall = h.access(&Access::load(0, 0));
    assert_eq!(stall, 0.0, "L1 hits hide inside the pipeline");
}

#[test]
fn stores_charge_less_than_loads() {
    let cfg = cfg();
    let mut h = Hierarchy::new(&cfg, NullLlc::default(), ConstSizeData::new(64));
    let load_stall = h.access(&Access::load(0, 0x100000));
    let store_stall = h.access(&Access::store(0, 0x200000));
    assert!(store_stall < load_stall);
    assert_eq!(store_stall, 180.0 * 0.15);
}

#[test]
fn l2_hit_latency_is_charged_exactly() {
    let mut cfg = cfg();
    cfg.l1_sets = 1;
    cfg.l1_ways = 1;
    let mut h = Hierarchy::new(&cfg, NullLlc::default(), ConstSizeData::new(64));
    // Fill two blocks through the 1-entry L1; the first falls back to L2.
    h.access(&Access::load(0, 0));
    h.access(&Access::load(0, 64));
    let stall = h.access(&Access::load(0, 0)); // L1 miss, L2 hit
    assert_eq!(stall, 12.0 * 0.6);
}

#[test]
fn ipc_matches_hand_computation() {
    let cfg = cfg();
    let mut h = Hierarchy::new(&cfg, NullLlc::default(), ConstSizeData::new(64));
    // One cold load with a 9-instruction gap: 10 instructions total.
    h.access(&Access {
        inst_gap: 9,
        ..Access::load(0, 0)
    });
    let cycles = 10.0 * 0.25 + 180.0 * 0.6;
    assert!((h.ipc(0) - 10.0 / cycles).abs() < 1e-12);
    assert!((h.system_ipc() - h.ipc(0)).abs() < 1e-12);
}

#[test]
fn instruction_gaps_accumulate() {
    let cfg = cfg();
    let mut h = Hierarchy::new(&cfg, NullLlc::default(), ConstSizeData::new(64));
    h.access(&Access {
        inst_gap: 4,
        ..Access::load(0, 0)
    });
    h.access(&Access {
        inst_gap: 6,
        ..Access::load(0, 0)
    }); // L1 hit
    assert_eq!(h.stats().instructions.iter().sum::<u64>(), 12);
    assert_eq!(h.stats().accesses(), 2);
}
