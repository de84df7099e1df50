//! NVM write-port contention (Table IV's 20-cycle data-array write
//! latency, 4 set-interleaved banks): reads arriving at a bank while a
//! write is in flight wait out the remainder.

use hllc_core::{HybridConfig, HybridLlc, Policy};
use hllc_sim::{ConstSizeData, LlcPort, LlcReq, ReuseClass};

fn llc() -> HybridLlc {
    HybridLlc::new(&HybridConfig::new(32, 4, 12, Policy::Ca { cp_th: 64 }))
}

#[test]
fn read_right_after_write_waits() {
    let mut c = llc();
    let mut d = ConstSizeData::new(20);
    // A write at t=100 occupies the bank until t=120.
    c.insert(100, 0, false, ReuseClass::None, &mut d);
    let r = c.request(105, 0, LlcReq::GetS);
    assert!(r.hit && r.nvm);
    assert_eq!(
        r.extra_cycles, 15,
        "read at 105 must wait for the write ending at 120"
    );
    assert_eq!(c.stats().write_stall_cycles, 15);
}

#[test]
fn read_after_write_completes_pays_nothing() {
    let mut c = llc();
    let mut d = ConstSizeData::new(20);
    c.insert(100, 0, false, ReuseClass::None, &mut d);
    let r = c.request(200, 0, LlcReq::GetS);
    assert_eq!(r.extra_cycles, 0);
    assert_eq!(c.stats().write_stall_cycles, 0);
}

#[test]
fn different_banks_do_not_interfere() {
    let mut c = llc();
    let mut d = ConstSizeData::new(20);
    // Set 0 -> bank 0; set 1 -> bank 1 (4 banks, set-interleaved).
    c.insert(50, 1, false, ReuseClass::None, &mut d); // bank 1 write, done at 70
    c.insert(100, 0, false, ReuseClass::None, &mut d); // bank 0 write, done at 120
    let r = c.request(105, 1, LlcReq::GetS); // bank 1 has been idle since 70
    assert_eq!(r.extra_cycles, 0, "bank 1 must not see bank 0's write");
}

#[test]
fn wait_is_capped_at_one_write_duration() {
    let mut c = llc();
    let mut d = ConstSizeData::new(20);
    // Back-to-back writes queue the bank far into the future.
    for i in 0..10 {
        c.insert(100, i * 32, false, ReuseClass::None, &mut d);
    }
    let r = c.request(101, 0, LlcReq::GetS);
    assert_eq!(
        r.extra_cycles, 20,
        "the wait is capped at one 20-cycle write"
    );
    assert_eq!(c.stats().write_stall_cycles, 20);
}

#[test]
fn sram_hits_never_wait() {
    let mut c = HybridLlc::new(&HybridConfig::new(32, 4, 12, Policy::Ca { cp_th: 30 }));
    let mut small = ConstSizeData::new(20);
    let mut big = ConstSizeData::new(64);
    c.insert(100, 0, false, ReuseClass::None, &mut small); // NVM write
    c.insert(101, 32, false, ReuseClass::None, &mut big); // SRAM insert
    let r = c.request(105, 32, LlcReq::GetS);
    assert!(r.hit && !r.nvm);
    assert_eq!(r.extra_cycles, 0);
}
