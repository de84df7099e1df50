//! Criterion microbenchmarks of the hardware-modelled components: BDI
//! compression/decompression, the block rearrangement circuitry, raw
//! hybrid-LLC operations, the private L1/L2 hierarchy under a real
//! reference stream, the reference pulls left on the simulation thread,
//! the per-job set-up work (block sizing by the workload data model, the
//! NVM array build and its degradation) and the forecast's choice of a
//! prediction step.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hllc_compress::{Block, Compressor, CompressorKind};
use hllc_config::ExperimentSpec;
use hllc_core::{HybridConfig, HybridLlc, Policy, ENDURANCE_SEED};
use hllc_forecast::{advance_wear, choose_step, run_phase, ForecastConfig};
use hllc_nvm::{rearrange, DisableGranularity, FaultMap, NvmArray};
use hllc_sim::{Access, ConstSizeData, DataModel, Hierarchy, LlcPort, LlcReq, NullLlc, ReuseClass};
use hllc_trace::{mixes, APP_SLOT_SHIFT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_blocks() -> Vec<Block> {
    let mut rng = StdRng::seed_from_u64(17);
    let mut blocks = vec![Block::zeroed(), Block::from_u64_lanes([42; 8])];
    // Clustered (B8Δ-compressible) and incompressible payloads.
    for _ in 0..14 {
        let base: u64 = rng.gen();
        let lanes: [u64; 8] = core::array::from_fn(|_| base.wrapping_add(rng.gen_range(0..1000)));
        blocks.push(Block::from_u64_lanes(lanes));
        let mut raw = [0u8; 64];
        rng.fill(&mut raw[..]);
        blocks.push(Block::new(raw));
    }
    blocks
}

fn bench_bdi(c: &mut Criterion) {
    let compressor = Compressor::new();
    let blocks = sample_blocks();
    c.bench_function("bdi/compress_64B", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % blocks.len();
            std::hint::black_box(compressor.compress(&blocks[i]))
        })
    });
    let compressed: Vec<_> = blocks.iter().map(|b| compressor.compress(b)).collect();
    c.bench_function("bdi/decompress_64B", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % compressed.len();
            std::hint::black_box(compressed[i].decompress())
        })
    });
    c.bench_function("bdi/size_only", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % blocks.len();
            std::hint::black_box(compressor.compressed_size(&blocks[i]))
        })
    });
}

fn bench_rearrange(c: &mut Criterion) {
    let fm = FaultMap::from_faulty([3, 17, 40, 61]);
    let ecb: Vec<u8> = (0..59).map(|i| i as u8).collect();
    c.bench_function("rearrange/scatter_59B", |b| {
        b.iter(|| std::hint::black_box(rearrange::scatter(&ecb, &fm, 11)))
    });
    let (recb, _) = rearrange::scatter(&ecb, &fm, 11);
    c.bench_function("rearrange/gather_59B", |b| {
        b.iter(|| std::hint::black_box(rearrange::gather(&recb, &fm, 11, ecb.len())))
    });
}

fn bench_llc(c: &mut Criterion) {
    let cfg = HybridConfig::new(1024, 4, 12, Policy::cp_sd());
    c.bench_function("llc/insert_request_cycle", |b| {
        b.iter_batched(
            || (HybridLlc::new(&cfg), ConstSizeData::new(22)),
            |(mut llc, mut data)| {
                for blk in 0..4096u64 {
                    llc.insert(blk, blk, false, ReuseClass::None, &mut data);
                    let _ = llc.request(blk, blk ^ 0x55, LlcReq::GetS);
                }
                llc
            },
            BatchSize::LargeInput,
        )
    });
}

/// `refs` scaled mix-1 references for `cores` cores, issued round-robin.
/// Core `c` runs the mix's app `c % 4` in address slot `c`, so 16 cores
/// run four slot-disjoint copies of the mix.
fn mix1_stream(spec: &ExperimentSpec, cores: usize, refs: usize) -> Vec<Access> {
    let apps = &mixes()[0].apps;
    let seed = spec.workload.seed;
    let mut streams: Vec<_> = (0..cores)
        .map(|c| {
            let app = &apps[c % apps.len()];
            app.instantiate(
                c,
                spec.footprint_scale(),
                seed.wrapping_add(c as u64 * 7919),
            )
        })
        .collect();
    (0..refs)
        .map(|i| streams[i % cores].next_access((i % cores) as u8))
        .collect()
}

/// One reference through the private L1/L2 (and the peer-L2 probe on a
/// miss) over a `NullLlc`, so only the private-cache layer is timed:
/// ns/iter is ns per reference.
fn bench_hierarchy(c: &mut Criterion) {
    let spec = ExperimentSpec::preset("scaled").expect("the scaled preset exists");
    for cores in [4, 16] {
        let stream = mix1_stream(&spec, cores, 1 << 18);
        let mut cfg = spec.system_config();
        cfg.cores = cores;
        let mut h = Hierarchy::new(&cfg, NullLlc::default(), ConstSizeData::new(64));
        for a in &stream {
            h.access(a); // warm the private caches
        }
        let mut refs = stream.iter().cycle();
        c.bench_function(&format!("hierarchy/access_{cores}c"), |b| {
            b.iter(|| h.access(refs.next().expect("a cycled stream never ends")))
        });
    }
}

/// References pulled per `trace/pull_mix1` iteration.
const PULLS: usize = 64;

/// Stand-in for the host time simulating one reference takes, spent
/// spinning between pulls. It errs fast: scaled mix-1 forecast phases run
/// at about 210–260 ns per reference on a 2-vCPU VM, pulls included.
const SIMULATED_REF: Duration = Duration::from_nanos(160);

/// `Mix::instantiate`'s scaled mix-1 streams pulled round-robin, as the
/// driver pulls them: `PULLS` references per iteration, so ns/iter ÷ 64 is
/// the generation cost per reference left on the simulation thread. An
/// untimed spin of `SIMULATED_REF` per reference between iterations stands
/// in for the simulation, so a helper thread, when a hardware thread is
/// free for one, fills batches at its real pace.
fn bench_pull(c: &mut Criterion) {
    let spec = ExperimentSpec::preset("scaled").expect("the scaled preset exists");
    let mut streams = mixes()[0].instantiate(spec.footprint_scale(), spec.workload.seed);
    let cores = streams.len();
    let mut core = 0;
    c.bench_function("trace/pull_mix1", |b| {
        b.iter_batched(
            || {
                let until = Instant::now() + SIMULATED_REF * PULLS as u32;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            },
            |()| {
                for _ in 0..PULLS {
                    std::hint::black_box(streams[core].next_access(core as u8));
                    core = (core + 1) % cores;
                }
            },
            BatchSize::SmallInput,
        )
    });
}

/// Block `i` of a sizing sequence that cycles over the four app slots of
/// a mix (slot bits at block bit `APP_SLOT_SHIFT - 6`).
fn slot_block(i: u64) -> u64 {
    (i & 3) << (APP_SLOT_SHIFT - 6) | i >> 2
}

/// `WorkloadData::compressed_size` for mix 1 under each compressor, 1024
/// sizings per iteration (so ns/iter ÷ 1024 is ns per block, with the
/// timer's cost amortized). `size_first_touch` sizes blocks never sized
/// before (a fresh model every 2^15 blocks, about one sweep job's first
/// touches); `size_repeat` re-sizes blocks sized already.
fn bench_data(c: &mut Criterion) {
    const BLOCKS: u64 = 1 << 15;
    const PER_ITER: u64 = 1 << 10;
    let mix = &mixes()[0];
    for kind in [CompressorKind::Bdi, CompressorKind::Fpc] {
        let name = kind.name().to_lowercase();
        let model = || mix.data_model_with(kind, 42);
        let mut data = model();
        let mut next = 0u64;
        c.bench_function(&format!("data/size_first_touch_{name}"), |b| {
            b.iter(|| {
                if next.is_multiple_of(BLOCKS) {
                    data = model();
                }
                let sum: u64 = (next..next + PER_ITER)
                    .map(|i| u64::from(data.compressed_size(slot_block(i))))
                    .sum();
                next += PER_ITER;
                sum
            })
        });
        let mut data = model();
        for i in 0..BLOCKS {
            data.compressed_size(slot_block(i));
        }
        let mut next = 0u64;
        c.bench_function(&format!("data/size_repeat_{name}"), |b| {
            b.iter(|| {
                let sum: u64 = (next..next + PER_ITER)
                    .map(|i| u64::from(data.compressed_size(slot_block(i))))
                    .sum();
                next = (next + PER_ITER) % BLOCKS;
                sum
            })
        });
    }
}

/// The NVM array `HybridLlc::new` builds at the scaled geometry: fault
/// maps and capacity lanes only, since the endurance limits wait for their
/// first read.
fn bench_nvm_array(c: &mut Criterion) {
    let cfg = ExperimentSpec::preset("scaled")
        .expect("the scaled preset exists")
        .llc_config();
    c.bench_function("nvm/sampled_array", |b| b.iter(|| cfg.sample_array()));
}

/// `degrade_to(0.5)` on the scaled NVM array under byte disabling (a
/// sweep job at capacity 0.5), a fresh array per iteration built outside
/// the timed routine.
fn bench_nvm_degrade(c: &mut Criterion) {
    let cfg = ExperimentSpec::preset("scaled")
        .expect("the scaled preset exists")
        .llc_config();
    let array = || {
        NvmArray::new(
            cfg.sets,
            cfg.nvm_ways,
            &cfg.endurance,
            DisableGranularity::Byte,
            ENDURANCE_SEED,
        )
    };
    let mut seed = 0u64;
    c.bench_function("nvm/degrade_to_half", |b| {
        b.iter_batched(
            || {
                seed += 1;
                (array(), StdRng::seed_from_u64(seed))
            },
            |(mut a, mut rng)| {
                a.degrade_to(0.5, &mut rng);
                a
            },
            BatchSize::LargeInput,
        )
    });
}

/// One `choose_step` of the scaled CP_SD forecast: the array after four
/// prediction steps at the per-frame write rates of one mix-1 phase, with
/// the same rates.
fn bench_choose_step(c: &mut Criterion) {
    let cfg = ForecastConfig::scaled(Policy::cp_sd());
    let (metrics, array) = run_phase(&cfg.phase(), &mixes()[0], None, 1);
    let mut array = array.expect("the scaled LLC has NVM ways");
    let rates = metrics.frame_write_rates(cfg.system.timing.freq_ghz * 1e9);
    for _ in 0..4 {
        let dt = choose_step(&array, &rates, cfg.capacity_step, cfg.max_step_seconds);
        advance_wear(&mut array, &rates, dt);
    }
    c.bench_function("forecast/choose_step", |b| {
        b.iter(|| choose_step(&array, &rates, cfg.capacity_step, cfg.max_step_seconds))
    });
}

criterion_group!(
    benches,
    bench_bdi,
    bench_rearrange,
    bench_llc,
    bench_hierarchy,
    bench_pull,
    bench_data,
    bench_nvm_array,
    bench_nvm_degrade,
    bench_choose_step
);
criterion_main!(benches);
