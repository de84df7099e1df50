//! Batched per-core reference streams, filled off the simulation thread
//! when a hardware thread is free.
//!
//! A core's references depend only on its generator's pattern state and
//! RNG, never on the hierarchy, so they can be generated ahead of the
//! simulation without changing a simulated bit. Each [`AppStream`] pulls
//! from a batch of [`BATCH`] references. On the stream's first pull its
//! mix picks one of two ways to fill batches, both through [`fill`]:
//!
//! * **helper** — when [`crate::threads`] finds a hardware thread free, one
//!   thread per mix fills every core's batches. The streams allocate
//!   [`BUFFERS_PER_CORE`] buffers per core up front and hand each spent
//!   buffer back over one return channel; the helper refills it and sends
//!   it to its core's queue. The helper never allocates, and it runs at
//!   most two batches ahead of any core.
//! * **inline** — otherwise each stream refills its own batch when it runs
//!   dry.
//!
//! The helper is joined when the mix's last stream drops. If it dies, the
//! next pull that needs a batch panics: a synthetic stream never ends.

use std::mem;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use hllc_sim::Access;

use crate::app::AppGen;
use crate::threads::HelperClaim;

/// References per batch. Measured with a helper (DESIGN §10.9): the pull
/// cost falls with batch size up to here; doubling it again saves under
/// 1 ns per reference and doubles the run-ahead memory.
pub(crate) const BATCH: usize = 1024;

/// Buffers in circulation per core with a helper: the one being consumed
/// and up to two filled ahead.
const BUFFERS_PER_CORE: usize = 3;

/// How a mix's streams fill their batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fill {
    /// A helper if a hardware thread is free at the first pull, else inline.
    Auto,
    /// Always inline.
    #[cfg_attr(not(test), allow(dead_code))]
    Inline,
    /// Always a helper, free hardware thread or not.
    #[cfg_attr(not(test), allow(dead_code))]
    Helper,
}

/// One core's infinite reference stream, as [`crate::Mix::instantiate`]
/// creates it: the sequence `AppSpec::instantiate(..).next_access` yields,
/// pulled from batches.
#[derive(Debug)]
pub struct AppStream {
    batch: Vec<Access>,
    pos: usize,
    slot: usize,
    source: Source,
}

#[derive(Debug)]
enum Source {
    /// Not pulled yet: the first pull asks the mix how to fill.
    Pending(Arc<Mutex<Feed>>),
    Inline(AppGen),
    Helper {
        // Declared before `_feed` so the stream's sender is gone before the
        // last stream's drop joins the helper.
        returns: SyncSender<(usize, Vec<Access>)>,
        filled: Receiver<Vec<Access>>,
        _feed: Arc<Mutex<Feed>>,
    },
}

impl AppStream {
    /// One stream per generator, slot = index, filling as `fill` says.
    pub(crate) fn for_mix(gens: Vec<AppGen>, fill: Fill) -> Vec<AppStream> {
        let slots = gens.len();
        let feed = Arc::new(Mutex::new(Feed {
            fill,
            gens: gens.into_iter().map(Some).collect(),
            helper: None,
        }));
        (0..slots)
            .map(|slot| AppStream {
                batch: Vec::new(),
                pos: 0,
                slot,
                source: Source::Pending(Arc::clone(&feed)),
            })
            .collect()
    }

    /// Produces the next reference, stamped with `core`.
    #[inline]
    pub fn next_access(&mut self, core: u8) -> Access {
        if self.pos == self.batch.len() {
            self.refill();
        }
        let a = self.batch[self.pos];
        self.pos += 1;
        Access { core, ..a }
    }

    /// Replaces the spent batch with a full one.
    #[inline(never)]
    fn refill(&mut self) {
        if let Source::Pending(feed) = &self.source {
            self.source = attach(feed, self.slot);
        }
        match &mut self.source {
            Source::Pending(_) => unreachable!("attached above"),
            Source::Inline(gen) => fill(gen, &mut self.batch),
            Source::Helper {
                returns, filled, ..
            } => {
                let spent = mem::take(&mut self.batch);
                // The very first pull has no buffer to hand back.
                if spent.capacity() > 0 && returns.send((self.slot, spent)).is_err() {
                    helper_died();
                }
                self.batch = filled.recv().unwrap_or_else(|_| helper_died());
            }
        }
        self.pos = 0;
    }
}

fn helper_died() -> ! {
    panic!("the reference helper thread died; a synthetic stream cannot continue")
}

/// The one fill routine of both modes: `BATCH` references of `gen`, in its
/// draw order, into `batch` (which keeps its allocation once it has one).
fn fill(gen: &mut AppGen, batch: &mut Vec<Access>) {
    batch.clear();
    // The stamp is overwritten at the pull.
    batch.extend((0..BATCH).map(|_| gen.next_access(0)));
}

/// Filling state shared by one mix's streams.
#[derive(Debug)]
struct Feed {
    fill: Fill,
    /// Per slot, the generator until a stream or the helper takes it.
    gens: Vec<Option<AppGen>>,
    helper: Option<Helper>,
}

#[derive(Debug)]
struct Helper {
    returns: SyncSender<(usize, Vec<Access>)>,
    /// Per slot, the batch queue until its stream takes it.
    filled: Vec<Option<Receiver<Vec<Access>>>>,
    thread: JoinHandle<()>,
    _claim: HelperClaim,
}

/// Chooses the mix's mode on its first pull, then hands stream `slot` its
/// end of it.
fn attach(shared: &Arc<Mutex<Feed>>, slot: usize) -> Source {
    let mut feed = shared
        .lock()
        .expect("no stream of the mix panicked while attaching");
    // Every generator still in place: this is the mix's first pull.
    if feed.gens.iter().all(Option::is_some) {
        let claim = match feed.fill {
            Fill::Auto => HelperClaim::new(false),
            Fill::Inline => None,
            Fill::Helper => HelperClaim::new(true),
        };
        if let Some(claim) = claim {
            feed.helper = start_helper(&mut feed.gens, claim);
        }
    }
    let feed = &mut *feed;
    match &mut feed.helper {
        Some(h) => Source::Helper {
            returns: h.returns.clone(),
            filled: h.filled[slot].take().expect("each slot attaches once"),
            _feed: Arc::clone(shared),
        },
        None => Source::Inline(feed.gens[slot].take().expect("each slot attaches once")),
    }
}

/// Starts a helper over all of `gens`, with every buffer it will fill
/// allocated here. Leaves `gens` in place and returns `None` if the thread
/// cannot be spawned, so the streams fall back to inline.
fn start_helper(gens: &mut [Option<AppGen>], claim: HelperClaim) -> Option<Helper> {
    // Bounded channels are allocated whole here, so passing buffers never
    // allocates; each holds every buffer it could ever queue.
    let (returns, returned) = mpsc::sync_channel(BUFFERS_PER_CORE * gens.len());
    let (queues, filled): (Vec<_>, Vec<_>) = gens
        .iter()
        .map(|_| mpsc::sync_channel(BUFFERS_PER_CORE))
        .unzip();
    let (give, take) = mpsc::sync_channel::<Vec<AppGen>>(1);
    let thread = std::thread::Builder::new()
        .name("hllc-refs".into())
        .spawn(move || {
            if let Ok(gens) = take.recv() {
                run_helper(gens, returned, queues);
            }
        })
        .ok()?;
    give.send(
        gens.iter_mut()
            .map(|g| g.take().expect("not attached yet"))
            .collect(),
    )
    .expect("the helper waits for its generators");
    for _ in 0..BUFFERS_PER_CORE {
        for slot in 0..gens.len() {
            returns
                .send((slot, Vec::with_capacity(BATCH)))
                .expect("the helper holds the receiver");
        }
    }
    Some(Helper {
        returns,
        filled: filled.into_iter().map(Some).collect(),
        thread,
        _claim: claim,
    })
}

/// The helper's loop: refill each returned buffer for its slot until every
/// stream of the mix has dropped its sender.
fn run_helper(
    mut gens: Vec<AppGen>,
    returned: Receiver<(usize, Vec<Access>)>,
    queues: Vec<SyncSender<Vec<Access>>>,
) {
    for (slot, mut batch) in returned {
        fill(&mut gens[slot], &mut batch);
        // A stream dropped before its mix no longer wants batches.
        let _ = queues[slot].send(batch);
    }
}

impl Drop for Feed {
    fn drop(&mut self) {
        if let Some(Helper {
            returns,
            filled,
            thread,
            _claim,
        }) = self.helper.take()
        {
            // Every stream's sender is gone; with this last one the helper's
            // loop ends.
            drop((returns, filled));
            // A helper panic was reported when it happened, and any stream
            // that needed a batch after it panicked too.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::mixes;
    use crate::threads::live_helpers;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The reference sequence of `mix`'s core `slot`, one call at a time.
    fn reference(mix: &crate::Mix, slot: usize, scale: f64, seed: u64) -> AppGen {
        mix.apps[slot].instantiate(slot, scale, seed.wrapping_add(slot as u64 * 7919))
    }

    #[test]
    fn batched_streams_replay_the_generators_in_both_modes() {
        let _serial = crate::serial_helpers();
        // Past three batch boundaries per core, pulled in an uneven order.
        let per_core = 3 * BATCH + 17;
        for mix in &mixes() {
            for seed in [1, 42, 0xDEAD_BEEF] {
                for fill in [Fill::Inline, Fill::Helper] {
                    let mut streams = mix.instantiate_with(0.05, seed, fill);
                    let mut gens: Vec<_> = (0..4).map(|s| reference(mix, s, 0.05, seed)).collect();
                    let mut pulled = [0usize; 4];
                    let mut i = 0u64;
                    while pulled.iter().any(|&n| n < per_core) {
                        i += 1;
                        let core = (crate::profile::splitmix(i ^ seed) % 4) as usize;
                        if pulled[core] == per_core {
                            continue;
                        }
                        pulled[core] += 1;
                        let want = gens[core].next_access(core as u8);
                        let got = streams[core].next_access(core as u8);
                        assert_eq!(got, want, "{} seed {seed} {fill:?} core {core}", mix.name);
                    }
                }
            }
        }
    }

    #[test]
    fn the_pull_stamps_the_requested_core() {
        let mix = &mixes()[0];
        let mut streams = mix.instantiate_with(0.05, 3, Fill::Inline);
        assert_eq!(streams[2].next_access(7).core, 7);
    }

    #[test]
    fn dropping_streams_mid_batch_joins_the_helper() {
        let _serial = crate::serial_helpers();
        assert_eq!(live_helpers(), 0);
        let mut streams = mixes()[1].instantiate_with(0.05, 9, Fill::Helper);
        for (core, s) in streams.iter_mut().enumerate() {
            for _ in 0..BATCH + BATCH / 2 {
                s.next_access(core as u8);
            }
        }
        assert_eq!(live_helpers(), 1);
        drop(streams);
        assert_eq!(live_helpers(), 0);
    }

    #[test]
    fn streams_that_never_pull_start_no_helper() {
        let _serial = crate::serial_helpers();
        let streams = mixes()[2].instantiate_with(0.05, 9, Fill::Helper);
        assert_eq!(live_helpers(), 0, "the helper starts lazily");
        drop(streams);
        assert_eq!(live_helpers(), 0);
    }

    #[test]
    fn a_dead_helper_panics_the_next_pull() {
        let _serial = crate::serial_helpers();
        let mut streams = mixes()[0].instantiate_with(0.05, 5, Fill::Helper);
        streams[0].next_access(0);
        let Source::Helper { returns, .. } = &streams[0].source else {
            panic!("forced helper mode");
        };
        // An out-of-range slot makes the helper index past its generators.
        returns.send((usize::MAX, Vec::new())).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..(BUFFERS_PER_CORE + 1) * BATCH {
                streams[0].next_access(0);
            }
        }));
        let payload = outcome.expect_err("pulls past the queued batches must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default();
        assert!(msg.contains("reference helper thread died"), "{msg}");
        drop(streams);
        assert_eq!(live_helpers(), 0);
    }

    #[test]
    fn auto_mode_starts_no_helper_when_every_thread_is_claimed() {
        let _serial = crate::serial_helpers();
        let _all = crate::claim_threads(crate::threads::available());
        let mut streams = mixes()[3].instantiate(0.05, 1);
        streams[0].next_access(0);
        assert_eq!(live_helpers(), 0);
    }
}
