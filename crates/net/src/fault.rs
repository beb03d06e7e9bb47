//! Fault injection below the [`Transport`] trait.
//!
//! [`FaultyTransport`] wraps any backend and perturbs point-to-point
//! traffic according to a seeded [`FaultPlan`]: messages may be
//! dropped, delayed, or duplicated, and whole endpoints can be cut off
//! to simulate a crashed peer. Because the faults are injected *below*
//! the trait, the in-process and TCP backends are exercised through
//! exactly the same chaos machinery, and a fixed seed makes every run
//! deterministic for a given interleaving of sends per route.
//!
//! Scope: faults apply to PUSH (`sender`) and REQ (`request`) traffic —
//! the data plane. PUB/SUB subscriptions (`subscribe` /
//! `subscribe_forward`) pass through unfaulted: the bus carries
//! low-rate control broadcasts (views, barrier advances, shutdown) and
//! ElGA's correctness argument assumes the directory broadcast channel
//! is reliable, so chaos is focused on the high-volume vertex/edge
//! traffic where loss actually happens in practice.

use crate::addr::Addr;
use crate::frame::Frame;
use crate::transport::{Delivery, Mailbox, NetError, Outbox, Publisher, Transport};
use crossbeam::channel::{unbounded, RecvTimeoutError};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fault parameters for one route (one destination address).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteFault {
    /// Probability in `[0, 1]` that a pushed frame is silently dropped.
    pub drop: f64,
    /// Probability in `[0, 1]` that a pushed frame is delivered twice.
    pub duplicate: f64,
    /// Lower bound of the uniform per-frame delivery delay.
    pub delay_min: Duration,
    /// Upper bound of the uniform per-frame delivery delay.
    pub delay_max: Duration,
}

impl Default for RouteFault {
    fn default() -> Self {
        Self {
            drop: 0.0,
            duplicate: 0.0,
            delay_min: Duration::ZERO,
            delay_max: Duration::ZERO,
        }
    }
}

impl RouteFault {
    fn delays(&self) -> bool {
        self.delay_max > Duration::ZERO
    }

    fn is_benign(&self) -> bool {
        *self == Self::default()
    }

    fn sample_delay(&self, rng: &mut SplitMix64) -> Duration {
        let span = (self.delay_max.saturating_sub(self.delay_min)).as_micros() as u64;
        self.delay_min + Duration::from_micros(rng.below(span.max(1)))
    }
}

/// A plan describing which faults to inject where.
///
/// The base fault applies to every route; `per_route` entries override
/// the base for specific destination addresses.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Fault applied to every route without a more specific entry.
    pub base: RouteFault,
    /// Per-destination overrides, matched by exact address.
    pub per_route: Vec<(Addr, RouteFault)>,
}

impl FaultPlan {
    /// A plan that drops/dups/delays uniformly on every route.
    pub fn uniform(drop: f64, duplicate: f64, delay_min: Duration, delay_max: Duration) -> Self {
        Self {
            base: RouteFault {
                drop,
                duplicate,
                delay_min,
                delay_max,
            },
            per_route: Vec::new(),
        }
    }

    /// Override the fault parameters for one destination address.
    pub fn route(mut self, addr: Addr, fault: RouteFault) -> Self {
        self.per_route.push((addr, fault));
        self
    }

    fn for_addr(&self, addr: &Addr) -> RouteFault {
        self.per_route
            .iter()
            .find(|(a, _)| a == addr)
            .map(|(_, f)| *f)
            .unwrap_or(self.base)
    }
}

/// Counters describing what the fault layer actually did.
#[derive(Debug, Default)]
pub struct FaultStats {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    rejected: AtomicU64,
}

impl FaultStats {
    /// Frames silently discarded.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Frames delivered twice.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Frames whose delivery was artificially delayed.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Sends/requests refused because the destination was cut.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

/// SplitMix64: tiny, seedable, good-enough PRNG so `elga-net` does not
/// grow a `rand` dependency just for chaos testing. Public because the
/// checkpoint store's disk-fault injector reuses the same stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`; the same seed yields the same
    /// sequence forever.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform u64 in [0, bound).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Storage-fault parameters for checkpoint writes — the disk analog of
/// [`RouteFault`]. Probabilities are rolled once per file write from a
/// seeded [`SplitMix64`], so a fixed seed makes the fault sequence on a
/// given writer deterministic.
///
/// Faults model a *lying* disk: the writer is not told its file is
/// damaged, exactly as a powered-off drive cache or a crash between
/// `write` and `fsync` behaves. The damage is only discoverable by
/// reading the file back and checking its length and checksum, which is
/// precisely what the checkpoint commit scrub and the restore-time
/// validation do.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiskFault {
    /// Probability in `[0, 1]` that a write is torn: only a prefix of
    /// the bytes reaches the file (a crash mid-write).
    pub torn_write: f64,
    /// Probability in `[0, 1]` that one byte of the written file is
    /// flipped (silent media corruption).
    pub corrupt: f64,
}

impl DiskFault {
    /// A plan that tears and corrupts with the given probabilities.
    pub fn new(torn_write: f64, corrupt: f64) -> Self {
        Self {
            torn_write,
            corrupt,
        }
    }

    /// True when no fault can ever fire.
    pub fn is_benign(&self) -> bool {
        self.torn_write <= 0.0 && self.corrupt <= 0.0
    }
}

fn addr_hash(addr: &Addr) -> u64 {
    // FNV-1a over the display form: stable across runs and processes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in addr.to_string().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A decorator that injects seeded faults into any [`Transport`].
///
/// Each route (destination address) gets its own PRNG stream seeded
/// from `seed ^ hash(addr)`, so the fault sequence on a route depends
/// only on the seed and the order of sends *on that route* — not on
/// when other routes were created or used. Requests to a destination
/// draw from a stream of their own, which each request advances.
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    seed: u64,
    stats: Arc<FaultStats>,
    cut: Arc<Mutex<HashSet<Addr>>>,
    requests: Mutex<HashMap<Addr, SplitMix64>>,
}

impl FaultyTransport {
    /// Wrap `inner`, applying `plan` with the given RNG `seed`.
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan, seed: u64) -> Self {
        Self {
            inner,
            plan,
            seed,
            stats: Arc::new(FaultStats::default()),
            cut: Arc::new(Mutex::new(HashSet::new())),
            requests: Mutex::new(HashMap::new()),
        }
    }

    /// Counters describing the injected faults so far.
    pub fn stats(&self) -> Arc<FaultStats> {
        self.stats.clone()
    }

    /// Simulate a crashed peer: all subsequent sends and requests to
    /// `addr` fail (requests with [`NetError::Disconnected`], pushes by
    /// silent discard, which is what a crashed TCP peer looks like to a
    /// PUSH socket).
    ///
    /// Note: outboxes created by [`Transport::sender`] *before* the cut
    /// honor it only if their route carries a non-benign fault (benign
    /// routes hand out the raw inner outbox for speed).
    pub fn disconnect(&self, addr: &Addr) {
        self.cut.lock().insert(addr.clone());
    }

    /// Undo [`FaultyTransport::disconnect`].
    pub fn reconnect(&self, addr: &Addr) {
        self.cut.lock().remove(addr);
    }

    fn is_cut(&self, addr: &Addr) -> bool {
        self.cut.lock().contains(addr)
    }

    /// Let one REQ to `addr` meet the plan: `Disconnected` when the
    /// destination is cut, `Timeout` when the request is dropped (the
    /// caller owes the wait a lost request costs), otherwise the delay
    /// to sleep before forwarding it. REQ/REP is at-most-once by
    /// construction (one reply channel), so duplication does not
    /// apply; a dropped request surfaces as a timeout the retry layer
    /// must absorb.
    fn roll_request(&self, addr: &Addr) -> Result<Duration, NetError> {
        if self.is_cut(addr) {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Disconnected);
        }
        let fault = self.plan.for_addr(addr);
        let mut streams = self.requests.lock();
        let rng = streams
            .entry(addr.clone())
            .or_insert_with(|| SplitMix64::new(self.seed ^ addr_hash(addr).rotate_left(17)));
        if fault.drop > 0.0 && rng.next_f64() < fault.drop {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Timeout);
        }
        if !fault.delays() {
            return Ok(Duration::ZERO);
        }
        self.stats.delayed.fetch_add(1, Ordering::Relaxed);
        Ok(fault.sample_delay(rng))
    }
}

/// How long a dropped request keeps its caller waiting at most: the
/// stand-in for the timeout a really lost request would run into.
const DROPPED_REQ_WAIT: Duration = Duration::from_millis(10);

impl Transport for FaultyTransport {
    fn bind(&self, addr: &Addr) -> Result<Mailbox, NetError> {
        self.inner.bind(addr)
    }

    fn sender(&self, addr: &Addr) -> Result<Outbox, NetError> {
        let fault = self.plan.for_addr(addr);
        if fault.is_benign() {
            // Nothing to inject on this route: hand out the raw outbox.
            return self.inner.sender(addr);
        }
        let inner_out = self.inner.sender(addr)?;
        let (tx, rx) = unbounded::<Delivery>();
        let mut rng = SplitMix64::new(self.seed ^ addr_hash(addr));
        let stats = self.stats.clone();
        let cut = self.cut.clone();
        let dest = addr.clone();
        std::thread::spawn(move || {
            // Faults are rolled when a frame *arrives* and delivery is
            // scheduled for `arrival + delay`, so delays on different
            // frames overlap. Sleeping in-line per frame would cap the
            // route's throughput at 1/mean-delay and congest under
            // load, which is not the fault being modelled: the model
            // is per-frame latency, not a slow link.
            let mut pending: VecDeque<(Instant, Delivery)> = VecDeque::new();
            'relay: loop {
                let now = Instant::now();
                while pending.front().is_some_and(|(due, _)| *due <= now) {
                    let (_, d) = pending.pop_front().expect("checked front");
                    if inner_out.tx.send(d).is_err() {
                        break 'relay;
                    }
                }
                let d = match pending.front() {
                    Some((due, _)) => {
                        let wait = due.saturating_duration_since(Instant::now());
                        match rx.recv_timeout(wait) {
                            Ok(d) => d,
                            Err(RecvTimeoutError::Timeout) => continue,
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                    None => match rx.recv() {
                        Ok(d) => d,
                        Err(_) => break,
                    },
                };
                if cut.lock().contains(&dest) {
                    stats.rejected.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if fault.drop > 0.0 && rng.next_f64() < fault.drop {
                    stats.dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let mut due = Instant::now();
                if fault.delays() {
                    due += fault.sample_delay(&mut rng);
                    stats.delayed.fetch_add(1, Ordering::Relaxed);
                }
                let dup = fault.duplicate > 0.0 && rng.next_f64() < fault.duplicate;
                let frame = d.frame.clone();
                // push_back keeps arrival order, so the route stays
                // FIFO (a later frame never overtakes an earlier one,
                // it just inherits at most the head's residual delay).
                pending.push_back((due, d));
                if dup {
                    stats.duplicated.fetch_add(1, Ordering::Relaxed);
                    pending.push_back((due, Delivery::push(frame)));
                }
            }
            // Senders are gone; flush what is already scheduled so the
            // tail of a burst is not silently lost on shutdown.
            for (due, d) in pending {
                let wait = due.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                if inner_out.tx.send(d).is_err() {
                    break;
                }
            }
        });
        Ok(Outbox { tx, stats: None })
    }

    fn request(&self, addr: &Addr, frame: Frame, timeout: Duration) -> Result<Frame, NetError> {
        let mut only = self.request_all(&[(addr, frame)], timeout);
        only.pop().expect("one request, one slot")
    }

    /// Each request meets the plan on its own: a cut destination is
    /// `Disconnected` and a dropped request a `Timeout` for that slot
    /// only. The survivors are forwarded to
    /// the inner backend in one call, after the largest of their
    /// sampled delays has been slept once (their delays overlap, as
    /// the requests do); a call that lost a request returns no sooner
    /// than 10 ms (or `timeout`, if shorter), the wait a lost request costs.
    fn request_all(
        &self,
        requests: &[(&Addr, Frame)],
        timeout: Duration,
    ) -> Vec<Result<Frame, NetError>> {
        let start = Instant::now();
        // A forwarded slot is overwritten by the inner backend's reply.
        let mut results: Vec<Result<Frame, NetError>> =
            requests.iter().map(|_| Err(NetError::Timeout)).collect();
        let mut forwarded = Vec::new();
        let mut delay = Duration::ZERO;
        let mut lost = false;
        for (i, (addr, _)) in requests.iter().enumerate() {
            match self.roll_request(addr) {
                Ok(d) => {
                    delay = delay.max(d);
                    forwarded.push(i);
                }
                Err(e) => {
                    lost |= matches!(e, NetError::Timeout);
                    results[i] = Err(e);
                }
            }
        }
        std::thread::sleep(delay);
        let survivors: Vec<_> = forwarded.iter().map(|&i| requests[i].clone()).collect();
        for (i, reply) in forwarded
            .into_iter()
            .zip(self.inner.request_all(&survivors, timeout))
        {
            results[i] = reply;
        }
        if lost {
            std::thread::sleep(
                timeout
                    .min(DROPPED_REQ_WAIT)
                    .saturating_sub(start.elapsed()),
            );
        }
        results
    }

    fn bind_publisher(&self, addr: &Addr) -> Result<Publisher, NetError> {
        self.inner.bind_publisher(addr)
    }

    fn subscribe(&self, addr: &Addr, topics: &[u8]) -> Result<Mailbox, NetError> {
        self.inner.subscribe(addr, topics)
    }

    fn net_stats(&self) -> Option<std::sync::Arc<crate::transport::NetStats>> {
        self.inner.net_stats()
    }

    fn subscribe_forward(&self, addr: &Addr, topics: &[u8], target: &Addr) -> Result<(), NetError> {
        // Control-plane broadcasts bypass fault injection; see module
        // docs. Forward straight through the inner transport so the
        // target's mailbox receives unfaulted bus traffic.
        self.inner.subscribe_forward(addr, topics, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::InProcTransport;

    fn chaos(plan: FaultPlan, seed: u64) -> FaultyTransport {
        FaultyTransport::new(Arc::new(InProcTransport::new()), plan, seed)
    }

    fn drain(mb: &Mailbox, wait: Duration) -> usize {
        let mut n = 0;
        while mb.recv_timeout(wait).is_ok() {
            n += 1;
        }
        n
    }

    #[test]
    fn drops_are_seeded_and_deterministic() {
        let counts: Vec<usize> = (0..2)
            .map(|_| {
                let t = chaos(
                    FaultPlan::uniform(0.3, 0.0, Duration::ZERO, Duration::ZERO),
                    42,
                );
                let addr = Addr::inproc("sink");
                let mb = t.bind(&addr).unwrap();
                let out = t.sender(&addr).unwrap();
                for _ in 0..200 {
                    out.send(Frame::signal(1)).unwrap();
                }
                drain(&mb, Duration::from_millis(200))
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert!(counts[0] < 200, "some frames must be dropped");
        assert!(counts[0] > 100, "drop rate should be ~30%, not more");
    }

    #[test]
    fn requests_to_one_destination_roll_apart() {
        let addr = Addr::inproc("server");
        for seed in 0..8 {
            let t = chaos(
                FaultPlan::uniform(0.5, 0.0, Duration::ZERO, Duration::ZERO),
                seed,
            );
            for _ in 0..64 {
                let _ = t.request(&addr, Frame::signal(1), Duration::from_millis(1));
            }
            let dropped = t.stats().dropped();
            assert!(
                dropped > 0 && dropped < 64,
                "seed {seed}: {dropped} of 64 dropped"
            );
        }
    }

    #[test]
    fn duplicates_deliver_twice() {
        let t = chaos(
            FaultPlan::uniform(0.0, 1.0, Duration::ZERO, Duration::ZERO),
            7,
        );
        let addr = Addr::inproc("dup");
        let mb = t.bind(&addr).unwrap();
        let out = t.sender(&addr).unwrap();
        for _ in 0..10 {
            out.send(Frame::signal(2)).unwrap();
        }
        assert_eq!(drain(&mb, Duration::from_millis(200)), 20);
        assert_eq!(t.stats().duplicated(), 10);
    }

    #[test]
    fn disconnect_rejects_requests_and_swallows_pushes() {
        let t = chaos(
            FaultPlan::uniform(0.0, 0.0, Duration::ZERO, Duration::from_micros(1)),
            1,
        );
        let addr = Addr::inproc("dead");
        let mb = t.bind(&addr).unwrap();
        t.disconnect(&addr);
        assert!(matches!(
            t.request(&addr, Frame::signal(1), Duration::from_millis(20)),
            Err(NetError::Disconnected)
        ));
        let out = t.sender(&addr).unwrap();
        out.send(Frame::signal(1)).unwrap();
        assert_eq!(drain(&mb, Duration::from_millis(100)), 0);
        t.reconnect(&addr);
        out.send(Frame::signal(1)).unwrap();
        assert_eq!(drain(&mb, Duration::from_millis(200)), 1);
        assert!(t.stats().rejected() >= 2);
    }

    #[test]
    fn benign_routes_pass_through_untouched() {
        let t = chaos(FaultPlan::default(), 0);
        let addr = Addr::inproc("clean");
        let mb = t.bind(&addr).unwrap();
        let out = t.sender(&addr).unwrap();
        for _ in 0..50 {
            out.send(Frame::signal(1)).unwrap();
        }
        assert_eq!(mb.backlog(), 50);
        assert_eq!(t.stats().dropped(), 0);
    }

    #[test]
    fn per_route_overrides_beat_base() {
        let spared = Addr::inproc("spared");
        let plan = FaultPlan::uniform(1.0, 0.0, Duration::ZERO, Duration::ZERO)
            .route(spared.clone(), RouteFault::default());
        let t = chaos(plan, 3);
        let doomed = Addr::inproc("doomed");
        let mb_doomed = t.bind(&doomed).unwrap();
        let mb_spared = t.bind(&spared).unwrap();
        t.sender(&doomed).unwrap().send(Frame::signal(1)).unwrap();
        t.sender(&spared).unwrap().send(Frame::signal(1)).unwrap();
        assert_eq!(drain(&mb_spared, Duration::from_millis(100)), 1);
        assert_eq!(drain(&mb_doomed, Duration::from_millis(100)), 0);
    }
}
