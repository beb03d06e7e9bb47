//! Fault injection below the [`Transport`] trait.
//!
//! [`FaultyTransport`] wraps any backend and perturbs its
//! point-to-point traffic the way TCP can, by a [`FaultPlan`]. Every
//! frame may be delayed, from a seeded stream per route: routes
//! overtake one another, but each stays FIFO. A route *breaks* where
//! the plan schedules it ([`LinkBreak`]) or on a push to a destination
//! [`FaultyTransport::disconnect`] cut: like a TCP connection that
//! resets, it loses the frames it holds, flags its outbox
//! ([`Outbox::lost`]) and refuses every later send, so the sender
//! reopens it with a fresh [`Transport::sender`]. Nothing is rolled
//! but the delays, so a failing case replays from its plan and seed.
//! The in-process and TCP backends go through the same machinery.
//!
//! Scope: faults apply to PUSH (`sender`) and REQ (`request`) traffic —
//! the data plane. PUB/SUB subscriptions (`subscribe` /
//! `subscribe_forward`) pass through unfaulted: the bus carries
//! low-rate control broadcasts (views, barrier advances, shutdown) and
//! ElGA's correctness argument assumes the directory broadcast channel
//! is reliable.

use crate::addr::Addr;
use crate::frame::Frame;
use crate::transport::{Delivery, Mailbox, NetError, Outbox, Publisher, Transport};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a [`FaultyTransport`] does to the traffic it carries.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Lower bound of the uniform per-frame delivery delay.
    pub delay_min: Duration,
    /// Upper bound of the uniform per-frame delivery delay; zero
    /// delays nothing.
    pub delay_max: Duration,
    /// The link break the plan schedules, if any.
    pub link_break: Option<LinkBreak>,
}

/// A scheduled link break: when the `nth` frame (counting from 1) of
/// packet kind `kind` is pushed toward `to`, over whichever route,
/// every route then open into `to` breaks. It happens once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkBreak {
    /// The destination whose link breaks.
    pub to: Addr,
    /// The packet kind whose frames are counted.
    pub kind: u8,
    /// The frame that breaks it.
    pub nth: u64,
}

impl FaultPlan {
    /// A plan that delays every frame and request uniformly in
    /// `[min, max)`.
    pub fn delays(min: Duration, max: Duration) -> Self {
        Self {
            delay_min: min,
            delay_max: max,
            link_break: None,
        }
    }

    /// Schedule the link into `to` to break at its `nth` frame of
    /// packet kind `kind` ([`LinkBreak`]).
    pub fn break_link(mut self, to: Addr, kind: u8, nth: u64) -> Self {
        self.link_break = Some(LinkBreak { to, kind, nth });
        self
    }

    fn delays_frames(&self) -> bool {
        self.delay_max > Duration::ZERO
    }

    fn sample_delay(&self, rng: &mut SplitMix64) -> Duration {
        let span = (self.delay_max.saturating_sub(self.delay_min)).as_micros() as u64;
        self.delay_min + Duration::from_micros(rng.below(span.max(1)))
    }
}

/// Counters describing what the fault layer actually did.
#[derive(Debug, Default)]
pub struct FaultStats {
    delayed: AtomicU64,
    broken: AtomicU64,
    lost: AtomicU64,
    rejected: AtomicU64,
}

impl FaultStats {
    /// Frames and requests whose delivery was artificially delayed.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Routes a scheduled break or a cut broke.
    pub fn broken(&self) -> u64 {
        self.broken.load(Ordering::Relaxed)
    }

    /// Frames a broken route had accepted and lost.
    pub fn lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// Requests refused because the destination was cut.
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

/// The scheduled break's count, shared by the routes into its
/// destination.
#[derive(Default)]
struct Schedule {
    /// Frames of the break's kind pushed toward its destination so far.
    seen: u64,
    /// The lost flags of the routes open into it, until it breaks.
    routes: Vec<Arc<AtomicBool>>,
}

/// A decorator that injects a [`FaultPlan`] into any [`Transport`].
///
/// Each route (destination address) draws its delays from its own
/// stream seeded from `seed ^ hash(addr)`, so they depend only on the
/// seed and the order of sends *on that route*. Requests to a
/// destination draw from a stream of their own, which each request
/// advances.
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    seed: u64,
    stats: Arc<FaultStats>,
    cut: Arc<Mutex<HashSet<Addr>>>,
    requests: Mutex<HashMap<Addr, SplitMix64>>,
    schedule: Arc<Mutex<Schedule>>,
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
            schedule: Arc::default(),
        }
    }

    /// Counters describing the injected faults so far.
    pub fn stats(&self) -> Arc<FaultStats> {
        self.stats.clone()
    }

    /// Cut `addr` off, as a crashed host is: requests to it fail with
    /// [`NetError::Disconnected`], and a push to it breaks its route.
    pub fn disconnect(&self, addr: &Addr) {
        self.cut.lock().insert(addr.clone());
    }

    /// Undo [`FaultyTransport::disconnect`]; broken routes stay broken.
    pub fn reconnect(&self, addr: &Addr) {
        self.cut.lock().remove(addr);
    }

    /// Let one REQ to `addr` meet the plan: `Disconnected` when the
    /// destination is cut, otherwise the delay to sleep before
    /// forwarding it.
    fn request_delay(&self, addr: &Addr) -> Result<Duration, NetError> {
        if self.cut.lock().contains(addr) {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Disconnected);
        }
        if !self.plan.delays_frames() {
            return Ok(Duration::ZERO);
        }
        let mut streams = self.requests.lock();
        let rng = streams
            .entry(addr.clone())
            .or_insert_with(|| SplitMix64::new(self.seed ^ addr.stable_hash().rotate_left(17)));
        self.stats.delayed.fetch_add(1, Ordering::Relaxed);
        Ok(self.plan.sample_delay(rng))
    }
}

/// One route's relay thread: it takes the sender's frames off `rx` and
/// hands each to the inner outbox once its delay is up.
struct Relay {
    dest: Addr,
    rx: Receiver<Delivery>,
    inner: Outbox,
    /// The route's broken flag: its outbox's [`Outbox::lost`].
    lost: Arc<AtomicBool>,
    plan: FaultPlan,
    rng: SplitMix64,
    stats: Arc<FaultStats>,
    cut: Arc<Mutex<HashSet<Addr>>>,
    schedule: Arc<Mutex<Schedule>>,
}

impl Relay {
    /// Whether `frame` breaks the route: its destination is cut, or it
    /// is the scheduled break's frame, which breaks every route open
    /// into the destination.
    fn breaks(&self, frame: &Frame) -> bool {
        if self.cut.lock().contains(&self.dest) {
            self.stats.broken.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let Some(at) = (self.plan.link_break.as_ref())
            .filter(|b| b.to == self.dest && b.kind == frame.packet_type())
        else {
            return false;
        };
        let mut schedule = self.schedule.lock();
        schedule.seen += 1;
        if schedule.seen != at.nth {
            return false;
        }
        for route in schedule.routes.drain(..) {
            route.store(true, Ordering::Release);
            self.stats.broken.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Delays are sampled when a frame *arrives* and delivery is due at
    /// `arrival + delay`, so delays on different frames overlap (a
    /// per-frame sleep would model a slow link, not latency); frames
    /// leave in arrival order, so the route stays FIFO. Once the route
    /// is broken, what it holds is lost, and returning drops `rx`, which
    /// refuses every later send.
    fn run(mut self) {
        let mut pending: VecDeque<(Instant, Delivery)> = VecDeque::new();
        while !self.lost.load(Ordering::Acquire) {
            let now = Instant::now();
            while pending.front().is_some_and(|(due, _)| *due <= now) {
                let (_, d) = pending.pop_front().expect("checked front");
                if self.inner.tx.send(d).is_err() {
                    return;
                }
            }
            let next = match pending.front() {
                Some((due, _)) => self.rx.recv_timeout(due.saturating_duration_since(now)),
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            let d = match next {
                Ok(d) => d,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return self.finish(pending),
            };
            let mut due = Instant::now();
            if self.breaks(&d.frame) {
                self.lost.store(true, Ordering::Release);
            } else if self.plan.delays_frames() {
                due += self.plan.sample_delay(&mut self.rng);
                self.stats.delayed.fetch_add(1, Ordering::Relaxed);
            }
            pending.push_back((due, d));
        }
        self.stats
            .lost
            .fetch_add(pending.len() as u64, Ordering::Relaxed);
    }

    /// Deliver `pending` on schedule after the sender went away, unless
    /// the route breaks meanwhile.
    fn finish(self, mut pending: VecDeque<(Instant, Delivery)>) {
        while !self.lost.load(Ordering::Acquire) {
            let Some((due, d)) = pending.pop_front() else {
                return;
            };
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            if self.inner.tx.send(d).is_err() {
                return;
            }
        }
        self.stats
            .lost
            .fetch_add(pending.len() as u64, Ordering::Relaxed);
    }
}

impl Transport for FaultyTransport {
    fn bind(&self, addr: &Addr) -> Result<Mailbox, NetError> {
        self.inner.bind(addr)
    }

    /// Every route gets a relay, so a break or a cut reaches all of
    /// them.
    fn sender(&self, addr: &Addr) -> Result<Outbox, NetError> {
        let inner = self.inner.sender(addr)?;
        let (tx, rx) = unbounded::<Delivery>();
        let lost = Arc::new(AtomicBool::new(false));
        if self.plan.link_break.as_ref().is_some_and(|b| b.to == *addr) {
            self.schedule.lock().routes.push(lost.clone());
        }
        let relay = Relay {
            dest: addr.clone(),
            rx,
            inner,
            lost: lost.clone(),
            plan: self.plan.clone(),
            rng: SplitMix64::new(self.seed ^ addr.stable_hash()),
            stats: self.stats.clone(),
            cut: self.cut.clone(),
            schedule: self.schedule.clone(),
        };
        std::thread::spawn(move || relay.run());
        Ok(Outbox {
            tx,
            stats: None,
            lost: Some(lost),
        })
    }

    fn request(&self, addr: &Addr, frame: Frame, timeout: Duration) -> Result<Frame, NetError> {
        let mut only = self.request_all(&[(addr, frame)], timeout);
        only.pop().expect("one request, one slot")
    }

    /// Each request meets the plan on its own: a cut destination is
    /// `Disconnected` for that slot only. The others are forwarded to
    /// the inner backend in one call, after the largest of their
    /// sampled delays has been slept once (their delays overlap, as
    /// the requests do).
    fn request_all(
        &self,
        requests: &[(&Addr, Frame)],
        timeout: Duration,
    ) -> Vec<Result<Frame, NetError>> {
        let delays: Vec<_> = requests
            .iter()
            .map(|(a, _)| self.request_delay(a))
            .collect();
        std::thread::sleep(delays.iter().flatten().max().copied().unwrap_or_default());
        let forwarded: Vec<_> = (requests.iter().zip(&delays))
            .filter(|(_, d)| d.is_ok())
            .map(|(r, _)| r.clone())
            .collect();
        let mut replies = self.inner.request_all(&forwarded, timeout).into_iter();
        (delays.into_iter())
            .map(|d| d.and_then(|_| replies.next().expect("a reply per forwarded request")))
            .collect()
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

    fn drain(mb: &Mailbox, wait: Duration) -> Vec<u64> {
        std::iter::from_fn(|| mb.recv_timeout(wait).ok())
            .map(|d| d.frame.reader().u64().expect("a numbered frame"))
            .collect()
    }

    fn numbered(k: u64) -> Frame {
        Frame::builder(1).u64(k).finish()
    }

    /// Poll `done` for up to five seconds.
    fn soon(done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// A scheduled break is exact, run after run: the route into `sink`
    /// delivers the frames before the 5th, loses that one and refuses
    /// sends after it; the other route open into `sink` reads lost too
    /// and delivers nothing more; a route elsewhere delivers.
    #[test]
    fn a_scheduled_break_loses_the_same_frames_on_every_run() {
        for _ in 0..2 {
            let (sink, other) = (Addr::inproc("sink"), Addr::inproc("other"));
            let t = chaos(FaultPlan::default().break_link(sink.clone(), 1, 5), 42);
            let (mb, mb_other) = (t.bind(&sink).unwrap(), t.bind(&other).unwrap());
            let (a, b) = (t.sender(&sink).unwrap(), t.sender(&sink).unwrap());
            let elsewhere = t.sender(&other).unwrap();
            for k in 0..5 {
                a.send(numbered(k)).unwrap();
            }
            assert!(soon(|| a.lost()), "the 5th frame never broke the route");
            assert!(b.lost(), "every route into the destination breaks");
            assert!(
                soon(|| a.send(numbered(9)).is_err()),
                "a broken route refuses"
            );
            assert!(t.stats().lost() >= 1, "the 5th frame");
            assert!(soon(|| b.send(numbered(9)).is_err()));
            elsewhere.send(numbered(7)).unwrap();
            assert_eq!(drain(&mb_other, Duration::from_millis(200)), [7]);
            assert!(!elsewhere.lost());
            assert_eq!(drain(&mb, Duration::from_millis(50)), [0, 1, 2, 3]);
            assert_eq!(t.stats().broken(), 2);
            // It happens once: a fresh route into `sink` delivers.
            let fresh = t.sender(&sink).unwrap();
            (10..20).for_each(|k| fresh.send(numbered(k)).unwrap());
            assert_eq!(
                drain(&mb, Duration::from_millis(200)),
                (10..20).collect::<Vec<_>>()
            );
        }
    }

    /// With delays only, or none, each of several routes delivers
    /// exactly its frames, in the order sent.
    #[test]
    fn delays_keep_every_route_whole_and_in_order() {
        for (max, delayed) in [(Duration::ZERO, 0), (Duration::from_millis(2), 200)] {
            let t = chaos(FaultPlan::delays(Duration::ZERO, max), 9);
            let sinks = [Addr::inproc("s0"), Addr::inproc("s1")];
            let mbs: Vec<_> = sinks.iter().map(|a| t.bind(a).unwrap()).collect();
            let outs: Vec<_> = sinks.iter().map(|a| t.sender(a).unwrap()).collect();
            for k in 0..100 {
                outs.iter().for_each(|out| out.send(numbered(k)).unwrap());
            }
            for mb in &mbs {
                assert_eq!(
                    drain(mb, Duration::from_millis(200)),
                    (0..100).collect::<Vec<_>>()
                );
            }
            assert_eq!((t.stats().delayed(), t.stats().lost()), (delayed, 0));
        }
    }

    #[test]
    fn requests_to_one_destination_roll_apart() {
        let addr = Addr::inproc("server");
        for seed in 0..8 {
            let t = chaos(
                FaultPlan::delays(Duration::ZERO, Duration::from_secs(1)),
                seed,
            );
            let delays: HashSet<Duration> =
                (0..64).map(|_| t.request_delay(&addr).unwrap()).collect();
            assert!(
                delays.len() > 32,
                "seed {seed}: {} distinct delays",
                delays.len()
            );
        }
    }

    /// A cut destination refuses requests, and a push to it breaks its
    /// route; after the reconnect a fresh route delivers.
    #[test]
    fn a_cut_refuses_requests_and_breaks_pushes() {
        let t = chaos(
            FaultPlan::delays(Duration::ZERO, Duration::from_micros(1)),
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
        out.send(numbered(1)).unwrap();
        assert!(soon(|| out.lost()));
        t.reconnect(&addr);
        assert!(soon(|| out.send(numbered(2)).is_err()));
        t.sender(&addr).unwrap().send(numbered(3)).unwrap();
        assert_eq!(drain(&mb, Duration::from_millis(200)), [3]);
        assert_eq!((t.stats().rejected(), t.stats().lost()), (1, 1));
    }
}
