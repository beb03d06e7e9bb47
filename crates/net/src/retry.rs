//! Bounded retry with exponential backoff and jitter for transient
//! transport failures.
//!
//! Every REQ/REP and PUSH call site in `elga-core` used to be
//! one-shot: a single timeout or refused connection failed the whole
//! operation (or worse, was silently swallowed). [`TransportExt`]
//! gives any [`Transport`] three retrying helpers (one request, a
//! scatter–gather of requests, one push) governed by a
//! [`SendPolicy`]: transient errors ([`NetError::is_transient`]) are
//! retried with exponential backoff + deterministic jitter until the
//! retry budget or the overall deadline runs out; fatal errors
//! (closed mailbox, protocol violation) surface immediately.

use crate::addr::Addr;
use crate::frame::Frame;
use crate::transport::{NetError, Transport};
use std::time::{Duration, Instant};

/// Retry budget for one logical send or request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendPolicy {
    /// Maximum number of *re*-tries after the first attempt.
    pub retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Overall wall-clock budget across all attempts. Once exceeded,
    /// the last error is returned even if retries remain.
    pub deadline: Duration,
}

impl Default for SendPolicy {
    fn default() -> Self {
        Self {
            retries: 3,
            base_delay: Duration::from_millis(5),
            deadline: Duration::from_secs(2),
        }
    }
}

impl SendPolicy {
    /// A policy that never retries (the pre-chaos behavior).
    pub fn one_shot() -> Self {
        Self {
            retries: 0,
            base_delay: Duration::ZERO,
            deadline: Duration::ZERO,
        }
    }

    /// Backoff before retry number `attempt` (1-based), with ±50%
    /// deterministic jitter derived from `salt` so concurrent
    /// retriers don't thundering-herd in lockstep.
    fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let base = self
            .base_delay
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let nanos = base.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        // SplitMix64 finalizer over (salt, attempt) for the jitter.
        let mut z = salt
            .wrapping_add(attempt as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        // Scale into [0.5, 1.5) * base.
        let jittered = nanos / 2 + z % nanos.max(1);
        Duration::from_nanos(jittered)
    }
}

/// Retrying helpers over any [`Transport`]. Blanket-implemented, so
/// `Arc<dyn Transport>` gets these for free.
pub trait TransportExt: Transport {
    /// [`Transport::request`] with retry on transient failure.
    ///
    /// Returns the reply together with the number of retries that were
    /// needed (0 = first attempt succeeded), so callers can feed
    /// observability counters.
    fn request_with_retry(
        &self,
        addr: &Addr,
        frame: Frame,
        timeout: Duration,
        policy: &SendPolicy,
    ) -> Result<(Frame, u32), NetError> {
        let start = Instant::now();
        let salt = addr.stable_hash();
        let mut attempt = 0u32;
        loop {
            match self.request(addr, frame.clone(), timeout) {
                Ok(reply) => return Ok((reply, attempt)),
                Err(e) if e.is_transient() && attempt < policy.retries => {
                    let pause = policy.backoff(attempt + 1, salt);
                    if start.elapsed() + pause >= policy.deadline {
                        return Err(e);
                    }
                    std::thread::sleep(pause);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// [`Transport::request_all`] with retry: after each round, only
    /// the slots that failed transiently are sent again, together, in
    /// one further `request_all` — answered slots are never repeated
    /// and fatal errors stand. One backoff (salted by the first failed
    /// destination) separates rounds, under the same `retries` and
    /// `deadline` budget as [`TransportExt::request_with_retry`].
    fn request_all_with_retry(
        &self,
        requests: &[(&Addr, Frame)],
        timeout: Duration,
        policy: &SendPolicy,
    ) -> Vec<Result<Frame, NetError>> {
        let start = Instant::now();
        let mut results = self.request_all(requests, timeout);
        for attempt in 1..=policy.retries {
            let failed: Vec<usize> = (0..results.len())
                .filter(|&i| matches!(&results[i], Err(e) if e.is_transient()))
                .collect();
            let Some(&first) = failed.first() else {
                break;
            };
            let pause = policy.backoff(attempt, requests[first].0.stable_hash());
            if start.elapsed() + pause >= policy.deadline {
                break;
            }
            std::thread::sleep(pause);
            let again: Vec<_> = failed.iter().map(|&i| requests[i].clone()).collect();
            for (i, reply) in failed.into_iter().zip(self.request_all(&again, timeout)) {
                results[i] = reply;
            }
        }
        results
    }

    /// PUSH with retry: obtains a *fresh* sender per attempt (a failed
    /// outbox can be permanently dead — e.g. a TCP writer whose
    /// connection broke), sends, and backs off on transient failure.
    ///
    /// Returns the number of retries needed.
    fn push_with_retry(
        &self,
        addr: &Addr,
        frame: Frame,
        policy: &SendPolicy,
    ) -> Result<u32, NetError> {
        let start = Instant::now();
        let salt = addr.stable_hash();
        let mut attempt = 0u32;
        loop {
            let res = self.sender(addr).and_then(|out| out.send(frame.clone()));
            match res {
                Ok(()) => return Ok(attempt),
                Err(e) if e.is_transient() && attempt < policy.retries => {
                    let pause = policy.backoff(attempt + 1, salt);
                    if start.elapsed() + pause >= policy.deadline {
                        return Err(e);
                    }
                    std::thread::sleep(pause);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl<T: Transport + ?Sized> TransportExt for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::InProcTransport;
    use std::sync::Arc;

    #[test]
    fn transient_classification() {
        assert!(NetError::Timeout.is_transient());
        assert!(
            NetError::Io(std::io::Error::from(std::io::ErrorKind::ConnectionRefused))
                .is_transient()
        );
        assert!(!NetError::Disconnected.is_transient());
        assert!(!NetError::Protocol("x").is_transient());
        assert!(!NetError::Io(std::io::Error::from(std::io::ErrorKind::NotFound)).is_transient());
    }

    #[test]
    fn request_retries_until_server_appears() {
        let t = Arc::new(InProcTransport::new());
        let addr = Addr::inproc("tardy");
        let mb = t.bind(&addr).unwrap();
        // Server ignores the first request (it times out) and answers
        // the second. The first reply handle is held, not dropped: a
        // dropped handle surfaces Disconnected, which is fatal by
        // design and would not be retried.
        let server = std::thread::spawn(move || {
            let first = mb.recv().unwrap();
            let _unanswered = first.reply;
            let second = mb.recv().unwrap();
            second.reply.unwrap().send(Frame::signal(2)).unwrap();
        });
        let policy = SendPolicy {
            retries: 3,
            base_delay: Duration::from_millis(1),
            deadline: Duration::from_secs(5),
        };
        let (reply, retries) = t
            .request_with_retry(&addr, Frame::signal(1), Duration::from_millis(50), &policy)
            .unwrap();
        assert_eq!(reply.packet_type(), 2);
        assert_eq!(retries, 1);
        server.join().unwrap();
    }

    #[test]
    fn fatal_errors_do_not_retry() {
        let t = Arc::new(InProcTransport::new());
        let bad = Addr::parse("tcp://127.0.0.1:1").unwrap();
        let start = Instant::now();
        let err = t
            .request_with_retry(
                &bad,
                Frame::signal(1),
                Duration::from_millis(10),
                &SendPolicy::default(),
            )
            .unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)));
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "no backoff spent"
        );
    }

    #[test]
    fn deadline_caps_total_retry_time() {
        let t = Arc::new(InProcTransport::new());
        let addr = Addr::inproc("black-hole");
        let _mb = t.bind(&addr).unwrap(); // bound but never answers
        let policy = SendPolicy {
            retries: 1000,
            base_delay: Duration::from_millis(20),
            deadline: Duration::from_millis(100),
        };
        let start = Instant::now();
        let err = t
            .request_with_retry(&addr, Frame::signal(1), Duration::from_millis(10), &policy)
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn push_with_retry_counts_attempts() {
        let t = Arc::new(InProcTransport::new());
        let addr = Addr::inproc("pushee");
        let mb = t.bind(&addr).unwrap();
        let retries = t
            .push_with_retry(&addr, Frame::signal(5), &SendPolicy::default())
            .unwrap();
        assert_eq!(retries, 0);
        assert_eq!(mb.recv().unwrap().frame.packet_type(), 5);
    }
}
