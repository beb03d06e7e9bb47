//! Hermetic shim for the `crossbeam` crate: multi-producer
//! multi-consumer channels with the semantics the workspace relies on.
//! See `shims/README.md` for why this exists.

pub mod channel {
    //! MPMC channels: `unbounded`, `bounded`, timeouts, disconnect
    //! detection. Built on `Mutex<VecDeque>` + `Condvar`; correctness
    //! over raw throughput.
    //!
    //! A condition variable is notified only when somebody waits on
    //! it: std's futex `Condvar::notify_one` is a system call whether
    //! or not a thread is parked, and most frames are sent to a
    //! receiver that is busy, not blocked. Waiters count themselves
    //! in and out under the state mutex, and whoever changes the queue
    //! reads the count under that same mutex before it notifies — a
    //! waiter counted in is either parked (and is woken) or already on
    //! its way back to the mutex (and will see the new state), so no
    //! wake-up is lost.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers inside a wait on `not_empty`.
        recv_waiting: usize,
        /// Senders inside a wait on `not_full` (bounded channels only).
        send_waiting: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        cap: Option<usize>,
        /// `notify_one` calls made on behalf of a queue change.
        #[cfg(test)]
        notifies: std::sync::atomic::AtomicUsize,
    }

    /// The sending half; cloneable, usable from any thread.
    pub struct Sender<T>(Arc<Inner<T>>);

    /// The receiving half; cloneable, usable from any thread.
    pub struct Receiver<T>(Arc<Inner<T>>);

    /// `send` failed because every receiver is gone; returns the value.
    pub struct SendError<T>(pub T);

    /// `recv` failed: the channel is empty and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Outcome of a failed `recv_timeout`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived within the timeout.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// Outcome of a failed `try_recv`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("receive timed out"),
                RecvTimeoutError::Disconnected => f.write_str("channel disconnected"),
            }
        }
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("channel empty"),
                TryRecvError::Disconnected => f.write_str("channel disconnected"),
            }
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}
    impl std::error::Error for RecvTimeoutError {}
    impl std::error::Error for TryRecvError {}

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                recv_waiting: 0,
                send_waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
            #[cfg(test)]
            notifies: Default::default(),
        });
        (Sender(inner.clone()), Receiver(inner))
    }

    /// A channel with no capacity bound: `send` never blocks.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// A channel holding at most `cap` messages: `send` blocks while
    /// full (and at least one receiver is alive).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    impl<T> Inner<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Release the state and wake one thread parked on `cv`, if
        /// `waiting` (read under the lock just released) says one is.
        fn unlock_and_wake(&self, st: MutexGuard<'_, State<T>>, cv: &Condvar, waiting: usize) {
            drop(st);
            if waiting > 0 {
                #[cfg(test)]
                self.notifies
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                cv.notify_one();
            }
        }

        /// A message was just taken off the queue: release the state
        /// and let one blocked sender of a bounded channel in.
        fn popped(&self, st: MutexGuard<'_, State<T>>) {
            let waiting = st.send_waiting;
            self.unlock_and_wake(st, &self.not_full, waiting);
        }
    }

    impl<T> Sender<T> {
        /// Queue `value`, blocking while a bounded channel is full.
        /// Fails only when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.0.cap {
                    Some(cap) if st.queue.len() >= cap => {
                        st.send_waiting += 1;
                        st = self.0.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
                        st.send_waiting -= 1;
                    }
                    _ => break,
                }
            }
            st.queue.push_back(value);
            let waiting = st.recv_waiting;
            self.0.unlock_and_wake(st, &self.0.not_empty, waiting);
            Ok(())
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// True when nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue, blocking until a message arrives. Fails only when
        /// the queue is drained and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.0.popped(st);
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.recv_waiting += 1;
                st = self.0.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
                st.recv_waiting -= 1;
            }
        }

        /// Dequeue, blocking at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.0.popped(st);
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.recv_waiting += 1;
                let (guard, _) = self
                    .0
                    .not_empty
                    .wait_timeout(st, left)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                st.recv_waiting -= 1;
            }
        }

        /// Dequeue without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            if let Some(v) = st.queue.pop_front() {
                self.0.popped(st);
                return Ok(v);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// True when nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// A blocking iterator that ends when the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Blocking iterator over received messages.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut st = self.0.lock();
                st.senders -= 1;
                st.senders
            };
            if remaining == 0 {
                // Receivers blocked in recv must wake to observe the
                // disconnect.
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut st = self.0.lock();
                st.receivers -= 1;
                st.receivers
            };
            if remaining == 0 {
                // Senders blocked on a full bounded channel must wake
                // to observe the disconnect.
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn fifo_and_disconnect() {
            let (tx, rx) = unbounded();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let got: Vec<i32> = rx.iter().collect();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_fails_without_receivers() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn timeout_fires_then_delivery_works() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(7).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(7));
        }

        #[test]
        fn try_recv_reports_empty_then_disconnected() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            tx.send(3).unwrap();
            drop(tx);
            assert_eq!(rx.try_recv(), Ok(3));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn bounded_blocks_until_drained() {
            let (tx, rx) = bounded(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let t = thread::spawn(move || {
                tx.send(3).unwrap(); // blocks until a recv frees a slot
                "sent"
            });
            thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(t.join().unwrap(), "sent");
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
        }

        /// Rounds per wake-up test.
        const ROUNDS: u64 = 10_000;
        /// A lost wake-up shows as a wait this long, not as a hang.
        const STUCK: Duration = Duration::from_secs(20);

        /// Spin for a pseudo-random moment, so that of two racing
        /// threads either may reach the channel first.
        fn jitter(rng: &mut u64) {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            for _ in 0..*rng % 400 {
                std::hint::spin_loop();
            }
        }

        fn notifies<T>(tx: &Sender<T>) -> usize {
            tx.0.notifies.load(std::sync::atomic::Ordering::Relaxed)
        }

        /// One receiver thread takes `ROUNDS` messages, entering its
        /// wait at a random moment relative to each send; it answers
        /// each on a second channel the sender blocks on in turn.
        fn ping_pong(recv: fn(&Receiver<u64>) -> Option<u64>) {
            let (tx, rx) = unbounded::<u64>();
            let (ack_tx, ack_rx) = unbounded::<u64>();
            let waiter = thread::spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64;
                for _ in 0..ROUNDS {
                    jitter(&mut rng);
                    let got = recv(&rx).expect("a send must wake the receiver");
                    ack_tx.send(got).unwrap();
                }
            });
            let mut rng = 0xD1B5_4A32_D192_ED03u64;
            for i in 0..ROUNDS {
                jitter(&mut rng);
                tx.send(i).unwrap();
                assert_eq!(ack_rx.recv_timeout(STUCK), Ok(i), "round {i}");
            }
            waiter.join().unwrap();
            // One message in flight at a time: at most one wake-up
            // each, and none for a receiver that was not parked.
            assert!(notifies(&tx) <= ROUNDS as usize);
        }

        #[test]
        fn send_wakes_a_receiver_parked_in_recv() {
            ping_pong(|rx| rx.recv().ok());
        }

        #[test]
        fn send_wakes_a_receiver_parked_in_recv_timeout() {
            ping_pong(|rx| rx.recv_timeout(STUCK).ok());
        }

        #[test]
        fn last_sender_drop_wakes_parked_receivers() {
            let (work_tx, work_rx) = unbounded::<(Receiver<u8>, bool)>();
            let (ack_tx, ack_rx) = unbounded::<bool>();
            let waiter = thread::spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64;
                for (rx, timed) in work_rx.iter() {
                    jitter(&mut rng);
                    let disconnected = if timed {
                        rx.recv_timeout(STUCK) == Err(RecvTimeoutError::Disconnected)
                    } else {
                        rx.recv() == Err(RecvError)
                    };
                    ack_tx.send(disconnected).unwrap();
                }
            });
            let mut rng = 0xD1B5_4A32_D192_ED03u64;
            for i in 0..ROUNDS {
                let (tx, rx) = unbounded::<u8>();
                work_tx.send((rx, i % 2 == 0)).unwrap();
                jitter(&mut rng);
                drop(tx);
                assert_eq!(ack_rx.recv_timeout(STUCK), Ok(true), "round {i}");
            }
            drop(work_tx);
            waiter.join().unwrap();
        }

        #[test]
        fn recv_wakes_a_sender_blocked_on_a_full_bounded_channel() {
            let (tx, rx) = bounded::<u64>(1);
            let (go_tx, go_rx) = unbounded::<u64>();
            let blocked = tx.clone();
            let waiter = thread::spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64;
                for i in go_rx.iter() {
                    jitter(&mut rng);
                    blocked.send(i).unwrap(); // full: blocks until a recv
                }
            });
            let mut rng = 0xD1B5_4A32_D192_ED03u64;
            for i in 0..ROUNDS {
                tx.send(u64::MAX).unwrap(); // fills the one slot
                go_tx.send(i).unwrap();
                jitter(&mut rng);
                assert_eq!(rx.recv_timeout(STUCK), Ok(u64::MAX), "round {i}");
                assert_eq!(rx.recv_timeout(STUCK), Ok(i), "round {i}");
            }
            drop(go_tx);
            waiter.join().unwrap();
        }

        #[test]
        fn nobody_waiting_nobody_notified() {
            let (tx, rx) = unbounded();
            for i in 0..ROUNDS {
                tx.send(i).unwrap();
            }
            for i in 0..ROUNDS / 2 {
                assert_eq!(rx.recv(), Ok(i));
            }
            while rx.try_recv().is_ok() {}
            assert_eq!(
                rx.recv_timeout(Duration::ZERO),
                Err(RecvTimeoutError::Timeout)
            );
            assert_eq!(notifies(&tx), 0, "no thread ever waited on this channel");

            let (tx, rx) = bounded(4);
            for round in 0..ROUNDS {
                tx.send(round).unwrap();
                assert_eq!(rx.try_recv(), Ok(round));
            }
            assert_eq!(notifies(&tx), 0, "never full, never empty-and-awaited");
        }

        #[test]
        fn cross_thread_producers() {
            let (tx, rx) = unbounded();
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let tx = tx.clone();
                    thread::spawn(move || {
                        for i in 0..250 {
                            tx.send(t * 1000 + i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(rx.iter().count(), 1000);
        }
    }
}
