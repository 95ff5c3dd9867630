//! Offline stand-in for `crossbeam`.
//!
//! Provides `crossbeam::channel`'s unbounded and bounded MPMC channels — the
//! only part of crossbeam this workspace uses. Both halves are cloneable;
//! disconnection is tracked by reference-counting each side, exactly like
//! the real crate.
//!
//! # Wait strategy
//!
//! One `Mutex` guards the queue together with counts of the receivers and
//! senders parked on it; receivers park on `not_empty`, senders on a full
//! bounded channel on `not_full`. A condvar is notified only when its count
//! says someone is parked there, so a hand-off between two running threads
//! makes no `futex_wake` syscall.
//!
//! Before a receiver parks it yields its CPU a few times while an atomic
//! mirror of the queue length reads empty: a peer that was just woken
//! usually runs within those yields and answers, and then neither side
//! sleeps. Yielding only pays off for threads whose waits are short, so
//! each thread keeps a credit: a yield phase that caught a message refills
//! it, one that did not drains it, and a thread with no credit parks at
//! once apart from an occasional probe. Threads whose waits are long
//! (fsync'd replies, idle writer threads) thereby stop burning CPU on
//! yields.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::thread;
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        parked_receivers: usize,
        parked_senders: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        /// `state.queue.len()`, stored under the lock after every push and
        /// pop; read without it by yielding receivers and by `len`.
        len: AtomicUsize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        capacity: Option<usize>,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        fn is_full(&self, st: &State<T>) -> bool {
            self.capacity.is_some_and(|cap| st.queue.len() >= cap)
        }

        /// Pushes onto a queue with room, waking a parked receiver if any.
        fn push(&self, mut st: MutexGuard<'_, State<T>>, value: T) {
            st.queue.push_back(value);
            self.len.store(st.queue.len(), Ordering::Release);
            let wake = st.parked_receivers > 0;
            drop(st);
            if wake {
                self.not_empty.notify_one();
            }
        }

        /// Pops the head, waking a parked sender if any; hands the guard
        /// back when the queue is empty.
        fn pop<'a>(
            &'a self,
            mut st: MutexGuard<'a, State<T>>,
        ) -> Result<T, MutexGuard<'a, State<T>>> {
            let Some(value) = st.queue.pop_front() else {
                return Err(st);
            };
            self.len.store(st.queue.len(), Ordering::Release);
            let wake = st.parked_senders > 0;
            drop(st);
            if wake {
                self.not_full.notify_one();
            }
            Ok(value)
        }

        /// Yields the CPU up to [`gate::YIELDS`] times while the queue reads
        /// empty; whether a message turned up.
        fn yield_for_message(&self) -> bool {
            (0..gate::YIELDS).any(|_| {
                thread::yield_now();
                self.len.load(Ordering::Acquire) > 0
            })
        }
    }

    fn deadline(timeout: Option<Duration>) -> Option<Instant> {
        timeout.map(|t| Instant::now() + t)
    }

    fn expired(deadline: Option<Instant>) -> bool {
        deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Parks on `cv` until notified or `deadline` passes.
    fn park<'a, S>(
        cv: &Condvar,
        guard: MutexGuard<'a, S>,
        deadline: Option<Instant>,
    ) -> MutexGuard<'a, S> {
        match deadline {
            None => cv.wait(guard).unwrap_or_else(|e| e.into_inner()),
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                cv.wait_timeout(guard, left)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
        }
    }

    /// The per-thread yield credit. The constants are this shim's, not a
    /// setting: the gate reacts to how long the thread's own waits are.
    mod gate {
        use std::cell::Cell;

        /// Yields per phase, with no spinning between them: on few CPUs a
        /// spinning waiter holds the CPU its peer needs to answer.
        pub(super) const YIELDS: u32 = 4;
        /// Credit after a yield phase that caught a message.
        const FULL: u8 = 8;
        /// With no credit, one wait in this many still probes.
        const PROBE_EVERY: u8 = 32;

        #[derive(Clone, Copy)]
        struct Gate {
            credit: u8,
            skipped: u8,
        }

        thread_local! {
            static GATE: Cell<Gate> = const { Cell::new(Gate { credit: FULL, skipped: 0 }) };
        }

        /// Whether this wait should yield before it parks.
        pub(super) fn open() -> bool {
            GATE.with(|g| {
                let mut gate = g.get();
                let open = gate.credit > 0 || {
                    gate.skipped += 1;
                    gate.skipped == PROBE_EVERY
                };
                if open {
                    gate.skipped = 0;
                }
                g.set(gate);
                open
            })
        }

        /// Books the outcome of a yield phase.
        pub(super) fn record(caught: bool) {
            GATE.with(|g| {
                let mut gate = g.get();
                gate.credit = if caught {
                    FULL
                } else {
                    gate.credit.saturating_sub(1)
                };
                g.set(gate);
            });
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error returned when all receivers have been dropped.
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    pub enum TrySendError<T> {
        /// The channel is bounded and currently at capacity.
        Full(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    /// Error returned by [`Sender::send_timeout`].
    pub enum SendTimeoutError<T> {
        /// The channel stayed full until the timeout.
        Timeout(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    /// Error returned when the channel is empty and all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
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
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    impl<T> fmt::Debug for SendTimeoutError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                SendTimeoutError::Timeout(_) => f.write_str("Timeout(..)"),
                SendTimeoutError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for SendTimeoutError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                SendTimeoutError::Timeout(_) => f.write_str("timed out sending on a full channel"),
                SendTimeoutError::Disconnected(_) => {
                    f.write_str("sending on a disconnected channel")
                }
            }
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl<T> std::error::Error for TrySendError<T> {}
    impl<T> std::error::Error for SendTimeoutError<T> {}
    impl std::error::Error for RecvError {}
    impl std::error::Error for RecvTimeoutError {}

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                parked_receivers: 0,
                parked_senders: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            len: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            capacity,
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded MPMC channel holding at most `cap` messages.
    ///
    /// `send` blocks while the channel is full; `try_send` fails with
    /// [`TrySendError::Full`] instead. A capacity of zero is treated as one,
    /// since this shim has no rendezvous mode.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing if every receiver has been dropped.
        ///
        /// On a bounded channel this blocks until a slot frees up.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.send_within(value, None).map_err(|e| match e {
                SendTimeoutError::Timeout(v) | SendTimeoutError::Disconnected(v) => SendError(v),
            })
        }

        /// Enqueues `value`, blocking up to `timeout` while a bounded
        /// channel is full.
        pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            self.send_within(value, Some(timeout))
        }

        /// Enqueues `value` without blocking, failing if the channel is full
        /// or every receiver has been dropped.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let inner = &*self.inner;
            if inner.receivers.load(Ordering::Acquire) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            let st = inner.lock();
            if inner.is_full(&st) {
                return Err(TrySendError::Full(value));
            }
            inner.push(st, value);
            Ok(())
        }

        fn send_within(
            &self,
            value: T,
            timeout: Option<Duration>,
        ) -> Result<(), SendTimeoutError<T>> {
            let inner = &*self.inner;
            let deadline = deadline(timeout);
            let mut st = inner.lock();
            loop {
                if inner.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendTimeoutError::Disconnected(value));
                }
                if !inner.is_full(&st) {
                    inner.push(st, value);
                    return Ok(());
                }
                if expired(deadline) {
                    return Err(SendTimeoutError::Timeout(value));
                }
                st.parked_senders += 1;
                st = park(&inner.not_full, st, deadline);
                st.parked_senders -= 1;
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // under the lock, so a receiver between its `senders` check
                // and its park cannot miss the wake-up
                let st = self.inner.lock();
                if st.parked_receivers > 0 {
                    self.inner.not_empty.notify_all();
                }
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_within(None).map_err(|_| RecvError)
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_within(Some(timeout))
        }

        /// Returns a message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let inner = &*self.inner;
            if let Ok(v) = inner.pop(inner.lock()) {
                return Ok(v);
            }
            if inner.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.inner.len.load(Ordering::Acquire)
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        fn recv_within(&self, timeout: Option<Duration>) -> Result<T, RecvTimeoutError> {
            let inner = &*self.inner;
            let deadline = deadline(timeout);
            let mut yielded = false;
            let mut st = inner.lock();
            loop {
                st = match inner.pop(st) {
                    Ok(v) => return Ok(v),
                    Err(st) => st,
                };
                if inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                if expired(deadline) {
                    return Err(RecvTimeoutError::Timeout);
                }
                if !yielded {
                    yielded = true;
                    if gate::open() {
                        drop(st);
                        gate::record(inner.yield_for_message());
                        st = inner.lock();
                        continue;
                    }
                }
                st.parked_receivers += 1;
                st = park(&inner.not_empty, st, deadline);
                st.parked_receivers -= 1;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.inner.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // a sender blocked on a full channel must learn it never
                // drains; under the lock for the same reason as above
                let st = self.inner.lock();
                if st.parked_senders > 0 {
                    self.inner.not_full.notify_all();
                }
            }
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
        use std::sync::mpsc;
        use std::time::Duration;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn recv_after_all_senders_drop() {
            let (tx, rx) = unbounded();
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_to_no_receiver_fails() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn recv_timeout_times_out() {
            let (tx, rx) = unbounded::<u8>();
            let err = rx.recv_timeout(Duration::from_millis(10)).unwrap_err();
            assert_eq!(err, RecvTimeoutError::Timeout);
            drop(tx);
        }

        #[test]
        fn bounded_try_send_reports_full() {
            let (tx, rx) = bounded(1);
            tx.try_send(1).unwrap();
            assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
            assert_eq!(rx.recv(), Ok(1));
            tx.try_send(3).unwrap();
            assert_eq!(rx.recv(), Ok(3));
        }

        #[test]
        fn bounded_try_send_reports_disconnected() {
            let (tx, rx) = bounded(1);
            drop(rx);
            assert!(matches!(tx.try_send(9), Err(TrySendError::Disconnected(9))));
        }

        #[test]
        fn bounded_send_blocks_until_recv_frees_a_slot() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = std::thread::spawn(move || tx.send(2));
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            t.join().unwrap().unwrap();
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let t = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            t.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn dropping_the_last_receiver_fails_a_blocked_send() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let (done_tx, done_rx) = mpsc::channel();
            let t = std::thread::spawn(move || {
                let res = tx.send(2);
                done_tx.send(res.is_err()).unwrap();
            });
            std::thread::sleep(Duration::from_millis(20));
            drop(rx);
            assert_eq!(done_rx.recv_timeout(Duration::from_secs(1)), Ok(true));
            t.join().unwrap();
        }

        #[test]
        fn dropping_the_last_sender_fails_a_blocked_recv() {
            let (tx, rx) = bounded::<u8>(1);
            let (done_tx, done_rx) = mpsc::channel();
            let t = std::thread::spawn(move || {
                done_tx.send(rx.recv()).unwrap();
            });
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
            assert_eq!(
                done_rx.recv_timeout(Duration::from_secs(1)),
                Ok(Err(RecvError))
            );
            t.join().unwrap();
        }

        #[test]
        fn send_timeout_times_out_on_a_full_channel() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            assert!(matches!(
                tx.send_timeout(2, Duration::from_millis(10)),
                Err(SendTimeoutError::Timeout(2))
            ));
            drop(rx);
            assert!(matches!(
                tx.send_timeout(3, Duration::from_millis(10)),
                Err(SendTimeoutError::Disconnected(3))
            ));
        }

        #[test]
        fn send_timeout_gets_through_once_a_slot_frees() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = std::thread::spawn(move || {
                let start = Instant::now();
                let res = tx.send_timeout(2, Duration::from_secs(10));
                (res.is_ok(), start.elapsed())
            });
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            let (ok, waited) = t.join().unwrap();
            assert!(ok);
            assert!(waited < Duration::from_secs(5), "waited {waited:?}");
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn mpmc_stress_delivers_each_message_once_in_sender_order() {
            const SENDERS: u32 = 3;
            const PER_SENDER: u32 = 2_000;
            let (tx, rx) = bounded::<(u32, u32)>(2);
            let senders: Vec<_> = (0..SENDERS)
                .map(|s| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER_SENDER {
                            tx.send((s, i)).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let receivers: Vec<_> = (0..2)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        for turn in 0u32.. {
                            let next = match turn % 3 {
                                0 => rx.recv().map_err(|_| true),
                                1 => rx
                                    .recv_timeout(Duration::from_millis(5))
                                    .map_err(|e| e == RecvTimeoutError::Disconnected),
                                _ => rx.try_recv().map_err(|e| e == TryRecvError::Disconnected),
                            };
                            match next {
                                Ok(m) => got.push(m),
                                Err(true) => break,
                                Err(false) => {}
                            }
                        }
                        got
                    })
                })
                .collect();
            drop(rx);
            for s in senders {
                s.join().unwrap();
            }
            let mut all = Vec::new();
            for r in receivers {
                let got = r.join().unwrap();
                // FIFO: each receiver sees every sender's messages in order
                for s in 0..SENDERS {
                    let seq: Vec<u32> = got.iter().filter(|m| m.0 == s).map(|m| m.1).collect();
                    assert!(seq.windows(2).all(|w| w[0] < w[1]), "sender {s} reordered");
                }
                all.extend(got);
            }
            all.sort_unstable();
            let want: Vec<_> = (0..SENDERS)
                .flat_map(|s| (0..PER_SENDER).map(move |i| (s, i)))
                .collect();
            assert_eq!(all, want);
        }

        #[test]
        fn a_thread_without_yield_credit_still_receives() {
            let (tx, rx) = bounded::<u8>(1);
            let (ready_tx, ready_rx) = mpsc::channel();
            let t = std::thread::spawn(move || {
                // every one of these waits yields and times out empty,
                // which drains the thread's credit to zero
                for _ in 0..40 {
                    let err = rx.recv_timeout(Duration::from_millis(1)).unwrap_err();
                    assert_eq!(err, RecvTimeoutError::Timeout);
                }
                ready_tx.send(()).unwrap();
                let start = Instant::now();
                let got = rx.recv_timeout(Duration::from_secs(10));
                (got, start.elapsed())
            });
            ready_rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            tx.send(7).unwrap();
            let (got, waited) = t.join().unwrap();
            assert_eq!(got, Ok(7));
            assert!(waited < Duration::from_secs(1), "waited {waited:?}");
        }
    }
}
