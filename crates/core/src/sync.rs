//! The threaded executor's synchronisation points: the scheduler lock and
//! its idle condvar, the slots' and [`crate::threaded::Doorbell`]'s locks,
//! the I/O workers' spawn, join and sleeps, and the core's clock.
//!
//! A build of the library uses `parking_lot`'s and `std`'s own.  This
//! crate's tests use wrappers that behave the same until a scenario runs
//! under the seeded schedule controller (`explore`): then one thread runs
//! at a time, control passes only at these points by the PCT rule
//! (Burckhardt, Kothari, Musuvathi and Nagarakatte, ASPLOS 2010), the clock
//! reads the step count, so a seed replays exactly, and the run fails the
//! moment every live thread waits.  No executor wait ends by a timer, so
//! that is how a lost wake-up shows.

#[cfg(not(test))]
pub(crate) use parking_lot::{Condvar, Mutex, MutexGuard};
#[cfg(not(test))]
pub(crate) use std::thread::{sleep, JoinHandle};

/// Starts a named executor thread.
#[cfg(not(test))]
pub(crate) fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("failed to spawn an executor thread")
}

/// The time since `start`, as the scheduler core reads it.
#[cfg(not(test))]
pub(crate) fn elapsed(start: std::time::Instant) -> std::time::Duration {
    start.elapsed()
}

#[cfg(test)]
pub(crate) use pct::{elapsed, explore, sleep, spawn, Condvar, JoinHandle, Mutex, MutexGuard};

#[cfg(test)]
mod pct {
    //! The seeded controller and the primitives that defer to it.  A thread
    //! belongs to a run if the run's scenario or one of its threads spawned
    //! it through [`spawn`]; on any other thread the primitives are plain
    //! `std` ones.  Every thread of a run waits on the controller, except
    //! the one it lets run, so the `std` lock inside a [`Mutex`] never
    //! blocks: the controller tracks who waits for what and wakes them.

    use std::any::type_name;
    use std::cell::RefCell;
    use std::cmp::Reverse;
    use std::ops::{Deref, DerefMut};
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::{self, Arc, PoisonError, TryLockError};
    use std::time::{Duration, Instant};

    /// PCT's depth `d`: a run lowers the running thread's priority at
    /// `d - 1` steps drawn from the first `k` (`explore`'s `span`), and so
    /// finds a bug that needs `d` ordering constraints with probability at
    /// least `1 / (n * k^(d - 1))` for `n` threads.
    const DEPTH: usize = 3;
    /// The most steps a runnable thread goes without the turn: then it
    /// rises above all others.  Strict priorities would let threads that
    /// keep finding work (I/O workers re-loading for consumers that never
    /// run) starve the rest for ever; no real scheduler does.
    const SLICE: u64 = 1_000;
    /// A run that takes more steps than this is a livelock.
    const MAX_STEPS: u64 = 1_000_000;

    /// What a blocked thread waits for.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Wait {
        /// The [`Mutex`] at this address.
        Lock(usize),
        /// A notification of the [`Condvar`] at this address.
        Notify(usize),
        /// This thread's exit.
        Exit(usize),
    }

    struct Thread {
        name: String,
        priority: i64,
        wait: Option<Wait>,
        /// The type the lock it waits for (or waits under) guards.
        of: &'static str,
        /// The step its wait began: `notify_one` wakes the longest waiter.
        since: u64,
        /// The step it last ran or was woken at.
        ready: u64,
        done: bool,
        panic: Option<String>,
        /// Where it waits for its turn.
        turn: Arc<sync::Condvar>,
    }

    struct State {
        threads: Vec<Thread>,
        /// The one thread allowed to run.
        running: usize,
        steps: u64,
        /// Steps at which the running thread's priority drops, latest
        /// first.
        change_points: Vec<u64>,
        rng: u64,
        /// FNV-1a over the thread that runs after each step.
        fingerprint: u64,
        failure: Option<String>,
    }

    struct Controller {
        state: sync::Mutex<State>,
        /// Signalled when the run ends: every thread exited, or it failed.
        ended: sync::Condvar,
    }

    thread_local! {
        /// The run this thread belongs to, and its index there.
        static CURRENT: RefCell<Option<(Arc<Controller>, usize)>> = const { RefCell::new(None) };
    }

    fn current() -> Option<(Arc<Controller>, usize)> {
        CURRENT.with(|c| c.borrow().clone())
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn message(payload: &(dyn std::any::Any + Send)) -> String {
        match (
            payload.downcast_ref::<&str>(),
            payload.downcast_ref::<String>(),
        ) {
            (Some(s), _) => s.to_string(),
            (_, Some(s)) => s.clone(),
            _ => "a non-string panic".into(),
        }
    }

    impl Controller {
        fn lock(&self) -> sync::MutexGuard<'_, State> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// A runnable thread with a random priority above every lowered one.
        fn add(&self, name: String) -> usize {
            let mut st = self.lock();
            let priority = DEPTH as i64 + (splitmix(&mut st.rng) >> 2) as i64;
            let ready = st.steps;
            st.threads.push(Thread {
                name,
                priority,
                wait: None,
                of: "",
                since: 0,
                ready,
                done: false,
                panic: None,
                turn: Arc::default(),
            });
            st.threads.len() - 1
        }

        /// A scheduling point of `me`, which keeps running only if no
        /// runnable thread outranks it.
        fn step(&self, me: usize) {
            self.switch(self.lock(), me);
        }

        /// `me` waits for `wait`, under a lock of an `of`, and lets the
        /// next thread run; returns once it has been woken and runs again.
        fn block(&self, me: usize, wait: Wait, of: &'static str) {
            let mut st = self.lock();
            st.threads[me].wait = Some(wait);
            st.threads[me].of = of;
            st.threads[me].since = st.steps;
            self.switch(st, me);
        }

        /// Ends the waits of the threads blocked on `wait` — the longest
        /// waiter's alone if `one` — then counts a step of `me`.
        fn wake(&self, me: usize, wait: Wait, one: bool) {
            let mut st = self.lock();
            st.unblock(wait, one);
            self.switch(st, me);
        }

        /// Counts a step, lowers `me`'s priority if the step is a change
        /// point, raises a thread's that went a slice without the turn,
        /// hands the turn to the highest-priority runnable thread, and waits
        /// until `me` has it again (unless `me` exited).
        fn switch(&self, mut st: sync::MutexGuard<'_, State>, me: usize) {
            st.steps += 1;
            if st.change_points.last() == Some(&st.steps) {
                st.change_points.pop();
                st.threads[me].priority = st.change_points.len() as i64;
            }
            let runnable = |t: &Thread| !t.done && t.wait.is_none();
            let starved = (0..st.threads.len())
                .filter(|&t| runnable(&st.threads[t]) && st.threads[t].ready + SLICE <= st.steps)
                .min_by_key(|&t| (st.threads[t].ready, t));
            if let Some(starved) = starved {
                let top = st.threads.iter().map(|t| t.priority).max();
                st.threads[starved].priority = top.unwrap_or(0) + 1;
            }
            if st.steps > MAX_STEPS && st.failure.is_none() {
                st.failure = Some(format!("no end after {MAX_STEPS} steps: a livelock"));
            }
            let next = (0..st.threads.len())
                .filter(|&t| runnable(&st.threads[t]))
                .max_by_key(|&t| (st.threads[t].priority, Reverse(t)));
            match next {
                Some(next) => {
                    st.threads[next].ready = st.steps;
                    st.running = next;
                    st.fingerprint = (st.fingerprint ^ next as u64).wrapping_mul(0x100_0000_01b3);
                    if next != me {
                        st.threads[next].turn.notify_one();
                    }
                }
                None if st.threads.iter().all(|t| t.done) => self.ended.notify_all(),
                None => {
                    if st.failure.is_none() {
                        st.failure = Some(report(&st));
                    }
                }
            }
            if st.failure.is_some() {
                self.ended.notify_all();
            }
            let turn = Arc::clone(&st.threads[me].turn);
            while !st.threads[me].done
                && (st.running != me || st.threads[me].wait.is_some() || st.failure.is_some())
            {
                st = turn.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// `me` exited, by `panic` if it panicked: whoever joins it may go
        /// on, and the next thread runs.
        fn exit(&self, me: usize, panic: Option<String>) {
            let mut st = self.lock();
            st.threads[me].done = true;
            st.threads[me].panic = panic;
            st.unblock(Wait::Exit(me), false);
            self.switch(st, me);
        }
    }

    impl State {
        /// Ends the waits of the threads blocked on `wait`, or the longest
        /// waiter's alone if `one`.
        fn unblock(&mut self, wait: Wait, one: bool) {
            let mut waiting: Vec<usize> = (0..self.threads.len())
                .filter(|&t| self.threads[t].wait == Some(wait))
                .collect();
            waiting.sort_by_key(|&t| (self.threads[t].since, t));
            waiting.truncate(if one { 1 } else { usize::MAX });
            for t in waiting {
                self.threads[t].wait = None;
                self.threads[t].ready = self.steps;
            }
        }
    }

    /// Why every live thread is stuck, thread by thread.
    fn report(st: &State) -> String {
        let mut out = format!("every live thread waits after {} steps:", st.steps);
        for t in &st.threads {
            let what = match (t.wait, &t.panic) {
                (_, Some(panic)) => format!("panicked: {panic}"),
                _ if t.done => continue,
                (Some(Wait::Lock(_)), _) => format!("waits for the lock of a `{}`", t.of),
                (Some(Wait::Notify(_)), _) => {
                    format!("waits for a notification under a `{}`", t.of)
                }
                (Some(Wait::Exit(other)), _) => format!("joins `{}`", st.threads[other].name),
                (None, _) => "runnable".into(),
            };
            out.push_str(&format!("\n  `{}` {what}", t.name));
        }
        out
    }

    /// Starts the OS thread of run thread `id`: it waits for its turn, runs
    /// `body` and tells the controller how it ended.
    fn start<T: Send + 'static>(
        ctl: &Arc<Controller>,
        id: usize,
        name: String,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::JoinHandle<T> {
        let ctl = Arc::clone(ctl);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&ctl), id)));
                let mut st = ctl.lock();
                while st.running != id || st.failure.is_some() {
                    let turn = Arc::clone(&st.threads[id].turn);
                    st = turn.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                drop(st);
                let outcome = panic::catch_unwind(AssertUnwindSafe(body));
                CURRENT.with(|c| c.borrow_mut().take());
                ctl.exit(id, outcome.as_ref().err().map(|p| message(&**p)));
                outcome.unwrap_or_else(|p| panic::resume_unwind(p))
            })
            .expect("failed to spawn a thread of a controlled run")
    }

    /// Runs `scenario` as the first thread of a run controlled with `seed`,
    /// the priority change points drawn from its first `span` steps (about
    /// as many as it takes), and returns the run's schedule fingerprint:
    /// equal seeds, equal schedules.  Panics, naming the seed, if every live
    /// thread waits (a deadlock, or a lost wake-up), if the run outlives its
    /// step budget, or if `scenario` panics.  A failed run's threads stay
    /// parked.
    pub(crate) fn explore(seed: u64, span: u64, scenario: impl FnOnce() + Send + 'static) -> u64 {
        let mut rng = seed;
        let mut change_points: Vec<u64> = (1..DEPTH)
            .map(|_| 1 + splitmix(&mut rng) % span.max(1))
            .collect();
        change_points.sort_unstable_by_key(|&step| Reverse(step));
        let ctl = Arc::new(Controller {
            state: sync::Mutex::new(State {
                threads: Vec::new(),
                running: 0,
                steps: 0,
                change_points,
                rng,
                fingerprint: 0xcbf2_9ce4_8422_2325,
                failure: None,
            }),
            ended: sync::Condvar::new(),
        });
        let id = ctl.add("scenario".into());
        let scenario = start(&ctl, id, "scenario".into(), scenario);
        let mut st = ctl.lock();
        while st.failure.is_none() && !st.threads.iter().all(|t| t.done) {
            st = ctl.ended.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let failure = st.failure.clone().or_else(|| {
            let panic = st.threads[id].panic.as_ref()?;
            Some(format!("the scenario panicked: {panic}"))
        });
        let fingerprint = st.fingerprint;
        drop(st);
        if let Some(failure) = failure {
            panic!("seed {seed}: {failure}");
        }
        let _ = scenario.join();
        fingerprint
    }

    /// `parking_lot::Mutex`, whose `lock` is a scheduling point under the
    /// controller and whose unlock is another.
    #[derive(Default)]
    pub(crate) struct Mutex<T> {
        inner: sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        pub(crate) fn new(value: T) -> Self {
            Mutex {
                inner: sync::Mutex::new(value),
            }
        }

        fn key(&self) -> Wait {
            Wait::Lock(self as *const Self as usize)
        }

        fn guard<'a>(&'a self, inner: sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            MutexGuard {
                mutex: self,
                inner: Some(inner),
            }
        }

        pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
            let Some((ctl, me)) = current() else {
                return self.guard(self.inner.lock().unwrap_or_else(PoisonError::into_inner));
            };
            ctl.step(me);
            self.acquire(&ctl, me)
        }

        /// Takes the lock for run thread `me`, waiting as long as another
        /// thread of the run holds it.
        fn acquire(&self, ctl: &Controller, me: usize) -> MutexGuard<'_, T> {
            loop {
                match self.inner.try_lock() {
                    Ok(inner) => return self.guard(inner),
                    Err(TryLockError::Poisoned(inner)) => return self.guard(inner.into_inner()),
                    Err(TryLockError::WouldBlock) => ctl.block(me, self.key(), type_name::<T>()),
                }
            }
        }

        pub(crate) fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            if let Some((ctl, me)) = current() {
                ctl.step(me);
            }
            match self.inner.try_lock() {
                Ok(inner) => Some(self.guard(inner)),
                Err(TryLockError::Poisoned(inner)) => Some(self.guard(inner.into_inner())),
                Err(TryLockError::WouldBlock) => None,
            }
        }
    }

    pub(crate) struct MutexGuard<'a, T> {
        mutex: &'a Mutex<T>,
        /// `None` only inside [`Condvar::wait`].
        inner: Option<sync::MutexGuard<'a, T>>,
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_deref().expect("locked")
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_deref_mut().expect("locked")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            self.inner = None;
            if let Some((ctl, me)) = current() {
                ctl.wake(me, self.mutex.key(), false);
            }
        }
    }

    /// `parking_lot::Condvar`.  Under the controller a notification is a
    /// scheduling point, and a timed wait waits for a notification alone:
    /// the controller has no timers.
    #[derive(Default)]
    pub(crate) struct Condvar {
        inner: sync::Condvar,
    }

    impl Condvar {
        pub(crate) fn new() -> Self {
            Condvar::default()
        }

        fn key(&self) -> Wait {
            Wait::Notify(self as *const Self as usize)
        }

        pub(crate) fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let inner = guard.inner.take().expect("locked");
            let Some((ctl, me)) = current() else {
                let inner = self.inner.wait(inner);
                guard.inner = Some(inner.unwrap_or_else(PoisonError::into_inner));
                return;
            };
            // Unlocking and starting to wait are one step: no other thread
            // of the run moves in between.
            drop(inner);
            ctl.lock().unblock(guard.mutex.key(), false);
            ctl.block(me, self.key(), type_name::<T>());
            let relocked = guard.mutex.acquire(&ctl, me);
            guard.inner = Some(relocked.into_inner());
        }

        /// Whether the wait timed out.
        pub(crate) fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
            if current().is_some() {
                self.wait(guard);
                return false;
            }
            let inner = guard.inner.take().expect("locked");
            let (inner, result) = self
                .inner
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            guard.inner = Some(inner);
            result.timed_out()
        }

        pub(crate) fn notify_one(&self) {
            self.notify(true);
        }

        pub(crate) fn notify_all(&self) {
            self.notify(false);
        }

        fn notify(&self, one: bool) {
            match current() {
                Some((ctl, me)) => ctl.wake(me, self.key(), one),
                None if one => self.inner.notify_one(),
                None => self.inner.notify_all(),
            }
        }
    }

    impl<'a, T> MutexGuard<'a, T> {
        /// The `std` guard inside, handed over without unlocking.
        fn into_inner(mut self) -> sync::MutexGuard<'a, T> {
            let inner = self.inner.take().expect("locked");
            std::mem::forget(self);
            inner
        }
    }

    /// `std::thread::JoinHandle`, whose `join` waits under the controller.
    pub(crate) struct JoinHandle<T> {
        thread: std::thread::JoinHandle<T>,
        /// Its index in the run, if it belongs to one.
        id: Option<usize>,
    }

    impl<T> JoinHandle<T> {
        pub(crate) fn join(self) -> std::thread::Result<T> {
            if let (Some(id), Some((ctl, me))) = (self.id, current()) {
                let done = ctl.lock().threads[id].done;
                if !done {
                    ctl.block(me, Wait::Exit(id), "");
                }
            }
            self.thread.join()
        }
    }

    /// Starts a named thread; one started by a thread of a run joins the
    /// run, with a random priority, and may take the turn at once.
    pub(crate) fn spawn<T: Send + 'static>(
        name: String,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> JoinHandle<T> {
        let Some((ctl, me)) = current() else {
            let thread = std::thread::Builder::new().name(name).spawn(body);
            return JoinHandle {
                thread: thread.expect("failed to spawn a thread"),
                id: None,
            };
        };
        let id = ctl.add(name.clone());
        let thread = start(&ctl, id, name, body);
        ctl.step(me);
        JoinHandle {
            thread,
            id: Some(id),
        }
    }

    /// A scheduling point under the controller, a sleep otherwise.
    pub(crate) fn sleep(duration: Duration) {
        match current() {
            Some((ctl, me)) => ctl.step(me),
            None => std::thread::sleep(duration),
        }
    }

    /// Under the controller, the run's step count in microseconds.
    pub(crate) fn elapsed(start: Instant) -> Duration {
        match current() {
            Some((ctl, _)) => Duration::from_micros(ctl.lock().steps),
            None => start.elapsed(),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// A flag raised under a lock and waited for on a condvar.
        #[derive(Default)]
        struct Flag {
            raised: Mutex<bool>,
            cv: Condvar,
        }

        /// A waiter thread and a raiser; `notify: false` is the lost
        /// wake-up, which hangs the waiter whenever it waits first.
        fn wait_and_raise(notify: bool) {
            let flag = Arc::new(Flag::default());
            let waiter = Arc::clone(&flag);
            let waiter = spawn("waiter".into(), move || {
                let mut raised = waiter.raised.lock();
                while !*raised {
                    waiter.cv.wait(&mut raised);
                }
            });
            *flag.raised.lock() = true;
            if notify {
                flag.cv.notify_one();
            }
            waiter.join().expect("the waiter ends");
        }

        #[test]
        fn a_lost_wake_up_is_reported_with_what_each_thread_waits_for() {
            let reports: Vec<String> = (0..8)
                .filter_map(|seed| {
                    let run = AssertUnwindSafe(|| explore(seed, 10, || wait_and_raise(false)));
                    panic::catch_unwind(run).err().map(|p| message(&*p))
                })
                .collect();
            assert!(
                !reports.is_empty(),
                "no seed of 8 let the waiter wait first"
            );
            for report in &reports {
                assert!(report.contains("every live thread waits"), "{report}");
                assert!(report.contains("`waiter` waits for a notification under a `bool`"));
                assert!(report.contains("`scenario` joins `waiter`"), "{report}");
            }
            for seed in 0..8 {
                explore(seed, 10, || wait_and_raise(true));
            }
        }

        /// Three threads take turns at one lock; the order they got it in.
        fn turns(seed: u64) -> (u64, Vec<usize>) {
            let order = Arc::new(sync::Mutex::new(Vec::new()));
            let log = Arc::clone(&order);
            let fingerprint = explore(seed, 30, move || {
                let lock = Arc::new(Mutex::new(()));
                let threads: Vec<_> = (0..3)
                    .map(|t| {
                        let (lock, log) = (Arc::clone(&lock), Arc::clone(&log));
                        spawn(format!("taker-{t}"), move || {
                            for _ in 0..3 {
                                let _held = lock.lock();
                                log.lock().unwrap().push(t);
                            }
                            // An hour's sleep is one step under the controller.
                            sleep(Duration::from_secs(3600));
                        })
                    })
                    .collect();
                threads.into_iter().for_each(|t| t.join().unwrap());
            });
            let order = order.lock().unwrap().clone();
            (fingerprint, order)
        }

        #[test]
        fn a_seed_replays_its_schedule_and_seeds_differ() {
            let runs: Vec<_> = (0..16).map(turns).collect();
            for (seed, run) in runs.iter().enumerate() {
                assert_eq!(run.1.len(), 9);
                assert_eq!(&turns(seed as u64), run, "seed {seed} replayed differently");
            }
            let orders: std::collections::HashSet<_> = runs.iter().map(|r| &r.1).collect();
            assert!(orders.len() > 1, "16 seeds, one schedule");
        }
    }
}
