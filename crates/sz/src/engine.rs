//! Chunk-parallel execution engine.
//!
//! The SZ hot path is embarrassingly block-parallel (SZx): a dataset split
//! into independent n-d chunks can be compressed and decompressed by a pool
//! of workers with no cross-chunk state. This module owns the two pieces the
//! codecs share:
//!
//! * [`ChunkLayout`] — the deterministic split of a row-major dataset into
//!   contiguous slabs along dimension 0 (the slowest-varying axis), so a
//!   chunk is a plain sub-slice of the value buffer and keeps the dataset's
//!   rank (predictors see real n-d structure, not a flattened stream).
//! * [`parallel_map`] — the bounded scoped worker pool (`std::thread::scope`
//!   workers around one `Mutex` and one `Condvar`), whose results are
//!   consumed *in index order*, so the assembled output is byte-identical
//!   regardless of worker count. It is the window-0 face of the one pool,
//!   which also streams: chunk decode, the streamed compressor and
//!   `ocelot`'s file-level executor all run on it. Every decision the pool
//!   makes — claim a scan, run `setup` once, claim and admit a work index
//!   under the window, deliver, hand over and retire a result, close on an
//!   error or an unwind — is one pure function, `step`, called under that
//!   lock; no closure runs while it is held. The tests run an exhaustive
//!   explorer over every interleaving of that same function, with a fault
//!   at every closure call; a new stage extends that model before it lands.

use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// How many chunks each worker should get on average when the chunk size is
/// derived from the thread count (slack for load balancing: a straggler slab
/// only delays its worker by one slab, not the whole run).
const CHUNKS_PER_THREAD: usize = 2;

/// Chunks a dataset is split into when the chunk size is derived from the
/// thread count (`chunk_points: None`), rows permitting: one for the serial
/// fallback, else `threads × CHUNKS_PER_THREAD`. Simulators that model the
/// chunk stream take their per-file chunk count from here.
pub fn chunks_for_threads(threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        threads * CHUNKS_PER_THREAD
    }
}

/// Deterministic split of a row-major shape into row slabs.
///
/// The layout depends only on the shape and the requested chunk size — never
/// on the worker count — unless the chunk size itself is derived from
/// `threads` (the `chunk_points: None` default). Pinning `chunk_points`
/// therefore pins the output bytes across thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkLayout {
    dims: Vec<usize>,
    /// Rows (dimension-0 indices) per chunk; the last chunk may be shorter.
    chunk_rows: usize,
    /// Number of points in one row (product of the trailing dimensions).
    row_points: usize,
    n_chunks: usize,
}

impl ChunkLayout {
    /// Plans a layout for `dims` given the configured `threads` and optional
    /// `chunk_points` target.
    ///
    /// Rules, in order:
    /// * explicit `chunk_points` wins: slab height is the smallest row count
    ///   holding at least that many points (so an oversized target yields a
    ///   single chunk covering the whole dataset);
    /// * `threads == 1` compresses everything as one chunk (serial
    ///   fallback, stream-compatible with the monolithic pipeline);
    /// * otherwise the rows are split into about
    ///   `threads × CHUNKS_PER_THREAD` slabs.
    ///
    /// A dataset with a single row can never split (chunks cover whole
    /// rows), so it degrades to one chunk.
    ///
    /// # Panics
    /// Panics if `dims` is empty, any dimension is zero, or `threads == 0` —
    /// all rejected earlier by config/shape validation.
    pub fn plan(dims: &[usize], threads: usize, chunk_points: Option<usize>) -> Self {
        assert!(!dims.is_empty() && dims.iter().all(|&d| d > 0), "invalid dims {dims:?}");
        assert!(threads > 0, "thread count must be positive");
        let rows = dims[0];
        let row_points: usize = dims[1..].iter().product::<usize>().max(1);
        let chunk_rows = match chunk_points {
            Some(points) => points.max(1).div_ceil(row_points).clamp(1, rows),
            None => rows.div_ceil(chunks_for_threads(threads).min(rows)),
        };
        let n_chunks = rows.div_ceil(chunk_rows);
        ChunkLayout { dims: dims.to_vec(), chunk_rows, row_points, n_chunks }
    }

    /// Reconstructs the layout recorded in a chunk table.
    pub fn from_chunk_rows(dims: &[usize], chunk_rows: usize) -> Self {
        assert!(!dims.is_empty() && chunk_rows > 0, "invalid stored layout");
        let row_points: usize = dims[1..].iter().product::<usize>().max(1);
        let n_chunks = dims[0].div_ceil(chunk_rows);
        ChunkLayout { dims: dims.to_vec(), chunk_rows, row_points, n_chunks }
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.n_chunks
    }

    /// Rows per full chunk (the stored `chunk_rows`).
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Shape of chunk `i` (same rank as the dataset, shorter dimension 0).
    pub fn chunk_dims(&self, i: usize) -> Vec<usize> {
        let mut dims = self.dims.clone();
        dims[0] = self.rows_in_chunk(i);
        dims
    }

    /// Number of rows in chunk `i` (only the last chunk may be short).
    pub fn rows_in_chunk(&self, i: usize) -> usize {
        assert!(i < self.n_chunks, "chunk {i} out of {}", self.n_chunks);
        let start = i * self.chunk_rows;
        self.chunk_rows.min(self.dims[0] - start)
    }

    /// Number of points in chunk `i`.
    pub fn points_in_chunk(&self, i: usize) -> usize {
        self.rows_in_chunk(i) * self.row_points
    }

    /// Half-open range of chunk `i` within the dataset's linearized values.
    pub fn value_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = i * self.chunk_rows * self.row_points;
        start..start + self.points_in_chunk(i)
    }
}

/// Runs `work(0..n)` on up to `threads` scoped workers and returns the
/// results in index order: `parallel_map_windowed` at window 0, with a
/// consumer that collects. A worker claims the next index as soon as it is
/// free, so stragglers do not idle other workers; output order (and
/// therefore any bytes assembled from it) is independent of scheduling. The
/// first error consumed is the lowest failing index's — what the serial
/// loop returns — at every thread count, and it stops the workers.
///
/// # Errors
/// Returns the error of the lowest index whose `work` failed.
pub fn parallel_map<R, E, F>(n: usize, threads: usize, work: F) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(usize) -> Result<R, E> + Sync,
{
    let mut out = Vec::with_capacity(n);
    parallel_map_windowed(n, threads, 0, |_| (), |_| (), |_, i| work(i), |_, _, r| r.map(|r| out.push(r)))?;
    Ok(out)
}

/// What a thread tells the pool's protocol, [`step`]: that it wants a task
/// (`Idle` from a worker, `Take` from the consumer), that it has done the
/// one it was given, that `consume` failed, or that it is unwinding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Event {
    Idle,
    Take,
    Done(Action),
    Failed,
    Unwind,
}

impl Event {
    /// What the thread that sent `self` asks once a wait ends: the consumer
    /// for its next result, a worker for a task. Any other event changes
    /// something a waiting thread may wait for, so it wakes the waiters.
    fn ask(self) -> Event {
        match self {
            Event::Take | Event::Done(Action::Consume(_)) | Event::Failed => Event::Take,
            _ => Event::Idle,
        }
    }
}

/// What [`step`] tells a thread to do next; the first four run a closure,
/// outside the lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Action {
    Scan(usize),
    Setup,
    Work(usize),
    Consume(usize),
    Wait,
    Exit,
}

/// The pool's protocol state: indices, counters and flags only. The scans
/// and results it counts wait in slots beside it, under the same lock.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
struct PoolState {
    /// Most results admitted but not yet retired (0: unbounded).
    window: usize,
    /// Scan indices claimed, and scans done; the worker whose scan is the
    /// last to finish runs `setup`.
    next_scan: usize,
    scanned: usize,
    set_up: bool,
    /// Work indices claimed, each admitted under the window.
    next_work: usize,
    /// Which results have been delivered.
    ready: Vec<bool>,
    /// Results retired: consumed in order. The consumer takes this index next.
    retired: usize,
    /// Set by a consumer error or any unwind; no task starts after it.
    closed: bool,
}

/// The pool's protocol: applies `event` to the state and returns what the
/// thread that sent it does next. Every decision the pool makes is made
/// here, under its one lock; the tests' explorer runs this same function
/// over every interleaving.
fn step(s: &mut PoolState, event: Event) -> Action {
    let n = s.ready.len();
    match event {
        Event::Done(Action::Scan(_)) => s.scanned += 1,
        Event::Done(Action::Setup) => s.set_up = true,
        Event::Done(Action::Work(i)) => s.ready[i] = true,
        Event::Done(Action::Consume(_)) => s.retired += 1,
        Event::Failed | Event::Unwind => s.closed = true,
        _ => {}
    }
    if s.closed {
        Action::Exit
    } else if event.ask() == Event::Take {
        match s.ready.get(s.retired) {
            Some(true) => Action::Consume(s.retired),
            Some(false) => Action::Wait,
            None => Action::Exit,
        }
    } else if s.next_scan < n {
        s.next_scan += 1;
        Action::Scan(s.next_scan - 1)
    } else if matches!(event, Event::Done(Action::Scan(_))) && s.scanned == n {
        Action::Setup
    } else if !s.set_up {
        Action::Wait
    } else if s.next_work == n {
        Action::Exit
    } else if s.window > 0 && s.next_work >= s.retired + s.window {
        Action::Wait
    } else {
        s.next_work += 1;
        Action::Work(s.next_work - 1)
    }
}

/// What the pool's one lock guards: the protocol's state, the slots the
/// scans and results wait in, and `setup` until a worker takes it.
struct Pool<Q, R, F> {
    state: PoolState,
    scans: Vec<Option<Q>>,
    results: Vec<Option<R>>,
    setup: Option<F>,
}

/// Locks the pool; poisoned only if the pool's own code panicked under the
/// lock, since no closure runs while it is held.
fn lock<T>(pool: &Mutex<T>) -> MutexGuard<'_, T> {
    pool.lock().expect("no closure runs under the pool's lock")
}

/// Feeds `event` to [`step`] under the lock, wakes the waiters when the
/// event changed something, and waits for as long as the step says to.
fn turn<Q, R, F>(pool: &Mutex<Pool<Q, R, F>>, cv: &Condvar, event: Event) -> Action {
    let mut guard = lock(pool);
    let mut action = step(&mut guard.state, event);
    if event != event.ask() {
        cv.notify_all();
    }
    while action == Action::Wait {
        guard = cv.wait(guard).expect("no closure runs under the pool's lock");
        action = step(&mut guard.state, event.ask());
    }
    action
}

/// Feeds `Unwind` to [`step`] if dropped while its thread unwinds — through
/// a poisoned lock too — so no thread waits for one that died.
struct CloseOnUnwind<'a, Q, R, F>(&'a Mutex<Pool<Q, R, F>>, &'a Condvar);

impl<Q, R, F> Drop for CloseOnUnwind<'_, Q, R, F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            step(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner).state, Event::Unwind);
            self.1.notify_all();
        }
    }
}

/// Runs `work(0..n)` on up to `threads` scoped workers and feeds every
/// result — in index order — to `consume` on the calling thread, holding at
/// most `window` results in flight (claimed by a worker but not yet
/// consumed). `window == 0` means unbounded (workers never stall).
///
/// This is the one worker pool: [`parallel_map`] collects from it, and a
/// streaming caller hands each result to a downstream stage (transfer,
/// decode) as soon as all lower-indexed results have been, so that stage
/// overlaps with upstream work while memory stays `O(window)`, not `O(n)`.
///
/// Before the first result, the same workers share out `scan(0..n)`, and
/// `setup` folds the scans, in index order, into the context every `work`
/// and `consume` call is handed and that is returned at the end — a pass
/// over the whole input, such as a relative error bound's value range,
/// that the chunks depend on.
///
/// A `consume` error closes the pool — no worker starts another index —
/// and is returned. A panic in any stage, on any thread, closes it too and
/// resurfaces from the call. Every decision is [`step`]'s, made under one
/// lock; no closure runs while it is held.
pub(crate) fn parallel_map_windowed<Q, S, R, E>(
    n: usize,
    threads: usize,
    window: usize,
    scan: impl Fn(usize) -> Q + Sync,
    setup: impl FnOnce(Vec<Q>) -> S + Send,
    work: impl Fn(&S, usize) -> R + Sync,
    mut consume: impl FnMut(&S, usize, R) -> Result<(), E>,
) -> Result<S, E>
where
    Q: Send,
    S: Send + Sync,
    R: Send,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        // One worker can never have more than one result in flight, so the
        // window is trivially respected and no stall can occur.
        let ctx = setup((0..n).map(scan).collect());
        for i in 0..n {
            consume(&ctx, i, work(&ctx, i))?;
        }
        return Ok(ctx);
    }
    let state = PoolState { window, ready: vec![false; n], ..PoolState::default() };
    let (scans, results) = ((0..n).map(|_| None).collect(), (0..n).map(|_| None).collect());
    let pool = Mutex::new(Pool { state, scans, results, setup: Some(setup) });
    let (cv, ctx, mut failed) = (Condvar::new(), OnceLock::new(), None);
    let worker = || {
        let _close = CloseOnUnwind(&pool, &cv);
        let mut event = Event::Idle;
        loop {
            let action = turn(&pool, &cv, event);
            match action {
                Action::Scan(i) => {
                    let q = scan(i);
                    lock(&pool).scans[i] = Some(q);
                }
                Action::Setup => {
                    let mut guard = lock(&pool);
                    let scans = guard.scans.drain(..).map(|q| q.expect("every index scanned")).collect();
                    let setup = guard.setup.take().expect("set up once");
                    drop(guard);
                    ctx.get_or_init(|| setup(scans));
                }
                Action::Work(i) => {
                    let r = work(ctx.get().expect("set up before any work"), i);
                    lock(&pool).results[i] = Some(r);
                }
                _ => break,
            }
            event = Event::Done(action);
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(worker);
        }
        // The in-order consumer, on the calling thread; `failed` holds its error.
        let _close = CloseOnUnwind(&pool, &cv);
        let mut event = Event::Take;
        while let action @ Action::Consume(i) = turn(&pool, &cv, event) {
            let r = lock(&pool).results[i].take().expect("delivered before it is consumed");
            failed = consume(ctx.get().expect("set up before any result"), i, r).err();
            event = if failed.is_some() { Event::Failed } else { Event::Done(action) };
        }
    });
    match failed {
        Some(e) => Err(e),
        None => Ok(ctx.into_inner().expect("set up before the last result")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn serial_layout_is_one_chunk() {
        let l = ChunkLayout::plan(&[100, 30], 1, None);
        assert_eq!(l.n_chunks(), 1);
        assert_eq!(l.chunk_dims(0), vec![100, 30]);
        assert_eq!(l.value_range(0), 0..3000);
    }

    #[test]
    fn threads_derive_chunk_count() {
        let l = ChunkLayout::plan(&[100], 4, None);
        assert_eq!(l.n_chunks(), 8, "2 chunks per worker");
        assert_eq!(l.chunk_rows(), 13);
        assert_eq!(l.rows_in_chunk(7), 100 - 7 * 13);
    }

    #[test]
    fn explicit_chunk_points_pin_the_layout() {
        let a = ChunkLayout::plan(&[64, 10], 1, Some(100));
        let b = ChunkLayout::plan(&[64, 10], 8, Some(100));
        assert_eq!(a, b, "layout ignores threads when chunk_points is set");
        assert_eq!(a.chunk_rows(), 10, "ceil(100/10) rows");
    }

    #[test]
    fn oversized_chunk_points_become_one_chunk() {
        let l = ChunkLayout::plan(&[8, 8], 4, Some(1 << 30));
        assert_eq!(l.n_chunks(), 1);
    }

    #[test]
    fn one_point_chunks_at_the_edge() {
        let l = ChunkLayout::plan(&[5], 1, Some(2));
        assert_eq!(l.n_chunks(), 3);
        assert_eq!(l.points_in_chunk(2), 1, "1-element edge chunk");
        assert_eq!(l.value_range(2), 4..5);
    }

    #[test]
    fn single_row_cannot_split() {
        let l = ChunkLayout::plan(&[1, 64, 64], 8, None);
        assert_eq!(l.n_chunks(), 1);
    }

    #[test]
    fn ranges_tile_the_dataset_exactly() {
        for (dims, threads, cp) in
            [(vec![37, 5], 3, None), (vec![16], 8, Some(3)), (vec![9, 2, 4], 2, Some(1)), (vec![4], 16, None)]
        {
            let l = ChunkLayout::plan(&dims, threads, cp);
            let total: usize = dims.iter().product();
            let mut covered = 0usize;
            for i in 0..l.n_chunks() {
                let r = l.value_range(i);
                assert_eq!(r.start, covered, "chunks are contiguous");
                assert_eq!(r.len(), l.points_in_chunk(i));
                covered = r.end;
            }
            assert_eq!(covered, total, "chunks cover every point of {dims:?}");
        }
    }

    #[test]
    fn stored_layout_round_trips() {
        let l = ChunkLayout::plan(&[100, 7], 4, None);
        let back = ChunkLayout::from_chunk_rows(&[100, 7], l.chunk_rows());
        assert_eq!(back, l);
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        for threads in [1, 2, 4, 8] {
            let out = parallel_map(100, threads, |i| Ok::<_, ()>(i * i));
            assert_eq!(out, Ok((0..100).map(|i| i * i).collect::<Vec<_>>()));
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        assert_eq!(parallel_map(0, 4, Ok::<_, ()>), Ok(Vec::new()));
        assert_eq!(parallel_map(1, 8, |i| Ok::<_, ()>(i + 1)), Ok(vec![1]));
    }

    #[test]
    fn parallel_map_returns_the_lowest_failing_index() {
        // Index 0 fails only after index 1 has failed: a pool that kept
        // whichever failure landed first, or skipped a claimed index once
        // one had, would return index 1's error. One worker runs index 0
        // first and never reaches index 1, so it does not wait.
        for threads in [1, 2, 4, 8] {
            for _ in 0..20 {
                let (failed_1, wait_for_1) = mpsc::channel();
                let wait_for_1 = Mutex::new(wait_for_1);
                let out = parallel_map(16, threads, |i| match i {
                    0 => {
                        if threads > 1 {
                            wait_for_1.lock().unwrap().recv().expect("index 1 runs");
                        }
                        Err(0)
                    }
                    1 => {
                        failed_1.send(()).expect("index 0 waits");
                        Err(1)
                    }
                    _ => Ok(i),
                });
                assert_eq!(out, Err(0), "threads={threads}");
            }
        }
    }

    #[test]
    fn windowed_map_consumes_in_order_at_every_window() {
        let scanned: usize = (0..37).map(|i| i * i).sum();
        for threads in [1, 2, 4, 8] {
            for window in [0, 1, 2, 3, 64] {
                let mut seen = Vec::new();
                let ctx = parallel_map_windowed(
                    37,
                    threads,
                    window,
                    |i| i * i,
                    |scans| {
                        assert_eq!(scans, (0..37).map(|i| i * i).collect::<Vec<_>>(), "scans in index order");
                        scans.iter().sum::<usize>()
                    },
                    |&ctx, i| ctx + i * 3,
                    |&ctx, i, r| {
                        assert_eq!(r, ctx + i * 3, "result arrives with its own index and the context");
                        seen.push(i);
                        Ok::<_, ()>(())
                    },
                );
                assert_eq!(ctx, Ok(scanned));
                assert_eq!(seen, (0..37).collect::<Vec<_>>(), "threads={threads} window={window}");
            }
        }
    }

    #[test]
    fn windowed_map_survives_a_slow_consumer_at_window_one() {
        // The tightest window with the most workers: every worker but one
        // waits on the window while the consumer dawdles. Must not deadlock.
        let mut sum = 0usize;
        parallel_map_windowed(
            16,
            8,
            1,
            |_| (),
            |_| (),
            |_, i| i,
            |_, _, r| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                sum += r;
                Ok::<_, ()>(())
            },
        )
        .unwrap();
        assert_eq!(sum, (0..16).sum());
    }

    #[test]
    fn windowed_map_handles_empty_input() {
        let ctx = parallel_map_windowed(
            0,
            4,
            2,
            |i| i,
            |scans| scans.len(),
            |_, i| i,
            |_, _, _| -> Result<(), ()> { panic!("no chunks") },
        );
        assert_eq!(ctx, Ok(0));
    }

    /// Runs `f` on a helper thread; `Ok(true)` when it panicked within the
    /// deadline, a timeout when it hung.
    fn panics_within_deadline(f: impl FnOnce() + Send + 'static) -> Result<bool, mpsc::RecvTimeoutError> {
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)).is_err());
        });
        let panicked = rx.recv_timeout(std::time::Duration::from_secs(10));
        if panicked.is_ok() {
            helper.join().expect("the helper caught the panic");
        }
        panicked
    }

    #[test]
    fn a_panicking_stage_panics_the_pool_instead_of_hanging_it() {
        // Scan 5, setup, work 0 or consume 1 panics, at every thread count
        // and window. Once work 0 has panicked the consumer waits for an
        // index that will never come and, at window > 0, every other worker
        // waits for the window: the worker's unwinding must close the pool,
        // or it hangs. Work 0 panics late only so that the workers are
        // likely waiting already; the pool must not hang either way.
        for stage in ["scan", "setup", "work", "consume"] {
            for threads in [1, 2, 3, 8] {
                for window in [0, 1, 2, 4] {
                    let run = panics_within_deadline(move || {
                        let _ = parallel_map_windowed(
                            16,
                            threads,
                            window,
                            |i| assert!(stage != "scan" || i != 5, "scan 5 fails"),
                            |_| assert!(stage != "setup", "setup fails"),
                            |_, i| {
                                if stage == "work" && i == 0 {
                                    std::thread::sleep(std::time::Duration::from_millis(50));
                                    panic!("work 0 fails");
                                }
                                i
                            },
                            |_, i, _| {
                                assert!(stage != "consume" || i != 1, "consume 1 fails");
                                Ok::<_, ()>(())
                            },
                        );
                    });
                    assert_eq!(run, Ok(true), "{stage} panics: threads={threads} window={window}");
                }
            }
        }
    }

    #[test]
    fn a_consumer_error_stops_the_workers_and_is_the_result() {
        for threads in [1, 2, 3, 8] {
            for window in [0, 1, 2, 4] {
                let (worked, failed) = (AtomicUsize::new(0), AtomicBool::new(false));
                let out = parallel_map_windowed(
                    64,
                    threads,
                    window,
                    |_| (),
                    |_| (),
                    |_, i| {
                        worked.fetch_add(1, Ordering::Relaxed);
                        // Past index 3, hold every worker until the consumer
                        // has failed, then stay slow: an open pool would
                        // still get through the field.
                        if i > 3 {
                            while !failed.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                            std::thread::sleep(std::time::Duration::from_millis(5));
                        }
                        i
                    },
                    |_, i, _| {
                        if i < 3 {
                            return Ok(());
                        }
                        failed.store(true, Ordering::Release);
                        Err(i)
                    },
                );
                assert_eq!(out, Err(3), "threads={threads} window={window}");
                let worked = worked.into_inner();
                assert!(worked < 64, "threads={threads} window={window}: {worked} of 64 indices ran");
                if window > 0 {
                    // Indices 0, 1 and 2 retired; 3 failed; the pool admits
                    // no index at or past 3 + window.
                    assert!(worked <= 3 + window, "threads={threads} window={window}: {worked} ran");
                }
            }
        }
    }

    #[test]
    fn close_on_unwind_gets_through_a_poisoned_lock() {
        let state = PoolState { ready: vec![false; 2], ..PoolState::default() };
        let pool = Mutex::new(Pool::<(), (), ()> { state, scans: Vec::new(), results: Vec::new(), setup: None });
        let cv = Condvar::new();
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = lock(&pool);
            panic!("poisons the lock");
        }));
        assert!(pool.is_poisoned());
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            let _close = CloseOnUnwind(&pool, &cv);
            panic!("unwinds");
        }));
        assert!(pool.lock().unwrap_or_else(PoisonError::into_inner).state.closed, "the unwind closed the pool");
    }

    // The explorer: every interleaving of `step`, with every way every
    // closure call can end, at n ≤ 5 items, T ≤ 3 workers and window
    // ∈ {0, 1, 2}. A stage added to the pool is added to this model first.

    const NO_DEADLOCK: &str = "no reachable state has every live thread waiting";
    const WINDOW: &str = "at most `window` results are admitted but not yet retired";
    const IN_ORDER: &str = "`consume` sees indices in order";
    const LOWEST_ERROR: &str = "with no unwind, the result is the lowest failing index's error";
    const UNWIND_EXITS: &str = "with an unwind, every thread exits";

    /// The protocol the explorer runs: `step`, or a mutant wrapped around it.
    type Step = fn(&mut PoolState, Event) -> Action;

    /// One thread of the model, moved as the pool's loops move a real one.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    enum Thread {
        /// About to feed this event to the step: a first ask, or one after a wait.
        Ask(Event),
        /// About to run the closure this action names, then report how it ended.
        Run(Action),
        /// Waiting until an event that finished something wakes it; it then
        /// asks with this event.
        Waiting(Event),
        Exited,
    }

    /// A state of the model: the protocol's, every thread's, and the
    /// explorer's own account of what the closures did, which the
    /// properties are checked against.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct World {
        pool: PoolState,
        /// The consumer, then the workers, sorted: workers are interchangeable.
        threads: Vec<Thread>,
        /// `Work` actions handed out, and `consume` calls that returned `Ok`.
        admitted: usize,
        consumed: usize,
        /// Indices whose `work` returned `Err`, a bit each.
        erred: u32,
        /// The lowest index whose `work` or `consume` returned `Err`.
        lowest_err: Option<usize>,
        /// The index whose `consume` error the call returns.
        returned_err: Option<usize>,
        unwound: bool,
    }

    struct Model {
        n: usize,
        window: usize,
        step: Step,
    }

    impl Model {
        /// Feeds thread `t`'s event to the step as `turn` does (and, for
        /// `Unwind`, as `CloseOnUnwind` does), waking the waiters on an event
        /// that finished something, and checks the window at each admission.
        fn feed(&self, w: &mut World, t: usize, event: Event) -> Result<(), &'static str> {
            let action = (self.step)(&mut w.pool, event);
            if event != event.ask() {
                for thread in &mut w.threads {
                    if let Thread::Waiting(ask) = *thread {
                        *thread = Thread::Ask(ask);
                    }
                }
            }
            if let Action::Work(_) = action {
                w.admitted += 1;
                if self.window > 0 && w.admitted > w.consumed + self.window {
                    return Err(WINDOW);
                }
            }
            w.threads[t] = match action {
                _ if event == Event::Unwind => Thread::Exited,
                Action::Exit => Thread::Exited,
                Action::Wait => Thread::Waiting(event.ask()),
                action => Thread::Run(action),
            };
            w.threads[1..].sort_unstable();
            Ok(())
        }

        /// Every state thread `t` can take `w` to: one per way its closure
        /// can end — normally, with `Err` (`work` and `consume`), or by
        /// unwinding.
        fn moves(&self, w: &World, t: usize) -> Result<Vec<World>, &'static str> {
            let fail = |i: usize| {
                let mut w = w.clone();
                w.lowest_err = Some(w.lowest_err.map_or(i, |l| l.min(i)));
                w
            };
            let unwind = || (World { unwound: true, ..w.clone() }, Event::Unwind);
            let ends = match w.threads[t] {
                Thread::Ask(event) => vec![(w.clone(), event)],
                Thread::Run(action @ (Action::Scan(_) | Action::Setup)) => {
                    vec![(w.clone(), Event::Done(action)), unwind()]
                }
                Thread::Run(action @ Action::Work(i)) => {
                    let erred = World { erred: w.erred | 1 << i, ..fail(i) };
                    vec![(w.clone(), Event::Done(action)), (erred, Event::Done(action)), unwind()]
                }
                Thread::Run(Action::Consume(i)) if i != w.consumed => return Err(IN_ORDER),
                Thread::Run(action @ Action::Consume(i)) => {
                    let failed = (World { returned_err: Some(i), ..fail(i) }, Event::Failed);
                    if w.erred & 1 << i != 0 {
                        // An `Err` result fails the consumer, as in `parallel_map`.
                        vec![failed]
                    } else {
                        vec![(World { consumed: i + 1, ..w.clone() }, Event::Done(action)), failed, unwind()]
                    }
                }
                _ => Vec::new(),
            };
            ends.into_iter()
                .map(|(mut next, event)| {
                    self.feed(&mut next, t, event)?;
                    Ok(next)
                })
                .collect()
        }

        /// The properties of a state in which no thread can move.
        fn check(&self, w: &World) -> Result<(), &'static str> {
            if w.threads.iter().any(|t| matches!(t, Thread::Ask(_) | Thread::Run(_))) {
                return Ok(());
            }
            let waiting = w.threads.iter().any(|t| matches!(t, Thread::Waiting(_)));
            let lowest = w.returned_err == w.lowest_err && (w.returned_err.is_some() || w.consumed == self.n);
            match (waiting, w.unwound) {
                (true, true) => Err(UNWIND_EXITS),
                (true, false) => Err(NO_DEADLOCK),
                (false, false) if !lowest => Err(LOWEST_ERROR),
                _ => Ok(()),
            }
        }

        /// Depth-first search with a visited set over every state `workers`
        /// workers and the consumer can reach: the number of states, or the
        /// first property broken, named, with the state that broke it.
        fn explore(&self, workers: usize) -> Result<usize, String> {
            let broken = |property: &str, w: &World| {
                format!("{property}: n={} workers={workers} window={} at {w:?}", self.n, self.window)
            };
            let mut threads = vec![Thread::Ask(Event::Take)];
            threads.resize(workers + 1, Thread::Ask(Event::Idle));
            let start = World {
                pool: PoolState { window: self.window, ready: vec![false; self.n], ..PoolState::default() },
                threads,
                admitted: 0,
                consumed: 0,
                erred: 0,
                lowest_err: None,
                returned_err: None,
                unwound: false,
            };
            let mut seen = HashSet::from([start.clone()]);
            let mut stack = vec![start];
            while let Some(w) = stack.pop() {
                self.check(&w).map_err(|property| broken(property, &w))?;
                for t in 0..w.threads.len() {
                    // A worker in the same state as the one before it has the same moves.
                    if t > 1 && w.threads[t] == w.threads[t - 1] {
                        continue;
                    }
                    for next in self.moves(&w, t).map_err(|property| broken(property, &w))? {
                        if seen.insert(next.clone()) {
                            stack.push(next);
                        }
                    }
                }
            }
            Ok(seen.len())
        }
    }

    /// Explores `step` at every size; the states visited, or the first
    /// property broken, named, with where.
    fn explore_every_size(step: Step) -> Result<usize, String> {
        let mut states = 0;
        for n in 1..=5 {
            for workers in 1..=3 {
                for window in 0..=2 {
                    states += Model { n, window, step }.explore(workers)?;
                }
            }
        }
        Ok(states)
    }

    #[test]
    fn explorer_finds_no_broken_property_in_any_interleaving() {
        let started = std::time::Instant::now();
        let states = explore_every_size(step).unwrap_or_else(|broken| panic!("{broken}"));
        println!("the explorer visited {states} pool states in {:.2?}", started.elapsed());
    }

    /// Asserts that the explorer fails `mutant`, naming `property`.
    fn assert_breaks(mutant: Step, property: &str) {
        let broken = explore_every_size(mutant).expect_err("the explorer fails a broken protocol");
        assert!(broken.starts_with(property), "wanted {property:?}, got {broken}");
    }

    #[test]
    fn explorer_fails_a_retire_before_consume() {
        // A result is retired when it is handed to the consumer, before
        // `consume` has run; the consumer's report of it then only asks.
        fn mutant(s: &mut PoolState, event: Event) -> Action {
            let action = step(s, if let Event::Done(Action::Consume(_)) = event { Event::Take } else { event });
            if let Action::Consume(_) = action {
                step(s, Event::Done(action));
            }
            action
        }
        assert_breaks(mutant, WINDOW);
    }

    #[test]
    fn explorer_fails_a_dropped_unwind_close() {
        fn mutant(s: &mut PoolState, event: Event) -> Action {
            if event == Event::Unwind {
                return Action::Exit;
            }
            step(s, event)
        }
        assert_breaks(mutant, UNWIND_EXITS);
    }

    #[test]
    fn explorer_fails_an_admission_at_window_plus_one() {
        fn mutant(s: &mut PoolState, event: Event) -> Action {
            let window = s.window;
            if window > 0 {
                s.window += 1;
            }
            let action = step(s, event);
            s.window = window;
            action
        }
        assert_breaks(mutant, WINDOW);
    }
}
