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
//! * [`parallel_map`] — the bounded scoped worker pool (crossbeam scope +
//!   atomic work index), whose results are consumed *in index order*, so the
//!   assembled output is byte-identical regardless of worker count. It is the
//!   window-0 face of the one pool, which also streams: chunk decode, the
//!   streamed compressor and `ocelot`'s file-level executor all run on it.

use crossbeam::thread;
use parking_lot::Mutex;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, OnceLock};

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
/// consumer that collects. Work is claimed from a shared atomic counter, so
/// stragglers do not idle other workers; output order (and therefore any
/// bytes assembled from it) is independent of scheduling. The first error
/// consumed is the lowest failing index's — what the serial loop returns —
/// at every thread count, and it stops the workers.
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
    parallel_map_windowed(
        n,
        threads,
        0,
        |_| (),
        |_| (),
        |_, i| work(i),
        |_, _, r| {
            out.push(r?);
            Ok(())
        },
    )?;
    Ok(out)
}

/// Back-pressure gate shared by the pool: `consumed` counts results the
/// in-order consumer has retired; a worker may start index `i` only once
/// `i < consumed + window` (any `i` at `window == 0`), so at most `window`
/// results are ever past the gate but not yet consumed. A closed gate
/// admits nothing and parks no one: the consumer closes it when it stops —
/// done, failed or unwinding — and so does a worker that unwinds, so no
/// thread waits on a result that will never come.
struct WindowGate {
    /// Results retired, and whether the gate is closed.
    state: std::sync::Mutex<(usize, bool)>,
    cv: std::sync::Condvar,
}

impl WindowGate {
    fn new() -> Self {
        WindowGate { state: std::sync::Mutex::new((0, false)), cv: std::sync::Condvar::new() }
    }

    /// Blocks until index `i` fits in the window; `false` once the gate is
    /// closed, when the worker should stop.
    fn admit(&self, i: usize, window: usize) -> bool {
        let mut state = self.state.lock().expect("gate lock");
        while window > 0 && i >= state.0 + window && !state.1 {
            state = self.cv.wait(state).expect("gate wait");
        }
        !state.1
    }

    fn retire(&self) {
        self.state.lock().expect("gate lock").0 += 1;
        self.cv.notify_all();
    }

    fn close(&self) {
        self.state.lock().expect("gate lock").1 = true;
        self.cv.notify_all();
    }
}

/// Closes its gate if dropped while its thread unwinds; a worker's normal
/// exit must leave the gate open for the workers still running.
struct CloseOnUnwind<'a>(&'a WindowGate);

impl Drop for CloseOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
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
/// resurfaces from the call.
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
    let (next_scan, scans) = (AtomicUsize::new(0), Mutex::new((0..n).map(|_| None).collect::<Vec<Option<Q>>>()));
    let (scanned, setup, ctx) = (Barrier::new(threads), Mutex::new(Some(setup)), OnceLock::new());
    let next = AtomicUsize::new(0);
    let gate = WindowGate::new();
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut consumed = Ok(());
    thread::scope(|scope| {
        let (next, gate, work) = (&next, &gate, &work);
        let (next_scan, scans, scan, scanned, setup, ctx) = (&next_scan, &scans, &scan, &scanned, &setup, &ctx);
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move |_| {
                let _close = CloseOnUnwind(gate);
                // A panicking scan is rethrown only past the barrier, so no
                // worker is left waiting there for one that died; the fold
                // then meets the missing scan and panics on every worker.
                let scanning = panic::catch_unwind(AssertUnwindSafe(|| loop {
                    let i = next_scan.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let q = scan(i);
                    scans.lock()[i] = Some(q);
                }));
                scanned.wait();
                if let Err(payload) = scanning {
                    panic::resume_unwind(payload);
                }
                let ctx = ctx.get_or_init(|| {
                    let setup = setup.lock().take().expect("set up once");
                    setup(scans.lock().drain(..).map(|q| q.expect("every chunk scanned")).collect())
                });
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || !gate.admit(i, window) {
                        break;
                    }
                    tx.send((i, work(ctx, i))).expect("the receiver outlives the workers");
                }
            });
        }
        drop(tx);
        let _close = CloseOnUnwind(gate);
        // In-order consumer on the calling thread: buffer out-of-order
        // arrivals (at most `window` of them when bounded) and drain runs.
        let mut pending: std::collections::BTreeMap<usize, R> = std::collections::BTreeMap::new();
        let mut next_out = 0usize;
        'recv: while next_out < n {
            // Every sender gone early means a worker unwound.
            let Ok((i, r)) = rx.recv() else { break };
            pending.insert(i, r);
            // A worker set the context up before it made any result.
            let ctx = ctx.get().expect("set up before the first result");
            while let Some(r) = pending.remove(&next_out) {
                if let Err(e) = consume(ctx, next_out, r) {
                    consumed = Err(e);
                    break 'recv;
                }
                next_out += 1;
                gate.retire();
            }
        }
        // Done or failed: no parked worker waits for a retire.
        gate.close();
    })
    .expect("worker panics propagate via the scope");
    consumed?;
    Ok(ctx.into_inner().expect("the workers set the context up"))
}

#[cfg(test)]
mod tests {
    use super::*;

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
                            wait_for_1.lock().recv().expect("index 1 runs");
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
        // stalls on the gate while the consumer dawdles. Must not deadlock.
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
        // Scan 5, work 0 or consume 1 panics, at every thread count and
        // window. Once work 0 has panicked the consumer waits for an index
        // that will never come and, at window > 0, every other worker parks
        // on the gate: the worker's unwinding must close it, or the pool
        // hangs. Work 0 panics late only so that the workers are likely
        // parked already; the pool must not hang either way.
        for stage in ["scan", "work", "consume"] {
            for threads in [1, 2, 3, 8] {
                for window in [0, 1, 2, 4] {
                    let run = panics_within_deadline(move || {
                        let _ = parallel_map_windowed(
                            16,
                            threads,
                            window,
                            |i| assert!(stage != "scan" || i != 5, "scan 5 fails"),
                            |_| (),
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
                let (worked, failed) = (AtomicUsize::new(0), std::sync::atomic::AtomicBool::new(false));
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
                    // Indices 0, 1 and 2 retired; 3 failed; the gate admits
                    // no index at or past 3 + window.
                    assert!(worked <= 3 + window, "threads={threads} window={window}: {worked} ran");
                }
            }
        }
    }
}
