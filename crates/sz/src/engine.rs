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
//! * `parallel_map` — a bounded scoped worker pool (crossbeam scope +
//!   atomic work index, the same shape as `ocelot`'s file-level executor)
//!   whose results are collected *by index*, making the assembled output
//!   byte-identical regardless of worker count.

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
/// results in index order. Work is claimed from a shared atomic counter, so
/// stragglers do not idle other workers; output order (and therefore any
/// bytes assembled from it) is independent of scheduling.
pub(crate) fn parallel_map<R, F>(n: usize, threads: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return (0..n).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = work(i);
                slots.lock()[i] = Some(r);
            });
        }
    })
    .expect("worker panics propagate via the scope");
    slots.into_inner().into_iter().map(|r| r.expect("every index visited")).collect()
}

/// Back-pressure gate shared by the windowed pool: `consumed` counts chunks
/// the in-order consumer has retired; a worker may start chunk `i` only once
/// `i < consumed + window`, so at most `window` chunks are ever past the
/// gate but not yet consumed.
struct WindowGate {
    consumed: std::sync::Mutex<usize>,
    cv: std::sync::Condvar,
}

impl WindowGate {
    fn new() -> Self {
        WindowGate { consumed: std::sync::Mutex::new(0), cv: std::sync::Condvar::new() }
    }

    /// Blocks until chunk `i` fits in the window; returns seconds stalled.
    fn admit(&self, i: usize, window: usize) -> f64 {
        let mut consumed = self.consumed.lock().expect("gate lock");
        if i < *consumed + window {
            return 0.0;
        }
        let t0 = std::time::Instant::now();
        while i >= *consumed + window {
            consumed = self.cv.wait(consumed).expect("gate wait");
        }
        t0.elapsed().as_secs_f64()
    }

    fn retire(&self) {
        *self.consumed.lock().expect("gate lock") += 1;
        self.cv.notify_all();
    }
}

/// Runs `work(0..n)` on up to `threads` scoped workers and feeds every
/// result — in index order — to `consume` on the calling thread, holding at
/// most `window` results in flight (claimed by a worker but not yet
/// consumed). `window == 0` means unbounded (workers never stall).
///
/// This is the streaming counterpart of [`parallel_map`]: instead of
/// collecting everything and returning, each finished chunk is handed to the
/// consumer as soon as all lower-indexed chunks have been, so a downstream
/// stage (transfer, decode) can overlap with upstream work while memory
/// stays `O(window)` rather than `O(n)`.
///
/// Back-pressure stalls are recorded via the global obs handle
/// (`ocelot_stream_stall_total` / `ocelot_stream_stall_seconds`), and the
/// number of in-flight chunks is mirrored into `ocelot_stream_inflight`.
///
/// Before the first chunk, the same workers share out `scan(0..n)`, and
/// `setup` folds the scans, in index order, into the context every `work`
/// and `consume` call is handed and that is returned at the end — a pass
/// over the whole input, such as a relative error bound's value range,
/// that the chunks depend on.
pub(crate) fn parallel_map_windowed<Q, S, R>(
    n: usize,
    threads: usize,
    window: usize,
    scan: impl Fn(usize) -> Q + Sync,
    setup: impl FnOnce(Vec<Q>) -> S + Send,
    work: impl Fn(&S, usize) -> R + Sync,
    mut consume: impl FnMut(&S, usize, R),
) -> S
where
    Q: Send,
    S: Send + Sync,
    R: Send,
{
    let obs = ocelot_obs::global();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        // One worker can never have more than one chunk in flight, so the
        // window is trivially respected and no stall can occur.
        let ctx = setup((0..n).map(scan).collect());
        for i in 0..n {
            consume(&ctx, i, work(&ctx, i));
        }
        return ctx;
    }
    let (next_scan, scans) = (AtomicUsize::new(0), Mutex::new((0..n).map(|_| None).collect::<Vec<Option<Q>>>()));
    let (scanned, setup, ctx) = (Barrier::new(threads), Mutex::new(Some(setup)), OnceLock::new());
    let next = AtomicUsize::new(0);
    let gate = WindowGate::new();
    let started = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    thread::scope(|scope| {
        let (next, gate, started, work, obs) = (&next, &gate, &started, &work, &obs);
        let (next_scan, scans, scan, scanned, setup, ctx) = (&next_scan, &scans, &scan, &scanned, &setup, &ctx);
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move |_| {
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
                    if i >= n {
                        break;
                    }
                    if window > 0 {
                        let stalled = gate.admit(i, window);
                        if stalled > 0.0 {
                            obs.inc("ocelot_stream_stall_total", "Chunk starts delayed by the stream window");
                            obs.observe(
                                "ocelot_stream_stall_seconds",
                                "Back-pressure stall before a chunk could enter the stream window",
                                stalled,
                            );
                        }
                    }
                    let inflight = started.fetch_add(1, Ordering::Relaxed) + 1;
                    obs.set_gauge(
                        "ocelot_stream_inflight",
                        "Chunks claimed by stream workers but not yet consumed in order",
                        (inflight - gate_consumed(gate)) as f64,
                    );
                    let r = work(ctx, i);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // In-order consumer on the calling thread: buffer out-of-order
        // arrivals (at most `window` of them when bounded) and drain runs.
        let mut pending: std::collections::BTreeMap<usize, R> = std::collections::BTreeMap::new();
        let mut next_out = 0usize;
        while next_out < n {
            let Ok((i, r)) = rx.recv() else { break };
            pending.insert(i, r);
            // A worker set the context up before it made any result.
            let ctx = ctx.get().expect("set up before the first chunk");
            while let Some(r) = pending.remove(&next_out) {
                consume(ctx, next_out, r);
                next_out += 1;
                gate.retire();
            }
        }
    })
    .expect("worker panics propagate via the scope");
    ctx.into_inner().expect("the workers set the context up")
}

/// Current retired count of the gate (for the in-flight gauge).
fn gate_consumed(gate: &WindowGate) -> usize {
    *gate.consumed.lock().expect("gate lock")
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
            let out = parallel_map(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        assert!(parallel_map(0, 4, |i| i).is_empty());
        assert_eq!(parallel_map(1, 8, |i| i + 1), vec![1]);
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
                    },
                );
                assert_eq!(ctx, scanned);
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
            },
        );
        assert_eq!(sum, (0..16).sum());
    }

    #[test]
    fn windowed_map_handles_empty_input() {
        let ctx = parallel_map_windowed(0, 4, 2, |i| i, |scans| scans.len(), |_, i| i, |_, _, _| panic!("no chunks"));
        assert_eq!(ctx, 0);
    }

    #[test]
    fn a_panicking_scan_panics_the_pool_instead_of_hanging_it() {
        for threads in [2, 3, 8] {
            let run = std::panic::catch_unwind(|| {
                parallel_map_windowed(
                    16,
                    threads,
                    2,
                    |i| assert!(i != 5, "scan 5 fails"),
                    |_| (),
                    |_, i| i,
                    |_, _, _| {},
                )
            });
            assert!(run.is_err(), "threads={threads}");
        }
    }
}
