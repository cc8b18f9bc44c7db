//! The layer walk of a traced run: the workloads' inputs pushed stage by
//! stage through the layers' public functions, every call timed on its own.
//!
//! Every `*_MBps` is raw dataset MB ÷ time in that call, so for one pipeline
//! the reciprocals add up to the reciprocal of its single-thread rate and
//! what is left over shows as glue. Stage calls run on one thread; the walk
//! is repeated for as long as its time budget lasts (3 to 7 passes) and each
//! metric is the median over the passes.

use crate::adapter::{self, Application, CallResult, Field, LossyConfig, NamedField, Streams, BATCH_JOBS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    generate_bulk, generate_small, within, Size, SvcBatches, ARCHIVE_GROUPS, STREAM_WINDOW, SVC_STREAM_WINDOW,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 7;
/// Plain `Compressed` jobs in a batch: the ones a stream window reroutes.
const STREAMED_JOBS: f64 = (BATCH_JOBS - BATCH_JOBS / 3) as f64;

/// Samples of every walk metric, one per pass.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn medians(&self) -> BTreeMap<String, f64> {
        self.0.iter().map(|(name, v)| (name.to_string(), median(v))).collect()
    }
}

fn mbps(bytes: u64, ns: u64) -> f64 {
    bytes as f64 / 1e6 / (ns.max(1) as f64 / 1e9)
}

/// One `bulk_*` field cut into the slabs the pipeline would chunk it into.
struct BulkField {
    data: Field,
    t1: LossyConfig,
    tt: LossyConfig,
    eb: f64,
    slabs: Vec<Field>,
}

fn slabs(data: &Field) -> CallResult<Vec<Field>> {
    let dims = data.dims();
    let row_points: usize = dims[1..].iter().product();
    data.values()
        .chunks(adapter::ROWS_PER_CHUNK * row_points)
        .map(|values| {
            let mut slab_dims = dims.to_vec();
            slab_dims[0] = values.len() / row_points;
            adapter::Dataset::new(slab_dims, values.to_vec()).map_err(|e| e.to_string())
        })
        .collect()
}

/// Everything the walk runs on, made once from the seed.
pub struct Walk {
    bulk: Vec<BulkField>,
    small: Vec<NamedField>,
    small_data: Vec<Field>,
    calib: Vec<u8>,
    cesm_sizes: Vec<u64>,
    cesm_work_s: Vec<f64>,
    streamed: SvcBatches,
    staged: SvcBatches,
    threads: usize,
    seed: u64,
    /// Metrics measured once while building the inputs.
    once: BTreeMap<String, f64>,
}

impl Walk {
    pub fn new(seed: u64, size: &Size, threads: usize, tracer: &mut Tracer) -> CallResult<Walk> {
        let mut once = BTreeMap::new();
        let (inputs, gen_ns) = tracer.time("generate", "datagen", 0, |_| {
            (generate_bulk(seed, size, threads), generate_small(seed, size, threads))
        });
        let (bulk_inputs, small) = inputs;
        let generated: u64 = bulk_inputs.iter().chain(&small).map(|(_, d)| d.nbytes() as u64).sum();
        once.insert("datagen.gen_MBps".to_string(), mbps(generated, gen_ns));

        let bulk = bulk_inputs
            .into_iter()
            .map(|(_, data)| {
                let t1 = adapter::bulk_config(&data, 1);
                Ok(BulkField {
                    tt: adapter::bulk_config(&data, threads),
                    eb: adapter::abs_bound(&t1, &data),
                    slabs: slabs(&data)?,
                    t1,
                    data,
                })
            })
            .collect::<CallResult<Vec<_>>>()?;
        let small_data = small.iter().map(|(_, d)| d.clone()).collect();

        // Non-constant bytes, so neither kernel can be folded away.
        let mut state = seed | 1;
        let calib = (0..size.calib_bytes)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();

        let (profiles, profile_ns) = tracer.time("profile_workloads", "core.workload", 0, |_| {
            [Application::Miranda, Application::Rtm, Application::Cesm]
                .into_iter()
                .map(adapter::profile_workload)
                .collect::<CallResult<Vec<_>>>()
        });
        let cesm = profiles?.pop().expect("three profiles");
        once.insert("core.workload.profile_s".to_string(), profile_ns as f64 / 1e9);

        let streamed = SvcBatches::start(SVC_STREAM_WINDOW)?;
        let staged = SvcBatches::start(0)?;
        let first = &streamed.first_batch;
        once.insert("svc.sim_latency_sum_s".to_string(), first.sim_latency_sum_s);
        once.insert("svc.retries_total".to_string(), first.retries as f64);
        once.insert("svc.wasted_bytes".to_string(), first.wasted_bytes as f64);
        once.insert("svc.journal_events_per_job".to_string(), first.journal_events as f64 / BATCH_JOBS as f64);

        Ok(Walk {
            bulk,
            small,
            small_data,
            calib,
            cesm_sizes: cesm.compressed_sizes,
            cesm_work_s: cesm.compression_work_s,
            streamed,
            staged,
            threads,
            seed,
            once,
        })
    }

    /// Runs passes until `budget_s` is spent and returns the medians.
    pub fn run(mut self, budget_s: f64, tracer: &mut Tracer) -> CallResult<BTreeMap<String, f64>> {
        let t0 = Instant::now();
        let mut samples = Samples::default();
        for pass in 0..MAX_PASSES {
            if pass >= MIN_PASSES && t0.elapsed().as_secs_f64() >= budget_s {
                break;
            }
            tracer.set_iter(pass as u64);
            self.calibrate(tracer, &mut samples);
            self.bulk_stages(tracer, &mut samples, pass == 0)?;
            self.small_stages(tracer, &mut samples, pass == 0)?;
            self.control_plane(tracer, &mut samples)?;
        }
        self.streamed.shutdown();
        self.staged.shutdown();
        let mut metrics = samples.medians();
        metrics.extend(self.once);
        Ok(metrics)
    }

    fn calibrate(&self, tracer: &mut Tracer, samples: &mut Samples) {
        let n = self.calib.len() as u64;
        let mut dst = vec![0u8; self.calib.len()];
        // Touch the destination first so the copy measures bandwidth, not page faults.
        dst.copy_from_slice(&self.calib);
        let ((), copy_ns) = tracer.time("memcpy", "calib", n, |_| {
            black_box(&mut dst).copy_from_slice(black_box(&self.calib));
        });
        black_box(&dst);
        let (crc, crc_ns) = tracer.time("crc32", "calib", n, |_| adapter::crc32(black_box(&self.calib)));
        black_box(crc);
        samples.push("calib.memcpy_MBps", mbps(n, copy_ns));
        samples.push("calib.crc32_MBps", mbps(n, crc_ns));
    }

    /// predict → Huffman → LZ and back, slab by slab, then the whole
    /// pipeline at one and at `threads` threads on the same pinned chunking.
    fn bulk_stages(&self, tracer: &mut Tracer, samples: &mut Samples, check: bool) -> CallResult<()> {
        let raw: u64 = self.bulk.iter().map(|f| f.data.nbytes() as u64).sum();
        let (mut pred_enc, mut build, mut huff_enc, mut lz_enc) = (0u64, 0u64, 0u64, 0u64);
        let (mut lz_dec, mut huff_dec, mut pred_dec) = (0u64, 0u64, 0u64);
        let (mut c1, mut d1, mut ct, mut dt, mut verify) = (0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut streamed_ns, mut staged_ns) = (0u64, 0u64);
        let (mut unpredictable, mut points, mut code_bytes, mut blob_bytes) = (0.0f64, 0.0f64, 0u64, 0u64);

        for f in &self.bulk {
            let q = adapter::quantizer(&f.t1, &f.data);
            let mut streams: Vec<Streams> = Vec::with_capacity(f.slabs.len());
            for slab in &f.slabs {
                let (s, ns) = tracer
                    .time("interp.compress", "sz.predict", slab.nbytes() as u64, |_| adapter::interp_encode(slab, &q));
                pred_enc += ns;
                let s = s?;
                unpredictable += adapter::unpredictable_ratio(&s) * s.codes.len() as f64;
                points += s.codes.len() as f64;
                streams.push(s);
            }
            // As in the pipeline: one table from slab 0, shared by every slab
            // whose symbols it covers; a slab that escapes builds its own.
            let (shared, ns) =
                tracer.time("huffman.from_symbols", "sz.encode", 0, |_| adapter::huffman_build(&streams[0].codes));
            build += ns;
            let shared = shared?;
            for (slab, s) in f.slabs.iter().zip(&streams) {
                let bytes = slab.nbytes() as u64;
                let (coded, ns) = tracer
                    .time("huffman.encode_stream", "sz.encode", bytes, |_| adapter::huffman_encode(&shared, &s.codes));
                huff_enc += ns;
                let (table, coded) = match coded {
                    Ok(coded) => (None, coded),
                    Err(_) => {
                        let (local, ns) = tracer
                            .time("huffman.from_symbols", "sz.encode", bytes, |_| adapter::huffman_build(&s.codes));
                        build += ns;
                        let local = local?;
                        let (coded, ns) = tracer.time("huffman.encode_stream", "sz.encode", bytes, |_| {
                            adapter::huffman_encode(&local, &s.codes)
                        });
                        huff_enc += ns;
                        (Some(local), coded?)
                    }
                };
                let (packed, ns) = tracer.time("lz_compress", "sz.encode", bytes, |_| adapter::lz_encode(&coded));
                lz_enc += ns;

                let (unpacked, ns) = tracer.time("lz_decompress", "sz.encode", bytes, |_| adapter::lz_decode(&packed));
                lz_dec += ns;
                let unpacked = unpacked?;
                let (codes, ns) = tracer.time("huffman.decode_stream", "sz.encode", bytes, |_| {
                    adapter::huffman_decode(table.as_ref().unwrap_or(&shared), &unpacked)
                });
                huff_dec += ns;
                let codes = codes?;
                let (restored, ns) = tracer
                    .time("interp.decompress", "sz.predict", bytes, |_| adapter::interp_decode(slab.dims(), s, &q));
                pred_dec += ns;
                let restored = restored?;
                if check {
                    if codes != s.codes {
                        return Err("layer walk: entropy stages did not return the predictor's codes".to_string());
                    }
                    let worst = adapter::max_abs_error(slab, &restored)?;
                    if !within(f.eb, worst) {
                        return Err(format!("layer walk: predictor error {worst:e} breaks the bound {:e}", f.eb));
                    }
                }
            }

            let bytes = f.data.nbytes() as u64;
            let (one, ns) = tracer.time("sz.compress[t1]", "sz.pipeline", bytes, |_| adapter::compress(&f.data, &f.t1));
            c1 += ns;
            let one = one?;
            code_bytes += one.code_bytes as u64;
            blob_bytes += one.bytes().len() as u64;
            let wire = one.bytes().to_vec();
            let (blob, ns) = tracer.time("sz.from_bytes", "sz.format", bytes, |_| adapter::receive(wire));
            verify += ns;
            let blob = blob?;
            let (r, ns) = tracer.time("sz.decompress[t1]", "sz.pipeline", bytes, |_| adapter::decompress(&blob, 1));
            d1 += ns;
            r?;
            let (many, ns) =
                tracer.time("sz.compress[tT]", "sz.pipeline", bytes, |_| adapter::compress(&f.data, &f.tt));
            ct += ns;
            if many?.bytes() != one.bytes() {
                return Err("layer walk: blob bytes depend on the thread count".to_string());
            }
            let (r, ns) =
                tracer.time("sz.decompress[tT]", "sz.pipeline", bytes, |_| adapter::decompress(&blob, self.threads));
            dt += ns;
            r?;

            for (window, total) in [(STREAM_WINDOW, &mut streamed_ns), (0, &mut staged_ns)] {
                let (r, ns) = tracer.time("stream_round_trip", "core.executor", bytes, |_| {
                    adapter::stream_round_trip(&f.data, &f.tt, self.threads, window)
                });
                *total += ns;
                r?;
            }
        }

        samples.push("sz.predict.interp_enc_MBps", mbps(raw, pred_enc));
        samples.push("sz.predict.interp_dec_MBps", mbps(raw, pred_dec));
        samples.push("sz.predict.unpredictable_ratio", unpredictable / points);
        samples.push("sz.encode.huff_build_ms", build as f64 / 1e6);
        samples.push("sz.encode.huff_enc_MBps", mbps(raw, huff_enc));
        samples.push("sz.encode.huff_dec_MBps", mbps(raw, huff_dec));
        samples.push("sz.encode.lz_enc_MBps", mbps(raw, lz_enc));
        samples.push("sz.encode.lz_dec_MBps", mbps(raw, lz_dec));
        samples.push("sz.encode.code_bytes_share", code_bytes as f64 / blob_bytes as f64);
        samples.push("sz.format.verify_MBps", mbps(raw, verify));
        samples.push("sz.pipeline.compress_t1_MBps", mbps(raw, c1));
        samples.push("sz.pipeline.decompress_t1_MBps", mbps(raw, d1));
        samples.push("sz.pipeline.compress_tT_MBps", mbps(raw, ct));
        samples.push("sz.pipeline.decompress_tT_MBps", mbps(raw, dt));
        samples.push("sz.pipeline.glue_share_enc", 1.0 - (pred_enc + build + huff_enc + lz_enc) as f64 / c1 as f64);
        samples.push("sz.pipeline.glue_share_dec", 1.0 - (lz_dec + huff_dec + pred_dec) as f64 / d1 as f64);
        samples.push("sz.engine.par_eff_enc", c1 as f64 / (self.threads as u64 * ct) as f64);
        samples.push("sz.engine.par_eff_dec", d1 as f64 / (self.threads as u64 * dt) as f64);
        samples.push("core.executor.stream_over_staged", streamed_ns as f64 / staged_ns as f64);
        Ok(())
    }

    /// Lorenzo and the per-file Huffman table file by file, then the file
    /// pool, the session around it, and grouping on its own.
    fn small_stages(&self, tracer: &mut Tracer, samples: &mut Samples, check: bool) -> CallResult<()> {
        let config = adapter::small_config();
        let raw: u64 = self.small_data.iter().map(|d| d.nbytes() as u64).sum();
        let (mut enc, mut build, mut dec) = (0u64, 0u64, 0u64);
        for data in &self.small_data {
            let bytes = data.nbytes() as u64;
            let q = adapter::quantizer(&config, data);
            let (s, ns) = tracer.time("lorenzo.compress", "sz.predict", bytes, |_| adapter::lorenzo_encode(data, &q));
            enc += ns;
            let s = s?;
            let (table, ns) =
                tracer.time("huffman.from_symbols", "sz.encode", bytes, |_| adapter::huffman_build(&s.codes));
            build += ns;
            table?;
            let (restored, ns) = tracer
                .time("lorenzo.decompress", "sz.predict", bytes, |_| adapter::lorenzo_decode(data.dims(), &s, &q));
            dec += ns;
            let restored = restored?;
            if check {
                let (eb, worst) = (adapter::abs_bound(&config, data), adapter::max_abs_error(data, &restored)?);
                if !within(eb, worst) {
                    return Err(format!("layer walk: lorenzo error {worst:e} breaks the bound {eb:e}"));
                }
            }
        }
        let files = self.small_data.len() as f64;
        samples.push("sz.predict.lorenzo_enc_MBps", mbps(raw, enc));
        samples.push("sz.predict.lorenzo_dec_MBps", mbps(raw, dec));
        samples.push("sz.encode.huff_build_us_per_file", build as f64 / 1e3 / files);

        let t = self.threads;
        let (blobs, pool_enc) =
            tracer.time("compress_all", "core.executor", raw, |_| adapter::pool_compress(&self.small_data, &config, t));
        let blobs = blobs?;
        let (r, pool_dec) =
            tracer.time("decompress_all", "core.executor", raw, |_| adapter::pool_decompress(&blobs, t));
        r?;
        let (archives, build_ns) = tracer.time("build_archives", "core.session", raw, |_| {
            adapter::build_archives(&self.small, &config, t, ARCHIVE_GROUPS)
        });
        let archives = archives?;
        let (r, restore_ns) =
            tracer.time("restore_archives", "core.session", raw, |_| adapter::restore_archives(&archives, &config, t));
        r?;
        samples.push("core.executor.pool_enc_MBps", mbps(raw, pool_enc));
        samples.push("core.executor.pool_dec_MBps", mbps(raw, pool_dec));
        samples.push("core.session.build_MBps", mbps(raw, build_ns));
        samples.push("core.session.restore_MBps", mbps(raw, restore_ns));
        samples.push("core.session.pack_share", 1.0 - pool_enc as f64 / build_ns as f64);
        samples.push("core.session.unpack_share", 1.0 - pool_dec as f64 / restore_ns as f64);

        let named: Vec<(String, Vec<u8>)> =
            self.small.iter().zip(&blobs).map(|((name, _), b)| (name.clone(), b.as_bytes().to_vec())).collect();
        let compressed: u64 = named.iter().map(|(_, b)| b.len() as u64).sum();
        let (groups, group_ns) =
            tracer.time("group_blobs", "core.grouping", compressed, |_| adapter::group(&named, ARCHIVE_GROUPS));
        let (members, ungroup_ns) = tracer.time("ungroup_blobs", "core.grouping", compressed, |_| {
            groups.iter().map(|g| adapter::ungroup(g)).collect::<CallResult<Vec<_>>>()
        });
        let members = members?;
        if check && members.concat() != named.iter().map(|(_, b)| b.clone()).collect::<Vec<_>>() {
            return Err("layer walk: ungrouping did not return the grouped blobs".to_string());
        }
        samples.push("core.grouping.group_MBps", mbps(compressed, group_ns));
        samples.push("core.grouping.ungroup_MBps", mbps(compressed, ungroup_ns));

        // The fixed cost floor of one compress call: a field too small to
        // have any per-point work worth the name.
        const TINY_CALLS: u64 = 256;
        let tiny = adapter::Dataset::from_fn(vec![8, 8], |i| (i[0] as f32 * 0.3).sin() + i[1] as f32 * 0.01);
        let (r, ns) = tracer.time("sz.compress[8x8]", "sz.pipeline", TINY_CALLS * 256, |_| {
            (0..TINY_CALLS).try_for_each(|_| adapter::compress(black_box(&tiny), &config).map(|c| drop(black_box(c))))
        });
        r?;
        samples.push("sz.pipeline.per_file_us", ns as f64 / 1e3 / TINY_CALLS as f64);
        Ok(())
    }

    /// The simulators on CESM-shaped vectors and one batch through each of
    /// the two services.
    fn control_plane(&mut self, tracer: &mut Tracer, samples: &mut Samples) -> CallResult<()> {
        let files = self.cesm_sizes.len() as f64;
        let (sim_s, ns) =
            tracer.time("simulate_transfer", "netsim", 0, |_| adapter::simulate_wan(&self.cesm_sizes, self.seed));
        black_box(sim_s);
        samples.push("netsim.transfer_us_per_file", ns as f64 / 1e3 / files);
        let (sim_s, ns) = tracer.time("parallel_makespan", "faas", 0, |_| adapter::simulate_cluster(&self.cesm_work_s));
        black_box(sim_s);
        samples.push("faas.makespan_us_per_file", ns as f64 / 1e3 / files);

        let streamed = self.streamed.batch(tracer);
        let staged = self.staged.batch(tracer);
        for b in [&streamed, &staged] {
            if let Some(e) = b.outcome.failures.first() {
                return Err(format!("layer walk: {e}"));
            }
        }
        let (streamed_ns, staged_ns) = (streamed.outcome.program_ns as f64, staged.outcome.program_ns as f64);
        samples.push("svc.streamed_batch_ms", streamed_ns / 1e6);
        samples.push("svc.staged_ms_per_job", staged_ns / 1e6 / BATCH_JOBS as f64);
        samples.push("core.orchestrator.streamed_ms_per_job", (streamed_ns - staged_ns) / 1e6 / STREAMED_JOBS);
        samples.push("svc.submit_us", staged.submit_ns as f64 / 1e3 / BATCH_JOBS as f64);
        Ok(())
    }
}
