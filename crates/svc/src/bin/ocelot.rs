//! `ocelot` — command-line front end to the transfer framework.
//!
//! ```text
//! ocelot gen       --app cesm --field TROP_Z --scale 16 -o field.f32
//! ocelot compress  field.f32 --dims 112x225 --eb 1e-3 -o field.ocz
//! ocelot compress  snapshot.ncl -o snapshot.ocz            # nclite containers
//! ocelot decompress field.ocz -o restored.f32
//! ocelot inspect   field.ocz
//! ocelot sweep     field.f32 --dims 112x225                # eb → ratio/PSNR table
//! ocelot simulate  --app miranda --from anvil --to cori --strategy op --groups 64
//! ocelot plan      --app miranda --from anvil --to cori
//! ```
//!
//! Archives produced from nclite containers are group files whose first
//! member is a JSON manifest of variable names, so they are fully
//! self-describing.

use ocelot::loader::NcliteFile;
use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::planner::TransferPlanner;
use ocelot::session::{open_archive, TransferSession};
use ocelot::workload::Workload;
use ocelot_datagen::{Application, FieldSpec};
use ocelot_netsim::{FaultModel, SiteId};
use ocelot_obs::slo::{Severity, SloKind, SloRule};
use ocelot_obs::{info, warn};
use ocelot_svc::{FlightDump, JobId, JobSpec, JobState, RetryPolicy, Service, ServiceConfig};
use ocelot_sz::config::{LosslessBackend, PredictorKind};
use ocelot_sz::format as sz_format;
use ocelot_sz::{compress, decompress, metrics, Dataset, ErrorBound, LossyConfig};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliError = Box<dyn std::error::Error>;

fn run(args: &[String]) -> Result<(), CliError> {
    // One process-wide observability handle: every crate's instrumentation
    // (sz stage timings, orchestrator phase spans, service counters) lands
    // in a single registry/recorder that `metrics` and `trace` export.
    let obs = ocelot_obs::Obs::enabled();
    ocelot_obs::install_global(&obs);
    // Continuous profiler alongside it: kernel probes in the sz hot path
    // drain per-kernel histograms into the same registry (measured overhead
    // < 2 %, exported as ocelot_obs_prof_overhead_ratio).
    ocelot_obs::prof::install_global(&ocelot_obs::prof::Profiler::with_obs(obs));
    let Some(command) = args.first() else {
        usage();
        return Ok(());
    };
    let (positional, flags) = parse_flags(&args[1..]);
    match command.as_str() {
        "gen" => cmd_gen(&flags),
        "compress" => cmd_compress(&positional, &flags),
        "decompress" => cmd_decompress(&positional, &flags),
        "inspect" => cmd_inspect(&positional, &flags),
        "sweep" => cmd_sweep(&positional, &flags),
        "verify" => cmd_verify(&positional, &flags),
        "simulate" => cmd_simulate(&flags),
        "plan" => cmd_plan(&flags),
        "serve" => cmd_serve(&flags),
        "submit" => cmd_submit(&flags),
        "metrics" => cmd_metrics(&flags),
        "trace" => cmd_trace(&positional, &flags),
        "analyze" => cmd_analyze(&flags),
        "postmortem" => cmd_postmortem(&positional, &flags),
        "timeline" => cmd_timeline(&positional, &flags),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try `ocelot help`)").into()),
    }
}

fn usage() {
    eprintln!(
        "ocelot — error-bounded lossy compression for wide-area data transfer\n\
         \n\
         commands:\n\
         \x20 gen        --app A --field F [--scale N] [--seed S] -o FILE     generate synthetic data\n\
         \x20 compress   FILE [--dims DxHxW] [--eb E] [--abs] [--predictor P] [--backend B] [--codec-threads N] [--stream-window W] -o OUT\n\
         \x20 decompress FILE [--codec-threads N] -o OUT\n\
         \x20 inspect    FILE [--json] [-o OUT]                                container + chunk-table metadata\n\
         \x20 sweep      FILE [--dims DxHxW] [--ebs E1,E2,...]                 measure ratio/PSNR per bound\n\
         \x20 verify     ORIGINAL RESTORED [--dims DxHxW] [--eb E] [--min-psnr P]  acceptance check\n\
         \x20 simulate   --app A --from SITE --to SITE [--strategy np|cp|op] [--groups N]\n\
         \x20 plan       --app A --from SITE --to SITE                         tuned transfer plan\n\
         \x20 submit     --app A --from SITE --to SITE [--eb E] [--strategy S] [--tenant T] [--fail P]\n\
         \x20 serve      --jobs N --tenants T1,T2,... [--apps A1,A2] [--workers W] [--codec-threads N] [--stream-window W] [--fail P] [--seed S]\n\
         \x20 metrics    [serve flags] [--json] [-o FILE]       run a batch, export Prometheus text or JSON\n\
         \x20 trace      [JOB] [serve flags] [-o FILE]          run a batch, export Chrome trace_event JSON\n\
         \x20 analyze    [serve flags] [--json] [-o FILE]       run a batch, report critical-path bottlenecks\n\
         \x20 postmortem JOB [serve flags] [--json] | --file DUMP [--json]   pretty-print a flight-recorder dump\n\
         \x20 timeline   JOB [serve flags] [--json | --chunk N] [-o FILE]    per-chunk transfer Gantt from the ledger\n\
         \n\
         sites: anvil, cori, bebop; apps: cesm, miranda, rtm, nyx, isabel, qmcpack, hacc\n\
         (submit/serve run the multi-tenant transfer service; transfer workloads: cesm, miranda, rtm)\n\
         (service SLOs: --slo-p99 SECS, --slo-error-rate RATIO, --slo-psnr DB; --artifacts DIR saves flight dumps)\n\
         (set OCELOT_LOG=debug|info|warn|error|off to control progress chatter on stderr)"
    );
}

fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") && args[i + 1] != "-o" {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            }
        } else if a == "-o" {
            if i + 1 >= args.len() {
                flags.insert("out".into(), String::new());
                i += 1;
            } else {
                flags.insert("out".into(), args[i + 1].clone());
                i += 2;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    (positional, flags)
}

fn parse_dims(s: &str) -> Result<Vec<usize>, CliError> {
    let dims: Result<Vec<usize>, _> = s.split(['x', 'X', ',']).map(str::parse).collect();
    let dims = dims.map_err(|_| format!("cannot parse dims '{s}' (expected e.g. 449x449x235)"))?;
    if dims.is_empty() || dims.contains(&0) {
        return Err(format!("invalid dims '{s}'").into());
    }
    Ok(dims)
}

fn parse_app(s: &str) -> Result<Application, CliError> {
    Application::ALL
        .into_iter()
        .find(|a| a.name() == s.to_lowercase())
        .ok_or_else(|| format!("unknown application '{s}'").into())
}

fn parse_site(s: &str) -> Result<SiteId, CliError> {
    SiteId::ALL
        .into_iter()
        .find(|site| site.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown site '{s}' (anvil|cori|bebop)").into())
}

/// The `--codec-threads` flag: chunk-parallel threads inside each file's
/// compression/decompression (default 1, i.e. serial codec).
fn parse_codec_threads(flags: &HashMap<String, String>) -> Result<usize, CliError> {
    let threads: usize = flags.get("codec-threads").map(|s| s.parse()).transpose()?.unwrap_or(1);
    if threads == 0 {
        return Err("--codec-threads must be >= 1".into());
    }
    Ok(threads)
}

/// The `--stream-window` flag: bounded in-flight chunk window for the
/// streamed compress→transfer→decompress pipeline (default 0 = staged).
fn parse_stream_window(flags: &HashMap<String, String>) -> Result<usize, CliError> {
    Ok(flags.get("stream-window").map(|s| s.parse()).transpose()?.unwrap_or(0))
}

fn parse_config(flags: &HashMap<String, String>) -> Result<LossyConfig, CliError> {
    let eb: f64 = flags.get("eb").map(|s| s.parse()).transpose()?.unwrap_or(1e-3);
    let mut cfg = LossyConfig::sz3(eb);
    if flags.contains_key("abs") {
        cfg = cfg.with_error_bound(ErrorBound::Abs(eb));
    }
    if let Some(p) = flags.get("predictor") {
        let predictor =
            PredictorKind::ALL.into_iter().find(|k| k.name() == p).ok_or_else(|| format!("unknown predictor '{p}'"))?;
        cfg = cfg.with_predictor(predictor);
    }
    if let Some(b) = flags.get("backend") {
        let backend = [LosslessBackend::Huffman, LosslessBackend::HuffmanLz, LosslessBackend::RleHuffman]
            .into_iter()
            .find(|k| k.name() == b)
            .ok_or_else(|| format!("unknown backend '{b}'"))?;
        cfg = cfg.with_backend(backend);
    }
    cfg.validate()?;
    Ok(cfg)
}

/// Loads a dataset from a raw f32 file (needs `--dims`) or an nclite
/// container (returns all variables).
fn load_input(path: &str, flags: &HashMap<String, String>) -> Result<Vec<(String, Dataset<f32>)>, CliError> {
    let bytes = std::fs::read(path)?;
    if bytes.starts_with(b"NCL1") {
        let container = NcliteFile::from_bytes(&bytes)?;
        return Ok(container.iter().map(|(n, d)| (n.to_string(), d.clone())).collect());
    }
    let dims =
        flags.get("dims").ok_or("raw input requires --dims (e.g. --dims 449x449x235)").map(|s| parse_dims(s))??;
    Ok(vec![("data".to_string(), Dataset::from_le_bytes(dims, &bytes)?)])
}

fn out_flag(flags: &HashMap<String, String>) -> Result<&str, CliError> {
    flags.get("out").map(String::as_str).filter(|s| !s.is_empty()).ok_or_else(|| "missing -o OUT".into())
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let app = parse_app(flags.get("app").ok_or("missing --app")?)?;
    let field = flags.get("field").map(String::as_str).unwrap_or_else(|| app.fields()[0]);
    let scale: usize = flags.get("scale").map(|s| s.parse()).transpose()?.unwrap_or(16);
    let seed: u64 = flags.get("seed").map(|s| s.parse()).transpose()?.unwrap_or(0);
    let out = out_flag(flags)?;
    let data = FieldSpec::new(app, field).with_scale(scale).with_seed(seed).generate();
    if out.ends_with(".ncl") {
        let mut container = NcliteFile::new();
        container.insert(field, data.clone());
        container.save(out)?;
    } else {
        std::fs::write(out, data.to_le_bytes())?;
    }
    println!("wrote {} ({:?}, {:.2} MB) to {out}", field, data.dims(), data.nbytes() as f64 / 1e6);
    if !out.ends_with(".ncl") {
        println!(
            "decompress/inspect with --dims {}",
            data.dims().iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x")
        );
    }
    Ok(())
}

fn cmd_compress(positional: &[String], flags: &HashMap<String, String>) -> Result<(), CliError> {
    let input = positional.first().ok_or("missing input file")?;
    let out = out_flag(flags)?;
    let cfg = parse_config(flags)?;
    let variables = load_input(input, flags)?;
    let threads: usize = flags.get("threads").map(|s| s.parse()).transpose()?.unwrap_or(4);
    let window = parse_stream_window(flags)?;
    let session =
        TransferSession::new(threads, cfg).with_codec_threads(parse_codec_threads(flags)?).with_stream_window(window);
    // With a stream window the chunks flow through the bounded pipeline and
    // are decode-verified on arrival; the archive bytes are identical.
    let set = if window > 0 {
        session.build_archives_streamed(&variables, 1)?
    } else {
        session.build_archives(&variables, 1)?
    };
    std::fs::write(out, &set.archives()[0])?;
    println!(
        "wrote {out}: {} variable(s), {:.2} MB -> {:.2} MB (overall {:.1}x){}",
        variables.len(),
        set.raw_bytes() as f64 / 1e6,
        set.compressed_bytes() as f64 / 1e6,
        set.overall_ratio(),
        if window > 0 { format!(" [streamed, window {window}]") } else { String::new() }
    );
    Ok(())
}

fn cmd_decompress(positional: &[String], flags: &HashMap<String, String>) -> Result<(), CliError> {
    let input = positional.first().ok_or("missing input file")?;
    let out = out_flag(flags)?;
    let threads: usize = flags.get("threads").map(|s| s.parse()).transpose()?.unwrap_or(4);
    // config is embedded per blob
    let session = TransferSession::new(threads, LossyConfig::sz3(1e-3)).with_codec_threads(parse_codec_threads(flags)?);
    let restored = session.restore_archives(std::slice::from_ref(&std::fs::read(input)?))?;
    if out.ends_with(".ncl") || restored.len() > 1 {
        let mut container = NcliteFile::new();
        for (name, data) in restored {
            container.insert(name, data);
        }
        container.save(out)?;
        println!("wrote {out}: {} variable(s)", container.len());
    } else {
        let (_, data) = &restored[0];
        std::fs::write(out, data.to_le_bytes())?;
        println!("wrote {out}: {:?} ({:.2} MB)", data.dims(), data.nbytes() as f64 / 1e6);
    }
    Ok(())
}

fn cmd_inspect(positional: &[String], flags: &HashMap<String, String>) -> Result<(), CliError> {
    let input = positional.first().ok_or("missing input file")?;
    let members = open_archive(&std::fs::read(input)?)?;
    if flags.contains_key("json") {
        let vars: Vec<serde_json::Value> =
            members.iter().map(|(name, blob)| inspect_variable_json(name, blob)).collect::<Result<_, _>>()?;
        let dump = serde_json::Value::Object(vec![
            ("file".to_string(), serde_json::Value::String(input.clone())),
            ("variables".to_string(), serde_json::Value::Array(vars)),
        ]);
        let text = serde_json::to_string_pretty(&dump)?;
        validate_export(&text, "inspect.schema.json")?;
        return write_or_print(flags, &text);
    }
    println!("{input}: {} variable(s)", members.len());
    for (name, blob) in &members {
        let h = blob.header()?;
        println!(
            "  {name}: {} {:?}, abs_eb {:.3e}, predictor {}, backend {}, {:.2} MB compressed",
            h.dtype,
            h.dims,
            h.abs_eb,
            h.predictor,
            h.backend,
            blob.len() as f64 / 1e6
        );
        let (table, embedded) = blob_chunk_table(blob)?;
        println!("    {} chunk(s) of {} row(s)", table.entries.len(), table.chunk_rows);
        let (table_bytes, symbols) = embedded.iter().fold((0, 0), |(b, n), &(tb, tn)| (b + tb, n + tn));
        if symbols > 0 {
            println!(
                "    embedded tables: {table_bytes} B over {symbols} symbol(s) ({:.2} B/symbol), {:.1} % of the blob",
                table_bytes as f64 / symbols as f64,
                100.0 * table_bytes as f64 / blob.len() as f64
            );
        }
        for (i, (e, &(table_bytes, symbols))) in table.entries.iter().zip(&embedded).enumerate() {
            println!(
                "      chunk {i}: {} B, {}-table{}",
                e.len,
                table_mode_name(e.table_mode),
                if symbols > 0 { format!(" of {table_bytes} B over {symbols} symbol(s)") } else { String::new() }
            );
        }
    }
    Ok(())
}

/// How `inspect` names a chunk's table-mode tag, one [`blob_chunk_table`]
/// has checked against the blob's family.
fn table_mode_name(tag: u8) -> &'static str {
    if tag == sz_format::TABLE_MODE_PACKED {
        "packed"
    } else {
        "none"
    }
}

/// The chunk table of a blob and, per chunk, the bytes of the code-length
/// table it embeds and the symbols that table holds (both 0 for a transform
/// chunk, which embeds none).
fn blob_chunk_table(
    blob: &ocelot_sz::format::CompressedBlob,
) -> Result<(sz_format::ChunkTable, Vec<(usize, usize)>), CliError> {
    let (header, table, body) = blob.open_chunks()?;
    let embedded = table
        .offsets()
        .iter()
        .zip(&table.entries)
        .map(|(&at, e)| {
            let found = ocelot_sz::embedded_table(&header, e, &body[at..at + e.len])?;
            Ok(found.map_or((0, 0), |(table, bytes)| (bytes, table.n_symbols())))
        })
        .collect::<Result<_, CliError>>()?;
    Ok((table, embedded))
}

/// One variable's container metadata (header + chunk table with each
/// chunk's table-mode tag and what its embedded table weighs)
/// for `inspect --json`, shaped to `schemas/inspect.schema.json`.
fn inspect_variable_json(name: &str, blob: &ocelot_sz::format::CompressedBlob) -> Result<serde_json::Value, CliError> {
    use serde_json::Value;
    let h = blob.header()?;
    let mut fields = vec![
        ("name".to_string(), Value::String(name.to_string())),
        ("version".to_string(), Value::UInt(sz_format::VERSION as u64)),
        ("dtype".to_string(), Value::String(h.dtype.to_string())),
        ("dims".to_string(), Value::Array(h.dims.iter().map(|&d| Value::UInt(d as u64)).collect())),
        ("abs_eb".to_string(), Value::Float(h.abs_eb)),
        ("predictor".to_string(), Value::String(h.predictor.to_string())),
        ("backend".to_string(), Value::String(h.backend.to_string())),
        ("compressed_bytes".to_string(), Value::UInt(blob.len() as u64)),
    ];
    let (table, embedded) = blob_chunk_table(blob)?;
    fields.push(("chunk_rows".to_string(), Value::UInt(table.chunk_rows as u64)));
    let chunks = table
        .entries
        .iter()
        .zip(&embedded)
        .map(|(e, &(table_bytes, table_symbols))| {
            Value::Object(vec![
                ("len".to_string(), Value::UInt(e.len as u64)),
                ("crc".to_string(), Value::UInt(e.crc as u64)),
                ("points".to_string(), Value::UInt(e.points)),
                ("zero_bins".to_string(), Value::UInt(e.zero_bins)),
                ("unpredictable".to_string(), Value::UInt(e.unpredictable)),
                ("table_mode".to_string(), Value::String(table_mode_name(e.table_mode).to_string())),
                ("table_bytes".to_string(), Value::UInt(table_bytes as u64)),
                ("table_symbols".to_string(), Value::UInt(table_symbols as u64)),
            ])
        })
        .collect();
    fields.push(("chunks".to_string(), Value::Array(chunks)));
    Ok(serde_json::Value::Object(fields))
}

fn cmd_sweep(positional: &[String], flags: &HashMap<String, String>) -> Result<(), CliError> {
    let input = positional.first().ok_or("missing input file")?;
    let ebs: Vec<f64> = match flags.get("ebs") {
        Some(list) => list.split(',').map(|s| s.parse()).collect::<Result<_, _>>()?,
        None => vec![1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
    };
    let variables = load_input(input, flags)?;
    println!("{:<16} {:>9} {:>9} {:>10} {:>10}", "variable/eb", "ratio", "PSNR", "max err", "bytes");
    for (name, data) in &variables {
        for &eb in &ebs {
            let cfg = LossyConfig::sz3(eb);
            let outcome = compress(data, &cfg)?;
            let restored = decompress::<f32>(&outcome.blob)?;
            let q = metrics::compare(data, &restored)?;
            println!(
                "{:<16} {:>8.1}x {:>8.1}dB {:>10.2e} {:>10}",
                format!("{name}@{eb:.0e}"),
                outcome.ratio,
                q.psnr,
                q.max_abs_error,
                outcome.blob.len()
            );
        }
    }
    Ok(())
}

fn cmd_verify(positional: &[String], flags: &HashMap<String, String>) -> Result<(), CliError> {
    use ocelot::verify::{verify, AcceptancePolicy};
    let (orig_path, rest_path) = match positional {
        [a, b, ..] => (a, b),
        _ => return Err("verify needs ORIGINAL and RESTORED files".into()),
    };
    let orig = load_input(orig_path, flags)?;
    let rest = load_input(rest_path, flags)?;
    if orig.len() != rest.len() {
        return Err(format!("variable counts differ: {} vs {}", orig.len(), rest.len()).into());
    }
    let policy = AcceptancePolicy {
        max_abs_error: flags.get("eb").map(|s| s.parse()).transpose()?,
        min_psnr: flags.get("min-psnr").map(|s| s.parse()).transpose()?.or(Some(50.0)),
        min_correlation: flags.get("min-corr").map(|s| s.parse()).transpose()?,
    };
    let mut all_ok = true;
    for ((name, a), (_, b)) in orig.iter().zip(&rest) {
        let v = verify(a, b, &policy)?;
        println!(
            "{name}: PSNR {:.2} dB, max err {:.3e}, corr {:.6} -> {}",
            v.psnr,
            v.max_abs_error,
            v.correlation,
            if v.accepted { "ACCEPTED" } else { "REJECTED" }
        );
        for violation in &v.violations {
            println!("    {violation}");
        }
        all_ok &= v.accepted;
    }
    if !all_ok {
        return Err("verification failed".into());
    }
    Ok(())
}

fn simulate_common(flags: &HashMap<String, String>) -> Result<(Workload, SiteId, SiteId), CliError> {
    let app = parse_app(flags.get("app").ok_or("missing --app")?)?;
    let from = parse_site(flags.get("from").ok_or("missing --from")?)?;
    let to = parse_site(flags.get("to").ok_or("missing --to")?)?;
    let scale: usize = flags.get("profile-scale").map(|s| s.parse()).transpose()?.unwrap_or(12);
    info!("ocelot", "profiling {app} workload (real compression on scaled synthetic fields)...");
    let workload = Workload::paper_default(app, scale)?;
    Ok((workload, from, to))
}

fn parse_strategy(flags: &HashMap<String, String>) -> Result<Strategy, CliError> {
    match flags.get("strategy").map(String::as_str).unwrap_or("cp") {
        "np" => Ok(Strategy::Direct),
        "cp" => Ok(Strategy::Compressed),
        "op" => {
            let groups: usize = flags.get("groups").map(|s| s.parse()).transpose()?.unwrap_or(64);
            Ok(Strategy::grouped_by_count(groups))
        }
        other => Err(format!("unknown strategy '{other}' (np|cp|op)").into()),
    }
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let (workload, from, to) = simulate_common(flags)?;
    let strategy = parse_strategy(flags)?;
    let orch = Orchestrator::paper();
    let b = orch.run(&workload, from, to, strategy, &PipelineOptions::default());
    println!("{from}->{to}: {} files, {:.1} GB on the wire", b.files_transferred, b.bytes_transferred as f64 / 1e9);
    println!(
        "compress {:.1}s + group {:.1}s + transfer {:.1}s + decompress {:.1}s = total {:.1}s ({:.2} GB/s effective)",
        b.compression_s,
        b.grouping_s,
        b.transfer_s,
        b.decompression_s,
        b.total_s(),
        b.effective_speed_bps() / 1e9
    );
    Ok(())
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let (workload, from, to) = simulate_common(flags)?;
    let planner = TransferPlanner::paper();
    let base = PipelineOptions::default();
    let plan = planner.plan(&workload, from, to, &base);
    let np = Orchestrator::paper().run(&workload, from, to, Strategy::Direct, &base);
    println!("plan for {from}->{to}:");
    match plan.strategy {
        Strategy::CompressedGrouped { group_count: Some(g), .. } => {
            println!("  strategy: compress + group into {g} files")
        }
        Strategy::Compressed => println!("  strategy: compress, no grouping"),
        _ => println!("  strategy: {:?}", plan.strategy),
    }
    println!("  decompress cores/node: {}", plan.decompress_cores_per_node);
    println!(
        "  expected total {:.1}s vs direct {:.1}s ({:.0}% reduction)",
        plan.expected.total_s(),
        np.transfer_s,
        plan.expected.reduction_vs(np.transfer_s) * 100.0
    );
    Ok(())
}

/// Service config from the shared `--workers/--capacity/--fail/--retries/--seed` flags.
fn parse_service_config(flags: &HashMap<String, String>) -> Result<ServiceConfig, CliError> {
    let mut cfg = ServiceConfig::default();
    if let Some(w) = flags.get("workers") {
        cfg.workers = w.parse()?;
    }
    if let Some(c) = flags.get("capacity") {
        cfg.queue_capacity = c.parse()?;
    }
    if let Some(p) = flags.get("fail") {
        let p: f64 = p.parse()?;
        if !(0.0..1.0).contains(&p) {
            return Err(format!("--fail must be in [0, 1), got {p}").into());
        }
        cfg.faults = FaultModel::flaky(p);
    }
    if let Some(n) = flags.get("retries") {
        cfg.retry = RetryPolicy { max_attempts: 1 + n.parse::<u32>()?, ..RetryPolicy::default() };
    }
    if let Some(s) = flags.get("seed") {
        cfg.seed = s.parse()?;
    }
    if let Some(s) = flags.get("profile-scale") {
        cfg.profile_scale = s.parse()?;
    }
    cfg.codec_threads = parse_codec_threads(flags)?;
    cfg.stream_window = parse_stream_window(flags)?;
    // SLO rules evaluated on the simulated clock after every finished job.
    // Breaches land typed alerts in the journal and snap flight dumps.
    if let Some(s) = flags.get("slo-p99") {
        cfg.slo.push(SloRule {
            name: "latency-p99".to_string(),
            severity: Severity::Critical,
            fast_window_s: 300.0,
            slow_window_s: 1500.0,
            kind: SloKind::LatencyP99 { histogram: "ocelot_svc_latency_seconds".to_string(), max_s: s.parse()? },
        });
    }
    if let Some(r) = flags.get("slo-error-rate") {
        cfg.slo.push(SloRule {
            name: "job-error-rate".to_string(),
            severity: Severity::Critical,
            fast_window_s: 300.0,
            slow_window_s: 1500.0,
            kind: SloKind::ErrorRateBurn {
                error_counter: "ocelot_svc_jobs_failed_total".to_string(),
                total_counter: "ocelot_svc_jobs_submitted_total".to_string(),
                target_ratio: r.parse()?,
                burn_factor: 1.0,
            },
        });
    }
    if let Some(db) = flags.get("slo-psnr") {
        cfg.slo.push(SloRule {
            name: "psnr-floor".to_string(),
            severity: Severity::Warning,
            fast_window_s: 300.0,
            slow_window_s: 1500.0,
            kind: SloKind::GaugeFloor { gauge: "ocelot_svc_worst_psnr_db".to_string(), min: db.parse()? },
        });
    }
    if let Some(dir) = flags.get("artifacts") {
        cfg.artifact_dir = Some(std::path::PathBuf::from(dir));
    }
    // Share the process-wide handle so service spans/counters land in the
    // same registry that `metrics` and `trace` export.
    cfg.obs = Some(ocelot_obs::global());
    Ok(cfg)
}

fn print_service_summary(svc: &Service) -> Result<(), CliError> {
    let metrics = svc.metrics();
    for report in svc.reports() {
        let verdict = match &report.state {
            JobState::Done => "done".to_string(),
            JobState::Failed(reason) => format!("FAILED ({reason})"),
            other => format!("{other:?}"),
        };
        println!(
            "  {} [{}] {verdict}: {:.1}s simulated, {:.2} GB moved, {} retries",
            report.job,
            report.tenant,
            report.latency_s,
            report.bytes_transferred as f64 / 1e9,
            report.retries
        );
    }
    println!("{}", serde_json::to_string_pretty(&metrics)?);
    Ok(())
}

fn cmd_submit(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let app = parse_app(flags.get("app").ok_or("missing --app")?)?;
    let from = parse_site(flags.get("from").ok_or("missing --from")?)?;
    let to = parse_site(flags.get("to").ok_or("missing --to")?)?;
    let eb: f64 = flags.get("eb").map(|s| s.parse()).transpose()?.unwrap_or(1e-3);
    let tenant = flags.get("tenant").map(String::as_str).unwrap_or("default");
    let spec = JobSpec { tenant: tenant.to_string(), app, error_bound: eb, strategy: parse_strategy(flags)?, from, to };
    let svc = Service::start(parse_service_config(flags)?);
    let id = svc.submit(spec)?;
    info!("ocelot", "submitted {id} for tenant '{tenant}', draining...");
    svc.drain();
    for event in svc.journal() {
        println!("  t={:>8.1}s  {:?}", event.t_s, event.state);
    }
    print_service_summary(&svc)
}

/// Submits and drains a `serve`-style batch of jobs; shared by `serve`,
/// `metrics`, and `trace`.
fn run_service_batch(flags: &HashMap<String, String>, default_jobs: usize) -> Result<Service, CliError> {
    let jobs: usize = flags.get("jobs").map(|s| s.parse()).transpose()?.unwrap_or(default_jobs);
    let tenants: Vec<&str> = flags
        .get("tenants")
        .map(String::as_str)
        .unwrap_or("climate,seismic,cosmology")
        .split(',')
        .filter(|t| !t.is_empty())
        .collect();
    let apps: Vec<Application> = match flags.get("apps") {
        Some(list) => list.split(',').map(parse_app).collect::<Result<_, _>>()?,
        None => vec![Application::Miranda, Application::Rtm],
    };
    let from = flags.get("from").map(|s| parse_site(s)).transpose()?.unwrap_or(SiteId::Anvil);
    let to = flags.get("to").map(|s| parse_site(s)).transpose()?.unwrap_or(SiteId::Cori);
    let eb: f64 = flags.get("eb").map(|s| s.parse()).transpose()?.unwrap_or(1e-3);
    if tenants.is_empty() || apps.is_empty() {
        return Err("need at least one tenant and one app".into());
    }
    let cfg = parse_service_config(flags)?;
    info!(
        "ocelot",
        "serving {jobs} jobs from {} tenant(s) on {} worker(s), fault p={:.2}...",
        tenants.len(),
        cfg.workers,
        cfg.faults.per_attempt_failure_prob
    );
    let svc = Service::start(cfg);
    let mut accepted = 0usize;
    for i in 0..jobs {
        let spec = JobSpec {
            tenant: tenants[i % tenants.len()].to_string(),
            app: apps[i % apps.len()],
            error_bound: eb,
            strategy: Strategy::Compressed,
            from,
            to,
        };
        match svc.submit(spec) {
            Ok(_) => accepted += 1,
            Err(e) => warn!("ocelot", "job {i} rejected: {e}"),
        }
    }
    info!("ocelot", "accepted {accepted}/{jobs}, draining...");
    svc.drain();
    Ok(svc)
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let svc = run_service_batch(flags, 12)?;
    print_service_summary(&svc)
}

/// Writes `text` to `-o FILE` when given, else to stdout.
fn write_or_print(flags: &HashMap<String, String>, text: &str) -> Result<(), CliError> {
    match flags.get("out").map(String::as_str).filter(|s| !s.is_empty()) {
        Some(path) => {
            std::fs::write(path, text)?;
            info!("ocelot", "wrote {path} ({} bytes)", text.len());
        }
        None => println!("{text}"),
    }
    Ok(())
}

fn cmd_metrics(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let svc = run_service_batch(flags, 6)?;
    let obs = svc.obs();
    let registry = obs.registry().expect("service observability handle is always enabled");
    let text = if flags.contains_key("json") {
        ocelot_obs::export::metrics_json(registry)
    } else {
        ocelot_obs::export::prometheus_text(registry)
    };
    write_or_print(flags, &text)
}

fn cmd_trace(positional: &[String], flags: &HashMap<String, String>) -> Result<(), CliError> {
    let job: Option<u64> = positional
        .first()
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| format!("trace takes an optional numeric JOB id, got '{}'", positional.first().unwrap()))?;
    let default_jobs = job.map(|j| j as usize + 1).unwrap_or(4);
    let svc = run_service_batch(flags, default_jobs)?;
    let obs = svc.obs();
    let recorder = obs.recorder().expect("service observability handle is always enabled");
    for violation in recorder.validate(2) {
        warn!("ocelot", "span violation: {violation}");
    }
    let spans = match job {
        Some(j) => recorder.for_job(j),
        None => recorder.spans(),
    };
    if spans.is_empty() {
        return Err(match job {
            Some(j) => format!("no spans recorded for job {j} (ran {default_jobs} job(s))").into(),
            None => "no spans recorded".to_string().into(),
        });
    }
    write_or_print(flags, &ocelot_obs::export::chrome_trace(&spans))
}

fn cmd_analyze(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let svc = run_service_batch(flags, 12)?;
    let analysis = svc.analyze();
    if analysis.jobs.is_empty() {
        return Err("no spans recorded — nothing to analyze".into());
    }
    let text = if flags.contains_key("json") {
        serde_json::to_string_pretty(&analysis)?
    } else {
        let mut out = ocelot_svc::analyze::render_analysis(&analysis);
        for alert in svc.alerts() {
            out.push_str(&format!("  ALERT [{}] {}: {}\n", alert.severity, alert.rule, alert.message));
        }
        out
    };
    write_or_print(flags, &text)
}

/// Validates a serialized export against `schemas/<schema_file>` (skipped
/// when the schema file is absent — installed binaries run outside the
/// repo).
fn validate_export(json: &str, schema_file: &str) -> Result<(), CliError> {
    let schema_path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas")).join(schema_file);
    let Ok(schema_text) = std::fs::read_to_string(&schema_path) else {
        return Ok(());
    };
    let schema: serde_json::Value = serde_json::from_str(&schema_text)?;
    let value: serde_json::Value = serde_json::from_str(json)?;
    let errors = ocelot_svc::schema::validate(&schema, &value);
    if !errors.is_empty() {
        return Err(format!("export violates schemas/{schema_file}: {}", errors.join("; ")).into());
    }
    Ok(())
}

fn cmd_postmortem(positional: &[String], flags: &HashMap<String, String>) -> Result<(), CliError> {
    // `--file DUMP` replays a saved artifact without running anything.
    if let Some(path) = flags.get("file") {
        let dump: FlightDump = serde_json::from_str(&std::fs::read_to_string(path)?)?;
        if flags.contains_key("json") {
            return write_or_print(flags, &serde_json::to_string_pretty(&dump)?);
        }
        print!("{}", ocelot_svc::render_postmortem(&dump));
        return Ok(());
    }
    let job: u64 = positional
        .first()
        .ok_or("postmortem needs a JOB id (or --file DUMP)")?
        .parse()
        .map_err(|_| format!("postmortem takes a numeric JOB id, got '{}'", positional.first().unwrap()))?;
    let svc = run_service_batch(flags, job as usize + 1)?;
    // Prefer a dump the service already snapped for this job (failure, retry
    // exhaustion, SLO breach); otherwise force one from the live ring. Both
    // embed the job's chunk-ledger tail when the streamed path traced it.
    let dump = svc
        .flight_dumps()
        .into_iter()
        .find(|d| d.job == Some(job))
        .unwrap_or_else(|| svc.force_flight_dump("postmortem", Some(JobId(job))));
    if flags.contains_key("json") {
        return write_or_print(flags, &serde_json::to_string_pretty(&dump)?);
    }
    let text = ocelot_svc::render_postmortem(&dump);
    match flags.get("out").map(String::as_str).filter(|s| !s.is_empty()) {
        Some(path) => {
            std::fs::write(path, &text)?;
            info!("ocelot", "wrote {path} ({} bytes)", text.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Validates a ledger export against `schemas/ledger.schema.json` (skipped
/// when the schema file is absent — installed binaries run outside the repo).
fn validate_ledger_export(ledger_json: &str) -> Result<(), CliError> {
    let schema_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas/ledger.schema.json");
    let Ok(schema_text) = std::fs::read_to_string(schema_path) else {
        return Ok(());
    };
    let schema: serde_json::Value = serde_json::from_str(&schema_text)?;
    let value: serde_json::Value = serde_json::from_str(ledger_json)?;
    let errors = ocelot_svc::schema::validate(&schema, &value);
    if !errors.is_empty() {
        return Err(format!("ledger export violates schemas/ledger.schema.json: {}", errors.join("; ")).into());
    }
    Ok(())
}

fn cmd_timeline(positional: &[String], flags: &HashMap<String, String>) -> Result<(), CliError> {
    use ocelot_obs::ledger::{check_causality, render_chunk_detail, render_timeline, Timeline};
    let job: u64 = positional
        .first()
        .ok_or("timeline needs a JOB id")?
        .parse()
        .map_err(|_| format!("timeline takes a numeric JOB id, got '{}'", positional.first().unwrap()))?;
    // Chunk events only exist on the streamed path; default the window on
    // rather than render an empty chart.
    let mut flags = flags.clone();
    flags.entry("stream-window".to_string()).or_insert_with(|| "4".to_string());
    let svc = run_service_batch(&flags, job as usize + 1)?;
    let events = svc.chunk_events(JobId(job));
    if events.is_empty() {
        return Err(format!("no chunk events recorded for job {job} (needs --stream-window > 0)").into());
    }
    // A chart of what is left of a job is not the job's chart. The warning
    // goes to stderr, never into the byte-stable rendering.
    let violations = check_causality(&events, job);
    let dropped = svc.ledger_dropped();
    let partial = (dropped > 0 || !violations.is_empty()).then(|| {
        let first = violations.first().map(|v| format!(" (first: {v})")).unwrap_or_default();
        format!(
            "the ledger does not hold job {job}'s whole story: {dropped} event(s) dropped by the bounded sink, \
             {} causality violation(s){first}",
            violations.len()
        )
    });
    if flags.contains_key("json") {
        let text = ocelot_svc::ledger_json(job, &events);
        validate_ledger_export(&text)?;
        write_or_print(&flags, &text)?;
        return partial.map_or(Ok(()), |why| Err(why.into()));
    }
    if let Some(why) = &partial {
        eprintln!("warning: {why}");
    }
    let tl = Timeline::reconstruct(&events, job)
        .ok_or_else(|| format!("ledger for job {job} has no transfer envelope — cannot reconstruct"))?;
    let text = match flags.get("chunk") {
        Some(c) => {
            let index: usize = c.parse().map_err(|_| format!("--chunk takes a track index, got '{c}'"))?;
            render_chunk_detail(&events, &tl, index)
                .ok_or_else(|| format!("job {job} has no chunk track {index} (tracks: 0..{})", tl.tracks.len()))?
        }
        None => render_timeline(&tl),
    };
    write_or_print(&flags, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_positionals_parse() {
        let (pos, flags) = parse_flags(&strs(&["input.f32", "--eb", "1e-3", "-o", "out.ocz", "--abs"]));
        assert_eq!(pos, vec!["input.f32"]);
        assert_eq!(flags.get("eb").map(String::as_str), Some("1e-3"));
        assert_eq!(flags.get("out").map(String::as_str), Some("out.ocz"));
        assert_eq!(flags.get("abs").map(String::as_str), Some("true"));
    }

    #[test]
    fn dims_parse_and_reject() {
        assert_eq!(parse_dims("449x449x235").unwrap(), vec![449, 449, 235]);
        assert_eq!(parse_dims("128").unwrap(), vec![128]);
        assert_eq!(parse_dims("4,5").unwrap(), vec![4, 5]);
        assert!(parse_dims("4x0").is_err());
        assert!(parse_dims("").is_err());
        assert!(parse_dims("axb").is_err());
    }

    #[test]
    fn apps_and_sites_parse() {
        assert_eq!(parse_app("miranda").unwrap(), Application::Miranda);
        assert_eq!(parse_app("CESM").unwrap(), Application::Cesm);
        assert!(parse_app("fortran").is_err());
        assert_eq!(parse_site("anvil").unwrap(), SiteId::Anvil);
        assert_eq!(parse_site("CORI").unwrap(), SiteId::Cori);
        assert!(parse_site("summit").is_err());
    }

    #[test]
    fn config_parses_predictor_and_backend() {
        let mut flags = HashMap::new();
        flags.insert("eb".to_string(), "1e-4".to_string());
        flags.insert("predictor".to_string(), "lorenzo2".to_string());
        flags.insert("backend".to_string(), "rle+huffman".to_string());
        let cfg = parse_config(&flags).unwrap();
        assert_eq!(cfg.predictor, PredictorKind::Lorenzo2);
        assert_eq!(cfg.backend, LosslessBackend::RleHuffman);
        flags.insert("predictor".to_string(), "psychic".to_string());
        assert!(parse_config(&flags).is_err());
    }

    #[test]
    fn stream_window_flag_parses_with_staged_default() {
        let mut flags = HashMap::new();
        assert_eq!(parse_stream_window(&flags).unwrap(), 0);
        flags.insert("stream-window".to_string(), "8".to_string());
        assert_eq!(parse_stream_window(&flags).unwrap(), 8);
        assert_eq!(parse_service_config(&flags).unwrap().stream_window, 8);
        flags.insert("stream-window".to_string(), "many".to_string());
        assert!(parse_stream_window(&flags).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&strs(&["frobnicate"])).is_err());
        assert!(run(&strs(&["help"])).is_ok());
    }
}
