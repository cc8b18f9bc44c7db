//! The `ocelot` binary as a shell sees it: exit codes, stderr and the files
//! a verb leaves behind.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn ocelot(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ocelot")).args(args).output().expect("ocelot starts")
}

/// A fresh directory for one test's files.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli").join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A 16 × 24 raw f32 field, written to `dir/field.f32`.
fn field(dir: &std::path::Path) -> String {
    let bytes: Vec<u8> =
        (0..16 * 24).flat_map(|i| ((i as f32 * 0.05).sin() + (i / 24) as f32 * 0.1).to_le_bytes()).collect();
    let path = dir.join("field.f32");
    std::fs::write(&path, bytes).expect("write field");
    path.to_string_lossy().into_owned()
}

#[test]
fn a_flag_the_verb_does_not_read_fails_it_names_the_flag_and_writes_nothing() {
    let dir = scratch("unread_flag");
    let input = field(&dir);
    let out = dir.join("x.ocz");
    let out_s = out.to_string_lossy().into_owned();
    let run = ocelot(&["compress", &input, "--dims", "16x24", "--stream-window", "4", "-o", &out_s]);
    assert!(!run.status.success(), "compress accepted --stream-window");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("--stream-window"), "stderr does not name the flag: {stderr}");
    assert!(!out.exists(), "a rejected compress wrote {out_s}");

    // Without it the same verb runs and writes its archive.
    let run = ocelot(&["compress", &input, "--dims", "16x24", "--codec-threads", "2", "-o", &out_s]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    assert!(out.exists());
}

#[test]
fn a_closed_stdout_ends_the_verb_quietly() {
    let dir = scratch("closed_stdout");
    let input = field(&dir);
    let archive = dir.join("x.ocz").to_string_lossy().into_owned();
    let run = ocelot(&["compress", &input, "--dims", "16x24", "--codec-threads", "4", "-o", &archive]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));

    // `ocelot inspect x.ocz | head -0`: the reader is gone before the first
    // line, so every write meets a closed pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ocelot"))
        .args(["inspect", &archive])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ocelot starts");
    drop(child.stdout.take());
    let done = child.wait_with_output().expect("ocelot exits");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(!stderr.contains("panicked"), "panic text on stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr is not quiet: {stderr}");
    assert!(done.status.success(), "exit {:?}", done.status);
}
