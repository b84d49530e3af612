//! Spawned-binary tests for the `hjsvd` CLI's service commands and its
//! stdout handling: a real `serve` process on an ephemeral port,
//! `submit`/`shutdown` against it, bit-identical output versus a local
//! solve, the `--stats - --trace -` pin (trace JSONL owns stdout; the stats
//! object routes to stderr), and a reader that closes stdout early.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_hjsvd");

/// Run `hjsvd <args>` to completion and capture its output.
fn hjsvd(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn hjsvd")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

/// A scratch directory with a generated matrix CSV inside.
fn scratch_with_matrix(tag: &str, rows: &str, cols: &str, seed: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("hjsvd_cli_serve_{tag}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mp = dir.join("m.csv").to_str().expect("utf-8 path").to_string();
    let gen = hjsvd(&["generate", "--rows", rows, "--cols", cols, &mp, "--seed", seed]);
    assert!(gen.status.success(), "generate failed: {}", stderr_of(&gen));
    (dir, mp)
}

/// The bare (non-`#`) value lines of a `svd --values-only` / `submit` run.
fn value_lines(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(str::to_string)
        .collect()
}

/// Start `hjsvd serve` on an ephemeral port, returning the child and the
/// address parsed from its `listening on ` line.
fn spawn_serve(extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hjsvd serve");
    let stdout = child.stdout.as_mut().expect("serve stdout pipe");
    let mut first = String::new();
    BufReader::new(stdout).read_line(&mut first).expect("read listen line");
    let addr = first
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {first:?}"))
        .to_string();
    (child, addr)
}

/// End-to-end over real processes: serve on an ephemeral port, submit a
/// matrix on each engine, compare the printed spectra line-for-line with a
/// local `svd --values-only` run (bit-identical `{v}` formatting), then
/// shut the server down gracefully and check its final stats line.
#[test]
fn serve_submit_shutdown_round_trip_is_bit_identical() {
    let (dir, mp) = scratch_with_matrix("e2e", "20", "6", "42");
    let (mut child, addr) = spawn_serve(&["--workers", "2"]);

    for engine in ["seq", "par", "blocked"] {
        let local = hjsvd(&["svd", &mp, "--values-only", "--engine", engine]);
        assert!(local.status.success(), "local svd failed: {}", stderr_of(&local));
        let remote = hjsvd(&["submit", &mp, "--addr", &addr, "--engine", engine]);
        assert!(remote.status.success(), "submit failed: {}", stderr_of(&remote));
        let local_values = value_lines(&stdout_of(&local));
        let remote_values = value_lines(&stdout_of(&remote));
        assert_eq!(local_values.len(), 6);
        assert_eq!(
            local_values, remote_values,
            "spectrum over TCP differs from local solve on {engine}"
        );
        // The submit banner carries the job id.
        assert!(stdout_of(&remote).starts_with("# 6 singular values"), "{}", stdout_of(&remote));
    }

    let down = hjsvd(&["shutdown", "--addr", &addr, "--drain-ms", "5000"]);
    assert!(down.status.success(), "shutdown failed: {}", stderr_of(&down));
    let stats = stdout_of(&down);
    assert!(stats.contains("\"schema\":\"hjsvd-serve-stats/v1\""), "{stats}");
    assert!(stats.contains("\"completed\":3"), "{stats}");

    // The server process exits cleanly and prints its own final stats line.
    let status = child.wait().expect("serve exit");
    assert!(status.success(), "serve exited with {status}");
    let mut rest = String::new();
    child.stdout.take().expect("stdout").read_to_string(&mut rest).expect("read serve stdout");
    assert!(rest.contains("\"schema\":\"hjsvd-serve-stats/v1\""), "{rest}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Bulk submission over a real server: a directory of matrices goes up as
/// ONE protocol-v3 job, and every slot's printed spectrum matches the
/// local `svd --values-only` run line-for-line (same `{v}` formatting).
#[test]
fn submit_batch_round_trip_matches_local_solves() {
    let dir = std::env::temp_dir().join("hjsvd_cli_serve_batch");
    std::fs::remove_dir_all(&dir).ok();
    let mats = dir.join("mats");
    std::fs::create_dir_all(&mats).expect("scratch dir");
    let mut paths = Vec::new();
    for k in 0..3 {
        let mp = mats.join(format!("m{k}.csv")).to_str().expect("utf-8 path").to_string();
        let seed = (60 + k).to_string();
        let gen = hjsvd(&["generate", "--rows", "20", "--cols", "8", &mp, "--seed", &seed]);
        assert!(gen.status.success(), "generate failed: {}", stderr_of(&gen));
        paths.push(mp);
    }
    let (mut child, addr) = spawn_serve(&[]);

    let remote = hjsvd(&["submit-batch", mats.to_str().unwrap(), "--addr", &addr]);
    assert!(remote.status.success(), "submit-batch failed: {}", stderr_of(&remote));
    let stdout = stdout_of(&remote);
    assert!(stdout.starts_with("# job "), "{stdout}");
    assert!(stdout.contains(": 3 problems"), "{stdout}");

    // Slots print in submission (sorted-by-name) order. A uniform n=8 bulk
    // job rides the SoA batch engine on the server, so the bit-identity
    // reference is a local `svd --batch` over the same directory — same
    // engine, same inputs, same order; the wire must not perturb a bit.
    let local = hjsvd(&["svd", "--batch", mats.to_str().unwrap()]);
    assert!(local.status.success(), "local batch svd failed: {}", stderr_of(&local));
    let expected = value_lines(&stdout_of(&local));
    assert_eq!(expected.len(), 24);
    assert_eq!(value_lines(&stdout), expected, "bulk spectra differ from local batch solve");

    // The whole batch was one job.
    let down = hjsvd(&["shutdown", "--addr", &addr]);
    assert!(down.status.success(), "shutdown failed: {}", stderr_of(&down));
    assert!(stdout_of(&down).contains("\"completed\":1"), "{}", stdout_of(&down));
    assert!(child.wait().expect("serve exit").success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A submission with an already-expired deadline comes back as exit code 8
/// (`timeout` kind) through the spawned binary — the wire error code maps
/// straight onto the CLI exit-code table.
#[test]
fn submit_expired_deadline_exits_with_timeout_code() {
    let (dir, mp) = scratch_with_matrix("deadline", "24", "8", "7");
    let (mut child, addr) = spawn_serve(&[]);

    let late = hjsvd(&["submit", &mp, "--addr", &addr, "--deadline-ms", "0"]);
    assert!(!late.status.success());
    assert_eq!(late.status.code(), Some(8), "stderr: {}", stderr_of(&late));
    assert!(stderr_of(&late).starts_with("error[timeout]:"), "{}", stderr_of(&late));

    // The server survives the fault: a normal submission still succeeds.
    let ok = hjsvd(&["submit", &mp, "--addr", &addr]);
    assert!(ok.status.success(), "follow-up submit failed: {}", stderr_of(&ok));

    let down = hjsvd(&["shutdown", "--addr", &addr]);
    assert!(down.status.success());
    assert!(child.wait().expect("serve exit").success());
    std::fs::remove_dir_all(&dir).ok();
}

/// Pins the stream-collision fix: with both `--stats -` and `--trace -`,
/// stdout carries exactly one JSON stream (the trace JSONL plus the plain
/// value lines) and the stats object moves to stderr — previously both
/// JSON payloads interleaved on stdout.
#[test]
fn stats_dash_with_trace_dash_routes_stats_to_stderr() {
    let (dir, mp) = scratch_with_matrix("collision", "16", "5", "3");

    let out = hjsvd(&["svd", &mp, "--values-only", "--stats", "-", "--trace", "-"]);
    assert!(out.status.success(), "svd failed: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let stderr = stderr_of(&out);

    // Every JSON object line on stdout is a trace event — the stats object
    // (recognizable by its solve-stats keys) never appears there.
    let mut trace_lines = 0;
    for line in stdout.lines().filter(|l| l.starts_with('{')) {
        assert!(line.starts_with("{\"event\":\""), "non-trace JSON leaked onto stdout: {line}");
        trace_lines += 1;
    }
    assert!(trace_lines > 0, "trace JSONL missing from stdout: {stdout}");
    assert!(!stdout.contains("\"gram_bytes\""), "stats JSON leaked onto stdout: {stdout}");

    // The stats object landed on stderr, intact.
    let stats_line = stderr
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no stats JSON on stderr: {stderr}"));
    assert!(stats_line.contains("\"gram_bytes\":"), "{stats_line}");
    assert!(stats_line.contains("\"sweeps\":"), "{stats_line}");

    // Without the trace stream, `--stats -` still owns stdout as before.
    let plain = hjsvd(&["svd", &mp, "--values-only", "--stats", "-"]);
    assert!(plain.status.success());
    assert!(stdout_of(&plain).contains("\"gram_bytes\":"), "{}", stdout_of(&plain));
    std::fs::remove_dir_all(&dir).ok();
}

/// `serve` with a dead address and `submit`/`shutdown` against a closed
/// port fail fast with the `io` exit code, not a hang.
#[test]
fn connection_failures_exit_with_io_code() {
    // Bind-then-drop: the ephemeral port is closed by the time we dial it.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        l.local_addr().expect("probe addr").to_string()
    };
    std::thread::sleep(Duration::from_millis(20));

    let (dir, mp) = scratch_with_matrix("refused", "8", "3", "1");
    let submit = hjsvd(&["submit", &mp, "--addr", &dead]);
    assert_eq!(submit.status.code(), Some(3), "stderr: {}", stderr_of(&submit));
    assert!(stderr_of(&submit).starts_with("error[io]:"));

    let down = hjsvd(&["shutdown", "--addr", &dead]);
    assert_eq!(down.status.code(), Some(3));
    std::fs::remove_dir_all(&dir).ok();
}

/// `hjsvd svd ... | head -1`: the reader takes one line and goes away. The
/// CLI must stop writing without a panic or an error line and exit with
/// the documented closed-pipe code, 141.
#[test]
fn closed_stdout_exits_quietly_with_the_pipe_code() {
    let (dir, mp) = scratch_with_matrix("pipe", "40", "30", "3");
    // 200 slots of 30 values print far more than a pipe buffers, so the
    // child is still writing when the read end closes.
    let list = vec![mp.as_str(); 200].join(",");
    let mut child = Command::new(BIN)
        .args(["svd", "--batch", &list])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hjsvd svd");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("svd stdout pipe");
    BufReader::new(stdout).read_line(&mut first).expect("read one line");
    assert!(first.contains("30 singular values"), "{first}");
    let out = child.wait_with_output().expect("wait for hjsvd svd");
    let stderr = stderr_of(&out);
    assert!(!stderr.contains("panicked"), "panic on a closed stdout: {stderr}");
    assert!(stderr.is_empty(), "a closed stdout is not an error worth a line: {stderr}");
    assert_eq!(out.status.code(), Some(141), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
