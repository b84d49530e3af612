//! `hjsvd` — command-line front end for the workspace.
//!
//! ```text
//! hjsvd svd <matrix.csv> [--values-only] [--rank K] [--out PREFIX] [--stats PATH]
//!           [--ordering cyclic|row]
//!           [--threshold-schedule] [--timeout-ms T]
//!           [--trace PATH] [--trace-level sweep|rotation]
//! hjsvd svd --batch <dir-or-csv-list> [--stats PATH] [--ordering cyclic|row]
//!           [--threshold-schedule]
//! hjsvd pca <data.csv> --components K [--out PREFIX]
//! hjsvd eigh <symmetric.csv> [--ordering cyclic|row]
//! hjsvd simulate --rows M --cols N [--sweeps S]
//! hjsvd resources
//! hjsvd generate --rows M --cols N <out.csv> [--seed S] [--cond C]
//! hjsvd serve --addr HOST:PORT [--workers N] [--queue-cap N] [--tenant-cap N]
//! hjsvd submit <matrix.csv> --addr HOST:PORT [--deadline-ms T]
//!             [--priority interactive|batch]
//!             [--ordering cyclic|row] [--tenant NAME]
//! hjsvd submit-batch <dir-or-csv-list> --addr HOST:PORT [--tenant NAME]
//!                    [--deadline-ms T]
//! hjsvd shutdown --addr HOST:PORT [--drain-ms T]
//! ```
//!
//! Each command accepts exactly the options listed for it; any other
//! `--name` is a usage error that names the option.
//!
//! Batch inputs (`svd --batch`, `submit-batch`) name either a directory —
//! every `*.csv` inside, sorted by file name — or a comma-separated list of
//! CSV paths. Problems succeed and fail individually: every slot is
//! reported, and the exit code is the first failing slot's (0 when all
//! succeed).
//!
//! Matrices are headerless CSV (one row per line, `#` comments allowed).
//! Argument parsing is hand-rolled — the workspace takes no CLI dependency.
//!
//! When both `--stats -` and `--trace -` are requested, stdout belongs to
//! the JSONL trace stream and the stats object is routed to **stderr**
//! instead — two JSON documents never interleave on one stream.
//!
//! Every failure exits with a *distinct* nonzero code and a single
//! machine-greppable stderr line `error[<kind>]: <message>`:
//!
//! | code | kind            | cause                                         |
//! |------|-----------------|-----------------------------------------------|
//! | 2    | `usage`         | bad arguments / unknown command or option     |
//! | 3    | `io`            | file read/write failure                       |
//! | 4    | `bad-input`     | empty, non-finite or non-square (`eigh`)      |
//! | 5    | `bad-config`    | inconsistent solver configuration             |
//! | 6    | `not-converged` | iteration budget exhausted before convergence |
//! | 7    | `solve-fault`   | health check aborted the solve                |
//! | 8    | `timeout`       | `--timeout-ms` deadline exceeded              |
//! | 9    | `cancelled`     | solve cancelled via its cancellation flag     |
//! | 10   | `rejected`      | serve admission control rejected the job      |
//! | 141  | —               | stdout closed early; exits without a message  |
//!
//! Stdout closed early (`hjsvd svd m.csv | head -1`) is not a failure
//! worth a message: the CLI stops writing and exits quietly with code 141,
//! the status a shell reports for a process killed by `SIGPIPE`. Any other
//! stdout write failure is an `io` error (code 3).

use hjsvd::arch::{resource_usage, ArchConfig, HestenesJacobiArch};
use hjsvd::core::{
    eigh, HestenesSvd, JsonlSink, Ordering, Pca, SolveBudget, SvdError, SvdOptions,
    ThresholdSchedule, TraceLevel,
};
use hjsvd::fpsim::resources::ChipCapacity;
use hjsvd::matrix::{gen, io, norms, Matrix};
use hjsvd::serve::{
    Client, ClientError, Priority, Server, ServiceConfig, SubmitOptions, CODE_BAD_REQUEST,
    CODE_CANCELLED, CODE_DEADLINE, CODE_REJECTED,
};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

/// A CLI failure: one stable kind string, one exit code, one message line.
#[derive(Debug)]
struct CliError {
    code: u8,
    kind: &'static str,
    message: String,
}

/// Exit code when stdout's reader went away (128 + `SIGPIPE`).
const EXIT_BROKEN_PIPE: u8 = 141;

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError { code: 2, kind: "usage", message: message.into() }
    }

    fn io(message: impl Into<String>) -> CliError {
        CliError { code: 3, kind: "io", message: message.into() }
    }

    /// A failed write to stdout: a closed pipe ends the run quietly
    /// ([`EXIT_BROKEN_PIPE`]), anything else is an `io` error.
    fn stdout(e: std::io::Error) -> CliError {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            CliError { code: EXIT_BROKEN_PIPE, kind: "broken-pipe", message: e.to_string() }
        } else {
            CliError::io(format!("stdout: {e}"))
        }
    }
}

/// `writeln!` to a command's stdout writer that returns a failed write as
/// [`CliError::stdout`] instead of panicking like `println!`.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(CliError::stdout)?
    };
}

impl From<SvdError> for CliError {
    fn from(e: SvdError) -> CliError {
        let (code, kind) = match &e {
            SvdError::EmptyInput | SvdError::NotSquare { .. } | SvdError::NonFiniteInput => {
                (4, "bad-input")
            }
            SvdError::ZeroSweepBudget => (5, "bad-config"),
            SvdError::TruncatedTailNotNegligible => (6, "not-converged"),
            SvdError::SolveFault { fault, .. } => match fault.kind() {
                "deadline" => (8, "timeout"),
                "cancelled" => (9, "cancelled"),
                _ => (7, "solve-fault"),
            },
        };
        CliError { code, kind, message: e.to_string() }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.code == EXIT_BROKEN_PIPE => ExitCode::from(e.code),
        Err(e) => {
            eprintln!("error[{}]: {}", e.kind, e.message);
            ExitCode::from(e.code)
        }
    }
}

/// Run one command; everything it prints goes to `out` (stdout in
/// `main`), whose write failures come back as [`CliError::stdout`].
fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut parsed = ParsedArgs::parse(args).map_err(CliError::usage)?;
    match parsed.command.as_str() {
        "svd" => cmd_svd(&mut parsed, out),
        "pca" => cmd_pca(&mut parsed, out),
        "eigh" => cmd_eigh(&mut parsed, out),
        "simulate" => cmd_simulate(&mut parsed, out),
        "resources" => cmd_resources(&parsed, out),
        "generate" => cmd_generate(&mut parsed, out),
        "serve" => cmd_serve(&mut parsed, out),
        "submit" => cmd_submit(&mut parsed, out),
        "submit-batch" => cmd_submit_batch(&mut parsed, out),
        "shutdown" => cmd_shutdown(&mut parsed, out),
        // `help`, `--help` and `-h`: parsing rejected every other name.
        _ => print_help(out),
    }
}

fn print_help(out: &mut dyn Write) -> Result<(), CliError> {
    outln!(out, "{HELP}");
    Ok(())
}

/// The help text. Every `--name` in a command's entry must parse for that
/// command (pinned by the `help_text_options_all_parse` test).
const HELP: &str = "hjsvd — Hestenes-Jacobi SVD toolkit

USAGE:
  hjsvd svd <matrix.csv> [--values-only] [--rank K] [--out PREFIX] [--stats PATH]
            [--ordering cyclic|row]
            [--threshold-schedule] [--timeout-ms T]
            [--trace PATH] [--trace-level sweep|rotation]
      Decompose a CSV matrix. Prints singular values; with --out, writes
      PREFIX_u.csv / PREFIX_s.csv / PREFIX_v.csv. --rank truncates.
      --stats writes the solve's SolveStats record as JSON (PATH of '-'
      prints it to stdout). --ordering picks the sweep pair schedule:
      cyclic (round-robin, default) or row (row-cyclic, the paper's
      Algorithm 1 loop nest).
      --threshold-schedule ramps the early-sweep rotation threshold down
      to the convergence tolerance, skipping negligible pairs early.
      --timeout-ms bounds wall-clock time: the solve
      aborts at the next sweep boundary past the deadline (exit code 8).
      --trace streams structured solve events as JSON Lines to PATH ('-'
      = stdout); --trace-level picks the verbosity (default sweep:
      per-sweep summaries; rotation adds every applied/skipped rotation).
  hjsvd svd --batch <dir-or-csv-list> [--stats PATH]
            [--ordering cyclic|row] [--threshold-schedule]
      Decompose a whole set of matrices in one batch solve (values only).
      The input names a directory (every *.csv inside, sorted) or a
      comma-separated list of CSV paths. Uniform batches of small problems
      (n <= 32, default ordering) run on the batched SoA engine;
      everything else takes the looped per-matrix path. Slots succeed and
      fail independently; --stats writes one SolveStats JSON record per
      successful problem, in slot order, as JSON Lines ('-' = stdout).
  hjsvd pca <data.csv> --components K [--out PREFIX]
      PCA (rows = observations). Prints explained variance; with --out,
      writes PREFIX_scores.csv and PREFIX_components.csv.
  hjsvd eigh <symmetric.csv> [--ordering cyclic|row]
      Eigendecompose a symmetric matrix (Jacobi).
  hjsvd simulate --rows M --cols N [--sweeps S]
      Cycle-level timing estimate of the paper's architecture (150 MHz).
  hjsvd resources
      Resource utilization of the architecture on the XC5VLX330 (Table II).
  hjsvd generate --rows M --cols N <out.csv> [--seed S] [--cond C]
      Write a random test matrix (uniform, or graded to condition number C).
  hjsvd serve --addr HOST:PORT [--workers N] [--queue-cap N] [--tenant-cap N]
      Run the multi-tenant solve service. Prints 'listening on HOST:PORT'
      (port 0 resolves to an ephemeral port), serves until a shutdown
      frame arrives, then prints the final stats JSON. --workers sizes
      the worker pool, --queue-cap bounds the admission queue,
      --tenant-cap limits per-tenant in-flight jobs (0 = unlimited).
  hjsvd submit <matrix.csv> --addr HOST:PORT [--deadline-ms T]
              [--priority interactive|batch]
              [--ordering cyclic|row] [--tenant NAME]
      Submit a matrix to a running server and print the singular values
      (bit-identical to a local 'svd --values-only' run). --deadline-ms
      bounds the job's wall-clock time (exit code 8 when exceeded);
      rejected submissions exit with code 10.
  hjsvd submit-batch <dir-or-csv-list> --addr HOST:PORT [--tenant NAME]
              [--deadline-ms T]
      Submit a whole set of matrices as ONE bulk job (protocol v3) and
      print every slot's spectrum. The input names a directory (every
      *.csv inside, sorted) or a comma-separated list of CSV paths.
      Bulk jobs ride the batch priority class; slots fail independently
      and the exit code is the first failing slot's.
  hjsvd shutdown --addr HOST:PORT [--drain-ms T]
      Gracefully stop a running server: drain in-flight jobs for up to
      --drain-ms (default 5000), then print the final stats JSON.

Each command accepts only the options listed for it; any other option is
a usage error (exit code 2).";

/// `(options, flags)`: the `--key value` options and `--flag` booleans a
/// command accepts.
type Accepted = (&'static [&'static str], &'static [&'static str]);

/// What `command` accepts — exactly what its help entry lists — or `None`
/// for an unknown command. `svd --batch` is its own entry.
fn accepted(command: &str, batch: bool) -> Option<Accepted> {
    Some(match command {
        "svd" if batch => (&["stats", "ordering"], &["batch", "threshold-schedule"]),
        "svd" => (
            &["rank", "out", "stats", "ordering", "timeout-ms", "trace", "trace-level"],
            &["values-only", "threshold-schedule"],
        ),
        "pca" => (&["components", "out"], &[]),
        "eigh" => (&["ordering"], &[]),
        "simulate" => (&["rows", "cols", "sweeps"], &[]),
        "generate" => (&["rows", "cols", "seed", "cond"], &[]),
        "serve" => (&["addr", "workers", "queue-cap", "tenant-cap"], &[]),
        "submit" => (&["addr", "deadline-ms", "priority", "ordering", "tenant"], &[]),
        "submit-batch" => (&["addr", "tenant", "deadline-ms"], &[]),
        "shutdown" => (&["addr", "drain-ms"], &[]),
        "resources" | "help" | "--help" | "-h" => (&[], &[]),
        _ => return None,
    })
}

/// Minimal deterministic argument cracker: positionals in order, `--flag`
/// booleans, `--key value` options — only the ones the command accepts.
struct ParsedArgs {
    command: String,
    positionals: Vec<String>,
    flags: Vec<String>,
    options: Vec<(String, String)>,
}

impl ParsedArgs {
    fn parse(args: &[String]) -> Result<ParsedArgs, String> {
        let command = args.first().cloned().unwrap_or_else(|| "help".to_string());
        let batch = args.iter().skip(1).any(|a| a == "--batch");
        let (accepted_options, accepted_flags) =
            accepted(&command, batch).ok_or_else(|| format!("unknown command '{command}'"))?;
        let mut positionals = Vec::new();
        let mut flags = Vec::new();
        let mut options = Vec::new();
        let mut i = 1;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                // Boolean flags take no value; options consume one.
                if accepted_flags.contains(&name) {
                    flags.push(name.to_string());
                } else if accepted_options.contains(&name) {
                    let v =
                        args.get(i + 1).ok_or_else(|| format!("option --{name} needs a value"))?;
                    options.push((name.to_string(), v.clone()));
                    i += 1;
                } else {
                    let shown = if batch && command == "svd" { "svd --batch" } else { &command };
                    return Err(format!(
                        "unknown option --{name} for '{shown}' (see 'hjsvd help')"
                    ));
                }
            } else {
                positionals.push(a.clone());
            }
            i += 1;
        }
        Ok(ParsedArgs { command, positionals, flags, options })
    }

    fn positional(&self, idx: usize, what: &str) -> Result<&str, String> {
        self.positionals.get(idx).map(String::as_str).ok_or_else(|| format!("missing {what}"))
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.options.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn opt_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.opt(name) {
            None => Ok(None),
            Some(v) => {
                v.parse::<T>().map(Some).map_err(|_| format!("--{name}: cannot parse '{v}'"))
            }
        }
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.opt_parse(name)?.ok_or_else(|| format!("--{name} is required"))
    }
}

fn load(path: &str) -> Result<Matrix, CliError> {
    io::load_csv(path).map_err(|e| CliError::io(format!("{path}: {e}")))
}

fn save(m: &Matrix, path: &str) -> Result<(), CliError> {
    io::save_csv(m, path).map_err(|e| CliError::io(format!("{path}: {e}")))
}

/// Write a solve's JSON stats to `path` (`-` = stdout). When the trace
/// stream already owns stdout (`--trace -`), `-` routes to stderr instead:
/// interleaving a JSON object into a JSONL stream would corrupt both
/// documents, and consumers piping the trace must keep getting pure JSONL.
fn emit_stats(
    stats: &hjsvd::core::SolveStats,
    path: &str,
    trace_owns_stdout: bool,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let json = stats.to_json();
    if path == "-" {
        if trace_owns_stdout {
            eprintln!("{json}");
        } else {
            outln!(out, "{json}");
        }
        Ok(())
    } else {
        std::fs::write(path, json + "\n").map_err(|e| CliError::io(format!("{path}: {e}")))
    }
}

/// Resolve the `--trace` / `--trace-level` pair: `Some((path, level))` when
/// tracing is requested. `--trace-level` without `--trace` is a usage error —
/// there would be nowhere to write the events — and so is `off`: `--trace`
/// already asks for events, and a traced solve promotes `off` to `sweep`.
fn trace_option(p: &ParsedArgs) -> Result<Option<(String, TraceLevel)>, CliError> {
    let level = match p.opt("trace-level") {
        None => TraceLevel::Sweep,
        Some(v) => match TraceLevel::parse(v) {
            Some(level) if level != TraceLevel::Off => level,
            _ => {
                return Err(CliError::usage(format!(
                    "--trace-level: unknown level '{v}' (choose sweep or rotation)"
                )))
            }
        },
    };
    match p.opt("trace") {
        Some(path) => Ok(Some((path.to_string(), level))),
        None if p.opt("trace-level").is_some() => {
            Err(CliError::usage("--trace-level requires --trace PATH"))
        }
        None => Ok(None),
    }
}

/// Open the JSONL trace sink for `path` (`-` = stdout).
fn open_trace(path: &str) -> Result<JsonlSink<Box<dyn Write>>, CliError> {
    let w: Box<dyn Write> = if path == "-" {
        Box::new(std::io::stdout())
    } else {
        Box::new(std::fs::File::create(path).map_err(|e| CliError::io(format!("{path}: {e}")))?)
    };
    Ok(JsonlSink::new(w))
}

/// Flush the trace sink and surface any write error it swallowed mid-solve
/// (on stdout, a closed pipe ends the run quietly like any other output).
fn close_trace(sink: JsonlSink<Box<dyn Write>>, path: &str) -> Result<(), CliError> {
    let fail = |e: std::io::Error| {
        if path == "-" {
            CliError::stdout(e)
        } else {
            CliError::io(format!("{path}: {e}"))
        }
    };
    let mut w = sink.finish().map_err(fail)?;
    w.flush().map_err(fail)
}

/// Parse the `--ordering` option into an [`Ordering`] (default: cyclic).
fn ordering_option(p: &ParsedArgs) -> Result<Ordering, CliError> {
    match p.opt("ordering") {
        None => Ok(Ordering::default()),
        Some(v) => Ordering::parse(v).ok_or_else(|| {
            CliError::usage(format!("--ordering: unknown ordering '{v}' (choose cyclic or row)"))
        }),
    }
}

/// Resolve a batch input spec — a directory (every `*.csv` inside, sorted
/// by file name, so batch order is reproducible across filesystems) or a
/// comma-separated list of CSV paths — into labelled matrices.
fn load_batch(spec: &str) -> Result<Vec<(String, Matrix)>, CliError> {
    let is_dir = std::fs::metadata(spec).map(|m| m.is_dir()).unwrap_or(false);
    let paths: Vec<String> = if is_dir {
        let entries = std::fs::read_dir(spec).map_err(|e| CliError::io(format!("{spec}: {e}")))?;
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "csv"))
            .map(|p| p.to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    } else {
        spec.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect()
    };
    if paths.is_empty() {
        return Err(CliError::usage(format!("{spec}: no CSV matrices to batch")));
    }
    paths.into_iter().map(|p| load(&p).map(|m| (p, m))).collect()
}

/// `hjsvd svd --batch`: values-only decomposition of a whole set of
/// matrices through [`HestenesSvd::singular_values_batch`] — uniform small
/// batches ride the SoA engine, everything else the looped path. Slots
/// succeed and fail independently; `--stats` emits one SolveStats record
/// per successful problem, in slot order, as JSON Lines.
fn cmd_svd_batch(p: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let spec = p
        .positional(0, "batch input (directory or comma-separated CSV list)")
        .map_err(CliError::usage)?
        .to_string();
    let ordering = ordering_option(p)?;
    let threshold = p.flag("threshold-schedule").then(ThresholdSchedule::default);
    let solver = HestenesSvd::new(SvdOptions { ordering, threshold, ..Default::default() });
    let inputs = load_batch(&spec)?;
    let mats: Vec<Matrix> = inputs.iter().map(|(_, m)| m.clone()).collect();
    let batch = solver.singular_values_batch(&mats);
    let mut stats_lines = Vec::new();
    let mut first_err: Option<CliError> = None;
    for ((path, _), res) in inputs.iter().zip(batch) {
        match res {
            Ok(sv) => {
                outln!(
                    out,
                    "# {path}: {} singular values ({} sweeps, engine {})",
                    sv.values.len(),
                    sv.sweeps,
                    sv.stats.engine
                );
                for v in &sv.values {
                    outln!(out, "{v}");
                }
                stats_lines.push(sv.stats.to_json());
            }
            Err(e) => {
                let ce = CliError::from(e);
                outln!(out, "# {path}: error[{}]: {}", ce.kind, ce.message);
                first_err.get_or_insert(ce);
            }
        }
    }
    if let Some(sp) = p.opt("stats") {
        let doc = stats_lines.join("\n");
        if sp == "-" {
            outln!(out, "{doc}");
        } else {
            std::fs::write(sp, doc + "\n").map_err(|e| CliError::io(format!("{sp}: {e}")))?;
        }
    }
    first_err.map_or(Ok(()), Err)
}

fn cmd_svd(p: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    if p.flag("batch") {
        return cmd_svd_batch(p, out);
    }
    let path = p.positional(0, "input matrix path").map_err(CliError::usage)?.to_string();
    let a = load(&path)?;
    let ordering = ordering_option(p)?;
    let threshold = p.flag("threshold-schedule").then(ThresholdSchedule::default);
    let timeout_ms: Option<u64> = p.opt_parse("timeout-ms").map_err(CliError::usage)?;
    let trace = trace_option(p)?;
    let trace_level = trace.as_ref().map(|(_, l)| *l).unwrap_or(TraceLevel::Off);
    let mut solver = HestenesSvd::new(SvdOptions {
        ordering,
        threshold,
        trace: trace_level,
        ..Default::default()
    });
    if let Some(ms) = timeout_ms {
        solver = solver.with_budget(SolveBudget::with_timeout(Duration::from_millis(ms)));
    }
    let stats_path = p.opt("stats").map(str::to_string);
    let trace_owns_stdout = matches!(&trace, Some((tp, _)) if tp == "-");
    if p.flag("values-only") {
        let sv = match &trace {
            Some((tp, _)) => {
                let mut sink = open_trace(tp)?;
                let sv = solver.singular_values_traced(&a, &mut sink)?;
                close_trace(sink, tp)?;
                sv
            }
            None => solver.singular_values(&a)?,
        };
        outln!(out, "# {} singular values ({} sweeps)", sv.values.len(), sv.sweeps);
        for v in &sv.values {
            outln!(out, "{v}");
        }
        if let Some(sp) = stats_path {
            emit_stats(&sv.stats, &sp, trace_owns_stdout, out)?;
        }
        return Ok(());
    }
    let svd = match &trace {
        Some((tp, _)) => {
            let mut sink = open_trace(tp)?;
            let svd = solver.decompose_traced(&a, &mut sink)?;
            close_trace(sink, tp)?;
            svd
        }
        None => solver.decompose(&a)?,
    };
    if let Some(sp) = stats_path {
        emit_stats(&svd.stats, &sp, trace_owns_stdout, out)?;
    }
    let rank: Option<usize> = p.opt_parse("rank").map_err(CliError::usage)?;
    let k = rank.unwrap_or(svd.singular_values.len()).min(svd.singular_values.len());
    outln!(
        out,
        "# {}x{} matrix, {} sweeps, reconstruction error {:.3e}",
        a.rows(),
        a.cols(),
        svd.sweeps,
        norms::reconstruction_error(&a, &svd.u, &svd.singular_values, &svd.v)
    );
    for v in &svd.singular_values[..k] {
        outln!(out, "{v}");
    }
    if let Some(prefix) = p.opt("out") {
        let mut s = Matrix::zeros(k, 1);
        for t in 0..k {
            s.set(t, 0, svd.singular_values[t]);
        }
        save(&svd.u.leading_columns(k), &format!("{prefix}_u.csv"))?;
        save(&s, &format!("{prefix}_s.csv"))?;
        save(&svd.v.leading_columns(k), &format!("{prefix}_v.csv"))?;
        outln!(out, "# wrote {prefix}_u.csv, {prefix}_s.csv, {prefix}_v.csv");
    }
    Ok(())
}

fn cmd_pca(p: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let path = p.positional(0, "input data path").map_err(CliError::usage)?.to_string();
    let k: usize = p.required("components").map_err(CliError::usage)?;
    let data = load(&path)?;
    let pca = Pca::fit_default(&data, k)?;
    outln!(out, "# component, explained variance, ratio");
    for (i, (ev, r)) in
        pca.explained_variance().iter().zip(pca.explained_variance_ratio()).enumerate()
    {
        outln!(out, "{}, {ev}, {r}", i + 1);
    }
    outln!(out, "# total captured: {:.4}", pca.captured_variance());
    if let Some(prefix) = p.opt("out") {
        save(&pca.transform(&data), &format!("{prefix}_scores.csv"))?;
        save(pca.components(), &format!("{prefix}_components.csv"))?;
        outln!(out, "# wrote {prefix}_scores.csv, {prefix}_components.csv");
    }
    Ok(())
}

fn cmd_eigh(p: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let path = p.positional(0, "input matrix path").map_err(CliError::usage)?.to_string();
    let ordering = ordering_option(p)?;
    let s = load(&path)?;
    let e = eigh::eigh_dense(&s, 1e-14, ordering)?;
    outln!(out, "# {} eigenvalues ({} sweeps)", e.eigenvalues.len(), e.sweeps);
    for v in &e.eigenvalues {
        outln!(out, "{v}");
    }
    Ok(())
}

fn cmd_simulate(p: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let m: usize = p.required("rows").map_err(CliError::usage)?;
    let n: usize = p.required("cols").map_err(CliError::usage)?;
    let sweeps: Option<usize> = p.opt_parse("sweeps").map_err(CliError::usage)?;
    let mut cfg = ArchConfig::paper();
    if let Some(s) = sweeps {
        cfg.sweeps = s;
    }
    let arch = HestenesJacobiArch::new(cfg);
    let r = arch.estimate(m, n);
    outln!(out, "architecture estimate for a {m}x{n} decomposition ({} sweeps):", r.sweeps);
    outln!(out, "  covariance placement: {:?}", r.placement);
    outln!(
        out,
        "  preprocess: {} cycles (compute {}, input {})",
        r.preprocess.total_cycles,
        r.preprocess.compute_cycles,
        r.preprocess.input_cycles
    );
    for s in &r.per_sweep {
        outln!(
            out,
            "  sweep {}: rot {} / upd {} / io {} -> {}",
            s.sweep,
            s.rotation_cycles,
            s.update_cycles,
            s.io_cycles,
            s.total_cycles
        );
    }
    outln!(out, "  finalize: {} cycles", r.finalize_cycles);
    outln!(out, "  total: {} cycles = {:.6} s at 150 MHz", r.total_cycles, r.seconds);
    Ok(())
}

fn cmd_resources(_p: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let cfg = ArchConfig::paper();
    let usage = resource_usage(&cfg);
    let chip = ChipCapacity::XC5VLX330;
    outln!(out, "resource usage on {}:", chip.name);
    for (name, cost, bram) in usage.items() {
        outln!(out, "  {name:<14} {:>7} LUT {:>4} DSP {:>4} BRAM36", cost.luts, cost.dsps, bram);
    }
    let (lut, bram, dsp) = usage.utilization(&chip);
    outln!(out, "totals: {lut:.1}% LUT, {bram:.1}% BRAM, {dsp:.1}% DSP (paper: 89/91/53)");
    Ok(())
}

fn cmd_generate(p: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let m: usize = p.required("rows").map_err(CliError::usage)?;
    let n: usize = p.required("cols").map_err(CliError::usage)?;
    let path = p.positional(0, "output path").map_err(CliError::usage)?.to_string();
    let seed: u64 = p.opt_parse("seed").map_err(CliError::usage)?.unwrap_or(42);
    let cond: Option<f64> = p.opt_parse("cond").map_err(CliError::usage)?;
    let a = match cond {
        Some(c) => gen::with_condition_number(m, n, c, seed),
        None => gen::uniform(m, n, seed),
    };
    save(&a, &path)?;
    outln!(out, "# wrote {m}x{n} matrix to {path}");
    Ok(())
}

/// Map a serve-client failure onto the CLI's exit-code/kind table. Remote
/// error frames carry the wire code, which doubles as the exit code.
fn client_error(e: ClientError) -> CliError {
    match e {
        ClientError::Io(err) => CliError::io(err.to_string()),
        ClientError::Protocol(err) => CliError::io(format!("protocol error: {err}")),
        ClientError::Unexpected(what) => CliError::io(format!("unexpected server reply: {what}")),
        ClientError::Remote { code, kind, message } => remote_error(code, &kind, &message),
    }
}

/// Map a remote error frame's wire code onto the CLI table. Shared between
/// whole-request failures ([`ClientError::Remote`]) and per-slot failures
/// of a bulk job ([`hjsvd::serve::RemoteFailure`]).
fn remote_error(code: u8, kind: &str, message: &str) -> CliError {
    let static_kind = match code {
        CODE_REJECTED => "rejected",
        CODE_DEADLINE => "timeout",
        CODE_CANCELLED => "cancelled",
        CODE_BAD_REQUEST => "bad-input",
        _ => "solve-fault",
    };
    // Exit codes below 2 collide with success/panic conventions.
    let code = if code >= 2 { code } else { 7 };
    CliError { code, kind: static_kind, message: format!("[{kind}] {message}") }
}

fn cmd_serve(p: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = p.opt("addr").ok_or_else(|| CliError::usage("--addr is required"))?.to_string();
    let mut config = ServiceConfig::default();
    if let Some(w) = p.opt_parse::<usize>("workers").map_err(CliError::usage)? {
        config.workers = w.max(1);
    }
    if let Some(c) = p.opt_parse::<usize>("queue-cap").map_err(CliError::usage)? {
        config.queue_capacity = c.max(1);
    }
    if let Some(t) = p.opt_parse::<usize>("tenant-cap").map_err(CliError::usage)? {
        config.tenant_cap = t;
    }
    let server = Server::bind(&addr, config).map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    let local = server.local_addr().map_err(|e| CliError::io(e.to_string()))?;
    // One parseable line so scripts (and CI) can discover the ephemeral port.
    outln!(out, "listening on {local}");
    out.flush().map_err(CliError::stdout)?;
    let stats = server.run().map_err(|e| CliError::io(e.to_string()))?;
    outln!(out, "{}", stats.to_json());
    Ok(())
}

fn cmd_submit(p: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let path = p.positional(0, "input matrix path").map_err(CliError::usage)?.to_string();
    let addr = p.opt("addr").ok_or_else(|| CliError::usage("--addr is required"))?.to_string();
    let a = load(&path)?;
    let ordering = ordering_option(p)?;
    let priority = match p.opt("priority") {
        None => Priority::Interactive,
        Some(v) => Priority::parse(v).ok_or_else(|| {
            CliError::usage(format!(
                "--priority: unknown class '{v}' (choose interactive or batch)"
            ))
        })?,
    };
    let deadline_ms: Option<u64> = p.opt_parse("deadline-ms").map_err(CliError::usage)?;
    let tenant = p.opt("tenant").unwrap_or("").to_string();
    let mut client = Client::connect(&addr).map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    let outcome = client
        .submit(&a, SubmitOptions { ordering, priority, deadline_ms, tenant })
        .map_err(client_error)?;
    outln!(
        out,
        "# {} singular values ({} sweeps, job {})",
        outcome.values.len(),
        outcome.sweeps,
        outcome.job
    );
    for v in &outcome.values {
        outln!(out, "{v}");
    }
    Ok(())
}

/// `hjsvd submit-batch`: ship a whole set of matrices to a running server
/// as ONE bulk job (protocol v3 `SubmitBatch`) and print every slot's
/// spectrum. Bulk jobs ride the batch priority class; per-slot failures
/// are printed in place and the first one's code becomes the exit code.
fn cmd_submit_batch(p: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let spec = p
        .positional(0, "batch input (directory or comma-separated CSV list)")
        .map_err(CliError::usage)?
        .to_string();
    let addr = p.opt("addr").ok_or_else(|| CliError::usage("--addr is required"))?.to_string();
    let deadline_ms: Option<u64> = p.opt_parse("deadline-ms").map_err(CliError::usage)?;
    let tenant = p.opt("tenant").unwrap_or("").to_string();
    let inputs = load_batch(&spec)?;
    let mats: Vec<Matrix> = inputs.iter().map(|(_, m)| m.clone()).collect();
    let mut client = Client::connect(&addr).map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    let outcome = client
        .submit_batch(
            &mats,
            SubmitOptions { priority: Priority::Batch, deadline_ms, tenant, ..Default::default() },
        )
        .map_err(client_error)?;
    outln!(out, "# job {}: {} problems", outcome.job, outcome.items.len());
    let mut first_err: Option<CliError> = None;
    for ((path, _), item) in inputs.iter().zip(outcome.items) {
        match item {
            Ok(spectrum) => {
                outln!(
                    out,
                    "# {path}: {} singular values ({} sweeps)",
                    spectrum.values.len(),
                    spectrum.sweeps
                );
                for v in &spectrum.values {
                    outln!(out, "{v}");
                }
            }
            Err(f) => {
                let ce = remote_error(f.code, &f.kind, &f.message);
                outln!(out, "# {path}: error[{}]: {}", ce.kind, ce.message);
                first_err.get_or_insert(ce);
            }
        }
    }
    first_err.map_or(Ok(()), Err)
}

fn cmd_shutdown(p: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = p.opt("addr").ok_or_else(|| CliError::usage("--addr is required"))?.to_string();
    let drain_ms: u64 = p.opt_parse("drain-ms").map_err(CliError::usage)?.unwrap_or(5000);
    let mut client = Client::connect(&addr).map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    let json = client.shutdown(Duration::from_millis(drain_ms)).map_err(client_error)?;
    outln!(out, "{json}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// [`super::run`] with the command's stdout discarded.
    fn run(args: &[String]) -> Result<(), CliError> {
        super::run(args, &mut std::io::sink())
    }

    #[test]
    fn parser_splits_positionals_flags_options() {
        let p = ParsedArgs::parse(&args(&[
            "svd",
            "input.csv",
            "--values-only",
            "--rank",
            "3",
            "--out",
            "pre",
        ]))
        .unwrap();
        assert_eq!(p.command, "svd");
        assert_eq!(p.positional(0, "x").unwrap(), "input.csv");
        assert!(p.flag("values-only"));
        assert_eq!(p.opt("rank"), Some("3"));
        assert_eq!(p.opt_parse::<usize>("rank").unwrap(), Some(3));
        assert_eq!(p.opt("out"), Some("pre"));
    }

    #[test]
    fn parser_rejects_missing_values() {
        assert!(ParsedArgs::parse(&args(&["svd", "--rank"])).is_err());
    }

    #[test]
    fn required_option_errors_are_descriptive() {
        let p = ParsedArgs::parse(&args(&["simulate"])).unwrap();
        let err = p.required::<usize>("rows").unwrap_err();
        assert!(err.contains("--rows"));
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn end_to_end_generate_svd_pca() {
        let dir = std::env::temp_dir().join("hjsvd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let matrix_path = dir.join("m.csv");
        let mp = matrix_path.to_str().unwrap().to_string();
        run(&args(&["generate", "--rows", "12", "--cols", "4", &mp, "--seed", "7"])).unwrap();
        run(&args(&["svd", &mp, "--values-only"])).unwrap();
        let prefix = dir.join("out").to_str().unwrap().to_string();
        run(&args(&["svd", &mp, "--out", &prefix, "--rank", "2"])).unwrap();
        let u = io::load_csv(format!("{prefix}_u.csv")).unwrap();
        assert_eq!(u.shape(), (12, 2));
        run(&args(&["pca", &mp, "--components", "2"])).unwrap();
        run(&args(&["simulate", "--rows", "64", "--cols", "32"])).unwrap();
        run(&args(&["resources"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn svd_stats_export_writes_json() {
        let dir = std::env::temp_dir().join("hjsvd_cli_stats");
        std::fs::create_dir_all(&dir).unwrap();
        let mp = dir.join("m.csv").to_str().unwrap().to_string();
        run(&args(&["generate", "--rows", "10", "--cols", "5", &mp, "--seed", "3"])).unwrap();
        let sp = dir.join("stats.json").to_str().unwrap().to_string();
        run(&args(&["svd", &mp, "--stats", &sp])).unwrap();
        let full = std::fs::read_to_string(&sp).unwrap();
        assert!(full.trim_start().starts_with('{') && full.contains("\"rotations_applied\":"));
        run(&args(&["svd", &mp, "--values-only", "--stats", &sp])).unwrap();
        let vo = std::fs::read_to_string(&sp).unwrap();
        assert!(vo.contains("\"sweeps\":") && vo.contains("\"prescale_exp\":"));
        run(&args(&["svd", &mp, "--stats", "-"])).unwrap(); // stdout path
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_options_fail_with_usage_naming_the_option() {
        let dir = std::env::temp_dir().join("hjsvd_cli_unknown_option");
        std::fs::create_dir_all(&dir).unwrap();
        let mp = dir.join("m.csv").to_str().unwrap().to_string();
        run(&args(&["generate", "--rows", "12", "--cols", "5", &mp, "--seed", "9"])).unwrap();
        let cases: [(&[&str], &str); 6] = [
            (&["svd", &mp, "--engine", "par"], "--engine"),
            (&["submit", &mp, "--addr", "127.0.0.1:1", "--engine", "seq"], "--engine"),
            (&["svd", &mp, "--bogus", "1"], "--bogus"),
            (&["svd", &mp, "--values-only", "--bogus", "7"], "--bogus"),
            (&["svd", "--batch", &mp, "--rank", "2"], "--rank"),
            (&["generate", "--rows", "2", "--cols", "2", &mp, "--sede", "1"], "--sede"),
        ];
        for (argv, name) in cases {
            let e = run(&args(argv)).unwrap_err();
            assert_eq!((e.code, e.kind), (2, "usage"), "{argv:?}");
            assert!(e.message.contains(name), "{argv:?}: {}", e.message);
        }
        // The unknown command still wins over its options.
        let e = run(&args(&["frobnicate", "--engine", "par"])).unwrap_err();
        assert!(e.message.contains("unknown command"), "{}", e.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_text_options_all_parse() {
        // Every `--name` in a command's synopsis (its `hjsvd` line and the
        // `[...]` lines under it) parses for that command.
        let mut entries: Vec<(String, Vec<String>)> = Vec::new();
        for line in HELP.lines() {
            if let Some(rest) = line.strip_prefix("  hjsvd ") {
                let command = rest.split_whitespace().next().unwrap().to_string();
                entries.push((command, option_names(line)));
            } else if line.trim_start().starts_with('[') {
                entries.last_mut().unwrap().1.extend(option_names(line));
            }
        }
        assert_eq!(entries.len(), 11, "one entry per command line of the help text");
        for (command, names) in &entries {
            assert!(!names.is_empty() || command == "resources", "{command}: no options found");
            let mut argv = vec![command.clone()];
            for name in names {
                argv.push(format!("--{name}"));
                argv.push("1".to_string());
            }
            if let Err(e) = ParsedArgs::parse(&argv) {
                panic!("{argv:?}: {e}");
            }
        }
    }

    /// The `--name` tokens of one help line.
    fn option_names(line: &str) -> Vec<String> {
        line.split("--")
            .skip(1)
            .map(|t| t.chars().take_while(|c| c.is_ascii_lowercase() || *c == '-').collect())
            .filter(|t: &String| !t.is_empty())
            .collect()
    }

    #[test]
    fn svd_ordering_options_select_strategies_and_reject_unknown() {
        let dir = std::env::temp_dir().join("hjsvd_cli_ordering");
        std::fs::create_dir_all(&dir).unwrap();
        let mp = dir.join("m.csv").to_str().unwrap().to_string();
        run(&args(&["generate", "--rows", "12", "--cols", "5", &mp, "--seed", "9"])).unwrap();
        run(&args(&["svd", &mp, "--values-only", "--ordering", "cyclic", "--threshold-schedule"]))
            .unwrap();
        run(&args(&["svd", &mp, "--ordering", "row"])).unwrap();
        run(&args(&["svd", &mp, "--ordering", "round-robin"])).unwrap();
        run(&args(&["svd", &mp, "--ordering", "row-cyclic"])).unwrap();
        let e = run(&args(&["svd", &mp, "--ordering", "zigzag"])).unwrap_err();
        assert_eq!((e.code, e.kind), (2, "usage"));
        assert!(e.message.contains("choose cyclic or row"), "{}", e.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_orderings_are_usage_errors_on_every_command() {
        // The retired greedy and presort spellings are usage errors on every
        // command that takes --ordering, naming the value and the two real
        // choices (submit fails before dialling a server).
        let dir = std::env::temp_dir().join("hjsvd_cli_retired_orderings");
        std::fs::create_dir_all(&dir).unwrap();
        let mp = dir.join("m.csv").to_str().unwrap().to_string();
        run(&args(&["generate", "--rows", "12", "--cols", "5", &mp, "--seed", "9"])).unwrap();
        let sp = dir.join("s.csv").to_str().unwrap().to_string();
        io::save_csv(&Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]), &sp).unwrap();
        for value in ["greedy", "presort", "sorted-greedy", "column-presort"] {
            let commands: [Vec<&str>; 4] = [
                vec!["svd", &mp],
                vec!["svd", "--batch", &mp],
                vec!["eigh", &sp],
                vec!["submit", &mp, "--addr", "127.0.0.1:1"],
            ];
            for mut argv in commands {
                argv.extend(["--ordering", value]);
                let e = run(&args(&argv)).unwrap_err();
                assert_eq!((e.code, e.kind), (2, "usage"), "{argv:?}: {}", e.message);
                assert!(e.message.contains(&format!("'{value}'")), "{argv:?}: {}", e.message);
                assert!(e.message.contains("cyclic") && e.message.contains("row"), "{}", e.message);
            }
        }
        // The remaining orderings still solve on eigh.
        run(&args(&["eigh", &sp, "--ordering", "row"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_paths_map_to_distinct_exit_codes() {
        let dir = std::env::temp_dir().join("hjsvd_cli_codes");
        std::fs::create_dir_all(&dir).unwrap();
        let mp = dir.join("m.csv").to_str().unwrap().to_string();
        run(&args(&["generate", "--rows", "10", "--cols", "4", &mp, "--seed", "11"])).unwrap();

        // usage: unknown command.
        let e = run(&args(&["frobnicate"])).unwrap_err();
        assert_eq!((e.code, e.kind), (2, "usage"));
        // io: nonexistent input file.
        let e = run(&args(&["svd", "/nonexistent/m.csv"])).unwrap_err();
        assert_eq!((e.code, e.kind), (3, "io"));
        // bad-input: NaN entry in the matrix.
        let bad = dir.join("bad.csv").to_str().unwrap().to_string();
        std::fs::write(&bad, "1.0,2.0\nNaN,4.0\n").unwrap();
        let e = run(&args(&["svd", &bad])).unwrap_err();
        assert_eq!((e.code, e.kind), (4, "bad-input"));
        // timeout: an already-expired deadline aborts before sweep one.
        let e = run(&args(&["svd", &mp, "--timeout-ms", "0"])).unwrap_err();
        assert_eq!((e.code, e.kind), (8, "timeout"));
        assert!(e.message.contains("deadline"), "{}", e.message);
        // A generous timeout solves normally.
        run(&args(&["svd", &mp, "--timeout-ms", "60000"])).unwrap();
        run(&args(&["svd", &mp, "--values-only", "--timeout-ms", "60000"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn svd_trace_writes_valid_jsonl() {
        let dir = std::env::temp_dir().join("hjsvd_cli_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let mp = dir.join("m.csv").to_str().unwrap().to_string();
        run(&args(&["generate", "--rows", "14", "--cols", "6", &mp, "--seed", "5"])).unwrap();
        let tp = dir.join("trace.jsonl").to_str().unwrap().to_string();

        // Default level (sweep): starts and ends pair up, every line is a
        // one-object JSON record naming its event.
        run(&args(&["svd", &mp, "--trace", &tp])).unwrap();
        let text = std::fs::read_to_string(&tp).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "not JSONL: {line}");
            assert!(line.contains("\"event\":\""), "missing event key: {line}");
        }
        let starts = lines.iter().filter(|l| l.contains("\"event\":\"sweep_start\"")).count();
        let ends = lines.iter().filter(|l| l.contains("\"event\":\"sweep_end\"")).count();
        assert!(starts > 0 && starts == ends, "unbalanced sweeps: {starts} vs {ends}");
        assert!(!text.contains("rotation_applied"), "sweep level must not emit rotations");

        // Rotation level adds per-rotation events, and nothing else.
        // Values-only path.
        run(&args(&["svd", &mp, "--values-only", "--trace", &tp, "--trace-level", "rotation"]))
            .unwrap();
        let rot = std::fs::read_to_string(&tp).unwrap();
        assert!(rot.contains("\"event\":\"rotation_applied\""));
        assert!(!rot.contains("\"event\":\"sweep_plan"), "no plan events");

        // '-' streams to stdout without error.
        run(&args(&["svd", &mp, "--values-only", "--trace", "-"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_usage_errors_are_code_2() {
        let dir = std::env::temp_dir().join("hjsvd_cli_trace_usage");
        std::fs::create_dir_all(&dir).unwrap();
        let mp = dir.join("m.csv").to_str().unwrap().to_string();
        run(&args(&["generate", "--rows", "8", "--cols", "4", &mp, "--seed", "2"])).unwrap();
        // --trace-level without --trace.
        let e = run(&args(&["svd", &mp, "--trace-level", "rotation"])).unwrap_err();
        assert_eq!((e.code, e.kind), (2, "usage"));
        assert!(e.message.contains("--trace"), "{}", e.message);
        // Unknown levels, and `off`, which --trace contradicts.
        let tp = dir.join("t.jsonl").to_str().unwrap().to_string();
        for level in ["verbose", "group", "off"] {
            let e = run(&args(&["svd", &mp, "--trace", &tp, "--trace-level", level])).unwrap_err();
            assert_eq!((e.code, e.kind), (2, "usage"), "{level}");
            assert!(e.message.contains("choose sweep or rotation"), "{}", e.message);
        }
        // Unwritable trace path is an io error.
        let e = run(&args(&["svd", &mp, "--trace", "/nonexistent/dir/t.jsonl"])).unwrap_err();
        assert_eq!((e.code, e.kind), (3, "io"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_commands_validate_usage_and_connectivity() {
        // Missing --addr everywhere.
        let e = run(&args(&["serve"])).unwrap_err();
        assert_eq!((e.code, e.kind), (2, "usage"));
        let e = run(&args(&["shutdown"])).unwrap_err();
        assert_eq!((e.code, e.kind), (2, "usage"));
        let dir = std::env::temp_dir().join("hjsvd_cli_submit_usage");
        std::fs::create_dir_all(&dir).unwrap();
        let mp = dir.join("m.csv").to_str().unwrap().to_string();
        run(&args(&["generate", "--rows", "6", "--cols", "3", &mp, "--seed", "1"])).unwrap();
        let e = run(&args(&["submit", &mp])).unwrap_err();
        assert_eq!((e.code, e.kind), (2, "usage"));
        // Bad priority spelling.
        let e = run(&args(&["submit", &mp, "--addr", "127.0.0.1:1", "--priority", "urgent"]))
            .unwrap_err();
        assert_eq!((e.code, e.kind), (2, "usage"));
        assert!(e.message.contains("interactive or batch"), "{}", e.message);
        // A dead address is an io error, not a hang: bind an ephemeral port
        // and drop the listener so connecting to it is refused.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let e = run(&args(&["submit", &mp, "--addr", &dead])).unwrap_err();
        assert_eq!((e.code, e.kind), (3, "io"));
        let e = run(&args(&["shutdown", "--addr", &dead])).unwrap_err();
        assert_eq!((e.code, e.kind), (3, "io"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_error_mapping_covers_remote_codes() {
        let e = client_error(ClientError::Remote {
            code: CODE_REJECTED,
            kind: "queue-full".into(),
            message: "full".into(),
        });
        assert_eq!((e.code, e.kind), (10, "rejected"));
        assert!(e.message.contains("[queue-full]"));
        let e = client_error(ClientError::Remote {
            code: CODE_DEADLINE,
            kind: "deadline".into(),
            message: "late".into(),
        });
        assert_eq!((e.code, e.kind), (8, "timeout"));
        let e = client_error(ClientError::Remote {
            code: CODE_CANCELLED,
            kind: "cancelled".into(),
            message: "".into(),
        });
        assert_eq!((e.code, e.kind), (9, "cancelled"));
        let e =
            client_error(ClientError::Remote { code: 0, kind: "weird".into(), message: "".into() });
        assert_eq!(e.code, 7, "codes below 2 are remapped");
        let e = client_error(ClientError::Unexpected("x"));
        assert_eq!((e.code, e.kind), (3, "io"));
    }

    #[test]
    fn svd_batch_solves_directories_and_csv_lists() {
        let dir = std::env::temp_dir().join("hjsvd_cli_batch");
        std::fs::remove_dir_all(&dir).ok();
        let mats = dir.join("mats");
        std::fs::create_dir_all(&mats).unwrap();
        let mut paths = Vec::new();
        for k in 0..3 {
            let mp = mats.join(format!("m{k}.csv")).to_str().unwrap().to_string();
            let seed = (30 + k).to_string();
            run(&args(&["generate", "--rows", "16", "--cols", "8", &mp, "--seed", &seed])).unwrap();
            paths.push(mp);
        }
        // A stray non-CSV file in the directory is ignored.
        std::fs::write(mats.join("notes.txt"), "not a matrix\n").unwrap();

        // Directory input with per-problem stats as JSON Lines; a uniform
        // n=8 batch under default options rides the SoA engine.
        let sp = dir.join("stats.jsonl").to_str().unwrap().to_string();
        run(&args(&["svd", "--batch", mats.to_str().unwrap(), "--stats", &sp])).unwrap();
        let text = std::fs::read_to_string(&sp).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one stats record per problem: {text}");
        for line in &lines {
            assert!(line.starts_with('{'), "not JSONL: {line}");
            assert!(line.contains("\"engine\":\"batch-soa\""), "{line}");
        }

        // Comma-separated list input; a non-default ordering opts out of the
        // SoA dispatch and the stats name the engine that actually ran.
        run(&args(&["svd", "--batch", &paths.join(","), "--ordering", "row", "--stats", &sp]))
            .unwrap();
        let looped = std::fs::read_to_string(&sp).unwrap();
        assert_eq!(looped.lines().count(), 3);
        assert!(looped.contains("\"engine\":\"sequential\""), "{looped}");
        assert!(looped.contains("\"ordering\":\"row-cyclic\""), "{looped}");

        // A poisoned slot fails alone with the bad-input exit code while
        // every other slot still solves (and still reports stats).
        let bad = mats.join("a_bad.csv").to_str().unwrap().to_string();
        std::fs::write(&bad, "1.0,2.0\nNaN,4.0\n").unwrap();
        let e =
            run(&args(&["svd", "--batch", mats.to_str().unwrap(), "--stats", &sp])).unwrap_err();
        assert_eq!((e.code, e.kind), (4, "bad-input"));
        assert_eq!(std::fs::read_to_string(&sp).unwrap().lines().count(), 3);

        // Empty input specs are usage errors.
        let e = run(&args(&["svd", "--batch", ","])).unwrap_err();
        assert_eq!((e.code, e.kind), (2, "usage"));
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let e = run(&args(&["svd", "--batch", empty.to_str().unwrap()])).unwrap_err();
        assert_eq!((e.code, e.kind), (2, "usage"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_batch_validates_usage_and_connectivity() {
        let dir = std::env::temp_dir().join("hjsvd_cli_submit_batch_usage");
        std::fs::create_dir_all(&dir).unwrap();
        let mp = dir.join("m.csv").to_str().unwrap().to_string();
        run(&args(&["generate", "--rows", "6", "--cols", "3", &mp, "--seed", "1"])).unwrap();
        // Missing --addr.
        let e = run(&args(&["submit-batch", &mp])).unwrap_err();
        assert_eq!((e.code, e.kind), (2, "usage"));
        // Missing input spec.
        let e = run(&args(&["submit-batch", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert_eq!((e.code, e.kind), (2, "usage"));
        // A dead address is an io error, not a hang.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let e = run(&args(&["submit-batch", &mp, "--addr", &dead])).unwrap_err();
        assert_eq!((e.code, e.kind), (3, "io"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eigh_command_runs() {
        let dir = std::env::temp_dir().join("hjsvd_cli_eigh");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.csv");
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        io::save_csv(&s, &path).unwrap();
        run(&args(&["eigh", path.to_str().unwrap()])).unwrap();
        // A non-square input is bad input that says so, not a "zero
        // dimension".
        let wide = dir.join("wide.csv");
        io::save_csv(&Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]), &wide).unwrap();
        let e = run(&args(&["eigh", wide.to_str().unwrap()])).unwrap_err();
        assert_eq!((e.code, e.kind), (4, "bad-input"));
        assert!(e.message.contains("must be square, got 2x3"), "{}", e.message);
        std::fs::remove_dir_all(&dir).ok();
    }
}
