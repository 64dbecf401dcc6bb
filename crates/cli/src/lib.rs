//! Implementation of the `roboshape` command-line tool.
//!
//! ```text
//! roboshape info <robot.urdf>                      topology + metrics + patterns
//! roboshape generate <robot.urdf> [options]        emit Verilog + design report
//!     --pe-fwd N --pe-bwd N --block N              explicit knobs (default: hybrid heuristic)
//!     --out DIR                                    output directory (default: roboshape_out)
//!     --timings                                    append per-stage pipeline timings
//! roboshape sweep <robot.urdf> [--pareto] [--pruned] [--timings]   design-space CSV on stdout
//! roboshape verify <robot.urdf>                    simulate the generated design vs reference
//! roboshape serve <spec> [options]                 accelerator-as-a-service TCP front-end
//! roboshape router --shards NAME=ADDR,... [options]  consistent-hash requests across shards
//! roboshape loadgen <spec> --port P [options]      drive a running server, print a report
//! ```
//!
//! `serve` and `loadgen` take a *robot spec* instead of a single URDF:
//! `zoo` (all six paper robots), `zoo:NAME` (one of them, e.g.
//! `zoo:iiwa`), or a URDF path.
//!
//! Every command additionally accepts the observability flags
//! `--trace FILE` (write a Chrome `trace_event` JSON capture of the run —
//! load it in `chrome://tracing` or Perfetto; see EXPERIMENTS.md for how
//! to read one) and `--metrics FILE` (write a JSON snapshot of the global
//! [`roboshape::obs::metrics`] registry after the run).
//!
//! The argument parser is hand-rolled (the workspace's dependency policy —
//! see DESIGN.md §5); it supports `--flag value` and `--flag=value`.

#![warn(missing_docs)]

use roboshape::obs;
use roboshape::{
    pareto_frontier, simulate, AcceleratorKnobs, Constraints, Framework, ParallelismProfile,
    PipelineStage, SparsityPattern,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// A CLI failure: message plus suggested exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description.
    pub message: String,
}

impl CliError {
    fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "usage: roboshape <command> <robot.urdf> [options]
  info      print topology, metrics and pattern analysis
  generate  emit Verilog + design report (--pe-fwd N --pe-bwd N --block N --out DIR --timings)
  sweep     print the design-space CSV (--pareto for the frontier only, --pruned for the dominance-pruned frontier sweep, --timings for stage stats)
  verify    simulate the generated design against the reference library
  gantt     draw the generated schedule as an ASCII timeline (--width N)
  kernels   compare FK / inverse-dynamics / gradient accelerators
  energy    power and energy report (with and without PE gating)
  soc       co-design accelerators for several URDFs (extra paths after the first)
  serve     run the accelerator service on TCP (<spec> = zoo | zoo:NAME | robot.urdf)
            (--port P --port-file FILE --queue N --batch N --workers N --max-requests N
             --chaos SEED:RATE --deadline-ms N --backend scalar|lanes
             --shard NAME)
  router    route requests across shard servers by consistent hashing (no <spec>)
            (--shards NAME=ADDR,... --port P --port-file FILE --max-requests N)
  loadgen   drive a running server or router and print a latency/throughput report
            (--port P --clients N --requests N --rate HZ --kind grad|id|fk
             --workload step|rollout:N|mixed --deadline-us N
             --retries N --timeout-ms N --seed N --cluster)
  health    probe a running server's or router's readiness and circuit state (--port P)
  bench     benchmark-history tooling (an action instead of <robot.urdf>)
            compare  diff bench/current records against a baseline directory,
                     exit nonzero on any out-of-band regression
                     (--baseline DIR --current DIR --smoke)
            accept   copy bench/current records into bench/baselines
  bundle    validation bundles for third-party blind reproduction
            export   write a self-contained bundle (--out DIR --n N --seed S)
            verify   re-run the generators against a bundle directory
                     (positional DIR, default bench/baselines/example-bundle)
global options (any command):
  --trace FILE    write a Chrome trace_event JSON capture of the run
  --metrics FILE  write a JSON metrics snapshot after the run";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Path to the URDF file — or, for `serve`/`loadgen`, the robot
    /// spec (`zoo`, `zoo:NAME`, or a URDF path).
    pub urdf: PathBuf,
    /// Where to write the Chrome trace capture (`--trace`), if anywhere.
    pub trace: Option<PathBuf>,
    /// Where to write the metrics snapshot (`--metrics`), if anywhere.
    pub metrics: Option<PathBuf>,
}

/// The CLI subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `roboshape info`.
    Info,
    /// `roboshape generate`.
    Generate {
        /// Explicit knobs (`None` = framework heuristic).
        knobs: Option<AcceleratorKnobs>,
        /// Output directory.
        out: PathBuf,
        /// Append the per-stage pipeline timing report.
        timings: bool,
    },
    /// `roboshape sweep`.
    Sweep {
        /// Restrict output to the Pareto frontier.
        pareto_only: bool,
        /// Use the dominance-pruned sweep: same frontier, provably
        /// dominated grid rows never scheduled (implies `--pareto`).
        pruned: bool,
        /// Append the per-stage pipeline timing report.
        timings: bool,
    },
    /// `roboshape verify`.
    Verify,
    /// `roboshape gantt`.
    Gantt {
        /// Chart width in columns.
        width: usize,
    },
    /// `roboshape kernels`.
    Kernels,
    /// `roboshape energy`.
    Energy,
    /// `roboshape soc` (the first URDF is `Cli::urdf`; the rest ride
    /// along here).
    Soc {
        /// Additional robot description paths.
        extra: Vec<PathBuf>,
    },
    /// `roboshape serve`: run the accelerator-as-a-service TCP
    /// front-end over the spec'd robots.
    Serve {
        /// TCP port to bind on loopback (0 = ephemeral).
        port: u16,
        /// File to write the bound port number to (for scripts that
        /// bind port 0).
        port_file: Option<PathBuf>,
        /// Per-robot queue capacity.
        queue: usize,
        /// Maximum coalesced ∇FD batch.
        batch: usize,
        /// Worker threads per robot.
        workers: usize,
        /// Exit after this many requests have been answered or shed
        /// (`None` = run until killed).
        max_requests: Option<u64>,
        /// Deterministic fault injection (`--chaos SEED:RATE`).
        chaos: Option<roboshape_serve::FaultConfig>,
        /// Default deadline budget (ms) for requests that carry none.
        deadline_ms: Option<u64>,
        /// Execution backend for batched kernels (`--backend
        /// scalar|lanes`; lanes is the default).
        backend: roboshape::BackendKind,
        /// Shard name announced in hello handshakes (`--shard NAME`;
        /// `solo` when the server runs outside a cluster).
        shard: Option<String>,
    },
    /// `roboshape router`: consistent-hash client requests across shard
    /// servers, with admission control and shard-level failover.
    Router {
        /// TCP port to bind on loopback (0 = ephemeral).
        port: u16,
        /// File to write the bound port number to.
        port_file: Option<PathBuf>,
        /// The shard fleet (`--shards NAME=ADDR,...`; a bare port means
        /// loopback).
        shards: Vec<roboshape_serve::ShardSpec>,
        /// Exit after this many client requests have been answered or
        /// shed (`None` = run until killed).
        max_requests: Option<u64>,
    },
    /// `roboshape loadgen`: drive a running server.
    Loadgen {
        /// Server port on loopback.
        port: u16,
        /// Open-loop per-client rate in Hz (`None` = closed loop).
        rate_hz: Option<f64>,
        /// Concurrent client connections.
        clients: usize,
        /// Requests per client.
        requests: usize,
        /// Workload shape: single kernel steps (`--workload step`, the
        /// kernel from `--kind`), rollouts, or mixed chains.
        workload: roboshape_serve::loadgen::Workload,
        /// Relative deadline (µs) attached to every request.
        deadline_us: Option<u64>,
        /// Attempts per request including the first (1 = no retry).
        retries: u32,
        /// Per-response read-timeout budget in milliseconds.
        timeout_ms: Option<u64>,
        /// Seed for deterministic inputs and retry jitter (`--seed N`).
        seed: u64,
        /// Cluster mode: append a cluster accounting line (rerouted /
        /// lost across failovers) to the report.
        cluster: bool,
    },
    /// `roboshape health`: probe a running server's readiness endpoint
    /// and print per-robot circuit-breaker and worker state.
    Health {
        /// Server port on loopback.
        port: u16,
    },
    /// `roboshape bench compare`: diff the current bench records
    /// against a baseline directory with noise-aware direction-aware
    /// bands; exits nonzero on any regression past its band.
    BenchCompare {
        /// Directory of baseline records.
        baseline: PathBuf,
        /// Directory of current records (written by `cargo bench`).
        current: PathBuf,
        /// Force the widened smoke-mode bands even when neither record
        /// is marked smoke.
        smoke: bool,
    },
    /// `roboshape bench accept`: copy the current bench records into
    /// the baseline history directory.
    BenchAccept {
        /// Directory of baseline records.
        baseline: PathBuf,
        /// Directory of current records.
        current: PathBuf,
    },
    /// `roboshape bundle export`: write a self-contained validation
    /// bundle (manifest + expected report snapshots + serving-probe
    /// context) for third-party blind reproduction.
    BundleExport {
        /// Output directory.
        out: PathBuf,
        /// Pinned `ext_zoo` population size.
        zoo_n: usize,
        /// Pinned `ext_zoo` master seed.
        zoo_seed: u64,
    },
    /// `roboshape bundle verify`: re-run the generators and the probe
    /// against a bundle and score the result; exits nonzero unless
    /// every snapshot matches byte-exactly and every invariant holds.
    BundleVerify {
        /// The bundle directory.
        dir: PathBuf,
    },
}

impl Command {
    /// The subcommand's name (the root tracing span of a `--trace` run).
    pub fn name(&self) -> &'static str {
        match self {
            Command::Info => "info",
            Command::Generate { .. } => "generate",
            Command::Sweep { .. } => "sweep",
            Command::Verify => "verify",
            Command::Gantt { .. } => "gantt",
            Command::Kernels => "kernels",
            Command::Energy => "energy",
            Command::Soc { .. } => "soc",
            Command::Serve { .. } => "serve",
            Command::Router { .. } => "router",
            Command::Loadgen { .. } => "loadgen",
            Command::Health { .. } => "health",
            Command::BenchCompare { .. } => "bench_compare",
            Command::BenchAccept { .. } => "bench_accept",
            Command::BundleExport { .. } => "bundle_export",
            Command::BundleVerify { .. } => "bundle_verify",
        }
    }
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] with a usage hint for unknown commands, missing
/// paths, or malformed options.
pub fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    // Peel off the global observability flags first: they are valid on
    // every command, and `soc` treats any non-`--` argument as an extra
    // URDF path, so `--trace t.json` must not leak into per-command
    // parsing.
    let mut trace = None;
    let mut metrics = None;
    let mut filtered: Vec<String> = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        let mut take = |slot: &mut Option<PathBuf>, name: &str| -> Result<bool, CliError> {
            if let Some(v) = a.strip_prefix(&format!("{name}=")) {
                *slot = Some(PathBuf::from(v));
                return Ok(true);
            }
            if a == name {
                i += 1;
                *slot = Some(PathBuf::from(args.get(i).ok_or_else(|| {
                    CliError::new(format!("option {name} needs a file path"))
                })?));
                return Ok(true);
            }
            Ok(false)
        };
        if !take(&mut trace, "--trace")? && !take(&mut metrics, "--metrics")? {
            filtered.push(args[i].clone());
        }
        i += 1;
    }

    let mut it = filtered.iter();
    let cmd = it.next().ok_or_else(|| CliError::new(USAGE))?;
    // `health` and `router` address servers, not robot descriptions —
    // no spec argument.
    let no_spec = String::from("-");
    let urdf = if matches!(cmd.as_str(), "health" | "router") {
        &no_spec
    } else if matches!(cmd.as_str(), "bench" | "bundle") {
        // These take an action token in the spec slot, not a robot.
        it.next().ok_or_else(|| {
            CliError::new(match cmd.as_str() {
                "bench" => "bench needs an action: compare | accept",
                _ => "bundle needs an action: export | verify",
            })
        })?
    } else {
        it.next()
            .ok_or_else(|| CliError::new("missing <robot.urdf> argument"))?
    };
    let rest: Vec<&String> = it.collect();
    let get_opt = |name: &str| -> Result<Option<String>, CliError> {
        let mut i = 0;
        while i < rest.len() {
            let a = rest[i].as_str();
            if let Some(v) = a.strip_prefix(&format!("{name}=")) {
                return Ok(Some(v.to_string()));
            }
            if a == name {
                return rest
                    .get(i + 1)
                    .map(|v| Some(v.to_string()))
                    .ok_or_else(|| CliError::new(format!("option {name} needs a value")));
            }
            i += 1;
        }
        Ok(None)
    };
    let get_usize = |name: &str| -> Result<Option<usize>, CliError> {
        match get_opt(name)? {
            None => Ok(None),
            Some(v) => v
                .parse::<usize>()
                .map(Some)
                .map_err(|_| CliError::new(format!("option {name} needs an integer, got `{v}`"))),
        }
    };

    let command = match cmd.as_str() {
        "info" => Command::Info,
        "verify" => Command::Verify,
        "gantt" => Command::Gantt {
            width: get_usize("--width")?.unwrap_or(80).max(1),
        },
        "kernels" => Command::Kernels,
        "energy" => Command::Energy,
        "soc" => Command::Soc {
            extra: rest
                .iter()
                .filter(|a| !a.starts_with("--"))
                .map(PathBuf::from)
                .collect(),
        },
        "sweep" => Command::Sweep {
            pareto_only: rest.iter().any(|a| a.as_str() == "--pareto"),
            pruned: rest.iter().any(|a| a.as_str() == "--pruned"),
            timings: rest.iter().any(|a| a.as_str() == "--timings"),
        },
        "generate" => {
            let pe_fwd = get_usize("--pe-fwd")?;
            let pe_bwd = get_usize("--pe-bwd")?;
            let block = get_usize("--block")?;
            let knobs = match (pe_fwd, pe_bwd, block) {
                (None, None, None) => None,
                (f, b, blk) => {
                    // Partial knobs: fall back to 1 so the user sees the
                    // effect of what they set; the heuristic path is the
                    // no-flags case.
                    Some(AcceleratorKnobs::new(
                        f.unwrap_or(1).max(1),
                        b.unwrap_or(1).max(1),
                        blk.unwrap_or(1).max(1),
                    ))
                }
            };
            let out = get_opt("--out")?
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("roboshape_out"));
            let timings = rest.iter().any(|a| a.as_str() == "--timings");
            Command::Generate {
                knobs,
                out,
                timings,
            }
        }
        "serve" => {
            let port = get_usize("--port")?.unwrap_or(0);
            if port > u16::MAX as usize {
                return Err(CliError::new(format!(
                    "--port {port} is not a valid TCP port"
                )));
            }
            let chaos =
                match get_opt("--chaos")? {
                    None => None,
                    Some(v) => Some(roboshape_serve::FaultConfig::parse(&v).map_err(|e| {
                        CliError::new(format!("option --chaos needs SEED:RATE: {e}"))
                    })?),
                };
            let backend = match get_opt("--backend")?.as_deref() {
                None | Some("lanes") => roboshape::BackendKind::Lanes,
                Some("scalar") => roboshape::BackendKind::Scalar,
                Some(other) => {
                    return Err(CliError::new(format!(
                        "option --backend must be scalar or lanes, got `{other}`"
                    )))
                }
            };
            Command::Serve {
                port: port as u16,
                port_file: get_opt("--port-file")?.map(PathBuf::from),
                queue: get_usize("--queue")?.unwrap_or(64).max(1),
                batch: get_usize("--batch")?.unwrap_or(8).max(1),
                workers: get_usize("--workers")?.unwrap_or(2).max(1),
                max_requests: get_usize("--max-requests")?.map(|v| v as u64),
                chaos,
                deadline_ms: get_usize("--deadline-ms")?.map(|v| v as u64),
                backend,
                shard: get_opt("--shard")?,
            }
        }
        "router" => {
            let port = get_usize("--port")?.unwrap_or(0);
            if port > u16::MAX as usize {
                return Err(CliError::new(format!(
                    "--port {port} is not a valid TCP port"
                )));
            }
            let spec = get_opt("--shards")?
                .ok_or_else(|| CliError::new("router needs --shards NAME=ADDR,..."))?;
            let mut shards = Vec::new();
            for part in spec.split(',').filter(|p| !p.is_empty()) {
                let (name, addr_text) = part.split_once('=').ok_or_else(|| {
                    CliError::new(format!("--shards entry `{part}` is not NAME=ADDR"))
                })?;
                let addr = if let Ok(p) = addr_text.parse::<u16>() {
                    std::net::SocketAddr::from(([127, 0, 0, 1], p))
                } else {
                    addr_text.parse().map_err(|_| {
                        CliError::new(format!(
                            "--shards entry `{part}` has an invalid address `{addr_text}`"
                        ))
                    })?
                };
                shards.push(roboshape_serve::ShardSpec {
                    name: name.to_string(),
                    addr,
                });
            }
            if shards.is_empty() {
                return Err(CliError::new("router needs at least one shard"));
            }
            Command::Router {
                port: port as u16,
                port_file: get_opt("--port-file")?.map(PathBuf::from),
                shards,
                max_requests: get_usize("--max-requests")?.map(|v| v as u64),
            }
        }
        "health" => {
            let port = get_usize("--port")?
                .ok_or_else(|| CliError::new("health needs --port of a running server"))?;
            if port == 0 || port > u16::MAX as usize {
                return Err(CliError::new(format!(
                    "--port {port} is not a valid TCP port"
                )));
            }
            Command::Health { port: port as u16 }
        }
        "loadgen" => {
            let port = get_usize("--port")?
                .ok_or_else(|| CliError::new("loadgen needs --port of a running server"))?;
            if port == 0 || port > u16::MAX as usize {
                return Err(CliError::new(format!(
                    "--port {port} is not a valid TCP port"
                )));
            }
            let rate_hz = match get_opt("--rate")? {
                None => None,
                Some(v) => Some(v.parse::<f64>().map_err(|_| {
                    CliError::new(format!("option --rate needs a number, got `{v}`"))
                })?),
            };
            let kind = match get_opt("--kind")?.as_deref() {
                None | Some("grad") => roboshape::KernelKind::DynamicsGradient,
                Some("id") => roboshape::KernelKind::InverseDynamics,
                Some("fk") => roboshape::KernelKind::ForwardKinematics,
                Some(other) => {
                    return Err(CliError::new(format!(
                        "option --kind must be grad, id or fk, got `{other}`"
                    )))
                }
            };
            let workload = match get_opt("--workload")?.as_deref() {
                None | Some("step") => roboshape_serve::loadgen::Workload::Step(kind),
                Some("mixed") => roboshape_serve::loadgen::Workload::Mixed,
                Some(spec) => match spec.strip_prefix("rollout:") {
                    Some(steps) => match steps.parse::<u32>() {
                        Ok(steps) if steps >= 1 => {
                            roboshape_serve::loadgen::Workload::Rollout(steps)
                        }
                        _ => {
                            return Err(CliError::new(format!(
                                "option --workload rollout:N needs N >= 1, got `{steps}`"
                            )))
                        }
                    },
                    None => {
                        return Err(CliError::new(format!(
                            "option --workload must be step, rollout:N or mixed, got `{spec}`"
                        )))
                    }
                },
            };
            Command::Loadgen {
                port: port as u16,
                rate_hz,
                clients: get_usize("--clients")?.unwrap_or(4).max(1),
                requests: get_usize("--requests")?.unwrap_or(16).max(1),
                workload,
                deadline_us: get_usize("--deadline-us")?.map(|v| v as u64),
                retries: get_usize("--retries")?.unwrap_or(3).max(1) as u32,
                timeout_ms: get_usize("--timeout-ms")?.map(|v| v as u64),
                seed: get_usize("--seed")?.map_or(1, |v| v as u64),
                cluster: rest.iter().any(|a| a.as_str() == "--cluster"),
            }
        }
        "bench" => {
            let baseline = get_opt("--baseline")?
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("bench/baselines"));
            let current = get_opt("--current")?
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("bench/current"));
            match urdf.as_str() {
                "compare" => Command::BenchCompare {
                    baseline,
                    current,
                    smoke: rest.iter().any(|a| a.as_str() == "--smoke"),
                },
                "accept" => Command::BenchAccept { baseline, current },
                other => {
                    return Err(CliError::new(format!(
                        "unknown bench action `{other}` (known: compare, accept)"
                    )))
                }
            }
        }
        "bundle" => match urdf.as_str() {
            "export" => {
                let zoo_n = get_usize("--n")?.unwrap_or(48).max(1);
                let zoo_seed = get_usize("--seed")?.map_or(42, |v| v as u64);
                Command::BundleExport {
                    out: get_opt("--out")?
                        .map(PathBuf::from)
                        .unwrap_or_else(|| PathBuf::from("roboshape_bundle")),
                    zoo_n,
                    zoo_seed,
                }
            }
            "verify" => Command::BundleVerify {
                dir: rest
                    .iter()
                    .find(|a| !a.starts_with("--"))
                    .map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from("bench/baselines/example-bundle")),
            },
            other => {
                return Err(CliError::new(format!(
                    "unknown bundle action `{other}` (known: export, verify)"
                )))
            }
        },
        other => return Err(CliError::new(format!("unknown command `{other}`\n{USAGE}"))),
    };
    Ok(Cli {
        command,
        urdf: PathBuf::from(urdf),
        trace,
        metrics,
    })
}

/// Appends the `--timings` block: the per-stage pipeline report plus the
/// artifact-store contents.
fn append_timings(out: &mut String, fw: &Framework) {
    let _ = writeln!(out, "\n== pipeline timings ==");
    let _ = writeln!(out, "{}", fw.pipeline().observer().report());
    let _ = writeln!(out, "{}", fw.pipeline().store().stats());
}

/// Executes a parsed CLI invocation; returns the text to print.
///
/// When `--trace` was given, the whole run is captured under a root
/// `cat = "cli"` span through a [`roboshape::obs::ChromeTraceSink`] and
/// written as Chrome `trace_event` JSON; `--metrics` writes the global
/// registry snapshot after the run. Both files are written even when the
/// command itself fails, so a failing run can still be inspected.
///
/// # Errors
///
/// Returns a [`CliError`] for unreadable files, invalid URDF, or output
/// I/O failures.
pub fn run(cli: &Cli) -> Result<String, CliError> {
    let sink = cli
        .trace
        .as_ref()
        .map(|_| Arc::new(obs::ChromeTraceSink::new()));
    if let Some(s) = &sink {
        obs::set_sink(s.clone());
    }
    let result = {
        // Dropped before serialization so the root span reaches the sink.
        let _root = obs::span("cli", cli.command.name());
        run_command(cli)
    };
    if let Some(s) = sink {
        obs::clear_sink();
        let path = cli.trace.as_ref().expect("trace sink implies trace path");
        std::fs::write(path, s.to_chrome_json())
            .map_err(|e| CliError::new(format!("cannot write trace {}: {e}", path.display())))?;
    }
    if let Some(path) = &cli.metrics {
        std::fs::write(path, obs::metrics().snapshot().to_json())
            .map_err(|e| CliError::new(format!("cannot write metrics {}: {e}", path.display())))?;
    }
    result
}

/// Resolves a `serve`/`loadgen` robot spec — `zoo`, `zoo:NAME`, or a
/// URDF path — to named robot models.
fn resolve_robots(
    spec: &std::path::Path,
) -> Result<Vec<(String, roboshape::RobotModel)>, CliError> {
    use roboshape_robots::{zoo, Zoo};
    let text = spec.to_string_lossy();
    if text == "zoo" {
        return Ok(Zoo::ALL
            .into_iter()
            .map(|which| (which.name().to_string(), zoo(which)))
            .collect());
    }
    if let Some(name) = text.strip_prefix("zoo:") {
        let which = Zoo::ALL
            .into_iter()
            .find(|w| w.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let known: Vec<&str> = Zoo::ALL.iter().map(|w| w.name()).collect();
                CliError::new(format!(
                    "unknown zoo robot `{name}` (known: {})",
                    known.join(", ")
                ))
            })?;
        return Ok(vec![(which.name().to_string(), zoo(which))]);
    }
    let urdf = std::fs::read_to_string(spec)
        .map_err(|e| CliError::new(format!("cannot read {}: {e}", spec.display())))?;
    let fw =
        Framework::from_urdf(&urdf).map_err(|e| CliError::new(format!("invalid URDF: {e}")))?;
    let robot = fw.robot().clone();
    Ok(vec![(robot.name().to_string(), robot)])
}

/// `roboshape serve`: bind, announce, serve until `--max-requests`
/// responses (or forever), then drain gracefully and summarise.
#[allow(clippy::too_many_arguments)] // mirrors the flag list one-to-one
fn run_serve(
    cli: &Cli,
    port: u16,
    port_file: Option<&PathBuf>,
    queue: usize,
    batch: usize,
    workers: usize,
    max_requests: Option<u64>,
    chaos: Option<roboshape_serve::FaultConfig>,
    deadline_ms: Option<u64>,
    backend: roboshape::BackendKind,
    shard: Option<&String>,
) -> Result<String, CliError> {
    use roboshape_serve::{Engine, EngineConfig, Shard};
    let robots = resolve_robots(&cli.urdf)?;
    let engine = Engine::new(EngineConfig {
        queue_capacity: queue,
        max_batch: batch,
        workers_per_robot: workers,
        start_paused: false,
        default_deadline: deadline_ms.map(std::time::Duration::from_millis),
        chaos,
        backend,
        ..EngineConfig::default()
    });
    let mut out = String::new();
    for (name, model) in robots {
        let _ = writeln!(
            out,
            "registered {:<12} {:>2} links",
            name,
            model.num_links()
        );
        engine.register(name, model);
    }
    let shard_note = shard.map(|s| format!(" shard={s}")).unwrap_or_default();
    // Outside a cluster a server is a shard named `solo`.
    let name = shard.cloned().unwrap_or_else(|| "solo".to_string());
    let server = Shard::start(name, engine.clone(), ("127.0.0.1", port))
        .map_err(|e| CliError::new(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
    let bound = server.port();
    if let Some(path) = port_file {
        std::fs::write(path, format!("{bound}\n"))
            .map_err(|e| CliError::new(format!("cannot write {}: {e}", path.display())))?;
    }
    // Announce on stdout immediately — scripts wait for the port line
    // (the returned string prints only after the run finishes).
    let chaos_note = chaos
        .map(|c| format!(" chaos={}:{}", c.seed, c.crash))
        .unwrap_or_default();
    println!(
        "serving on 127.0.0.1:{bound} (queue={queue} batch={batch} workers={workers}{chaos_note}{shard_note})"
    );
    match max_requests {
        Some(target) => {
            loop {
                let stats = engine.stats();
                if stats.responses() + stats.shed >= target {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            server.shutdown();
            let stats = engine.stats();
            let _ = writeln!(
                out,
                "served {} requests: ok={} shed={} deadline_exceeded={} bad={} crashed={} degraded={} batches={} largest_batch={}",
                stats.responses() + stats.shed,
                stats.completed,
                stats.shed,
                stats.deadline_exceeded,
                stats.bad_requests,
                stats.crashed,
                stats.degraded,
                stats.batches,
                stats.largest_batch,
            );
            let _ = writeln!(
                out,
                "resilience: worker_restarts={} circuit_trips={} injected: stalls={} crashes={} pressure={}",
                stats.worker_restarts,
                stats.circuit_trips,
                stats.injected_stalls,
                stats.injected_crashes,
                stats.injected_pressure,
            );
            Ok(out)
        }
        None => {
            // Serve until the process is killed.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
}

/// `roboshape router`: start the cluster front-end over an existing
/// shard fleet, announce the bound port, and (with `--max-requests`)
/// exit after that many client requests have settled.
fn run_router(
    port: u16,
    port_file: Option<&PathBuf>,
    shards: &[roboshape_serve::ShardSpec],
    max_requests: Option<u64>,
) -> Result<String, CliError> {
    use roboshape_serve::{Router, RouterConfig};
    let names: Vec<String> = shards.iter().map(|s| s.name.clone()).collect();
    let router = Router::start(RouterConfig::new(shards.to_vec()), ("127.0.0.1", port))
        .map_err(|e| CliError::new(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
    let bound = router.port();
    if let Some(path) = port_file {
        std::fs::write(path, format!("{bound}\n"))
            .map_err(|e| CliError::new(format!("cannot write {}: {e}", path.display())))?;
    }
    // Announce on stdout immediately — scripts wait for the port line.
    println!(
        "routing on 127.0.0.1:{bound} across {} shards ({})",
        shards.len(),
        names.join(", ")
    );
    match max_requests {
        Some(target) => {
            let stats = router.stats();
            while stats.settled() < target {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            router.shutdown();
            use std::sync::atomic::Ordering::Relaxed;
            Ok(format!(
                "routed {} requests: responses={} shed={} rerouted={} failovers={}\n",
                stats.settled(),
                stats.responses.load(Relaxed),
                stats.shed.load(Relaxed),
                stats.rerouted.load(Relaxed),
                stats.failovers.load(Relaxed),
            ))
        }
        None => {
            // Route until the process is killed.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
}

/// `roboshape loadgen`: resolve the spec to robot names/sizes, run the
/// configured load, report.
#[allow(clippy::too_many_arguments)] // mirrors the flag list one-to-one
fn run_loadgen_command(
    cli: &Cli,
    port: u16,
    rate_hz: Option<f64>,
    clients: usize,
    requests: usize,
    workload: roboshape_serve::loadgen::Workload,
    deadline_us: Option<u64>,
    retries: u32,
    timeout_ms: Option<u64>,
    seed: u64,
    cluster: bool,
) -> Result<String, CliError> {
    use roboshape_serve::loadgen::{
        run_loadgen, LoadMode, LoadgenConfig, RetryPolicy, TargetRobot,
    };
    let robots = resolve_robots(&cli.urdf)?
        .into_iter()
        .map(|(name, model)| TargetRobot {
            name,
            links: model.num_links(),
        })
        .collect();
    let cfg = LoadgenConfig {
        mode: match rate_hz {
            Some(rate_hz) => LoadMode::Open { rate_hz },
            None => LoadMode::Closed,
        },
        clients,
        requests_per_client: requests,
        robots,
        workload,
        deadline: deadline_us.map(std::time::Duration::from_micros),
        seed,
        retry: RetryPolicy {
            max_attempts: retries.max(1),
            ..RetryPolicy::default()
        },
        timeout: timeout_ms.map(std::time::Duration::from_millis),
    };
    let report = run_loadgen(("127.0.0.1", port), &cfg)
        .map_err(|e| CliError::new(format!("loadgen against 127.0.0.1:{port} failed: {e}")))?;
    if cluster {
        // The cluster accounting line CI greps: every request settled
        // (lost=0) even when failover rerouted some of them.
        return Ok(format!(
            "{report}\ncluster: rerouted={} lost={}\n",
            report.rerouted,
            report.lost()
        ));
    }
    Ok(format!("{report}\n"))
}

/// `roboshape health`: one readiness probe against a running server.
/// Exit is clean when the server answers and reports ready; a degraded
/// (non-ready) report is still printed but returned as an error so
/// scripts can gate on the exit code.
fn run_health(port: u16) -> Result<String, CliError> {
    use roboshape_serve::Client;
    let mut client = Client::connect(("127.0.0.1", port))
        .map_err(|e| CliError::new(format!("cannot connect to 127.0.0.1:{port}: {e}")))?;
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .map_err(|e| CliError::new(format!("cannot configure socket: {e}")))?;
    let report = client
        .health()
        .map_err(|e| CliError::new(format!("health probe failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(out, "ready={} robots={}", report.ready, report.robots.len());
    for robot in &report.robots {
        let _ = writeln!(
            out,
            "  {:<12} circuit={:<9} workers_alive={}",
            robot.name,
            robot.circuit.to_string(),
            robot.workers_alive
        );
    }
    if report.ready {
        Ok(out)
    } else {
        Err(CliError::new(format!("{out}not ready")))
    }
}

/// The benches whose records the compare gate covers, in the order the
/// report prints them.
const GATED_BENCHES: [&str; 4] = [
    "sim_throughput",
    "serve_throughput",
    "zoo_population",
    "dse_sweep",
];

/// `roboshape bench compare`: load every `<bench>.json` pair from the
/// current and baseline directories, diff them with noise-aware bands,
/// and fail (nonzero exit) when any gated metric regresses past its
/// band or a gated metric disappeared. Benches with no record on
/// either side are reported and skipped — but comparing *nothing* is
/// an error, not a pass.
fn run_bench_compare(
    baseline_dir: &std::path::Path,
    current_dir: &std::path::Path,
    smoke: bool,
) -> Result<String, CliError> {
    use roboshape_benchrec::{compare::compare, BenchRecord, CompareConfig};
    let cfg = CompareConfig {
        force_smoke: smoke,
        ..CompareConfig::default()
    };
    let mut out = String::new();
    let mut compared = 0usize;
    let mut failed = 0usize;
    for bench in GATED_BENCHES {
        let cur_path = current_dir.join(format!("{bench}.json"));
        let base_path = baseline_dir.join(format!("{bench}.json"));
        if !cur_path.exists() {
            let _ = writeln!(
                out,
                "== {bench}: no current record at {} (run `cargo bench`) — skipped\n",
                cur_path.display()
            );
            continue;
        }
        if !base_path.exists() {
            let _ = writeln!(
                out,
                "== {bench}: no baseline at {} (accept one with `roboshape bench accept`) — skipped\n",
                base_path.display()
            );
            continue;
        }
        // A malformed record on either side is a hard error, not a
        // skip: a gate that shrugs at corrupt baselines gates nothing.
        let baseline = BenchRecord::load(&base_path)
            .map_err(|e| CliError::new(format!("{}: {e}", base_path.display())))?;
        let current = BenchRecord::load(&cur_path)
            .map_err(|e| CliError::new(format!("{}: {e}", cur_path.display())))?;
        let report = compare(&baseline, &current, &cfg);
        let _ = writeln!(
            out,
            "baseline {} → current {}",
            baseline.commit, current.commit
        );
        let _ = writeln!(out, "{}", report.render());
        compared += 1;
        if report.failed() {
            failed += 1;
        }
    }
    if compared == 0 {
        return Err(CliError::new(format!(
            "{out}bench compare: nothing to compare"
        )));
    }
    if failed > 0 {
        return Err(CliError::new(format!(
            "{out}bench compare: FAIL ({failed} of {compared} benches regressed)"
        )));
    }
    let _ = writeln!(out, "bench compare: PASS ({compared} benches within bands)");
    Ok(out)
}

/// `roboshape bench accept`: promote the current records to baselines.
fn run_bench_accept(
    baseline_dir: &std::path::Path,
    current_dir: &std::path::Path,
) -> Result<String, CliError> {
    use roboshape_benchrec::BenchRecord;
    let mut out = String::new();
    let mut accepted = 0usize;
    for bench in GATED_BENCHES {
        let cur_path = current_dir.join(format!("{bench}.json"));
        if !cur_path.exists() {
            let _ = writeln!(out, "{bench}: no current record — skipped");
            continue;
        }
        // Round-trip through the parser so a truncated file can never
        // be promoted to a baseline.
        let record = BenchRecord::load(&cur_path)
            .map_err(|e| CliError::new(format!("{}: {e}", cur_path.display())))?;
        let dest = baseline_dir.join(format!("{bench}.json"));
        record
            .save(&dest)
            .map_err(|e| CliError::new(e.to_string()))?;
        let _ = writeln!(
            out,
            "{bench}: accepted {} ({} metrics) → {}",
            record.commit,
            record.metrics.len(),
            dest.display()
        );
        accepted += 1;
    }
    if accepted == 0 {
        return Err(CliError::new(format!(
            "{out}bench accept: no current records (run `cargo bench` first)"
        )));
    }
    Ok(out)
}

/// The deterministic experiment reports a validation bundle snapshots,
/// and the pinned load the serving probe drives. `ext_zoo` is rendered
/// through [`roboshape_experiments::ext_zoo_with`] at the manifest's
/// pinned `(zoo_n, zoo_seed)`; everything else comes from
/// [`roboshape_experiments::report_generators`]. Two reports are
/// excluded on principle: `ext_serve` prints wall-clock timings, and
/// `ext_chaos` counters depend on how injected worker stalls race the
/// queue (the fault *schedule* is seeded, the interleaving is not).
/// Both are covered by the probe invariants instead.
const BUNDLE_SNAPSHOTS: [&str; 10] = [
    "table1",
    "table2",
    "table3",
    "fig9",
    "fig10",
    "fig12",
    "fig16",
    "ext_kernels",
    "ext_zoo",
    "verify",
];

/// Clients driven by the validation probe.
const PROBE_CLIENTS: usize = 4;
/// Requests per probe client.
const PROBE_REQUESTS: usize = 16;

/// Renders one bundle snapshot by name at the pinned seeds.
fn render_bundle_report(name: &str, zoo_n: usize, zoo_seed: u64) -> Option<String> {
    if name == "ext_zoo" {
        return Some(roboshape_experiments::ext_zoo_with(zoo_n, zoo_seed));
    }
    roboshape_experiments::report_generators()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, generate)| generate())
}

/// One closed-loop ∇FD pass over the full zoo against an in-process
/// loopback server: the bundle's live serving probe. Latencies and the
/// failure histogram go into the manifest as machine-dependent context;
/// `lost == 0` / `errors == 0` are the invariants `bundle verify`
/// re-checks.
fn validation_probe(seed: u64) -> Result<roboshape_serve::loadgen::LoadgenReport, CliError> {
    use roboshape_robots::{zoo, Zoo};
    use roboshape_serve::loadgen::{
        run_loadgen, LoadMode, LoadgenConfig, RetryPolicy, TargetRobot, Workload,
    };
    use roboshape_serve::{Engine, EngineConfig, Server};
    let engine = Engine::new(EngineConfig::default());
    let robots: Vec<TargetRobot> = Zoo::ALL
        .into_iter()
        .map(|which| {
            let model = zoo(which);
            let links = model.num_links();
            engine.register(which.name(), model);
            TargetRobot {
                name: which.name().to_string(),
                links,
            }
        })
        .collect();
    let server = Server::start(engine, ("127.0.0.1", 0))
        .map_err(|e| CliError::new(format!("probe cannot bind loopback: {e}")))?;
    let cfg = LoadgenConfig {
        mode: LoadMode::Closed,
        clients: PROBE_CLIENTS,
        requests_per_client: PROBE_REQUESTS,
        robots,
        workload: Workload::Step(roboshape::KernelKind::DynamicsGradient),
        deadline: None,
        seed,
        retry: RetryPolicy::none(),
        timeout: None,
    };
    // One warm-up pass binds the worker arenas, then the measured pass.
    run_loadgen(("127.0.0.1", server.port()), &cfg)
        .map_err(|e| CliError::new(format!("probe warm-up failed: {e}")))?;
    let report = run_loadgen(("127.0.0.1", server.port()), &cfg)
        .map_err(|e| CliError::new(format!("probe run failed: {e}")))?;
    server.shutdown();
    Ok(report)
}

/// `roboshape bundle export`.
fn run_bundle_export(
    out_dir: &std::path::Path,
    zoo_n: usize,
    zoo_seed: u64,
) -> Result<String, CliError> {
    use roboshape_benchrec::{fnv1a64, record, Manifest, SnapshotEntry};
    let expected = out_dir.join("expected");
    std::fs::create_dir_all(&expected)
        .map_err(|e| CliError::new(format!("cannot create {}: {e}", expected.display())))?;
    let mut out = String::new();
    let mut snapshots = Vec::new();
    for name in BUNDLE_SNAPSHOTS {
        let body = render_bundle_report(name, zoo_n, zoo_seed)
            .ok_or_else(|| CliError::new(format!("unknown bundle report `{name}`")))?;
        let file = format!("expected/{name}.txt");
        std::fs::write(out_dir.join(&file), &body)
            .map_err(|e| CliError::new(format!("cannot write {file}: {e}")))?;
        let entry = SnapshotEntry {
            name: name.to_string(),
            file,
            bytes: body.len() as u64,
            fnv64: fnv1a64(body.as_bytes()),
        };
        let _ = writeln!(
            out,
            "snapshot {:<14} {:>7} bytes  fnv64 {:016x}",
            entry.name, entry.bytes, entry.fnv64
        );
        snapshots.push(entry);
    }
    let probe_seed = 5u64;
    let probe = validation_probe(probe_seed)?;
    let mut context = std::collections::BTreeMap::new();
    context.insert("latency.p50_us".to_string(), probe.p50_us as f64);
    context.insert("latency.p90_us".to_string(), probe.p90_us as f64);
    context.insert("latency.p99_us".to_string(), probe.p99_us as f64);
    context.insert("throughput_rps".to_string(), probe.throughput_rps);
    context.insert("histogram.ok".to_string(), probe.ok as f64);
    context.insert("histogram.shed".to_string(), probe.shed as f64);
    context.insert(
        "histogram.deadline_exceeded".to_string(),
        probe.deadline_exceeded as f64,
    );
    context.insert("histogram.errors".to_string(), probe.errors as f64);
    context.insert("histogram.lost".to_string(), probe.lost() as f64);
    let manifest = Manifest {
        commit: record::current_commit(),
        machine: record::MachineInfo::detect(false),
        seeds: [
            ("zoo_n".to_string(), zoo_n as u64),
            ("zoo_seed".to_string(), zoo_seed),
            ("probe_seed".to_string(), probe_seed),
        ]
        .into_iter()
        .collect(),
        snapshots,
        context,
    };
    std::fs::write(out_dir.join("manifest.json"), manifest.to_json())
        .map_err(|e| CliError::new(format!("cannot write manifest: {e}")))?;
    let _ = writeln!(
        out,
        "probe: {} ok / {} sent, p50 {}us p90 {}us p99 {}us",
        probe.ok, probe.sent, probe.p50_us, probe.p90_us, probe.p99_us
    );
    let _ = writeln!(
        out,
        "wrote bundle ({} snapshots, commit {}) to {}",
        manifest.snapshots.len(),
        manifest.commit,
        out_dir.display()
    );
    Ok(out)
}

/// `roboshape bundle verify`.
fn run_bundle_verify(dir: &std::path::Path) -> Result<String, CliError> {
    use roboshape_benchrec::{record, Manifest, SnapshotStatus, VerifyOutcome};
    let manifest = Manifest::load(dir).map_err(|e| CliError::new(e.to_string()))?;
    let zoo_n = *manifest.seeds.get("zoo_n").unwrap_or(&48) as usize;
    let zoo_seed = *manifest.seeds.get("zoo_seed").unwrap_or(&42);
    let probe_seed = *manifest.seeds.get("probe_seed").unwrap_or(&5);
    let mut outcome = VerifyOutcome::new();
    for entry in &manifest.snapshots {
        match render_bundle_report(&entry.name, zoo_n, zoo_seed) {
            Some(regenerated) => outcome.check_snapshot(dir, entry, &regenerated),
            None => outcome.snapshots.push((
                entry.name.clone(),
                SnapshotStatus::Corrupt(format!(
                    "this build has no generator named `{}`",
                    entry.name
                )),
            )),
        }
    }
    let probe = validation_probe(probe_seed)?;
    outcome
        .invariants
        .push(("probe.lost=0".to_string(), probe.lost() == 0));
    outcome
        .invariants
        .push(("probe.errors=0".to_string(), probe.errors == 0));
    // Machine-dependent context is reported, never gated: the whole
    // point of the bundle is that a third party on different hardware
    // can still score it.
    let fmt_us = |key: &str| -> String {
        manifest
            .context
            .get(key)
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "?".to_string())
    };
    outcome.notes.push(format!(
        "context: p50 {}us → {}us, p99 {}us → {}us (exporting machine → this machine, informational)",
        fmt_us("latency.p50_us"),
        probe.p50_us,
        fmt_us("latency.p99_us"),
        probe.p99_us
    ));
    let commit = record::current_commit();
    if commit != manifest.commit {
        outcome.notes.push(format!(
            "note: bundle was exported at {} but this tree is {commit} (expected for a committed bundle)",
            manifest.commit
        ));
    }
    let machine = record::MachineInfo::detect(false);
    if !machine.comparable_to(&manifest.machine) {
        outcome.notes.push(
            "note: different machine than the exporter — context latencies are not comparable"
                .to_string(),
        );
    }
    let text = outcome.render();
    if outcome.passed() {
        Ok(text)
    } else {
        Err(CliError::new(format!("{text}bundle verify: FAIL")))
    }
}

fn run_command(cli: &Cli) -> Result<String, CliError> {
    // The serving commands interpret `cli.urdf` as a robot spec and do
    // their own loading; dispatch before the single-URDF read below.
    match &cli.command {
        Command::Serve {
            port,
            port_file,
            queue,
            batch,
            workers,
            max_requests,
            chaos,
            deadline_ms,
            backend,
            shard,
        } => {
            return run_serve(
                cli,
                *port,
                port_file.as_ref(),
                *queue,
                *batch,
                *workers,
                *max_requests,
                *chaos,
                *deadline_ms,
                *backend,
                shard.as_ref(),
            )
        }
        Command::Router {
            port,
            port_file,
            shards,
            max_requests,
        } => return run_router(*port, port_file.as_ref(), shards, *max_requests),
        Command::Loadgen {
            port,
            rate_hz,
            clients,
            requests,
            workload,
            deadline_us,
            retries,
            timeout_ms,
            seed,
            cluster,
        } => {
            return run_loadgen_command(
                cli,
                *port,
                *rate_hz,
                *clients,
                *requests,
                *workload,
                *deadline_us,
                *retries,
                *timeout_ms,
                *seed,
                *cluster,
            )
        }
        Command::Health { port } => return run_health(*port),
        Command::BenchCompare {
            baseline,
            current,
            smoke,
        } => return run_bench_compare(baseline, current, *smoke),
        Command::BenchAccept { baseline, current } => return run_bench_accept(baseline, current),
        Command::BundleExport {
            out,
            zoo_n,
            zoo_seed,
        } => return run_bundle_export(out, *zoo_n, *zoo_seed),
        Command::BundleVerify { dir } => return run_bundle_verify(dir),
        _ => {}
    }

    let urdf = std::fs::read_to_string(&cli.urdf)
        .map_err(|e| CliError::new(format!("cannot read {}: {e}", cli.urdf.display())))?;
    let fw =
        Framework::from_urdf(&urdf).map_err(|e| CliError::new(format!("invalid URDF: {e}")))?;
    let robot = fw.robot().clone();

    let mut out = String::new();
    match &cli.command {
        Command::Info => {
            let _ = writeln!(out, "robot: {} ({} links)", robot.name(), robot.num_links());
            let _ = writeln!(out, "metrics: {}", fw.metrics());
            let _ = writeln!(out, "topology:\n{}", robot.topology().render());
            let p = ParallelismProfile::of(robot.topology());
            let _ = writeln!(out, "forward parallelism per step:  {:?}", p.forward);
            let _ = writeln!(out, "backward parallelism per step: {:?}", p.backward);
            let pat = SparsityPattern::mass_matrix(robot.topology());
            let _ = writeln!(
                out,
                "mass matrix: {} nonzeros ({:.0}% sparse)\n{}",
                pat.nnz(),
                pat.sparsity() * 100.0,
                pat.render()
            );
        }
        Command::Generate {
            knobs,
            out: out_dir,
            timings,
        } => {
            let accel = match knobs {
                Some(k) => fw.generate_with_knobs(*k),
                None => fw.generate(Constraints::unconstrained()),
            };
            let k = accel.knobs();
            let d = accel.design();
            // One functional evaluation through the cycle-level simulator:
            // it re-validates the emitted schedule's dependencies (the
            // simulator panics on violations) and populates the sim cycle
            // histograms a `--metrics` snapshot reports.
            let n = robot.num_links();
            let sim_q: Vec<f64> = (0..n).map(|i| (0.23 * (i as f64 + 1.0)).sin()).collect();
            let sim = accel.simulate(&sim_q, &vec![0.1; n], &vec![0.2; n]);
            let _reports_span = obs::span(
                roboshape::PIPELINE_OBS_CATEGORY,
                PipelineStage::Reports.name(),
            );
            let report = fw.pipeline().observer().time(PipelineStage::Reports, || {
                let r = accel.resources();
                format!(
                    "robot: {}\nknobs: PEs_fwd={} PEs_bwd={} block={}\ncycles: {} (no pipelining: {})\nclock: {:.1} ns\nlatency: {:.2} us\nresources: {:.0} LUTs, {:.0} DSPs\nsimulated: {} tasks + {} mat-mul ops, schedule dependencies OK\n",
                    robot.name(),
                    k.pe_fwd,
                    k.pe_bwd,
                    k.block_size,
                    d.compute_cycles(),
                    d.compute_cycles_no_pipelining(),
                    d.clock_ns(),
                    d.compute_latency_us(),
                    r.luts,
                    r.dsps,
                    sim.stats.tasks_executed,
                    sim.stats.matmul_ops
                )
            });
            std::fs::create_dir_all(out_dir)
                .map_err(|e| CliError::new(format!("cannot create {}: {e}", out_dir.display())))?;
            for (name, src) in accel.verilog().files() {
                std::fs::write(out_dir.join(name), src)
                    .map_err(|e| CliError::new(format!("cannot write {name}: {e}")))?;
            }
            std::fs::write(out_dir.join("report.txt"), &report)
                .map_err(|e| CliError::new(format!("cannot write report: {e}")))?;
            let _ = writeln!(out, "{report}");
            let _ = writeln!(out, "wrote Verilog + report to {}", out_dir.display());
            if *timings {
                append_timings(&mut out, &fw);
            }
        }
        Command::Sweep {
            pareto_only,
            pruned,
            timings,
        } => {
            let (selected, pruned_stats) = if *pruned {
                let sweep =
                    roboshape::sweep_design_space_pruned_with(fw.pipeline(), robot.topology());
                let stats = format!(
                    "# pruned: evaluated {} of {} grid points ({} rows never scheduled)",
                    sweep.evaluated_points, sweep.grid_points, sweep.skipped_rows
                );
                (sweep.frontier, Some(stats))
            } else {
                let points = fw.design_space();
                let selected = if *pareto_only {
                    pareto_frontier(&points)
                } else {
                    points
                };
                (selected, None)
            };
            let _ = writeln!(
                out,
                "pe_fwd,pe_bwd,block,traversal_cycles,total_cycles,luts,dsps"
            );
            for p in selected {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{:.0},{:.0}",
                    p.pe_fwd,
                    p.pe_bwd,
                    p.block,
                    p.traversal_cycles,
                    p.total_cycles,
                    p.resources.luts,
                    p.resources.dsps
                );
            }
            if let Some(stats) = pruned_stats {
                let _ = writeln!(out, "{stats}");
            }
            if *timings {
                append_timings(&mut out, &fw);
            }
        }
        Command::Gantt { width } => {
            let accel = fw.generate(Constraints::unconstrained());
            let d = accel.design();
            let _ = writeln!(
                out,
                "schedule for {} at PEs=({},{}), makespan {} cycles:",
                robot.name(),
                accel.knobs().pe_fwd,
                accel.knobs().pe_bwd,
                d.schedule().makespan()
            );
            let _ = writeln!(out, "{}", d.schedule().render_gantt(d.task_graph(), *width));
            let _ = writeln!(
                out,
                "legend: F RNEA-fwd, B RNEA-bwd, g grad-fwd, b grad-bwd, . idle"
            );
        }
        Command::Kernels => {
            use roboshape::{simulate_inverse_dynamics, simulate_kinematics, KernelKind};
            let knobs = fw.choose_knobs(Constraints::unconstrained());
            let n = robot.num_links();
            let q: Vec<f64> = (0..n).map(|i| 0.2 * (i as f64 + 1.0).sin()).collect();
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>10} {:>12}",
                "kernel", "tasks", "cycles", "latency us"
            );
            for kernel in [
                KernelKind::ForwardKinematics,
                KernelKind::InverseDynamics,
                KernelKind::DynamicsGradient,
            ] {
                let d = roboshape::AcceleratorDesign::generate_for_kernel(
                    robot.topology(),
                    knobs,
                    kernel,
                );
                // Functionally verify each design before reporting it.
                match kernel {
                    KernelKind::ForwardKinematics => {
                        let _ = simulate_kinematics(&robot, &d, &q);
                    }
                    KernelKind::InverseDynamics => {
                        let _ =
                            simulate_inverse_dynamics(&robot, &d, &q, &vec![0.1; n], &vec![0.0; n]);
                    }
                    KernelKind::DynamicsGradient => {
                        let _ = simulate(&robot, &d, &q, &vec![0.1; n], &vec![0.2; n]);
                    }
                }
                let _ = writeln!(
                    out,
                    "{:<20} {:>8} {:>10} {:>12.2}",
                    format!("{kernel:?}"),
                    d.task_graph().len(),
                    d.compute_cycles(),
                    d.compute_latency_us()
                );
            }
        }
        Command::Energy => {
            use roboshape::PowerModel;
            let accel = fw.generate(Constraints::unconstrained());
            let plain = PowerModel::new().evaluate(accel.design());
            let gated = PowerModel::new()
                .with_power_gating()
                .evaluate(accel.design());
            let _ = writeln!(out, "robot: {} ({} links)", robot.name(), robot.num_links());
            let _ = writeln!(
                out,
                "static {:.2} W + dynamic {:.2} W = {:.2} W (utilization {:.0}%)",
                plain.static_w,
                plain.dynamic_w,
                plain.total_w(),
                plain.utilization * 100.0
            );
            let _ = writeln!(
                out,
                "with PE power gating: {:.2} W (saves {:.2} W of idle leakage)",
                gated.total_w(),
                plain.total_w() - gated.total_w()
            );
            let _ = writeln!(
                out,
                "energy per gradient evaluation: {:.1} uJ",
                plain.energy_per_eval_uj()
            );
        }
        Command::Soc { extra } => {
            use roboshape::{co_design, sweep_design_space, Platform, UTILIZATION_THRESHOLD};
            let mut robots = vec![robot.clone()];
            for path in extra {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::new(format!("cannot read {}: {e}", path.display())))?;
                robots.push(
                    Framework::from_urdf(&text)
                        .map_err(|e| {
                            CliError::new(format!("invalid URDF {}: {e}", path.display()))
                        })?
                        .robot()
                        .clone(),
                );
            }
            let spaces: Vec<_> = robots
                .iter()
                .map(|r| sweep_design_space(r.topology()))
                .collect();
            for platform in Platform::all() {
                match co_design(&spaces, platform, UTILIZATION_THRESHOLD) {
                    Some(alloc) => {
                        let _ = writeln!(
                            out,
                            "{}: worst latency {} cycles, {:.0} LUTs / {:.0} DSPs total",
                            platform.name, alloc.worst_latency, alloc.total.luts, alloc.total.dsps
                        );
                        for (r, p) in robots.iter().zip(&alloc.assignments) {
                            let _ = writeln!(
                                out,
                                "  {:<12} ({:>2},{:>2},b{:<2}) {:>5} cycles {:>9.0} LUTs",
                                r.name(),
                                p.pe_fwd,
                                p.pe_bwd,
                                p.block,
                                p.total_cycles,
                                p.resources.luts
                            );
                        }
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "{}: the {} accelerators do not fit together",
                            platform.name,
                            robots.len()
                        );
                    }
                }
            }
        }
        Command::Verify => {
            let accel = fw.generate(Constraints::unconstrained());
            let n = robot.num_links();
            let q: Vec<f64> = (0..n).map(|i| (0.27 * (i as f64 + 1.0)).sin()).collect();
            let qd: Vec<f64> = (0..n).map(|i| 0.2 * (0.4 * i as f64).cos()).collect();
            let tau: Vec<f64> = (0..n).map(|i| 0.5 - 0.06 * i as f64).collect();
            let sim = simulate(&robot, accel.design(), &q, &qd, &tau);
            let err = sim.verify(&robot, &q, &qd, &tau);
            let _ = writeln!(
                out,
                "simulated {} tasks + {} mat-mul ops in {} cycles",
                sim.stats.tasks_executed, sim.stats.matmul_ops, sim.stats.cycles
            );
            let _ = writeln!(out, "max gradient deviation vs reference: {err:.3e}");
            if err > 1e-8 {
                return Err(CliError::new(format!(
                    "verification FAILED: error {err:.3e}"
                )));
            }
            let _ = writeln!(out, "VERIFIED");
        }
        Command::Serve { .. }
        | Command::Router { .. }
        | Command::Loadgen { .. }
        | Command::Health { .. }
        | Command::BenchCompare { .. }
        | Command::BenchAccept { .. }
        | Command::BundleExport { .. }
        | Command::BundleVerify { .. } => {
            unreachable!("dispatched before the URDF load")
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboshape_robots::{zoo_urdf, Zoo};

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn write_urdf(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("roboshape_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.urdf"));
        std::fs::write(&path, zoo_urdf(Zoo::Hyq)).unwrap();
        path
    }

    #[test]
    fn parses_commands() {
        let c = parse_args(&args(&["info", "r.urdf"])).unwrap();
        assert_eq!(c.command, Command::Info);
        let c = parse_args(&args(&["sweep", "r.urdf", "--pareto"])).unwrap();
        assert_eq!(
            c.command,
            Command::Sweep {
                pareto_only: true,
                pruned: false,
                timings: false
            }
        );
        let c = parse_args(&args(&["sweep", "r.urdf", "--timings"])).unwrap();
        assert_eq!(
            c.command,
            Command::Sweep {
                pareto_only: false,
                pruned: false,
                timings: true
            }
        );
        let c = parse_args(&args(&["sweep", "r.urdf", "--pruned"])).unwrap();
        assert_eq!(
            c.command,
            Command::Sweep {
                pareto_only: false,
                pruned: true,
                timings: false
            }
        );
        let c = parse_args(&args(&["generate", "r.urdf", "--pe-fwd", "3", "--block=4"])).unwrap();
        match c.command {
            Command::Generate { knobs: Some(k), .. } => {
                assert_eq!(k.pe_fwd, 3);
                assert_eq!(k.block_size, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&args(&["info"])).is_err());
        assert!(parse_args(&args(&["frobnicate", "r.urdf"])).is_err());
        assert!(parse_args(&args(&["generate", "r.urdf", "--pe-fwd", "three"])).is_err());
        assert!(parse_args(&args(&["generate", "r.urdf", "--pe-fwd"])).is_err());
    }

    #[test]
    fn info_runs_on_a_real_urdf() {
        let path = write_urdf("info");
        let cli = parse_args(&args(&["info", path.to_str().unwrap()])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("12 links"));
        assert!(out.contains("75% sparse"));
    }

    #[test]
    fn generate_writes_verilog_bundle() {
        let path = write_urdf("generate");
        let out_dir = std::env::temp_dir().join("roboshape_cli_tests/gen_out");
        let cli = parse_args(&args(&[
            "generate",
            path.to_str().unwrap(),
            "--pe-fwd",
            "3",
            "--pe-bwd",
            "3",
            "--block",
            "3",
            "--out",
            out_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("PEs_fwd=3"));
        assert!(out_dir.join("roboshape_top.v").exists());
        assert!(out_dir.join("report.txt").exists());
    }

    #[test]
    fn verify_passes_on_a_real_robot() {
        let path = write_urdf("verify");
        let cli = parse_args(&args(&["verify", path.to_str().unwrap()])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("VERIFIED"));
    }

    #[test]
    fn sweep_emits_csv() {
        let path = write_urdf("sweep");
        let cli = parse_args(&args(&["sweep", path.to_str().unwrap(), "--pareto"])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.starts_with("pe_fwd,pe_bwd,block"));
        assert!(out.lines().count() > 2);
    }

    #[test]
    fn sweep_pruned_emits_the_same_frontier() {
        let path = write_urdf("sweep_pruned");
        let pareto = parse_args(&args(&["sweep", path.to_str().unwrap(), "--pareto"])).unwrap();
        let pruned = parse_args(&args(&["sweep", path.to_str().unwrap(), "--pruned"])).unwrap();
        let pareto_out = run(&pareto).unwrap();
        let pruned_out = run(&pruned).unwrap();
        // Same frontier rows, plus the pruning stats comment.
        let rows = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&pareto_out), rows(&pruned_out));
        assert!(pruned_out.contains("# pruned: evaluated "));
    }

    #[test]
    fn sweep_with_timings_reports_pipeline_stages() {
        let path = write_urdf("sweep_timings");
        let cli = parse_args(&args(&[
            "sweep",
            path.to_str().unwrap(),
            "--pareto",
            "--timings",
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("== pipeline timings =="));
        assert!(out.contains("schedules"));
        assert!(out.contains("points evaluated"));
        assert!(out.contains("artifact store:"));
    }

    #[test]
    fn generate_with_timings_reports_pipeline_stages() {
        let path = write_urdf("generate_timings");
        let out_dir = std::env::temp_dir().join("roboshape_cli_tests/gen_timings_out");
        let cli = parse_args(&args(&[
            "generate",
            path.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--timings",
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("== pipeline timings =="));
        assert!(out.contains("parse"));
        assert!(out.contains("reports"));
    }

    #[test]
    fn kernels_command_reports_three_kernels() {
        let path = write_urdf("kernels");
        let cli = parse_args(&args(&["kernels", path.to_str().unwrap()])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("ForwardKinematics"));
        assert!(out.contains("InverseDynamics"));
        assert!(out.contains("DynamicsGradient"));
    }

    #[test]
    fn energy_command_reports_gating() {
        let path = write_urdf("energy");
        let cli = parse_args(&args(&["energy", path.to_str().unwrap()])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("power gating"));
        assert!(out.contains("uJ"));
    }

    #[test]
    fn soc_command_co_designs_two_robots() {
        let a = write_urdf("soc_a");
        let dir = std::env::temp_dir().join("roboshape_cli_tests");
        let b = dir.join("soc_b.urdf");
        std::fs::write(&b, zoo_urdf(Zoo::Iiwa)).unwrap();
        let cli = parse_args(&args(&["soc", a.to_str().unwrap(), b.to_str().unwrap()])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("worst latency"));
        assert!(out.contains("iiwa"));
        assert!(out.contains("HyQ"));
    }

    #[test]
    fn gantt_draws_a_timeline() {
        let path = write_urdf("gantt");
        let cli = parse_args(&args(&["gantt", path.to_str().unwrap(), "--width", "40"])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("legend:"));
        assert!(out.contains("fwd0"));
        assert!(out.lines().any(|l| l.contains('F')));
    }

    #[test]
    fn warm_generate_trace_is_wellformed_chrome_json() {
        // The golden observability test: warm the artifact store with one
        // untraced run, then trace a second (all-hit) run and check the
        // emitted Chrome trace_event document end to end.
        let path = write_urdf("trace_golden");
        let dir = std::env::temp_dir().join("roboshape_cli_tests/trace_golden_out");
        let out_flag = dir.to_str().unwrap().to_string();
        let warm = parse_args(&args(&[
            "generate",
            path.to_str().unwrap(),
            "--out",
            &out_flag,
        ]))
        .unwrap();
        run(&warm).unwrap();

        let trace_path = dir.join("trace.json");
        let metrics_path = dir.join("metrics.json");
        let cli = parse_args(&args(&[
            "generate",
            path.to_str().unwrap(),
            "--out",
            &out_flag,
            "--trace",
            trace_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(cli.trace.as_deref(), Some(trace_path.as_path()));
        run(&cli).unwrap();

        let trace = std::fs::read_to_string(&trace_path).unwrap();
        obs::json::validate(&trace).unwrap_or_else(|e| panic!("malformed trace JSON: {e}"));
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""));
        // All eight pipeline stages appear as spans, even on a warm store.
        for stage in PipelineStage::ALL {
            assert!(
                trace.contains(&format!("\"name\":\"{}\"", stage.name())),
                "stage {} missing from trace",
                stage.name()
            );
        }
        // Spans nest: at least one span records a parent.
        assert!(trace.contains("\"parent\":"));
        // The root CLI span wraps the run.
        assert!(trace.contains("\"name\":\"generate\""));

        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        obs::json::validate(&metrics).unwrap_or_else(|e| panic!("malformed metrics JSON: {e}"));
        assert!(metrics.contains("\"counters\""));
        // The simulator ran, so its cycle histograms are in the snapshot.
        assert!(metrics.contains("sim.cycles.rnea_fwd"));
        assert!(metrics.contains("sim.pe_occupancy_pct"));
    }

    #[test]
    fn parses_serve_and_loadgen_commands() {
        let c = parse_args(&args(&[
            "serve",
            "zoo",
            "--port",
            "0",
            "--queue",
            "32",
            "--max-requests",
            "10",
        ]))
        .unwrap();
        assert_eq!(c.urdf, PathBuf::from("zoo"));
        match c.command {
            Command::Serve {
                port,
                queue,
                max_requests,
                backend,
                ..
            } => {
                assert_eq!(port, 0);
                assert_eq!(queue, 32);
                assert_eq!(max_requests, Some(10));
                // Lanes is the default backend.
                assert_eq!(backend, roboshape::BackendKind::Lanes);
            }
            other => panic!("unexpected {other:?}"),
        }

        let c = parse_args(&args(&["serve", "zoo", "--backend", "scalar"])).unwrap();
        match c.command {
            Command::Serve { backend, .. } => {
                assert_eq!(backend, roboshape::BackendKind::Scalar)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["serve", "zoo", "--backend", "gpu"])).is_err());

        let c = parse_args(&args(&[
            "loadgen", "zoo:iiwa", "--port", "9000", "--rate", "50", "--kind", "fk",
        ]))
        .unwrap();
        match c.command {
            Command::Loadgen {
                port,
                rate_hz,
                workload,
                ..
            } => {
                assert_eq!(port, 9000);
                assert_eq!(rate_hz, Some(50.0));
                assert_eq!(
                    workload,
                    roboshape_serve::loadgen::Workload::Step(
                        roboshape::KernelKind::ForwardKinematics
                    )
                );
            }
            other => panic!("unexpected {other:?}"),
        }

        let c = parse_args(&args(&[
            "loadgen",
            "zoo:iiwa",
            "--port",
            "9000",
            "--workload",
            "rollout:4",
        ]))
        .unwrap();
        match c.command {
            Command::Loadgen { workload, .. } => {
                assert_eq!(workload, roboshape_serve::loadgen::Workload::Rollout(4));
            }
            other => panic!("unexpected {other:?}"),
        }

        let c = parse_args(&args(&[
            "loadgen",
            "zoo:iiwa",
            "--port",
            "9000",
            "--workload",
            "mixed",
        ]))
        .unwrap();
        match c.command {
            Command::Loadgen { workload, .. } => {
                assert_eq!(workload, roboshape_serve::loadgen::Workload::Mixed);
            }
            other => panic!("unexpected {other:?}"),
        }

        assert!(
            parse_args(&args(&["loadgen", "zoo"])).is_err(),
            "--port required"
        );
        assert!(parse_args(&args(&["loadgen", "zoo", "--port", "0"])).is_err());
        assert!(parse_args(&args(&["serve", "zoo", "--port", "70000"])).is_err());
        assert!(parse_args(&args(&["loadgen", "zoo", "--port", "9", "--kind", "x"])).is_err());
        assert!(parse_args(&args(&[
            "loadgen",
            "zoo",
            "--port",
            "9",
            "--workload",
            "rollout:0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "loadgen",
            "zoo",
            "--port",
            "9",
            "--workload",
            "walk"
        ]))
        .is_err());
    }

    #[test]
    fn parses_resilience_flags() {
        let c = parse_args(&args(&[
            "serve",
            "zoo",
            "--chaos",
            "7:0.1",
            "--deadline-ms",
            "20",
        ]))
        .unwrap();
        match c.command {
            Command::Serve {
                chaos: Some(chaos),
                deadline_ms,
                ..
            } => {
                assert_eq!(chaos.seed, 7);
                assert!((chaos.crash - 0.1).abs() < 1e-12);
                assert_eq!(deadline_ms, Some(20));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["serve", "zoo", "--chaos", "junk"])).is_err());

        let c = parse_args(&args(&[
            "loadgen",
            "zoo",
            "--port",
            "9",
            "--retries",
            "6",
            "--timeout-ms",
            "250",
        ]))
        .unwrap();
        match c.command {
            Command::Loadgen {
                retries,
                timeout_ms,
                ..
            } => {
                assert_eq!(retries, 6);
                assert_eq!(timeout_ms, Some(250));
            }
            other => panic!("unexpected {other:?}"),
        }

        let c = parse_args(&args(&["health", "--port", "9000"])).unwrap();
        assert_eq!(c.command, Command::Health { port: 9000 });
        assert!(parse_args(&args(&["health"])).is_err(), "--port required");
    }

    #[test]
    fn parses_cluster_flags() {
        let c = parse_args(&args(&[
            "router",
            "--shards",
            "s0=7001,s1=127.0.0.1:7002",
            "--port",
            "0",
            "--max-requests",
            "5",
        ]))
        .unwrap();
        match c.command {
            Command::Router {
                shards,
                max_requests,
                port,
                ..
            } => {
                assert_eq!(port, 0);
                assert_eq!(max_requests, Some(5));
                assert_eq!(shards.len(), 2);
                assert_eq!(shards[0].name, "s0");
                assert_eq!(shards[0].addr.port(), 7001);
                assert_eq!(shards[1].addr.port(), 7002);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["router"])).is_err(), "--shards required");
        assert!(parse_args(&args(&["router", "--shards", "bad"])).is_err());
        assert!(parse_args(&args(&["router", "--shards", "s0=notaport"])).is_err());

        let c = parse_args(&args(&["serve", "zoo", "--shard", "s0"])).unwrap();
        match c.command {
            Command::Serve { shard, .. } => {
                assert_eq!(shard.as_deref(), Some("s0"));
            }
            other => panic!("unexpected {other:?}"),
        }

        let c = parse_args(&args(&[
            "loadgen",
            "zoo",
            "--port",
            "9",
            "--cluster",
            "--seed",
            "9",
        ]))
        .unwrap();
        match c.command {
            Command::Loadgen { cluster, seed, .. } => {
                assert!(cluster);
                assert_eq!(seed, 9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The CI cluster-smoke scenario in-process: two shard engines (via
    /// the library), a CLI router over them, and a CLI `loadgen
    /// --cluster` driving the router. Checks the cluster accounting line
    /// and the router exit summary.
    #[test]
    fn router_and_cluster_loadgen_round_trip_via_cli() {
        use roboshape_robots::{zoo, Zoo};
        use roboshape_serve::{Engine, EngineConfig, Shard};
        let mk_engine = || {
            let engine = Engine::new(EngineConfig::default());
            for which in Zoo::ALL {
                engine.register(which.name(), zoo(which));
            }
            engine
        };
        let s0 = Shard::start("s0", mk_engine(), ("127.0.0.1", 0)).unwrap();
        let s1 = Shard::start("s1", mk_engine(), ("127.0.0.1", 0)).unwrap();

        let dir = std::env::temp_dir().join("roboshape_cli_tests/cluster_smoke");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);

        let clients = 3usize;
        let requests = 4usize;
        let total = (clients * requests) as u64;
        let router_cli = parse_args(&args(&[
            "router",
            "--shards",
            &format!("s0={},s1={}", s0.port(), s1.port()),
            "--port",
            "0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--max-requests",
            &total.to_string(),
        ]))
        .unwrap();
        let router = std::thread::spawn(move || run(&router_cli));

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = text.trim().parse::<u16>() {
                    break p;
                }
            }
            assert!(std::time::Instant::now() < deadline, "router never bound");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let health_cli = parse_args(&args(&["health", "--port", &port.to_string()])).unwrap();
        let health = run(&health_cli).unwrap();
        assert!(health.contains("ready=true"), "{health}");

        let loadgen_cli = parse_args(&args(&[
            "loadgen",
            "zoo",
            "--port",
            &port.to_string(),
            "--clients",
            &clients.to_string(),
            "--requests",
            &requests.to_string(),
            "--cluster",
        ]))
        .unwrap();
        let report = run(&loadgen_cli).unwrap();
        assert!(report.contains(&format!("ok={total}")), "{report}");
        assert!(report.contains("cluster: rerouted=0 lost=0"), "{report}");

        let summary = router.join().unwrap().unwrap();
        assert!(summary.contains("routed"), "{summary}");
        assert!(summary.contains("failovers=0"), "{summary}");

        s0.shutdown();
        s1.shutdown();
    }

    #[test]
    fn unknown_zoo_spec_is_a_clean_error() {
        let cli = parse_args(&args(&["serve", "zoo:atlas", "--max-requests", "1"])).unwrap();
        let err = run(&cli).unwrap_err();
        assert!(err.message.contains("unknown zoo robot"), "{}", err.message);
    }

    /// The CI smoke scenario in-process: serve the full zoo with
    /// `--max-requests`, drive it with the loadgen command, and check
    /// the report, the exit summary, and the metrics snapshot.
    #[test]
    fn serve_and_loadgen_round_trip_via_cli() {
        let dir = std::env::temp_dir().join("roboshape_cli_tests/serve_smoke");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let metrics_file = dir.join("serve_metrics.json");
        let _ = std::fs::remove_file(&port_file);

        let clients = 4usize;
        let requests = 3usize;
        let total = (clients * requests) as u64;
        let serve_cli = parse_args(&args(&[
            "serve",
            "zoo",
            "--port",
            "0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--max-requests",
            &total.to_string(),
            "--metrics",
            metrics_file.to_str().unwrap(),
        ]))
        .unwrap();
        let server = std::thread::spawn(move || run(&serve_cli));

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = text.trim().parse::<u16>() {
                    break p;
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never bound");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let health_cli = parse_args(&args(&["health", "--port", &port.to_string()])).unwrap();
        let health = run(&health_cli).unwrap();
        assert!(health.contains("ready=true"), "{health}");
        assert!(health.contains("circuit=closed"), "{health}");
        assert!(health.contains("iiwa"), "{health}");

        let loadgen_cli = parse_args(&args(&[
            "loadgen",
            "zoo",
            "--port",
            &port.to_string(),
            "--clients",
            &clients.to_string(),
            "--requests",
            &requests.to_string(),
        ]))
        .unwrap();
        let report = run(&loadgen_cli).unwrap();
        assert!(report.contains(&format!("ok={total}")), "{report}");
        assert!(report.contains("shed=0"), "{report}");
        assert!(report.contains("throughput:"), "{report}");

        let summary = server.join().unwrap().unwrap();
        assert!(
            summary.contains(&format!("served {total} requests")),
            "{summary}"
        );
        assert!(summary.contains("shed=0"), "{summary}");

        let metrics = std::fs::read_to_string(&metrics_file).unwrap();
        obs::json::validate(&metrics).unwrap_or_else(|e| panic!("malformed metrics JSON: {e}"));
        assert!(metrics.contains("serve.requests"), "{metrics}");
        assert!(metrics.contains("serve.latency_us"), "{metrics}");
    }

    /// The CI chaos-smoke scenario in-process: serve one robot with
    /// deterministic fault injection, drive it with a retrying loadgen,
    /// and check that no request is lost and the resilience counters
    /// appear in the metrics snapshot.
    #[test]
    fn chaos_serve_loses_nothing_with_retries_via_cli() {
        let dir = std::env::temp_dir().join("roboshape_cli_tests/chaos_smoke");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let metrics_file = dir.join("chaos_metrics.json");
        let _ = std::fs::remove_file(&port_file);

        let clients = 2usize;
        let requests = 12usize;
        let total = (clients * requests) as u64;
        let serve_cli = parse_args(&args(&[
            "serve",
            "zoo:iiwa",
            "--port",
            "0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--chaos",
            "7:0.2",
            "--max-requests",
            &total.to_string(),
            "--metrics",
            metrics_file.to_str().unwrap(),
        ]))
        .unwrap();
        let server = std::thread::spawn(move || run(&serve_cli));

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = text.trim().parse::<u16>() {
                    break p;
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never bound");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let loadgen_cli = parse_args(&args(&[
            "loadgen",
            "zoo:iiwa",
            "--port",
            &port.to_string(),
            "--clients",
            &clients.to_string(),
            "--requests",
            &requests.to_string(),
            "--retries",
            "6",
            "--timeout-ms",
            "2000",
        ]))
        .unwrap();
        let report = run(&loadgen_cli).unwrap();
        // The invariant under chaos is accounting, not perfection: every
        // request ends in a counted outcome.
        assert!(report.contains("lost=0"), "{report}");

        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("resilience:"), "{summary}");

        let metrics = std::fs::read_to_string(&metrics_file).unwrap();
        obs::json::validate(&metrics).unwrap_or_else(|e| panic!("malformed metrics JSON: {e}"));
        for name in [
            "serve.fault.worker_crash",
            "serve.fault.frame_corrupt",
            "serve.circuit.trips",
            "serve.circuit.open_robots",
            "serve.retry.attempts",
        ] {
            assert!(metrics.contains(name), "missing {name} in {metrics}");
        }
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let cli = parse_args(&args(&["info", "/nonexistent/robot.urdf"])).unwrap();
        let err = run(&cli).unwrap_err();
        assert!(err.message.contains("cannot read"));
    }

    #[test]
    fn parses_bench_and_bundle_commands() {
        let c = parse_args(&args(&["bench", "compare", "--smoke"])).unwrap();
        match c.command {
            Command::BenchCompare {
                baseline,
                current,
                smoke,
            } => {
                assert_eq!(baseline, PathBuf::from("bench/baselines"));
                assert_eq!(current, PathBuf::from("bench/current"));
                assert!(smoke);
            }
            other => panic!("unexpected {other:?}"),
        }

        let c = parse_args(&args(&[
            "bench",
            "accept",
            "--baseline",
            "hist",
            "--current",
            "now",
        ]))
        .unwrap();
        assert_eq!(
            c.command,
            Command::BenchAccept {
                baseline: PathBuf::from("hist"),
                current: PathBuf::from("now"),
            }
        );

        let c = parse_args(&args(&[
            "bundle", "export", "--out", "bdl", "--n", "12", "--seed", "7",
        ]))
        .unwrap();
        assert_eq!(
            c.command,
            Command::BundleExport {
                out: PathBuf::from("bdl"),
                zoo_n: 12,
                zoo_seed: 7,
            }
        );

        let c = parse_args(&args(&["bundle", "verify", "some/dir"])).unwrap();
        assert_eq!(
            c.command,
            Command::BundleVerify {
                dir: PathBuf::from("some/dir"),
            }
        );
        let c = parse_args(&args(&["bundle", "verify"])).unwrap();
        assert_eq!(
            c.command,
            Command::BundleVerify {
                dir: PathBuf::from("bench/baselines/example-bundle"),
            }
        );

        assert!(parse_args(&args(&["bench"])).is_err(), "action required");
        assert!(parse_args(&args(&["bundle"])).is_err(), "action required");
        assert!(parse_args(&args(&["bench", "frobnicate"])).is_err());
        assert!(parse_args(&args(&["bundle", "frobnicate"])).is_err());
    }

    /// Writes a `sim_throughput` record with one gated metric into
    /// `dir`, for exercising the compare gate without running benches.
    fn write_bench_record(dir: &std::path::Path, rps: f64) {
        let mut rec = roboshape_benchrec::BenchRecord::new("sim_throughput", false, false);
        rec.push("warm_evals_per_sec", rps, 0.0);
        rec.save(&dir.join("sim_throughput.json")).unwrap();
    }

    fn compare_cli(baseline: &std::path::Path, current: &std::path::Path) -> Cli {
        parse_args(&args(&[
            "bench",
            "compare",
            "--baseline",
            baseline.to_str().unwrap(),
            "--current",
            current.to_str().unwrap(),
        ]))
        .unwrap()
    }

    #[test]
    fn bench_compare_gates_a_degraded_run_via_cli() {
        let root = std::env::temp_dir().join("roboshape_cli_tests/compare_gate");
        let baseline = root.join("baselines");
        let current = root.join("current");
        let _ = std::fs::remove_dir_all(&root);

        // Identical records: within every band → PASS.
        write_bench_record(&baseline, 1000.0);
        write_bench_record(&current, 1000.0);
        let out = run(&compare_cli(&baseline, &current)).unwrap();
        assert!(out.contains("bench compare: PASS"), "{out}");

        // A −70% collapse of a higher-is-better metric: far outside the
        // 15% full-run band → nonzero exit with a FAIL summary.
        write_bench_record(&current, 300.0);
        let err = run(&compare_cli(&baseline, &current)).unwrap_err();
        assert!(
            err.message.contains("bench compare: FAIL"),
            "{}",
            err.message
        );
        assert!(err.message.contains("REGRESSED"), "{}", err.message);

        // The same collapse in the opposite direction is an improvement,
        // not a regression.
        write_bench_record(&current, 3000.0);
        let out = run(&compare_cli(&baseline, &current)).unwrap();
        assert!(out.contains("bench compare: PASS"), "{out}");
    }

    #[test]
    fn bench_compare_rejects_malformed_and_missing_baselines() {
        let root = std::env::temp_dir().join("roboshape_cli_tests/compare_malformed");
        let baseline = root.join("baselines");
        let current = root.join("current");
        let _ = std::fs::remove_dir_all(&root);
        write_bench_record(&current, 1000.0);

        // No baseline at all: every bench is skipped, and comparing
        // nothing is an error, not a pass.
        let err = run(&compare_cli(&baseline, &current)).unwrap_err();
        assert!(
            err.message.contains("nothing to compare"),
            "{}",
            err.message
        );

        // A corrupt baseline is a hard error, not a skip.
        std::fs::create_dir_all(&baseline).unwrap();
        std::fs::write(baseline.join("sim_throughput.json"), "{not json").unwrap();
        let err = run(&compare_cli(&baseline, &current)).unwrap_err();
        assert!(
            err.message.contains("sim_throughput.json"),
            "{}",
            err.message
        );
    }

    #[test]
    fn bench_accept_promotes_current_records() {
        let root = std::env::temp_dir().join("roboshape_cli_tests/accept");
        let baseline = root.join("baselines");
        let current = root.join("current");
        let _ = std::fs::remove_dir_all(&root);
        write_bench_record(&current, 1234.5);

        let cli = parse_args(&args(&[
            "bench",
            "accept",
            "--baseline",
            baseline.to_str().unwrap(),
            "--current",
            current.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("sim_throughput: accepted"), "{out}");

        // The promoted baseline round-trips and gates cleanly.
        let out = run(&compare_cli(&baseline, &current)).unwrap();
        assert!(out.contains("bench compare: PASS"), "{out}");

        // Accepting from an empty directory is an error.
        let _ = std::fs::remove_dir_all(&current);
        let cli = parse_args(&args(&[
            "bench",
            "accept",
            "--baseline",
            baseline.to_str().unwrap(),
            "--current",
            current.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(run(&cli).is_err());
    }

    /// The full reproducibility loop in-process: export a validation
    /// bundle at a small pinned population, then verify it on the same
    /// machine. Every snapshot must match byte-exactly and both probe
    /// invariants must hold; a tampered snapshot must flip the verdict.
    #[test]
    fn bundle_export_verify_round_trip_via_cli() {
        let out_dir = std::env::temp_dir().join("roboshape_cli_tests/bundle");
        let _ = std::fs::remove_dir_all(&out_dir);

        let export = parse_args(&args(&[
            "bundle",
            "export",
            "--out",
            out_dir.to_str().unwrap(),
            "--n",
            "12",
            "--seed",
            "7",
        ]))
        .unwrap();
        let out = run(&export).unwrap();
        assert!(out.contains("wrote bundle (10 snapshots"), "{out}");

        let verify = parse_args(&args(&["bundle", "verify", out_dir.to_str().unwrap()])).unwrap();
        let report = run(&verify).unwrap();
        assert!(report.contains("PASS"), "{report}");
        assert!(report.contains("probe.lost=0"), "{report}");

        // Tamper with one expected snapshot: verify must fail.
        let victim = out_dir.join("expected/table1.txt");
        let mut text = std::fs::read_to_string(&victim).unwrap();
        text.push_str("tampered\n");
        std::fs::write(&victim, text).unwrap();
        let err = run(&verify).unwrap_err();
        assert!(err.message.contains("FAIL"), "{}", err.message);
    }
}
