//! The three serving workloads: a closed loop over the six paper robots
//! through one server, the same load through a router and two shards,
//! and an open-loop rate ladder on HyQ.

use crate::gen::{self, Outcome, Rung, Stop};
use crate::report::Metrics;
use crate::stats::{median, quantile, windowed_quantile};
use crate::{probe, splitmix64, trace, Args, RunResult};
use roboshape::{parse_urdf, try_simulate, KernelKind, Pipeline, RobotModel};
use roboshape_robots::{zoo_urdf, Zoo};
use roboshape_serve::proto::{
    decode_hello_response, encode_hello_request, read_frame, write_frame,
};
use roboshape_serve::{
    Engine, EngineConfig, EngineStats, Router, RouterConfig, ServePayload, ServeRequest, Server,
    Shard, ShardSpec,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Load clients (and connections) of the closed loops.
const CLIENTS: usize = 2;
/// Distinct requests generated per robot.
const PER_ROBOT: usize = 64;
/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests each client sends to warm a fresh stack.
const WARMUP: usize = 150;
/// Windows the measured phase is cut into for medians of rates and
/// tail quantiles.
const WINDOWS: usize = 16;
/// Load run after set-up and before measuring, so the measured phase
/// starts on a host that is already busy.
pub const SETTLE: Duration = Duration::from_secs(1);
/// Roughly one served response in this many is checked bit for bit.
const CHECK_ONE_IN: u64 = 48;

/// The latency limit of the open loop: one period of a 1 kHz control
/// loop, on the p99 from due time.
const SLO_US: f64 = 1_000.0;
/// The open loop's aggregate rate ladder (requests per second), fixed
/// for every commit so runs compare: 40% to 110% of the capacity the
/// parent commit measured on a 2-vCPU host (~36k req/s), then the
/// capacity rung.
const LADDER_RPS: [f64; 10] = [
    14_000.0, 14_000.0, 18_000.0, 22_000.0, 25_000.0, 29_000.0, 32_000.0, 36_000.0, 40_000.0,
    40_000.0,
];
/// A first rung at the reference rate that only settles the stack;
/// nothing is reported from it.
const LEAD_IN_RUNG: usize = 0;
/// The fixed-rate rung whose latency the traced run reports.
const REFERENCE_RUNG: usize = 1;
/// The last rung measures capacity, reported as `throughput_rps` with
/// its latency as `latency_p50_us`/`latency_p90_us`: it sends as fast as
/// `CAPACITY_WINDOW` outstanding requests allow (its rate only sizes
/// it), so the backlog stays bounded.
const CAPACITY_RUNG: usize = LADDER_RPS.len() - 1;
/// Requests kept in flight on the capacity rung.
const CAPACITY_WINDOW: u64 = 256;

/// A robot as the serving workloads load it: name, URDF text, model.
struct Robot {
    name: String,
    urdf: String,
    model: RobotModel,
}

fn robots(which: &[Zoo]) -> Vec<Robot> {
    which
        .iter()
        .map(|&z| {
            let urdf = zoo_urdf(z);
            let model = parse_urdf(&urdf).expect("paper robot URDF parses");
            Robot {
                name: z.name().to_string(),
                urdf,
                model,
            }
        })
        .collect()
}

/// Seeded joint-space inputs `(q, q̇, τ)` for an `n`-link robot.
fn inputs(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut state = seed;
    let mut draw = |scale: f64| {
        state = splitmix64(state);
        scale * ((state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
    };
    let q = (0..n).map(|_| draw(0.8)).collect();
    let qd = (0..n).map(|_| draw(0.5)).collect();
    let tau = (0..n).map(|_| draw(1.0)).collect();
    (q, qd, tau)
}

/// The request pool: `PER_ROBOT` ∇FD steps per robot, robot-major.
struct Pool {
    requests: Vec<ServeRequest>,
}

impl Pool {
    fn new(robots: &[Robot], seed: u64) -> Pool {
        let mut requests = Vec::new();
        for (r, robot) in robots.iter().enumerate() {
            for k in 0..PER_ROBOT {
                let (q, qd, tau) = inputs(
                    robot.model.num_links(),
                    seed ^ (((r * PER_ROBOT + k) as u64) << 20),
                );
                requests.push(ServeRequest::gradient(robot.name.clone(), q, qd, tau));
            }
        }
        Pool { requests }
    }

    fn robot_of(idx: usize) -> usize {
        idx / PER_ROBOT
    }
}

/// Client `c`'s `i`-th request: robots round-robin from a per-client
/// offset, inputs cycling through the robot's pool.
fn zoo_order(robots: usize) -> impl Fn(usize, usize) -> usize + Sync {
    move |c, i| {
        let robot = (c + i) % robots;
        robot * PER_ROBOT + (i / robots + 17 * c) % PER_ROBOT
    }
}

fn keep_for(seed: u64) -> impl Fn(u64) -> bool + Sync {
    move |id| splitmix64(seed ^ id).is_multiple_of(CHECK_ONE_IN)
}

/// Counts sampled payloads that differ from direct in-process simulation
/// of the same inputs (any bit of τ, either gradient, or the cycles).
fn mismatches(
    kept: &[(usize, ServePayload)],
    pool: &Pool,
    robots: &[Robot],
    engine: &Engine,
) -> u64 {
    let mut bad = 0;
    for (idx, payload) in kept {
        let robot = &robots[Pool::robot_of(*idx)];
        let req = &pool.requests[*idx];
        let design = engine
            .design_for(&robot.name, KernelKind::DynamicsGradient)
            .expect("robot registered");
        let expect = try_simulate(&robot.model, &design, &req.q, &req.qd, &req.tau)
            .expect("direct simulation of a served input");
        let same = match payload {
            ServePayload::Gradient {
                tau,
                dqdd_dq,
                dqdd_dqd,
                cycles,
            } => {
                let bits = |a: &[f64], b: &[f64]| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                };
                *cycles == expect.stats.cycles
                    && bits(tau, &expect.tau)
                    && bits(dqdd_dq, expect.dqdd_dq.as_slice())
                    && bits(dqdd_dqd, expect.dqdd_dqd.as_slice())
            }
            _ => false,
        };
        if !same {
            bad += 1;
        }
    }
    bad
}

/// Parses and registers `robots` on a cold pipeline; returns the mean
/// parse and register time per robot in µs.
fn register(engine: &Engine, robots: &[Robot]) -> (f64, f64) {
    let (mut parse_us, mut register_us) = (0.0, 0.0);
    for robot in robots {
        let t = Instant::now();
        let model = {
            let _s = trace::span("urdf", "parse", 0);
            parse_urdf(&robot.urdf).expect("paper robot URDF parses")
        };
        parse_us += t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        {
            let _s = trace::span("pipeline", "register", 0);
            engine.register(robot.name.clone(), model);
        }
        register_us += t.elapsed().as_secs_f64() * 1e6;
    }
    let n = robots.len() as f64;
    (parse_us / n, register_us / n)
}

/// One server fronting one engine.
struct Single {
    server: Server,
    pipeline: Pipeline,
    parse_us: f64,
    register_us: f64,
}

fn start_single(robots: &[Robot], cfg: EngineConfig) -> Single {
    let pipeline = Pipeline::new();
    let engine = Engine::with_pipeline(cfg, pipeline.clone());
    let (parse_us, register_us) = register(&engine, robots);
    let server = Server::start(engine, "127.0.0.1:0").expect("bind loopback server");
    Single {
        server,
        pipeline,
        parse_us,
        register_us,
    }
}

/// A router fronting two in-process shards, each serving every robot.
struct Routed {
    router: Router,
    shards: Vec<Shard>,
    pipelines: Vec<Pipeline>,
    parse_us: f64,
    register_us: f64,
}

fn start_routed(robots: &[Robot]) -> Routed {
    let (mut shards, mut pipelines) = (Vec::new(), Vec::new());
    let (mut parse_us, mut register_us) = (0.0, 0.0);
    for name in ["s0", "s1"] {
        let pipeline = Pipeline::new();
        let engine = Engine::with_pipeline(EngineConfig::default(), pipeline.clone());
        pipelines.push(pipeline);
        let (p, r) = register(&engine, robots);
        parse_us += p / 2.0;
        register_us += r / 2.0;
        shards.push(Shard::start(name, engine, "127.0.0.1:0").expect("bind shard"));
    }
    let specs = shards
        .iter()
        .map(|s| ShardSpec {
            name: s.name().to_string(),
            addr: s.addr(),
        })
        .collect();
    let router = Router::start(RouterConfig::new(specs), "127.0.0.1:0").expect("bind router");
    wait_for_roster(router.addr(), robots.len());
    Routed {
        router,
        shards,
        pipelines,
        parse_us,
        register_us,
    }
}

/// Blocks until the router's hello roster lists `robots` robots, i.e.
/// every shard is connected.
fn wait_for_roster(addr: SocketAddr, robots: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = TcpStream::connect(addr).expect("connect to router");
    for id in 0.. {
        write_frame(&mut stream, &encode_hello_request(id)).expect("send hello");
        let body = read_frame(&mut stream)
            .expect("read hello")
            .expect("router closed during hello");
        let (_, info) = decode_hello_response(&body).expect("hello reply");
        if info.robots.len() >= robots {
            return;
        }
        assert!(Instant::now() < deadline, "shards never joined the router");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Builds a stack `SETUPS` times (each cold, warmed with `warm`), tears
/// all but the last down, and returns it with the median set-up time.
fn setup<T>(
    mut build: impl FnMut() -> T,
    mut warm: impl FnMut(&T),
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t = Instant::now();
        let stack = build();
        warm(&stack);
        times.push(t.elapsed().as_secs_f64());
        kept = Some(stack);
    }
    (kept.expect("at least one set-up"), median(&times))
}

fn stats_delta(after: EngineStats, before: EngineStats) -> EngineStats {
    EngineStats {
        submitted: after.submitted - before.submitted,
        completed: after.completed - before.completed,
        shed: after.shed - before.shed,
        deadline_exceeded: after.deadline_exceeded - before.deadline_exceeded,
        batches: after.batches - before.batches,
        largest_batch: after.largest_batch,
        ..EngineStats::default()
    }
}

fn sum_stats(a: EngineStats, b: EngineStats) -> EngineStats {
    EngineStats {
        submitted: a.submitted + b.submitted,
        completed: a.completed + b.completed,
        shed: a.shed + b.shed,
        deadline_exceeded: a.deadline_exceeded + b.deadline_exceeded,
        batches: a.batches + b.batches,
        largest_batch: a.largest_batch.max(b.largest_batch),
        ..EngineStats::default()
    }
}

fn engine_layer(m: &mut Metrics, s: EngineStats, max_batch: usize) {
    let mean_batch = s.completed as f64 / s.batches.max(1) as f64;
    m.set("serve.engine.mean_batch", mean_batch);
    m.set("serve.engine.largest_batch", s.largest_batch as f64);
    m.set("serve.engine.batch_fill", mean_batch / max_batch as f64);
    let offered = (s.submitted + s.shed).max(1) as f64;
    m.set("serve.engine.shed_frac", s.shed as f64 / offered);
    m.set(
        "serve.engine.deadline_frac",
        s.deadline_exceeded as f64 / offered,
    );
}

/// A phase's headline figures: OK rate, p50, and the windowed p90 and
/// p99 of latency.
struct Figures {
    rate: f64,
    p50: f64,
    p90: f64,
    p99: f64,
}

impl Figures {
    fn of(rate: f64, lat: &[f64]) -> Figures {
        let tail = |q| windowed_quantile(lat, q, WINDOWS).unwrap_or(f64::INFINITY);
        Figures {
            rate,
            p50: quantile(lat, 0.5).unwrap_or(f64::INFINITY),
            p90: tail(0.9),
            p99: tail(0.99),
        }
    }

    fn record(&self, m: &mut Metrics) {
        m.set("throughput_rps", self.rate);
        m.set("latency_p50_us", self.p50);
        m.set("latency_p90_us", self.p90);
    }
}

/// A closed-loop phase's figures; its rate is the median per-window OK
/// rate.
fn closed_figures(out: &Outcome) -> Figures {
    Figures::of(median(&out.window_rates(WINDOWS)), &out.latencies(0))
}

fn pipeline_layer(m: &mut Metrics, pipelines: &[&Pipeline], parse_us: f64, register_us: f64) {
    let (mut hits, mut misses, mut entries) = (0, 0, 0);
    for p in pipelines {
        let report = p.observer().report();
        hits += report.hits();
        misses += report.misses();
        entries += p.store().stats().total();
    }
    m.set("urdf.parse_us", parse_us);
    m.set("pipeline.compile_us", register_us);
    m.set(
        "pipeline.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set("pipeline.store_entries", entries as f64);
}

/// `serve_zoo_closed`: two closed-loop clients, ∇FD steps round-robin
/// over the six paper robots, one server, one engine.
pub fn zoo_closed(args: &Args) -> RunResult {
    let robots = robots(&Zoo::ALL);
    let pool = Pool::new(&robots, args.seed);
    let order = zoo_order(robots.len());
    let keep = keep_for(args.seed);
    let (stack, setup_s) = setup(
        || start_single(&robots, EngineConfig::default()),
        |s| warm_single(s, &pool, &order),
        |s| s.server.shutdown(),
    );
    let engine = stack.server.engine().clone();
    let addr = stack.server.addr();
    let measure = |d: Duration| {
        gen::closed_loop(addr, &pool.requests, &order, CLIENTS, Stop::After(d), &keep)
            .expect("closed-loop load")
    };
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    measure(SETTLE);
    let before = engine.stats();
    let (out, traced) = if args.trace {
        let out = measure(args.seconds / 2);
        trace::enable();
        let traced = measure(args.seconds / 2);
        (out, Some(traced))
    } else {
        (measure(args.seconds), None)
    };
    let delta = stats_delta(engine.stats(), before);
    let fig = closed_figures(&out);
    fig.record(&mut m);
    let p50 = fig.p50;
    if let Some(traced) = traced {
        m.set("gen.latency_p99_us", fig.p99);
        m.set(
            "trace.overhead_frac",
            1.0 - closed_figures(&traced).rate / fig.rate,
        );
        let replay = gen::closed_loop_engine(
            &engine,
            &pool.requests,
            &order,
            CLIENTS,
            Stop::After(args.seconds / 4),
        )
        .expect("in-process replay");
        trace::disable();
        crate::record_spans(&mut m);
        let rtt = replay.latencies(0);
        let rtt_p50 = quantile(&rtt, 0.5).expect("replay samples");
        m.set("serve.engine.rtt_p50_us", rtt_p50);
        m.set(
            "serve.engine.rtt_p99_us",
            windowed_quantile(&rtt, 0.99, WINDOWS).expect("replay p99"),
        );
        m.set("serve.server.overhead_p50_us", p50 - rtt_p50);
        m.set("serve.server.overhead_share", (p50 - rtt_p50) / p50);
        engine_layer(&mut m, delta, EngineConfig::default().max_batch);
        pipeline_layer(
            &mut m,
            &[&stack.pipeline],
            stack.parse_us,
            stack.register_us,
        );
        let models: Vec<(&str, &RobotModel)> =
            robots.iter().map(|r| (r.name.as_str(), &r.model)).collect();
        probe::serve_layers(&mut m, &engine, &models, &pool.requests, &out.kept);
        let kernel = m.get("sim.exec_us").unwrap_or(0.0);
        m.set("sim.kernel_us", kernel);
        m.set("sim.kernel_share", kernel / fig.p50);
        m.set("serve.engine.queue_wait_p50_us", rtt_p50 - kernel);
        m.set("gen.samples", out.samples.len() as f64);
        m.set(
            "gen.failed_frac",
            out.failed() as f64 / out.samples.len().max(1) as f64,
        );
    }
    let bad = mismatches(&out.kept, &pool, &robots, &engine);
    stack.server.shutdown();
    println!(
        "serve_zoo_closed: {} requests, {} failed, {} checked bit-exact, {} mismatched",
        out.samples.len(),
        out.failed(),
        out.kept.len(),
        bad
    );
    RunResult {
        correct: bad == 0 && !out.kept.is_empty() && out.failed() == 0,
        attempted: out.samples.len() as u64 + out.lost,
        failed: out.failed() + bad,
        metrics: m,
    }
}

/// `serve_zoo_routed`: the `serve_zoo_closed` load through a router
/// fronting two in-process shards.
pub fn zoo_routed(args: &Args) -> RunResult {
    let robots = robots(&Zoo::ALL);
    let pool = Pool::new(&robots, args.seed);
    let order = zoo_order(robots.len());
    let keep = keep_for(args.seed);
    let warm = |s: &Routed| {
        gen::closed_loop(
            s.router.addr(),
            &pool.requests,
            &order,
            CLIENTS,
            Stop::Count(WARMUP),
            &|_| false,
        )
        .expect("warm-up load");
    };
    let shutdown = |s: Routed| {
        s.router.shutdown();
        for shard in s.shards {
            shard.shutdown();
        }
    };
    let (stack, setup_s) = setup(|| start_routed(&robots), warm, shutdown);
    let addr = stack.router.addr();
    let measure = |addr: SocketAddr, d: Duration| {
        gen::closed_loop(addr, &pool.requests, &order, CLIENTS, Stop::After(d), &keep)
            .expect("closed-loop load")
    };
    let stats = stack.router.stats();
    let before = sum_stats(
        stack.shards[0].engine().stats(),
        stack.shards[1].engine().stats(),
    );
    measure(addr, SETTLE);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    let (out, traced) = if args.trace {
        let out = measure(addr, args.seconds / 2);
        trace::enable();
        let traced = measure(addr, args.seconds / 2);
        trace::disable();
        (out, Some(traced))
    } else {
        (measure(addr, args.seconds), None)
    };
    let after = sum_stats(
        stack.shards[0].engine().stats(),
        stack.shards[1].engine().stats(),
    );
    let fig = closed_figures(&out);
    fig.record(&mut m);
    let rerouted = stats.rerouted.load(Ordering::Relaxed);
    let requests = stats.requests.load(Ordering::Relaxed);
    let lost = requests - stats.settled() + out.lost;
    if let Some(traced) = traced {
        m.set("gen.latency_p99_us", fig.p99);
        m.set(
            "trace.overhead_frac",
            1.0 - closed_figures(&traced).rate / fig.rate,
        );
        crate::record_spans(&mut m);
        m.set("serve.router.rerouted", rerouted as f64);
        engine_layer(
            &mut m,
            stats_delta(after, before),
            EngineConfig::default().max_batch,
        );
        let pipelines: Vec<&Pipeline> = stack.pipelines.iter().collect();
        pipeline_layer(&mut m, &pipelines, stack.parse_us, stack.register_us);
        // The router hop: the same load straight into one server.
        let direct = start_single(&robots, EngineConfig::default());
        warm_single(&direct, &pool, &order);
        let d = measure(direct.server.addr(), args.seconds / 2);
        let direct_fig = closed_figures(&d);
        m.set("serve.router.hop_p50_us", fig.p50 - direct_fig.p50);
        m.set("serve.router.hop_p99_us", fig.p99 - direct_fig.p99);
        let models: Vec<(&str, &RobotModel)> =
            robots.iter().map(|r| (r.name.as_str(), &r.model)).collect();
        probe::serve_layers(
            &mut m,
            direct.server.engine(),
            &models,
            &pool.requests,
            &out.kept,
        );
        direct.server.shutdown();
        let kernel = m.get("sim.exec_us").unwrap_or(0.0);
        m.set("sim.kernel_us", kernel);
        m.set("sim.kernel_share", kernel / fig.p50);
        m.set("gen.samples", out.samples.len() as f64);
        m.set(
            "gen.failed_frac",
            out.failed() as f64 / out.samples.len().max(1) as f64,
        );
    }
    let bad = mismatches(&out.kept, &pool, &robots, stack.shards[0].engine());
    shutdown(stack);
    println!(
        "serve_zoo_routed: {} requests, {} failed, rerouted={rerouted} lost={lost}, {} checked bit-exact, {} mismatched",
        out.samples.len(),
        out.failed(),
        out.kept.len(),
        bad
    );
    RunResult {
        correct: bad == 0
            && rerouted == 0
            && lost == 0
            && !out.kept.is_empty()
            && out.failed() == 0,
        attempted: out.samples.len() as u64 + out.lost,
        failed: out.failed() + bad + lost,
        metrics: m,
    }
}

fn warm_single(s: &Single, pool: &Pool, order: &(dyn Fn(usize, usize) -> usize + Sync)) {
    gen::closed_loop(
        s.server.addr(),
        &pool.requests,
        order,
        CLIENTS,
        Stop::Count(WARMUP),
        &|_| false,
    )
    .expect("warm-up load");
}

/// The open-loop ladder for a run measuring `seconds`: the lead-in
/// settles for `SETTLE`, then 17% of the time for the reference rung,
/// 38% for the capacity rung, and the other fixed-rate rungs share the
/// rest.
fn ladder(seconds: f64) -> Vec<Rung> {
    let other = seconds * 0.45 / (LADDER_RPS.len() - 3) as f64;
    LADDER_RPS
        .iter()
        .enumerate()
        .map(|(i, &rate)| Rung {
            rate,
            window: (i == CAPACITY_RUNG).then_some(CAPACITY_WINDOW),
            seconds: match i {
                LEAD_IN_RUNG => SETTLE.as_secs_f64(),
                REFERENCE_RUNG => seconds * 0.17,
                CAPACITY_RUNG => seconds * 0.38,
                _ => other,
            },
        })
        .collect()
}

/// Tail of one rung: the median over windows of the per-window p99
/// from due time (failures count as misses).
fn rung_p99(out: &Outcome, r: usize) -> f64 {
    windowed_quantile(&out.latencies(r), 0.99, WINDOWS).unwrap_or(f64::INFINITY)
}

/// The highest rung that met the SLO with no growing backlog, as its
/// offered rate (0 when none did).
fn slo_rate(out: &Outcome, ladder: &[Rung]) -> f64 {
    ladder
        .iter()
        .enumerate()
        .filter(|&(r, rung)| {
            let backlog_limit = (rung.rate * SLO_US / 1e6).max(8.0);
            let steady = out
                .backlog
                .get(r)
                .is_some_and(|&b| (b as f64) <= backlog_limit);
            steady && out.latencies(r).len() == rung.count() && rung_p99(out, r) <= SLO_US
        })
        .map(|(_, rung)| rung.rate)
        .fold(0.0, f64::max)
}

/// The achieved OK rate of rung `r`: answers over the span from its
/// first due time to its last answer.
fn achieved_rate(out: &Outcome, r: usize) -> f64 {
    let (mut first_due, mut last_done, mut ok) = (f64::INFINITY, 0.0f64, 0u64);
    for s in out.samples.iter().filter(|s| usize::from(s.rung) == r) {
        let done = f64::from(s.done_s);
        first_due = first_due.min(done - f64::from(s.latency_us) / 1e6);
        last_done = last_done.max(done);
        ok += u64::from(s.ok);
    }
    ok as f64 / (last_done - first_due).max(1e-9)
}

fn rung_lag_p99(out: &Outcome, ladder: &[Rung], r: usize) -> f64 {
    let first: usize = ladder[..r].iter().map(Rung::count).sum();
    let end = (first + ladder[r].count()).min(out.lag_us.len());
    quantile(&out.lag_us[first.min(end)..end], 0.99).unwrap_or(0.0)
}

/// The capacity rung's figures: its achieved rate is the capacity.
fn open_figures(out: &Outcome, ladder: &[Rung]) -> Figures {
    for (r, rung) in ladder.iter().enumerate() {
        println!(
            "  rung {r}: {:>6.0} req/s offered, {:>6.0} achieved, p50 {:>7.1} µs, p99 {:>8.1} µs, lag p99 {:>7.1} µs, backlog {:>5}",
            rung.rate,
            achieved_rate(out, r),
            quantile(&out.latencies(r), 0.5).unwrap_or(f64::INFINITY),
            rung_p99(out, r),
            rung_lag_p99(out, ladder, r),
            out.backlog.get(r).copied().unwrap_or(0),
        );
    }
    Figures::of(
        achieved_rate(out, CAPACITY_RUNG),
        &out.latencies(CAPACITY_RUNG),
    )
}

/// `serve_hyq_open`: ∇FD steps on HyQ offered on a fixed schedule up a
/// rate ladder, pipelined on one connection with replies read
/// concurrently.
pub fn hyq_open(args: &Args) -> RunResult {
    let robots = robots(&[Zoo::Hyq]);
    let pool = Pool::new(&robots, args.seed);
    let order = |_: usize, i: usize| i % PER_ROBOT;
    let keep = keep_for(args.seed);
    // A deep queue: the overload rung builds a backlog instead of
    // shedding, so it measures capacity.
    let cfg = EngineConfig {
        queue_capacity: 1 << 15,
        ..EngineConfig::default()
    };
    let warm = |s: &Single| warm_single(s, &pool, &order);
    let (stack, setup_s) = setup(|| start_single(&robots, cfg), warm, |s| s.server.shutdown());
    let engine = stack.server.engine().clone();
    let addr = stack.server.addr();
    // A traced run measures the ladder twice, each over half the time.
    let share = if args.trace { 0.5 } else { 1.0 };
    let ladder = ladder(args.seconds.as_secs_f64() * share);
    let measure =
        || gen::open_loop(addr, &pool.requests, &order, &ladder, &keep).expect("open-loop load");
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    let before = engine.stats();
    let out = measure();
    let delta = stats_delta(engine.stats(), before);
    let fig = open_figures(&out, &ladder);
    fig.record(&mut m);
    let slo = slo_rate(&out, &ladder);
    let ref_lat = out.latencies(REFERENCE_RUNG);
    let ref_p50 = quantile(&ref_lat, 0.5).unwrap_or(f64::INFINITY);
    if args.trace {
        m.set("gen.latency_p99_us", fig.p99);
        m.set("serve.open.ref_p50_us", ref_p50);
        m.set("serve.open.ref_p99_us", rung_p99(&out, REFERENCE_RUNG));
        trace::enable();
        let traced = measure();
        m.set(
            "trace.overhead_frac",
            1.0 - open_figures(&traced, &ladder).rate / fig.rate,
        );
        m.set("serve.open.slo_rate_rps", slo);
        let reference = [ladder[REFERENCE_RUNG]];
        let replay_before = engine.stats();
        let replay = gen::open_loop_engine(&engine, &pool.requests, &order, &reference);
        let replay_stats = stats_delta(engine.stats(), replay_before);
        trace::disable();
        crate::record_spans(&mut m);
        let rtt = replay.latencies(0);
        let rtt_p50 = quantile(&rtt, 0.5).expect("replay samples");
        m.set("serve.engine.rtt_p50_us", rtt_p50);
        m.set(
            "serve.engine.rtt_p99_us",
            windowed_quantile(&rtt, 0.99, WINDOWS).expect("replay p99"),
        );
        m.set("serve.server.overhead_p50_us", ref_p50 - rtt_p50);
        m.set("serve.server.overhead_share", (ref_p50 - rtt_p50) / ref_p50);
        engine_layer(&mut m, delta, cfg.max_batch);
        pipeline_layer(
            &mut m,
            &[&stack.pipeline],
            stack.parse_us,
            stack.register_us,
        );
        let models: Vec<(&str, &RobotModel)> =
            robots.iter().map(|r| (r.name.as_str(), &r.model)).collect();
        probe::serve_layers(&mut m, &engine, &models, &pool.requests, &out.kept);
        // The kernel time of a request is that of the batch it ran in,
        // at the replay's mean batch size.
        let batch = replay_stats.completed as f64 / replay_stats.batches.max(1) as f64;
        let kernel = probe::lanes_batch_us(
            &engine,
            &robots[0].name,
            &robots[0].model,
            &pool.requests,
            batch,
        );
        m.set("sim.kernel_us", kernel);
        m.set("sim.kernel_share", kernel / ref_p50);
        m.set("serve.engine.queue_wait_p50_us", rtt_p50 - kernel);
        m.set("gen.lag_p99_us", quantile(&out.lag_us, 0.99).unwrap_or(0.0));
        m.set("gen.samples", out.samples.len() as f64);
        m.set(
            "gen.failed_frac",
            out.failed() as f64 / out.samples.len().max(1) as f64,
        );
    }
    let bad = mismatches(&out.kept, &pool, &robots, &engine);
    stack.server.shutdown();
    println!(
        "serve_hyq_open: {} requests over {} rungs, {} failed, {} lost, highest rung within the {SLO_US} µs p99 SLO: {slo} req/s, {} checked bit-exact, {} mismatched",
        out.samples.len(),
        ladder.len(),
        out.failed(),
        out.lost,
        out.kept.len(),
        bad
    );
    RunResult {
        correct: bad == 0 && out.lost == 0 && !out.kept.is_empty() && out.failed() == 0,
        attempted: out.samples.len() as u64 + out.lost,
        failed: out.failed() + bad,
        metrics: m,
    }
}
