//! Chaos soak: the full robot zoo served under deterministic fault
//! injection — worker stalls, worker crashes, synthetic queue pressure,
//! and on-the-wire frame corruption all active at once — driven by the
//! retrying load generator and by a manual bit-exactness client.
//!
//! The invariants this soak asserts are the ones the resilience layer
//! exists to provide:
//!
//! 1. **Nothing is lost**: every logical request ends in exactly one
//!    accounted terminal outcome (`report.lost() == 0`).
//! 2. **Nothing is duplicated**: no correlation id is answered twice.
//! 3. **Nothing is silently corrupted**: every successful kernel payload
//!    is bit-identical to a direct in-process simulation on the same
//!    design — a damaged frame may cost a retry, never a wrong answer.
//! 4. **Every injected fault is visible**: the `serve.fault.*` counters
//!    agree exactly with the engine's own injection statistics. The
//!    engine reports to a private registry, so engines in sibling tests
//!    cannot bump the counters this soak checks.

use roboshape_obs::MetricsRegistry;
use roboshape_pipeline::Pipeline;
use roboshape_robots::{zoo, Zoo};
use roboshape_serve::loadgen::{
    request_inputs, run_loadgen, LoadMode, LoadgenConfig, RetryPolicy, TargetRobot, Workload,
};
use roboshape_serve::{
    Client, Engine, EngineConfig, FaultConfig, ServePayload, ServeRequest, Server,
};
use roboshape_sim::try_simulate;
use std::collections::HashSet;
use std::time::Duration;

const CHAOS: FaultConfig = FaultConfig {
    seed: 1234,
    stall: 0.04,
    crash: 0.10,
    corrupt: 0.08,
    pressure: 0.05,
};

fn chaotic_zoo_server(registry: &MetricsRegistry) -> Server {
    let engine = Engine::with_registry(
        EngineConfig {
            chaos: Some(CHAOS),
            circuit_threshold: 4,
            circuit_cooldown: Duration::from_millis(50),
            ..EngineConfig::default()
        },
        Pipeline::with_store(Pipeline::global().store_handle()),
        registry,
    );
    for which in Zoo::ALL {
        engine.register(which.name(), zoo(which));
    }
    Server::start(engine, "127.0.0.1:0").expect("bind loopback")
}

/// Reconnects `client`, carrying the correlation-id sequence forward so
/// retried requests get fresh ids (deterministic corruption keys on the
/// id — reusing one would re-trigger the same damage forever).
fn reconnect(client: &mut Client, addr: std::net::SocketAddr) {
    let next = client.next_id();
    let mut fresh = Client::connect(addr).expect("reconnect");
    fresh
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("socket opts");
    fresh.set_next_id(next);
    *client = fresh;
}

#[test]
fn chaos_soak_loses_nothing_duplicates_nothing_corrupts_nothing() {
    let registry = MetricsRegistry::new();
    let server = chaotic_zoo_server(&registry);
    let addr = server.addr();
    let engine = server.engine().clone();

    // Phase 1 — the retrying load generator across the whole zoo. The
    // accounting invariant: zero lost requests despite every fault site
    // firing.
    let cfg = LoadgenConfig {
        mode: LoadMode::Closed,
        clients: 4,
        requests_per_client: 30,
        robots: Zoo::ALL
            .into_iter()
            .map(|w| TargetRobot {
                name: w.name().to_string(),
                links: zoo(w).num_links(),
            })
            .collect(),
        workload: Workload::Step(roboshape_arch::KernelKind::DynamicsGradient),
        deadline: None,
        seed: 5,
        retry: RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        },
        timeout: Some(Duration::from_millis(500)),
    };
    let report = run_loadgen(addr, &cfg).expect("loadgen runs");
    assert_eq!(report.lost(), 0, "no request unaccounted for: {report}");
    assert!(report.ok > 0, "chaos still serves answers: {report}");
    assert!(
        report.retried > 0,
        "faults at these rates force retries: {report}"
    );

    // Phase 2 — bit-exactness under fire. One manual client with its own
    // retry loop; every successful gradient payload must match direct
    // simulation to the last float bit, and no id is answered twice.
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("socket opts");
    let mut seen_ids: HashSet<u64> = HashSet::new();
    let mut verified = 0u32;
    let mut degraded = 0u32;
    for i in 0..60usize {
        let which = Zoo::ALL[i % Zoo::ALL.len()];
        let robot = zoo(which);
        let n = robot.num_links();
        let (q, qd, tau) = request_inputs(n, 7_000 + i as u64);
        let req = ServeRequest::gradient(which.name(), q.clone(), qd.clone(), tau.clone());
        let mut attempts = 0;
        let payload = loop {
            attempts += 1;
            assert!(attempts <= 50, "request {i} never settled");
            let id = match client.send(&req) {
                Ok(id) => id,
                Err(_) => {
                    reconnect(&mut client, addr);
                    continue;
                }
            };
            match client.recv() {
                Ok(frame) => {
                    assert_eq!(frame.id, id, "in-order response for request {i}");
                    assert!(seen_ids.insert(frame.id), "response id {id} answered twice");
                    match frame.result {
                        Ok(payload) => break payload,
                        Err(e) if e.is_retryable() => continue,
                        Err(other) => panic!("unexpected terminal error: {other}"),
                    }
                }
                Err(_) => {
                    // Corrupted frame, oversized prefix, or truncation
                    // timeout: the stream is unusable, start over.
                    reconnect(&mut client, addr);
                    continue;
                }
            }
        };
        let design = engine
            .design_for(which.name(), roboshape_arch::KernelKind::DynamicsGradient)
            .expect("registered robot");
        match payload {
            ServePayload::Gradient {
                tau: tau_out,
                dqdd_dq,
                dqdd_dqd,
                cycles,
            } => {
                let reference = try_simulate(&robot, &design, &q, &qd, &tau).unwrap();
                assert_eq!(cycles, reference.stats.cycles, "{}", which.name());
                for j in 0..n {
                    assert_eq!(tau_out[j].to_bits(), reference.tau[j].to_bits());
                    for k in 0..n {
                        assert_eq!(
                            dqdd_dq[j * n + k].to_bits(),
                            reference.dqdd_dq[(j, k)].to_bits()
                        );
                        assert_eq!(
                            dqdd_dqd[j * n + k].to_bits(),
                            reference.dqdd_dqd[(j, k)].to_bits()
                        );
                    }
                }
                verified += 1;
            }
            ServePayload::Degraded {
                cycles,
                clock_ns,
                latency_us,
                ..
            } => {
                // Degraded answers come from the analytical model and
                // must match it exactly too.
                assert_eq!(cycles, design.compute_cycles());
                assert_eq!(clock_ns.to_bits(), design.clock_ns().to_bits());
                assert_eq!(latency_us.to_bits(), design.compute_latency_us().to_bits());
                degraded += 1;
            }
            other => panic!("wrong payload kind: {other:?}"),
        }
    }
    assert_eq!(
        verified + degraded,
        60,
        "every request settled successfully"
    );
    assert!(verified > 0, "most answers are real kernel results");

    // Phase 3 — every injected fault is visible. The engine's own
    // injection stats and its registry's `serve.fault.*` counters must
    // agree exactly; the wire-corruption counter lives server-side only.
    let stats = engine.stats();
    assert!(stats.injected_crashes > 0, "crash site fired: {stats:?}");
    assert!(stats.injected_stalls > 0, "stall site fired: {stats:?}");
    assert!(
        stats.injected_pressure > 0,
        "pressure site fired: {stats:?}"
    );
    assert!(stats.worker_restarts > 0, "supervisor restarted workers");
    assert_eq!(
        stats.crashed
            + stats.completed
            + stats.degraded
            + stats.deadline_exceeded
            + stats.bad_requests,
        stats.responses()
    );

    let counter_in = |snapshot: &roboshape_obs::MetricsSnapshot, name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let snapshot = registry.snapshot();
    let counter = |name: &str| counter_in(&snapshot, name);
    assert_eq!(
        counter(roboshape_serve::FAULT_CRASH_METRIC),
        stats.injected_crashes
    );
    assert_eq!(
        counter(roboshape_serve::FAULT_STALL_METRIC),
        stats.injected_stalls
    );
    assert_eq!(
        counter(roboshape_serve::FAULT_PRESSURE_METRIC),
        stats.injected_pressure
    );
    assert_eq!(
        counter(roboshape_serve::WORKER_RESTARTS_METRIC),
        stats.worker_restarts
    );
    assert!(
        counter(roboshape_serve::FAULT_CORRUPT_METRIC) > 0,
        "wire corruption fired"
    );
    // The load generator is client-side and reports to the global
    // registry.
    assert!(
        counter_in(
            &roboshape_obs::metrics().snapshot(),
            roboshape_serve::RETRY_ATTEMPTS_METRIC
        ) >= report.retried,
        "retry attempts counted"
    );

    server.shutdown();

    // Drained: every queued request resolved (completed, crashed, or
    // deadline-expired); degraded and bad-request answers never queue,
    // so they sit on the response side only.
    let final_stats = engine.stats();
    assert_eq!(
        final_stats.responses(),
        final_stats.submitted + final_stats.degraded + final_stats.bad_requests,
        "every submitted request resolved: {final_stats:?}"
    );
}

/// The same seed injects the same faults: two engines fed the identical
/// request schedule produce identical injection counts (the full-stats
/// determinism test with pinned workers lives in the engine unit tests;
/// this one goes through the whole TCP stack).
#[test]
fn same_seed_same_fault_schedule_over_tcp() {
    let run = || {
        let engine = Engine::new(EngineConfig {
            workers_per_robot: 1,
            max_batch: 1,
            chaos: Some(FaultConfig::uniform(77, 0.15)),
            // Keep the breaker out of the way so every crash is visible
            // as a WorkerCrashed rather than absorbed by degradation.
            circuit_threshold: 1_000,
            ..EngineConfig::default()
        });
        engine.register("iiwa", zoo(Zoo::Iiwa));
        let server = Server::start(engine.clone(), "127.0.0.1:0").expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("socket opts");
        let n = zoo(Zoo::Iiwa).num_links();
        let mut outcomes = Vec::new();
        for i in 0..40u64 {
            let (q, _, _) = request_inputs(n, i);
            let req = ServeRequest::kinematics("iiwa", q);
            let outcome = loop {
                match client.send(&req).and_then(|_| client.recv()) {
                    Ok(frame) => break frame.result.map(|_| ()).map_err(|e| e.to_string()),
                    Err(_) => reconnect(&mut client, server.addr()),
                }
            };
            outcomes.push(outcome);
        }
        let stats = engine.stats();
        server.shutdown();
        (
            outcomes,
            stats.injected_crashes,
            stats.injected_stalls,
            stats.injected_pressure,
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "identical fault schedule per seed");
}
