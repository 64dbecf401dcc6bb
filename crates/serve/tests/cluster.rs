//! Cluster soak: three shard servers behind a router on loopback, the
//! full robot zoo spread across them by consistent hashing, and one
//! shard killed (SIGKILL-style abort) mid-run.
//!
//! The invariants this file pins:
//!
//! * **Zero lost requests** — every request issued through the router
//!   ends in an accounted outcome, across the shard kill and the
//!   resulting failover reroutes.
//! * **Bit-exactness survives failover** — every successful payload is
//!   bit-identical to a direct in-process simulation on the same
//!   design, whether the owner shard answered or a fallback did (the
//!   designs are deterministic, so every shard computes the same
//!   floats).
//! * **Rerouted robots are answered by the fallback** — responses for
//!   the dead shard's robots carry the `Rerouted` status flag, and the
//!   router's failover counter records the lost shard.

use roboshape_arch::KernelKind;
use roboshape_obs::MetricsRegistry;
use roboshape_robots::{zoo, Zoo};
use roboshape_serve::loadgen::request_inputs;
use roboshape_serve::{
    Client, Engine, EngineConfig, HashRing, Router, RouterConfig, ServePayload, ServeRequest,
    Shard, ShardSpec, ROUTER_FAILOVERS_METRIC, ROUTER_REQUESTS_METRIC, ROUTER_REROUTED_METRIC,
    ROUTER_RESPONSES_METRIC, ROUTER_SHED_METRIC,
};
use roboshape_sim::try_simulate;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn zoo_engine() -> Engine {
    let engine = Engine::new(EngineConfig::default());
    for which in Zoo::ALL {
        engine.register(which.name(), zoo(which));
    }
    engine
}

/// Gradient request `i` of client `client`, cycling the zoo, with
/// reproducible inputs.
fn nth_gradient(client: usize, i: usize) -> (Zoo, u64, ServeRequest) {
    let which = Zoo::ALL[(client + i) % Zoo::ALL.len()];
    let n = zoo(which).num_links();
    let seed = (client * 1000 + i) as u64;
    let (q, qd, tau) = request_inputs(n, seed);
    (
        which,
        seed,
        ServeRequest::gradient(which.name(), q, qd, tau),
    )
}

/// Checks a served gradient payload bit-for-bit against direct
/// simulation on the reference engine's (identical) design.
fn assert_bit_exact(reference: &Engine, which: Zoo, seed: u64, payload: &ServePayload) {
    let robot = zoo(which);
    let n = robot.num_links();
    let (q, qd, tau) = request_inputs(n, seed);
    let design = reference
        .design_for(which.name(), KernelKind::DynamicsGradient)
        .expect("reference design");
    let expect = try_simulate(&robot, &design, &q, &qd, &tau).expect("reference sim");
    match payload {
        ServePayload::Gradient {
            tau: tau_out,
            dqdd_dq,
            dqdd_dqd,
            cycles,
        } => {
            assert_eq!(*cycles, expect.stats.cycles, "{}", which.name());
            for j in 0..n {
                assert_eq!(
                    tau_out[j].to_bits(),
                    expect.tau[j].to_bits(),
                    "τ[{j}] of {}",
                    which.name()
                );
                for k in 0..n {
                    assert_eq!(
                        dqdd_dq[j * n + k].to_bits(),
                        expect.dqdd_dq[(j, k)].to_bits()
                    );
                    assert_eq!(
                        dqdd_dqd[j * n + k].to_bits(),
                        expect.dqdd_dqd[(j, k)].to_bits()
                    );
                }
            }
        }
        other => panic!("expected a gradient payload, got {other:?}"),
    }
}

/// The soak itself: 4 clients × 24 requests over 3 shards; the shard
/// owning `iiwa` is aborted once every client has finished its first
/// half, while the second half is already in flight.
#[test]
fn shard_kill_mid_run_loses_nothing_and_stays_bit_exact() {
    let names: Vec<String> = (0..3).map(|i| format!("s{i}")).collect();
    let ring = HashRing::new(&names);
    let victim_idx = ring.owner("iiwa");

    let mut shards: Vec<Option<Shard>> = Vec::new();
    let mut specs = Vec::new();
    for name in &names {
        let shard = Shard::start(name.clone(), zoo_engine(), "127.0.0.1:0").expect("bind shard");
        specs.push(ShardSpec {
            name: name.clone(),
            addr: shard.addr(),
        });
        shards.push(Some(shard));
    }
    let mut config = RouterConfig::new(specs);
    config.reconnect_interval = Duration::from_millis(100);
    let router = Router::start(config, "127.0.0.1:0").expect("bind router");
    let addr = router.addr();

    // Never serves traffic; exists to produce the reference designs.
    let reference = zoo_engine();

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 24;
    const HALF: usize = REQUESTS / 2;
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let rerouted_total = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..CLIENTS)
        .map(|client_idx| {
            let barrier = Arc::clone(&barrier);
            let rerouted_total = Arc::clone(&rerouted_total);
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect to router");
                let mut answered = 0u64;
                for i in 0..REQUESTS {
                    if i == HALF {
                        // All clients are mid-run here; the main thread
                        // aborts the victim shard concurrently with the
                        // second half.
                        barrier.wait();
                    }
                    let (which, seed, req) = nth_gradient(client_idx, i);
                    // Retry typed retryable outcomes (a dying shard may
                    // answer `Rejected` while shutting down); transport
                    // errors would mean the *router* died, which is a
                    // test failure.
                    let mut frame = client.call_tracked(&req).expect("router transport");
                    let mut tries = 0;
                    while matches!(&frame.result, Err(e) if e.is_retryable()) {
                        tries += 1;
                        assert!(tries < 50, "request never settled: {:?}", frame.result);
                        std::thread::sleep(Duration::from_millis(5));
                        frame = client.call_tracked(&req).expect("router transport");
                    }
                    if frame.rerouted {
                        rerouted_total.fetch_add(1, Ordering::Relaxed);
                    }
                    let payload = frame.result.expect("settled payload");
                    assert_bit_exact(&reference, which, seed, &payload);
                    answered += 1;
                }
                answered
            })
        })
        .collect();

    barrier.wait();
    shards[victim_idx].take().expect("victim present").abort();

    let mut answered_total = 0u64;
    for handle in handles {
        answered_total += handle.join().expect("client thread");
    }
    assert_eq!(
        answered_total,
        (CLIENTS * REQUESTS) as u64,
        "every request must settle with a payload — zero lost"
    );
    assert!(
        rerouted_total.load(Ordering::Relaxed) > 0,
        "the dead shard's robots must be answered by a fallback (rerouted flag)"
    );

    let stats = router.stats();
    assert!(
        stats.failovers.load(Ordering::Relaxed) >= 1,
        "the router must have recorded the shard loss"
    );
    assert_eq!(stats.settled() - stats.shed.load(Ordering::Relaxed), {
        stats.responses.load(Ordering::Relaxed)
    });

    // Health through the router still reports ready on the surviving
    // shards, covering every robot.
    let mut probe = Client::connect(addr).expect("connect for health");
    let report = probe.health().expect("health through router");
    assert!(report.ready, "survivors keep the cluster ready");
    assert_eq!(report.robots.len(), Zoo::ALL.len());

    router.shutdown();
    reference.shutdown();
    for shard in shards.into_iter().flatten() {
        shard.shutdown();
    }
}

/// Hello handshakes: a shard announces its own name and roster; the
/// router answers as `"router"` with the fleet's merged roster.
#[test]
fn hello_identifies_shards_and_router_merges_rosters() {
    let shard = Shard::start("alpha", zoo_engine(), "127.0.0.1:0").expect("bind shard");
    let mut direct = Client::connect(shard.addr()).expect("connect shard");
    let info = direct.hello().expect("shard hello");
    assert_eq!(info.shard, "alpha");
    assert_eq!(info.robots.len(), Zoo::ALL.len());

    let router = Router::start(
        RouterConfig::new(vec![ShardSpec {
            name: "alpha".to_string(),
            addr: shard.addr(),
        }]),
        "127.0.0.1:0",
    )
    .expect("bind router");
    // The router learns the roster from its own hello handshake; poll
    // briefly until the link is up.
    let mut via_router = Client::connect(router.addr()).expect("connect router");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let merged = loop {
        let info = via_router.hello().expect("router hello");
        if !info.robots.is_empty() {
            break info;
        }
        assert!(std::time::Instant::now() < deadline, "roster never arrived");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(merged.shard, "router");
    assert_eq!(merged.robots.len(), Zoo::ALL.len());

    router.shutdown();
    shard.shutdown();
}

/// A router with every shard down sheds typed errors instead of
/// hanging, and recovers when a shard comes back.
#[test]
fn empty_fleet_sheds_and_recovers_when_a_shard_returns() {
    // Reserve an address, then drop the listener: the router dials a
    // dead port until the real shard binds it... ports may be reused, so
    // instead start the router against a never-bound port first.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr = placeholder.local_addr().expect("addr");
    drop(placeholder);

    let mut config = RouterConfig::new(vec![ShardSpec {
        name: "late".to_string(),
        addr,
    }]);
    config.reconnect_interval = Duration::from_millis(50);
    let router = Router::start(config, "127.0.0.1:0").expect("bind router");

    let mut client = Client::connect(router.addr()).expect("connect router");
    let (_, _, req) = nth_gradient(0, 0);
    let frame = client.call_tracked(&req).expect("router transport");
    assert!(
        matches!(
            &frame.result,
            Err(roboshape_serve::ServeError::Rejected { .. })
        ),
        "no shard alive must be a typed shed, got {:?}",
        frame.result
    );

    // Health with nothing alive: answered, not ready.
    let report = client.health().expect("health with empty fleet");
    assert!(!report.ready);

    // Bring the shard up on the reserved address and wait for recovery.
    let shard = Shard::start("late", zoo_engine(), addr).expect("bind shard on reserved port");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let frame = client.call_tracked(&req).expect("router transport");
        match frame.result {
            Ok(payload) => {
                assert!(matches!(payload, ServePayload::Gradient { .. }));
                break;
            }
            Err(e) => {
                assert!(e.is_retryable(), "unexpected terminal error: {e:?}");
                assert!(
                    std::time::Instant::now() < deadline,
                    "router never recovered the shard"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }

    router.shutdown();
    shard.shutdown();
}

/// A router started on a private registry counts exactly what it
/// routed there: no other test's traffic bleeds into it.
#[test]
fn router_counts_exactly_on_a_private_registry() {
    let registry = MetricsRegistry::new();
    let shard = Shard::start("solo", zoo_engine(), "127.0.0.1:0").expect("bind shard");
    let router = Router::start_with_registry(
        RouterConfig::new(vec![ShardSpec {
            name: "solo".to_string(),
            addr: shard.addr(),
        }]),
        "127.0.0.1:0",
        &registry,
    )
    .expect("bind router");
    let counter = |name: &str| {
        registry
            .snapshot()
            .counters
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    };
    // Resolved at start: the whole vocabulary is present before traffic.
    assert_eq!(counter(ROUTER_REQUESTS_METRIC), Some(0));

    // Wait for the shard link (hello frames are not counted requests).
    let mut client = Client::connect(router.addr()).expect("connect router");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.hello().expect("router hello").robots.is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "shard link never came up"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    const REQUESTS: usize = 6;
    for i in 0..REQUESTS {
        let (_, _, req) = nth_gradient(0, i);
        let frame = client.call_tracked(&req).expect("router transport");
        assert!(matches!(frame.result, Ok(ServePayload::Gradient { .. })));
        assert!(!frame.rerouted);
    }
    // Responses are counted before they are sent, so these are final.
    assert_eq!(counter(ROUTER_REQUESTS_METRIC), Some(REQUESTS as u64));
    assert_eq!(counter(ROUTER_RESPONSES_METRIC), Some(REQUESTS as u64));
    assert_eq!(counter(ROUTER_REROUTED_METRIC), Some(0));
    assert_eq!(counter(ROUTER_SHED_METRIC), Some(0));
    assert_eq!(counter(ROUTER_FAILOVERS_METRIC), Some(0));

    router.shutdown();
    shard.shutdown();
}
