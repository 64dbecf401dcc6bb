//! End-to-end loopback tests: engine + TCP server + clients in one
//! process, asserting the served responses are *bit-identical* to
//! direct simulation, that overload sheds with typed errors, and that
//! shutdown drains in-flight requests.

use roboshape_robots::{zoo, Zoo};
use roboshape_serve::loadgen::request_inputs;
use roboshape_serve::proto::{
    decode_response, encode_request, frame_bytes, read_frame, RequestFrame,
};
use roboshape_serve::{
    Client, Engine, EngineConfig, Router, RouterConfig, ServeError, ServePayload, ServeRequest,
    Server, Shard, ShardSpec,
};
use roboshape_sim::{try_simulate, try_simulate_kinematics};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn serve_zoo(cfg: EngineConfig) -> Server {
    let engine = Engine::new(cfg);
    for which in Zoo::ALL {
        engine.register(which.name(), zoo(which));
    }
    Server::start(engine, "127.0.0.1:0").expect("bind loopback")
}

/// Four concurrent clients, each hitting a different mix of zoo robots
/// with ∇FD and FK requests; every response must match a direct
/// in-process simulation on the same design, down to the float bits.
#[test]
fn concurrent_clients_get_bit_identical_results() {
    let server = serve_zoo(EngineConfig::default());
    let addr = server.addr();
    let engine = server.engine().clone();

    let handles: Vec<_> = (0..4)
        .map(|client_idx| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..6 {
                    let which = Zoo::ALL[(client_idx + i) % Zoo::ALL.len()];
                    let robot = zoo(which);
                    let n = robot.num_links();
                    let seed = (client_idx * 100 + i) as u64;
                    let (q, qd, tau) = request_inputs(n, seed);

                    // ∇FD over the wire vs. directly on the same design.
                    let served = client
                        .call(&ServeRequest::gradient(
                            which.name(),
                            q.clone(),
                            qd.clone(),
                            tau.clone(),
                        ))
                        .expect("transport")
                        .expect("payload");
                    let design = engine
                        .design_for(which.name(), roboshape_arch::KernelKind::DynamicsGradient)
                        .unwrap();
                    let reference = try_simulate(&robot, &design, &q, &qd, &tau).unwrap();
                    match served {
                        ServePayload::Gradient {
                            tau: tau_out,
                            dqdd_dq,
                            dqdd_dqd,
                            cycles,
                        } => {
                            assert_eq!(cycles, reference.stats.cycles, "{}", which.name());
                            for j in 0..n {
                                assert_eq!(
                                    tau_out[j].to_bits(),
                                    reference.tau[j].to_bits(),
                                    "τ[{j}] of {}",
                                    which.name()
                                );
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
                        }
                        other => panic!("wrong payload: {other:?}"),
                    }

                    // FK over the wire vs. direct.
                    let served = client
                        .call(&ServeRequest::kinematics(which.name(), q.clone()))
                        .expect("transport")
                        .expect("payload");
                    let fk_design = engine
                        .design_for(which.name(), roboshape_arch::KernelKind::ForwardKinematics)
                        .unwrap();
                    let (poses, stats) = try_simulate_kinematics(&robot, &fk_design, &q).unwrap();
                    match served {
                        ServePayload::Kinematics {
                            poses: flat,
                            cycles,
                        } => {
                            assert_eq!(cycles, stats.cycles);
                            assert_eq!(flat.len(), 12 * n);
                            for (link, x) in poses.iter().enumerate() {
                                let t = x.translation();
                                assert_eq!(flat[link * 12 + 9].to_bits(), t.x.to_bits());
                                assert_eq!(flat[link * 12 + 10].to_bits(), t.y.to_bits());
                                assert_eq!(flat[link * 12 + 11].to_bits(), t.z.to_bits());
                                for r in 0..3 {
                                    for c in 0..3 {
                                        assert_eq!(
                                            flat[link * 12 + r * 3 + c].to_bits(),
                                            x.rotation().get(r, c).to_bits()
                                        );
                                    }
                                }
                            }
                        }
                        other => panic!("wrong payload: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    let stats = engine.stats();
    assert_eq!(
        stats.completed,
        4 * 6 * 2,
        "all requests answered: {stats:?}"
    );
    assert_eq!(stats.shed, 0, "no shedding at this load: {stats:?}");
    server.shutdown();
}

/// An over-capacity burst against a paused engine: the surplus must
/// come back as typed `Rejected` responses (never a panic or a hang),
/// and the shed/latency metrics must land in the global snapshot.
#[test]
fn overload_burst_sheds_with_typed_rejections() {
    let server = serve_zoo(EngineConfig {
        queue_capacity: 2,
        workers_per_robot: 1,
        start_paused: true,
        ..EngineConfig::default()
    });
    let engine = server.engine().clone();
    let mut client = Client::connect(server.addr()).expect("connect");

    let n = zoo(Zoo::Iiwa).num_links();
    let burst = 10;
    for _ in 0..burst {
        client
            .send(&ServeRequest::kinematics("iiwa", vec![0.2; n]))
            .expect("send");
    }
    // Admission decisions happen on the server's reader thread while
    // the workers are paused; wait until all ten are decided (accepted
    // or shed), then resume so the two queued requests complete.
    // Responses stream back in submission order.
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.stats().submitted + engine.stats().shed < burst as u64 {
        assert!(Instant::now() < deadline, "burst never fully admitted");
        std::thread::sleep(Duration::from_millis(2));
    }
    engine.resume();

    let mut ok = 0u32;
    let mut shed = 0u32;
    for _ in 0..burst {
        let frame = client.recv().expect("recv");
        match frame.result {
            Ok(_) => ok += 1,
            Err(ServeError::Rejected { reason }) => {
                assert_eq!(reason, "queue full");
                shed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(
        shed >= burst - 2,
        "queue of 2 sheds the surplus, shed={shed}"
    );
    assert_eq!(ok + shed, burst);
    assert_eq!(engine.stats().shed as u32, shed);

    // The global metrics snapshot (what `--metrics` writes) carries the
    // serve counters and the latency histogram.
    let snapshot = roboshape_obs::metrics().snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(counter(roboshape_serve::SHED_METRIC) >= shed as u64);
    assert!(counter(roboshape_serve::REQUESTS_METRIC) >= ok as u64);
    assert!(
        snapshot
            .histograms
            .iter()
            .any(|(k, h)| k == roboshape_serve::LATENCY_METRIC && h.count > 0),
        "latency histogram populated"
    );
    let json = snapshot.to_json();
    assert!(
        json.contains("serve.shed"),
        "snapshot JSON names the metric"
    );
    server.shutdown();
}

/// Graceful shutdown: requests accepted before shutdown still get their
/// responses — the engine drains rather than dropping tickets.
#[test]
fn shutdown_drains_in_flight_requests() {
    let server = serve_zoo(EngineConfig {
        workers_per_robot: 1,
        start_paused: true,
        ..EngineConfig::default()
    });
    let engine = server.engine().clone();
    let mut client = Client::connect(server.addr()).expect("connect");

    let n = zoo(Zoo::Hyq).num_links();
    let sent = 6;
    for i in 0..sent {
        let (q, qd, tau) = request_inputs(n, i);
        client
            .send(&ServeRequest::gradient("HyQ", q, qd, tau))
            .expect("send");
    }
    // Make sure all six are queued before shutdown begins (submission
    // happens on the server's reader thread).
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.stats().submitted < sent {
        assert!(Instant::now() < deadline, "requests never queued");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Shutdown drains the paused queue; afterwards all six responses
    // must already be on the wire.
    server.shutdown();
    for _ in 0..sent {
        let frame = client.recv().expect("drained response");
        assert!(frame.result.is_ok(), "{:?}", frame.result);
    }
    assert_eq!(engine.stats().completed, sent);

    // The engine refuses new work after shutdown.
    let err = engine
        .submit(ServeRequest::kinematics("HyQ", vec![0.0; n]))
        .unwrap_err();
    assert!(matches!(err, ServeError::Rejected { .. }));
}

/// Runs `check` against each front-end's address: a lone [`Server`],
/// then a [`Router`] fronting one [`Shard`]. Both answer framing
/// violations from the same event-loop core.
fn against_each_front_end(check: impl Fn(SocketAddr)) {
    let server = serve_zoo(EngineConfig::default());
    check(server.addr());
    server.shutdown();

    let engine = Engine::new(EngineConfig::default());
    engine.register("iiwa", zoo(Zoo::Iiwa));
    let shard = Shard::start("only", engine, "127.0.0.1:0").expect("bind shard");
    let spec = ShardSpec {
        name: "only".to_string(),
        addr: shard.addr(),
    };
    let router = Router::start(RouterConfig::new(vec![spec]), "127.0.0.1:0").expect("bind router");
    check(router.addr());
    router.shutdown();
    shard.shutdown();
}

/// A frame whose header declares a body longer than the protocol cap is
/// rejected with a *typed* error the client can observe — never a
/// silent connection drop. The front-end answers on correlation id 0
/// (it cannot trust anything past the bogus header) and then closes.
#[test]
fn oversized_declared_frame_gets_a_typed_rejection() {
    use roboshape_serve::proto;

    against_each_front_end(|addr| {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");

        // Hand-rolled malicious header: len = u32::MAX, any checksum.
        let mut header = Vec::new();
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        raw.write_all(&header).expect("write bogus header");

        let body = proto::read_frame(&mut raw)
            .expect("typed response before close")
            .expect("a frame, not EOF");
        let frame = proto::decode_response(&body).expect("decodable response");
        assert_eq!(frame.id, 0, "framing violations answer on id 0");
        match frame.result {
            Err(ServeError::BadRequest(msg)) => {
                assert!(msg.contains("exceeds"), "typed oversize error: {msg}");
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // After the violation the front-end closes the stream.
        assert!(
            proto::read_frame(&mut raw).expect("clean EOF").is_none(),
            "connection closed after framing violation"
        );
    });
}

/// A frame whose body fails its checksum is likewise answered with a
/// typed error naming the corruption, then the connection closes.
#[test]
fn corrupted_request_frame_gets_a_typed_rejection() {
    use roboshape_serve::proto;

    against_each_front_end(|addr| {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");

        let n = zoo(Zoo::Iiwa).num_links();
        let body = proto::encode_request(&proto::RequestFrame {
            id: 3,
            req: ServeRequest::kinematics("iiwa", vec![0.1; n]),
        });
        let mut wire = proto::frame_bytes(&body);
        let idx = proto::HEADER_LEN + 2;
        wire[idx] ^= 0x40; // flip one body bit after the checksum was computed
        raw.write_all(&wire).expect("write corrupted frame");

        let body = proto::read_frame(&mut raw)
            .expect("typed response before close")
            .expect("a frame, not EOF");
        let frame = proto::decode_response(&body).expect("decodable response");
        assert_eq!(frame.id, 0);
        match frame.result {
            Err(ServeError::BadRequest(msg)) => {
                assert!(msg.contains("checksum"), "typed corruption error: {msg}");
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
        assert!(
            proto::read_frame(&mut raw).expect("clean EOF").is_none(),
            "connection closed after framing violation"
        );
    });
}

/// A deadline shorter than the queueing delay comes back as the typed
/// `DeadlineExceeded`, end to end over TCP.
#[test]
fn missed_deadlines_are_reported_over_the_wire() {
    let server = serve_zoo(EngineConfig {
        workers_per_robot: 1,
        start_paused: true,
        ..EngineConfig::default()
    });
    let engine = server.engine().clone();
    let mut client = Client::connect(server.addr()).expect("connect");
    let n = zoo(Zoo::Iiwa).num_links();
    client
        .send(
            &ServeRequest::kinematics("iiwa", vec![0.1; n]).with_deadline(Duration::from_micros(1)),
        )
        .expect("send");
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.stats().submitted < 1 {
        assert!(Instant::now() < deadline, "request never queued");
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(5));
    engine.resume();
    let frame = client.recv().expect("recv");
    assert_eq!(frame.result, Err(ServeError::DeadlineExceeded));
    server.shutdown();
}

/// Asserts a served ∇FD payload equals direct simulation on the same
/// design, bit for bit.
fn assert_gradient_bit_exact(
    engine: &Engine,
    which: Zoo,
    req: &ServeRequest,
    served: ServePayload,
) {
    let robot = zoo(which);
    let n = robot.num_links();
    let design = engine
        .design_for(which.name(), roboshape_arch::KernelKind::DynamicsGradient)
        .unwrap();
    let reference = try_simulate(&robot, &design, &req.q, &req.qd, &req.tau).unwrap();
    let ServePayload::Gradient {
        tau,
        dqdd_dq,
        dqdd_dqd,
        cycles,
    } = served
    else {
        panic!("wrong payload: {served:?}");
    };
    assert_eq!(cycles, reference.stats.cycles, "{}", which.name());
    for j in 0..n {
        assert_eq!(tau[j].to_bits(), reference.tau[j].to_bits());
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
}

/// A lone closed-loop client sends one frame at a time, so every request
/// is the only frame of its loop wake and finds its robot's queue empty:
/// the event loop runs each one inline, and the answers stay bit-exact.
#[test]
fn sequential_calls_run_inline_on_the_event_loop() {
    let server = serve_zoo(EngineConfig::default());
    let engine = server.engine().clone();
    let mut client = Client::connect(server.addr()).expect("connect");
    let calls = 12;
    for i in 0..calls {
        let which = Zoo::ALL[i % Zoo::ALL.len()];
        let (q, qd, tau) = request_inputs(zoo(which).num_links(), i as u64);
        let req = ServeRequest::gradient(which.name(), q, qd, tau);
        let served = client.call(&req).expect("transport").expect("payload");
        assert_gradient_bit_exact(&engine, which, &req, served);
    }
    let stats = engine.stats();
    assert_eq!(stats.inline, calls as u64, "{stats:?}");
    assert_eq!(stats.completed, calls as u64, "{stats:?}");
    server.shutdown();
}

/// Eight frames written in one burst over robots with different kernel
/// costs come back in submission order and bit-exact, whichever of them
/// ran inline or on workers.
#[test]
fn pipelined_burst_answers_in_submission_order_bit_exact() {
    let server = serve_zoo(EngineConfig::default());
    let engine = server.engine().clone();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let burst: Vec<(Zoo, ServeRequest)> = (0..8usize)
        .map(|i| {
            let which = Zoo::ALL[i % Zoo::ALL.len()];
            let (q, qd, tau) = request_inputs(zoo(which).num_links(), 900 + i as u64);
            (which, ServeRequest::gradient(which.name(), q, qd, tau))
        })
        .collect();
    let mut wire = Vec::new();
    for (id, (_, req)) in burst.iter().enumerate() {
        wire.extend(frame_bytes(&encode_request(&RequestFrame {
            id: id as u64,
            req: req.clone(),
        })));
    }
    stream.write_all(&wire).expect("send burst");
    for (id, (which, req)) in burst.iter().enumerate() {
        let body = read_frame(&mut stream)
            .expect("recv")
            .expect("server kept the connection open");
        let frame = decode_response(&body).expect("decodable response");
        assert_eq!(frame.id, id as u64, "submission order");
        assert_gradient_bit_exact(&engine, *which, req, frame.result.expect("payload"));
    }
    assert_eq!(engine.stats().completed, 8);
    server.shutdown();
}
