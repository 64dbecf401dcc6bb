//! Direct timings of single layers, taken by calling their public
//! functions in a loop on the inputs the workload used.

use crate::report::Metrics;
use roboshape::{
    try_simulate, BackendKind, CompiledProgram, KernelKind, MatmulLatencyModel, PatternKind,
    Pipeline, RobotModel, SchedulerConfig, SimScratch,
};
use roboshape_arch::MatmulUnits;
use roboshape_blocksparse::block_matmul_latency;
use roboshape_serve::proto::{
    decode_response, encode_request, encode_response, RequestFrame, ResponseFrame, HEADER_LEN,
};
use roboshape_serve::{Engine, ServePayload, ServeRequest};
use roboshape_taskgraph::schedule_makespan;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time each probe spends per measured quantity.
const BUDGET: Duration = Duration::from_millis(150);

/// Mean time of one `f()` in nanoseconds, over at least `BUDGET`.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < BUDGET {
        for _ in 0..8 {
            f();
        }
        calls += 8;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

fn gradient_design(engine: &Engine, name: &str) -> std::sync::Arc<roboshape::AcceleratorDesign> {
    engine
        .design_for(name, KernelKind::DynamicsGradient)
        .expect("robot registered")
}

/// Codec, kernel and compile timings for the serving workloads.
pub fn serve_layers(
    m: &mut Metrics,
    engine: &Engine,
    models: &[(&str, &RobotModel)],
    requests: &[ServeRequest],
    kept: &[(usize, ServePayload)],
) {
    let mut frames: Vec<RequestFrame> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| RequestFrame {
            id: i as u64,
            req: req.clone(),
        })
        .collect();
    let mut i = 0;
    m.set(
        "serve.proto.encode_ns",
        ns_per_call(|| {
            i = (i + 1) % frames.len();
            frames[i].id += 1;
            black_box(encode_request(black_box(&frames[i])));
        }),
    );
    let replies: Vec<Vec<u8>> = kept
        .iter()
        .enumerate()
        .map(|(id, (_, payload))| {
            encode_response(&ResponseFrame::direct(id as u64, Ok(payload.clone())))
        })
        .collect();
    if !replies.is_empty() {
        let bytes = replies
            .iter()
            .map(|r| (r.len() + HEADER_LEN) as f64)
            .sum::<f64>();
        m.set("serve.proto.resp_bytes", bytes / replies.len() as f64);
        let mut i = 0;
        m.set(
            "serve.proto.decode_ns",
            ns_per_call(|| {
                i = (i + 1) % replies.len();
                black_box(decode_response(black_box(&replies[i])).expect("own encoding decodes"));
            }),
        );
    }

    // Warm scalar ∇FD through the public entry point, weighted equally
    // across robots as the round-robin request mix is.
    let mut exec_us = 0.0;
    let mut compile_us = 0.0;
    for (name, model) in models {
        let design = gradient_design(engine, name);
        let req = requests
            .iter()
            .find(|r| r.robot == *name)
            .expect("a request per robot");
        exec_us += ns_per_call(|| {
            black_box(
                try_simulate(model, &design, &req.q, &req.qd, &req.tau).expect("valid input"),
            );
        }) / 1e3;
        let t = Instant::now();
        black_box(CompiledProgram::compile_for(&design, BackendKind::Lanes));
        compile_us += t.elapsed().as_secs_f64() * 1e6;
    }
    m.set("sim.exec_us", exec_us / models.len() as f64);
    m.set("sim.compile_us", compile_us / models.len() as f64);

    if let Some((name, model)) = models.iter().find(|(n, _)| *n == "HyQ") {
        for (batch, metric) in [(4, "sim.lanes_b4_us"), (8, "sim.lanes_b8_us")] {
            let per_batch = lanes_batch_us(engine, name, model, requests, batch as f64);
            m.set(metric, per_batch / batch as f64);
        }
    }
}

/// Time of one lane-backend ∇FD batch of `batch` (rounded, 1–8) of
/// `name`'s requests, in µs.
pub fn lanes_batch_us(
    engine: &Engine,
    name: &str,
    model: &RobotModel,
    requests: &[ServeRequest],
    batch: f64,
) -> f64 {
    let batch = (batch.round() as usize).clamp(1, 8);
    let design = gradient_design(engine, name);
    let program = roboshape::shared_program_for(&design, BackendKind::Lanes);
    let inputs: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = requests
        .iter()
        .filter(|r| r.robot == name)
        .take(batch)
        .map(|r| (r.q.clone(), r.qd.clone(), r.tau.clone()))
        .collect();
    let mut scratch = SimScratch::new();
    let mut outs = Vec::new();
    ns_per_call(|| {
        black_box(
            program
                .execute_batch_into(model, &mut scratch, &inputs, &mut outs)
                .expect("valid batch"),
        );
    }) / 1e3
}

/// Scheduler and blocked mat-mul latency-model timings for the sweep's
/// robots, through the pipeline's cached graphs and patterns.
pub fn design_layers(m: &mut Metrics, models: &[&RobotModel]) {
    let pipeline = Pipeline::new();
    let mut schedule_us = 0.0;
    let mut matmul_ns = 0.0;
    for model in models {
        let topo = model.topology();
        let n = topo.len();
        let graph = pipeline.task_graph(topo, KernelKind::DynamicsGradient);
        let configs = [
            SchedulerConfig::with_pes(1, 1),
            SchedulerConfig::with_pes(n.div_ceil(2), n.div_ceil(2)),
            SchedulerConfig::with_pes(n, n),
        ];
        let mut k = 0;
        schedule_us += ns_per_call(|| {
            k = (k + 1) % configs.len();
            black_box(schedule_makespan(&graph, &configs[k]));
        }) / 1e3;
        let pattern = pipeline.pattern(topo, PatternKind::InverseMass);
        let latency_model = MatmulLatencyModel::default();
        let units = MatmulUnits::PerLink.resolve(n);
        let mut block = 0;
        matmul_ns += ns_per_call(|| {
            block = block % n + 1;
            black_box(block_matmul_latency(
                &pattern,
                2 * n,
                block,
                units,
                &latency_model,
            ));
        });
    }
    m.set("taskgraph.schedule_us", schedule_us / models.len() as f64);
    m.set(
        "blocksparse.matmul_latency_ns",
        matmul_ns / models.len() as f64,
    );
}
