//! Golden pins of the list scheduler's placements: every `(PEs_fwd,
//! PEs_bwd)` grid point of the six paper robots' task graphs (∇FD alone,
//! then all three kernels), in all four `(pipelined, limb_sequential)`
//! modes, folded into one FNV-1a-64 digest of `(task, pe, start, end,
//! class)` per entry. Any change to a single placement changes the
//! digest, so a scheduler rewrite that keeps it places exactly the same
//! tasks at exactly the same cycles.

use roboshape_robots::{zoo, Zoo};
use roboshape_taskgraph::{schedule, PeClass, SchedulerConfig, TaskGraph};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `(pipelined, limb_sequential)`, in digest order.
const MODES: [(bool, bool); 4] = [(true, true), (false, true), (true, false), (false, false)];

/// `(schedules, makespan sum, digest)` over the full grid of each
/// `(links, graph)` pair.
fn digest(graphs: &[(usize, TaskGraph)]) -> (usize, u64, u64) {
    let fold = |h: u64, x: u64| (h ^ x).wrapping_mul(FNV_PRIME);
    let (mut count, mut sum, mut h) = (0usize, 0u64, FNV_OFFSET);
    for &(n, ref graph) in graphs {
        for pf in 1..=n {
            for pb in 1..=n {
                for (pipelined, limb_sequential) in MODES {
                    let mut cfg = SchedulerConfig::with_pes(pf, pb);
                    cfg.pipelined = pipelined;
                    cfg.limb_sequential = limb_sequential;
                    let s = schedule(graph, &cfg);
                    for e in s.entries() {
                        for x in [
                            e.task.0 as u64,
                            e.pe as u64,
                            e.start,
                            e.end,
                            u64::from(e.pe_class == PeClass::Backward),
                        ] {
                            h = fold(h, x);
                        }
                    }
                    count += 1;
                    sum += s.makespan();
                }
            }
        }
    }
    (count, sum, h)
}

#[test]
fn paper_robot_schedules_match_the_golden_digest() {
    let graphs: Vec<(usize, TaskGraph)> = Zoo::ALL
        .iter()
        .map(|&z| {
            let topo = zoo(z).topology().clone();
            (topo.len(), TaskGraph::dynamics_gradient(&topo))
        })
        .collect();
    assert_eq!(digest(&graphs), (4092, 2_122_995, 0xa7c8_42fb_1e8e_a821));
}

#[test]
fn all_kernel_schedules_match_the_golden_digest() {
    let mut graphs: Vec<(usize, TaskGraph)> = Vec::new();
    for z in Zoo::ALL {
        let topo = zoo(z).topology().clone();
        for graph in [
            TaskGraph::dynamics_gradient(&topo),
            TaskGraph::inverse_dynamics(&topo),
            TaskGraph::forward_kinematics(&topo),
        ] {
            graphs.push((topo.len(), graph));
        }
    }
    assert_eq!(digest(&graphs), (12_276, 3_336_213, 0x6887_354d_818e_c817));
}
