//! The counting-model workload (`fig9-model`) and the policy/sim rung.
//!
//! The plain run times the public `replay_open_loop` (ops/s, simulated
//! response) and then replays the same trace through an instrumented
//! copy of its loop that times every `CachePolicy::access` call (host
//! read/write latency). The copy must reproduce the library's report
//! exactly; a difference is a failed self-check.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use kdd_cache::policies::{CachePolicy, RaidModel};
use kdd_cache::CacheStats;
use kdd_sim::factory::{build_policy, PolicyKind};
use kdd_sim::openloop::{replay_open_loop, OpenLoopReport};
use kdd_sim::{MultiServer, ServiceModel};
use kdd_trace::{Op, Trace};
use kdd_util::stats::{Histogram, StreamingStats};
use kdd_util::units::SimTime;

use crate::engine_run;
use crate::inputs::{engine_inputs, fig9_trace, EngineInputs, PageOp, Shape, Workload};
use crate::report::Report;
use crate::stats::{latency_pcts, mean, median, quantile, ratio, tail_mean_sorted, TAIL_SHARE};
use crate::{alloc, rungs, Opts};

/// Member disks of the Figure 9 array.
const FIG9_DISKS: usize = 5;
/// Concurrent clients of a closed-loop stream (the FIO thread count).
const CLOSED_LOOP_CLIENTS: usize = 16;

/// How requests arrive at the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// At their trace timestamps (open loop, as `replay_open_loop`).
    Open,
    /// `n` clients, each issuing its next request when the previous one
    /// completes.
    Closed(usize),
}

/// What one instrumented model replay produced.
#[derive(Debug)]
pub struct Drive {
    /// Host ns of each access, in op order.
    pub op_ns: Vec<f64>,
    /// Host ns of accesses that wrote a DEZ page.
    pub dez_ns: Vec<f64>,
    /// Host ns spent in `idle_tick`.
    pub idle_ns: f64,
    /// Host seconds of the whole loop.
    pub wall_s: f64,
    /// Summed simulated queueing delay (response minus own service).
    pub queue_wait_ns: f64,
    /// Response-time statistics, computed as `replay_open_loop` does.
    pub resp: StreamingStats,
    /// Response-time histogram, as `replay_open_loop` keeps it.
    pub hist: Histogram,
    /// Every response time, µs, in request order.
    pub resp_us: Vec<f64>,
    /// Policy counters before the final flush.
    pub stats: CacheStats,
}

impl Drive {
    /// The report `replay_open_loop` would return for this replay.
    pub fn as_report(&self, policy: &dyn CachePolicy) -> OpenLoopReport {
        OpenLoopReport {
            policy: policy.name(),
            requests: self.resp.count(),
            mean_response: SimTime::from_nanos(self.resp.mean() as u64),
            p50: SimTime::from_nanos(self.hist.quantile(0.5).unwrap_or(0)),
            p99: SimTime::from_nanos(self.hist.quantile(0.99).unwrap_or(0)),
            hit_ratio: policy.stats().hit_ratio(),
        }
    }
}

/// Replay `ops` through `policy` on a `disks`-server queue, timing every
/// access. With [`Arrivals::Open`] this is `replay_open_loop`'s loop
/// (idle ticks, queueing, response model) at speedup 1.
pub fn drive(
    policy: &mut dyn CachePolicy,
    ops: &[PageOp],
    arrivals: Arrivals,
    model: &ServiceModel,
    disks: usize,
) -> Drive {
    let mut raid = MultiServer::new(disks);
    let mut clients: BinaryHeap<Reverse<SimTime>> = match arrivals {
        Arrivals::Open => BinaryHeap::new(),
        Arrivals::Closed(n) => (0..n.max(1)).map(|_| Reverse(SimTime::ZERO)).collect(),
    };
    let idle_threshold = SimTime::from_secs(2);
    let mut prev_arrival = SimTime::ZERO;
    let mut d = Drive {
        op_ns: Vec::with_capacity(ops.len()),
        dez_ns: Vec::new(),
        idle_ns: 0.0,
        wall_s: 0.0,
        queue_wait_ns: 0.0,
        resp: StreamingStats::new(),
        hist: Histogram::new(),
        resp_us: Vec::with_capacity(ops.len()),
        stats: CacheStats::default(),
    };
    let t0 = Instant::now();
    for op in ops {
        let arrival = match clients.pop() {
            Some(Reverse(free)) => free,
            None => op.at,
        };
        if arrivals == Arrivals::Open
            && arrival.saturating_sub(prev_arrival.max(raid.next_free())) > idle_threshold
        {
            let c0 = Instant::now();
            policy.idle_tick();
            d.idle_ns += c0.elapsed().as_nanos() as f64;
        }
        prev_arrival = arrival;
        let c0 = Instant::now();
        let outcome = policy.access(op.op, op.lba);
        let ns = c0.elapsed().as_nanos() as f64;
        d.op_ns.push(ns);
        if outcome.total().ssd_delta_writes > 0 {
            d.dez_ns.push(ns);
        }
        let fx = outcome.foreground;
        let rounds = fx.raid_rounds;
        let ssd_fx = kdd_cache::Effects { raid_rounds: 0, raid_reads: 0, raid_writes: 0, ..fx };
        let ssd_cpu = model.response_time(&ssd_fx);
        let done = if rounds > 0 {
            raid.serve_rounds(arrival, model.hdd_op, rounds) + ssd_cpu
        } else {
            arrival + ssd_cpu
        };
        if let Arrivals::Closed(_) = arrivals {
            clients.push(Reverse(done));
        }
        let resp = done - arrival;
        let service = model.hdd_op * u64::from(rounds) + ssd_cpu;
        d.queue_wait_ns += resp.saturating_sub(service).as_nanos() as f64;
        d.resp.record(resp.as_nanos() as f64);
        d.hist.record(resp.as_nanos());
        d.resp_us.push(resp.as_nanos() as f64 / 1e3);
    }
    d.stats = *policy.stats();
    policy.flush();
    d.wall_s = t0.elapsed().as_secs_f64();
    d
}

/// Page ops of a timestamped trace.
pub fn page_ops(trace: &Trace) -> Vec<PageOp> {
    trace
        .records
        .iter()
        .flat_map(|r| r.pages().map(move |lba| PageOp { op: r.op, lba, at: r.time }))
        .collect()
}

/// Policy/sim rung figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyRung {
    /// Mean host µs per access.
    pub access_us: f64,
    /// p99 host µs per access.
    pub access_p99_us: f64,
    /// Mean host µs of accesses that wrote a DEZ page.
    pub dez_us: f64,
    /// DEZ-writing accesses.
    pub dez_n: u64,
    /// Share of model host time spent in `idle_tick`.
    pub idle_share: f64,
    /// Mean simulated queueing delay, µs.
    pub queue_wait_us: f64,
    /// Accesses.
    pub n: u64,
}

impl PolicyRung {
    fn of(d: &Drive) -> PolicyRung {
        let all = &d.op_ns;
        let total: f64 = all.iter().sum();
        PolicyRung {
            access_us: mean(all) / 1e3,
            access_p99_us: quantile(all, 0.99) / 1e3,
            dez_us: mean(&d.dez_ns) / 1e3,
            dez_n: d.dez_ns.len() as u64,
            idle_share: ratio(d.idle_ns, d.idle_ns + total),
            queue_wait_us: ratio(d.queue_wait_ns, all.len() as f64) / 1e3,
            n: all.len() as u64,
        }
    }

    /// Set the `policy.*` and `sim.*` metrics.
    pub fn apply(&self, rep: &mut Report) {
        rep.set("policy.access_us", self.access_us, self.n);
        rep.set("policy.access_p99_us", self.access_p99_us, self.n);
        rep.set("policy.dez_commit_access_us", self.dez_us, self.dez_n);
        rep.set("policy.idle_tick_share", self.idle_share, self.n);
        rep.set("sim.queue_wait_us", self.queue_wait_us, self.n);
    }
}

fn kdd_policy(shape: &Shape, seed: u64) -> Box<dyn CachePolicy> {
    build_policy(PolicyKind::Kdd(0.25), shape.geometry(), RaidModel { layout: shape.layout }, seed)
}

/// The counting model of an engine workload's geometry, driven by the
/// workload's own page stream (open loop on trace timestamps, or
/// closed loop with 16 clients for the FIO-style stream).
pub fn policy_rung(inputs: &EngineInputs, seed: u64) -> PolicyRung {
    let mut p = kdd_policy(&inputs.shape, seed);
    let closed = inputs.stream.iter().all(|o| o.at == SimTime::ZERO);
    let arrivals = if closed { Arrivals::Closed(CLOSED_LOOP_CLIENTS) } else { Arrivals::Open };
    let model = ServiceModel::paper_default();
    let d = drive(p.as_mut(), &inputs.stream, arrivals, &model, inputs.shape.layout.disks);
    PolicyRung::of(&d)
}

fn same_report(a: &OpenLoopReport, b: &OpenLoopReport) -> bool {
    a.requests == b.requests
        && a.mean_response == b.mean_response
        && a.p50 == b.p50
        && a.p99 == b.p99
        && a.hit_ratio.to_bits() == b.hit_ratio.to_bits()
}

/// Run `fig9-model`.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(Workload::Fig9Model, opts.trace);
    let model = ServiceModel::paper_default();
    let t_start = Instant::now();
    let (mut setup_s, mut trace_s, mut build_s) = (vec![], vec![], vec![]);
    let (mut ops_per_s, mut pcts) = (Vec::new(), Vec::new());
    let mut rungs_seen = Vec::new();
    let mut oracle: Option<(OpenLoopReport, CacheStats, f64)> = None;
    let (mut mem_mb, mut sim_tail_us, mut overhead) = (0.0, 0.0, 0.0);
    let mut writes = 0;
    loop {
        let i = rungs_seen.len();
        let s0 = Instant::now();
        let trace = fig9_trace(opts.seed, opts.size);
        let ops = page_ops(&trace);
        let shape = Shape::fig9(&trace);
        trace_s.push(s0.elapsed().as_secs_f64());
        let live0 = alloc::live_bytes();
        alloc::reset_peak();
        let b0 = Instant::now();
        let mut policy = kdd_policy(&shape, opts.seed);
        build_s.push(b0.elapsed().as_secs_f64());
        setup_s.push(s0.elapsed().as_secs_f64());

        if i == 0 {
            // The public replay, once: the oracle the instrumented loop
            // must reproduce, and the memory figure.
            let t0 = Instant::now();
            let a = replay_open_loop(policy.as_mut(), &trace, &model, FIG9_DISKS, 1);
            let a_ops_per_s = a.requests as f64 / t0.elapsed().as_secs_f64();
            mem_mb = alloc::peak_bytes().saturating_sub(live0) as f64 / (1u64 << 20) as f64;
            oracle = Some((a, *policy.stats(), a_ops_per_s));
            policy = kdd_policy(&shape, opts.seed);
        }
        let Some((a, a_stats, a_ops_per_s)) = &oracle else { break };

        let mut d = drive(policy.as_mut(), &ops, Arrivals::Open, &model, FIG9_DISKS);
        let b = d.as_report(policy.as_ref());
        rep.attempted += ops.len() as u64;
        rep.checks += 1;
        if !same_report(a, &b) || a_stats != policy.stats() {
            rep.mismatches += 1;
            rep.problem(format!(
                "repeat {i}: instrumented replay disagrees with replay_open_loop: {a:?} vs {b:?}"
            ));
        }
        if i == 0 {
            overhead = 1.0 - ratio(ops.len() as f64 / d.wall_s, *a_ops_per_s);
            d.resp_us.sort_by(f64::total_cmp);
            sim_tail_us = tail_mean_sorted(&d.resp_us, 1.0 - TAIL_SHARE);
            writes = ops.iter().filter(|o| o.op == Op::Write).count() as u64;
        }
        ops_per_s.push(ops.len() as f64 / d.wall_s);
        pcts.push(latency_pcts(ops.iter().zip(&d.op_ns).map(|(o, &ns)| (o.op == Op::Read, ns, 1))));
        rungs_seen.push(PolicyRung::of(&d));
        if t_start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    rep.repeats = rungs_seen.len() as u64;
    let n = rep.repeats;
    let Some((a, stats, _)) = oracle else {
        rep.problem("no repeat completed");
        return rep;
    };

    engine_run::set_host_figures(&mut rep, &ops_per_s, &pcts);
    if !opts.trace {
        rep.set("sim_resp_mean_us", a.mean_response.as_nanos() as f64 / 1e3, a.requests);
        rep.set("sim_resp_tail_us", sim_tail_us, a.requests);
        rep.set(
            "ssd_bytes_per_user_byte",
            ratio(stats.ssd_writes_pages() as f64, writes as f64),
            writes,
        );
        let ios = (stats.raid_reads + stats.raid_writes) as f64;
        rep.set("raid_ios_per_op", ratio(ios, a.requests as f64), a.requests);
        rep.set("setup_s", median(&setup_s), n);
        rep.set("mem_mb", mem_mb, 1);
        return rep;
    }

    // ---- traced run -----------------------------------------------------
    rep.set("trace.generate_s", median(&trace_s), n);
    rep.set("engine.build_s", median(&build_s), n);
    rep.set("bench.trace_overhead_frac", overhead, 1);
    let pick =
        |f: &dyn Fn(&PolicyRung) -> f64| median(&rungs_seen.iter().map(f).collect::<Vec<_>>());
    let pr = PolicyRung {
        access_us: pick(&|r| r.access_us),
        access_p99_us: pick(&|r| r.access_p99_us),
        dez_us: pick(&|r| r.dez_us),
        dez_n: rungs_seen[0].dez_n,
        idle_share: pick(&|r| r.idle_share),
        queue_wait_us: pick(&|r| r.queue_wait_us),
        n: rungs_seen[0].n,
    };
    pr.apply(&mut rep);
    engine_run::layer_ratios(&mut rep, &stats, a.requests);

    // The engine layers under the same trace prefix and geometry.
    let inputs = engine_inputs(Workload::Fig9Model, opts.seed, opts.size);
    rep.set("bench.payload_gen_s", inputs.payload_s, 1);
    let mut engine = match inputs.shape.build_engine() {
        Ok(e) => e,
        Err(e) => {
            rep.failed += 1;
            rep.problem(format!("engine build failed: {e}"));
            return rep;
        }
    };
    let r = engine_run::replay(&mut engine, &inputs, engine_run::Buffers::new(&inputs, true));
    rep.attempted += r.page_ops;
    rep.failed += r.failed;
    rep.checks += r.checks;
    rep.mismatches += r.mismatches;
    let mut post = Vec::new();
    engine_run::post_run_checks(engine, &inputs, &mut post, &mut rep);
    engine_run::engine_span_metrics(&mut rep, &r, &post);
    let rung = rungs::run(&inputs);
    rung.apply(&mut rep);
    engine_run::cleaner_rung(&mut rep, &inputs);
    let span_ns: f64 = r.spans.iter().map(|s| s.ns).sum();
    let budget = rungs::Budget::new(&rung, &r.d, &r.spans, &inputs);
    rep.set("engine.unexplained_frac", budget.unexplained_frac(span_ns), r.spans.len() as u64);
    rep.lines.push(format!(
        "## policy: {:.3} us/access, DEZ-writing accesses {:.3} us (n={}), idle_tick {:.2}% of model time",
        pr.access_us,
        pr.dez_us,
        pr.dez_n,
        pr.idle_share * 100.0
    ));
    rep.lines.extend(engine_run::class_table(&r.spans, &post));
    rep.lines.extend(budget.table(span_ns));
    rep
}
