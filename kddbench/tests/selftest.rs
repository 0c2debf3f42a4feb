//! Self-tests of the benchmark: determinism, seed sensitivity, smoke
//! runs of every workload, and the metric contract with
//! `BENCHMARK.json`.

use kddbench::inputs::{engine_inputs, fig9_trace, Shape};
use kddbench::report::{END_TO_END, PER_LAYER};
use kddbench::{run, Opts, Size, Workload};

fn opts(workload: Workload, seed: u64, trace: bool) -> Opts {
    Opts { workload, seed, seconds: 0.0, trace, size: Size::Smoke }
}

/// Metrics that are pure functions of the seed (simulated time, counts
/// and ratios), as opposed to host time.
const DETERMINISTIC: [&str; 4] =
    ["sim_resp_mean_us", "sim_resp_tail_us", "ssd_bytes_per_user_byte", "raid_ios_per_op"];

#[test]
fn same_seed_repeats_the_deterministic_metrics_exactly() {
    for w in Workload::ALL {
        let a = run(&opts(w, 7, false));
        let b = run(&opts(w, 7, false));
        assert!(a.correct() && b.correct(), "{}: {:?} {:?}", w.name(), a.problems, b.problems);
        for m in DETERMINISTIC {
            let (x, y) = (a.get(m).unwrap(), b.get(m).unwrap());
            assert_eq!(x.to_bits(), y.to_bits(), "{} {m}: {x} vs {y}", w.name());
        }
        for m in ["cache.read_hit_ratio", "cache.write_hit_ratio", "raid.member_reads_per_op"] {
            let (a, b) = (run(&opts(w, 7, true)), run(&opts(w, 7, true)));
            assert_eq!(
                a.get(m).unwrap().to_bits(),
                b.get(m).unwrap().to_bits(),
                "{} {m}",
                w.name()
            );
        }
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    for w in [Workload::Fin1Miss, Workload::Fin2Read, Workload::ZipfHotR6, Workload::Fig9Model] {
        let a = engine_inputs(w, 1, Size::Smoke).digest();
        let b = engine_inputs(w, 2, Size::Smoke).digest();
        assert_ne!(a, b, "{}: seeds 1 and 2 generated the same inputs", w.name());
        assert_eq!(
            a,
            engine_inputs(w, 1, Size::Smoke).digest(),
            "{}: seed 1 is not reproducible",
            w.name()
        );
    }
    assert_ne!(fig9_trace(1, Size::Smoke).records, fig9_trace(2, Size::Smoke).records);
}

#[test]
fn every_workload_completes_a_smoke_run() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = run(&opts(w, 3, trace));
            assert!(
                r.correct(),
                "{} trace={trace}: {:?}\n{}",
                w.name(),
                r.problems,
                r.render_text()
            );
            assert_eq!(r.failed, 0);
            assert!(r.attempted > 0 && r.checks > 0);
            let declared = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(r.metrics.len(), declared.len(), "{} trace={trace}", w.name());
            let json = r.render_json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
        }
    }
}

#[test]
fn small_writes_cost_four_member_ios_on_raid5_and_six_on_raid6() {
    let r5 = engine_inputs(Workload::Fin1Miss, 1, Size::Smoke).shape;
    let r6 = engine_inputs(Workload::ZipfHotR6, 1, Size::Smoke).shape;
    assert_eq!(Shape::small_write_ios(&r5), 4);
    assert_eq!(Shape::small_write_ios(&r6), 6);
    // The RAID rung checks every measured write against these counts.
    for w in [Workload::Fin1Miss, Workload::ZipfHotR6] {
        let rungs = kddbench::rungs::run(&engine_inputs(w, 1, Size::Smoke));
        assert!(rungs.problems.is_empty(), "{}: {:?}", w.name(), rungs.problems);
        assert!(rungs.rmw_us > 0.0 && rungs.no_parity_us > 0.0);
    }
}

#[test]
fn benchmark_json_declares_what_the_benchmark_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = text.matches("\"unit\": ").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares extra metrics"
    );
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name())),
            "workload {} missing",
            w.name()
        );
    }
}
