//! Uniform experiment rows and table rendering.

// Indexing here is audited: offsets come from length-checked parses or
// module invariants. See DESIGN.md "Static analysis & invariants".
#![allow(clippy::indexing_slicing)]

use kdd_obs::json::{obj, Json};
use serde::{Deserialize, Serialize};

/// One data point of one figure/table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Experiment id ("table1", "fig5", "ablation_zoning", ...).
    pub experiment: String,
    /// Workload name ("Fin1", "fio", ...).
    pub workload: String,
    /// Meaning of `x` ("cache_kpages", "read_rate", "partition_pct", ...).
    pub x_label: String,
    /// Sweep coordinate.
    pub x: f64,
    /// Policy / variant name.
    pub policy: String,
    /// Named metrics for this point.
    pub metrics: Vec<(String, f64)>,
}

impl Row {
    /// Construct a row.
    pub fn new(
        experiment: &str,
        workload: &str,
        x_label: &str,
        x: f64,
        policy: &str,
        metrics: Vec<(&str, f64)>,
    ) -> Row {
        Row {
            experiment: experiment.into(),
            workload: workload.into(),
            x_label: x_label.into(),
            x,
            policy: policy.into(),
            metrics: metrics.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// Fetch a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The row as a JSON object; `metrics` is an array of
    /// `[name, value]` pairs in row order.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Num(*v)]))
            .collect();
        obj(vec![
            ("experiment", Json::Str(self.experiment.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("x_label", Json::Str(self.x_label.clone())),
            ("x", Json::Num(self.x)),
            ("policy", Json::Str(self.policy.clone())),
            ("metrics", Json::Arr(metrics)),
        ])
    }
}

/// Render rows as a JSON array (`repro --json`), every number exact.
pub fn rows_json(rows: &[Row]) -> String {
    Json::Arr(rows.iter().map(Row::to_json).collect()).render_exact()
}

/// Render rows as aligned text tables, grouped by (experiment, workload).
pub fn print_rows(rows: &[Row]) {
    let mut i = 0;
    while i < rows.len() {
        let exp = &rows[i].experiment;
        let wl = &rows[i].workload;
        let group_end = rows[i..]
            .iter()
            .position(|r| &r.experiment != exp || &r.workload != wl)
            .map(|p| i + p)
            .unwrap_or(rows.len());
        let group = &rows[i..group_end];
        println!("\n== {} / {} ==", exp, wl);
        // Header from the first row's metrics.
        print!("{:<10} {:>12}", "policy", group[0].x_label);
        for (k, _) in &group[0].metrics {
            print!(" {:>16}", k);
        }
        println!();
        for r in group {
            print!("{:<10} {:>12.4}", r.policy, r.x);
            for (_, v) in &r.metrics {
                print!(" {:>16.4}", v);
            }
            println!();
        }
        i = group_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lookup() {
        let r = Row::new("fig5", "Fin1", "cache", 1.0, "WT", vec![("hit", 0.5), ("mib", 12.0)]);
        assert_eq!(r.metric("hit"), Some(0.5));
        assert_eq!(r.metric("nope"), None);
    }

    #[test]
    fn rows_json_parses_back_exactly() {
        let rows = vec![
            Row::new("fig5", "Fin1", "cache", 1.0, "WT", vec![("hit", 0.1 + 0.2), ("n", 3.0)]),
            Row::new("table1", "quote\"d", "scale", 100.0, "-", vec![("tiny", 1.5e-9)]),
            Row::new("fig9", "Fin1", "x", -2.5, "KDD-25%", vec![("big", 12_345_678.901_234_5)]),
        ];
        let doc = kdd_obs::json::parse(&rows_json(&rows)).expect("valid JSON");
        let items = doc.as_arr().expect("an array of rows");
        assert_eq!(items.len(), rows.len());
        for (item, row) in items.iter().zip(&rows) {
            let text = |k: &str| item.get(k).and_then(Json::as_str).map(str::to_string);
            assert_eq!(text("experiment"), Some(row.experiment.clone()));
            assert_eq!(text("workload"), Some(row.workload.clone()));
            assert_eq!(text("x_label"), Some(row.x_label.clone()));
            assert_eq!(text("policy"), Some(row.policy.clone()));
            assert_eq!(item.get("x").and_then(Json::as_f64), Some(row.x));
            let metrics: Vec<(String, f64)> = item
                .get("metrics")
                .and_then(Json::as_arr)
                .expect("metrics array")
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr().expect("[name, value]");
                    (pair[0].as_str().unwrap().to_string(), pair[1].as_f64().unwrap())
                })
                .collect();
            assert_eq!(metrics, row.metrics, "values must survive the round trip bit for bit");
        }
    }

    #[test]
    fn printing_does_not_panic() {
        let rows = vec![
            Row::new("fig5", "Fin1", "cache", 1.0, "WT", vec![("hit", 0.5)]),
            Row::new("fig5", "Fin1", "cache", 2.0, "WT", vec![("hit", 0.6)]),
            Row::new("fig5", "Hm0", "cache", 1.0, "KDD-25%", vec![("hit", 0.4)]),
        ];
        print_rows(&rows);
    }
}
