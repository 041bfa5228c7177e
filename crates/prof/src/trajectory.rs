//! The schema-versioned perf-trajectory record (`results/BENCH_*.json`).
//!
//! Every PR's `cargo xtask bench --json` run appends one document to
//! the trajectory: cycles/sec per (runner, radix, load) cell, the
//! profiler's per-phase breakdown, and host metadata (core count, CPU
//! model, rustc version, build profile). `--diff` compares a fresh run
//! against the latest prior document and fails on regressions past a
//! threshold, which is what `scripts/check.sh` gates on; it refuses to
//! compare across build profiles or hosts. `ssq perf-report` renders
//! the whole trajectory as one table.
//!
//! Schema 3 is the only schema: every cell holds measured rows only
//! (the dense and the idle-skipping runner) plus the `prepare` /
//! `arbitrate` phase breakdown. Schemas 1 and 2 also carried a decide
//! fraction, Amdahl projections and a parallel-engine thread count; no
//! document in either survives, and the parser rejects them.

use std::path::{Path, PathBuf};

use ssq_stats::Table;

use crate::json::{escape, Json};

/// The schema version this crate writes.
pub const CURRENT_SCHEMA: u64 = 3;

/// One phase row of a cell's profiler breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPhase {
    /// Phase name (`prepare` / `arbitrate`).
    pub phase: String,
    /// Mean sampled nanoseconds per cycle.
    pub ns_per_cycle: f64,
    /// Share of total sampled cycle time.
    pub fraction: f64,
}

/// One measured runner row of a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEngine {
    /// Runner name (`dense` / `idle-skip`).
    pub engine: String,
    /// Measured wall-clock simulated cycles per second.
    pub cycles_per_sec: f64,
    /// Delivered flits (the dense-vs-idle-skip equality check).
    pub delivered_flits: u64,
}

/// One (radix, load) cell of the benchmark matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    /// Switch radix.
    pub radix: u64,
    /// Offered-load label (`bernoulli-0.5` / `saturated`).
    pub load: String,
    /// Profiler per-phase breakdown (empty for the fabric cell).
    pub phases: Vec<BenchPhase>,
    /// Measured runner rows.
    pub engines: Vec<BenchEngine>,
}

impl BenchCell {
    /// The measured cycles/sec for a runner row, if present.
    #[must_use]
    pub fn rate(&self, engine: &str) -> Option<f64> {
        self.engines
            .iter()
            .find(|e| e.engine == engine)
            .map(|e| e.cycles_per_sec)
    }
}

/// One PR's complete benchmark capture.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Schema version the document was parsed from.
    pub schema: u64,
    /// PR number the capture belongs to (`BENCH_<pr>.json`).
    pub pr: u64,
    /// Build profile (`release` / `debug`) — cross-profile diffs are
    /// meaningless and are skipped.
    pub profile: String,
    /// Whether this was a `--quick` run (shorter matrix).
    pub quick: bool,
    /// Host core count at capture time.
    pub host_cores: u64,
    /// Host CPU model (`None` in records that predate it).
    pub host_cpu: Option<String>,
    /// `rustc --version` of the build (`None` in records that predate
    /// it).
    pub host_rustc: Option<String>,
    /// Warm-up cycles per cell.
    pub warmup_cycles: u64,
    /// Measured cycles per cell.
    pub measure_cycles: u64,
    /// The benchmark matrix.
    pub cells: Vec<BenchCell>,
    /// The `--quick` probe's cells, measured alongside the full matrix
    /// (`None` in records that predate it and in quick probes).
    pub quick_record: Option<QuickRecord>,
}

/// The quick-schedule cells a full capture records beside its matrix:
/// the baseline a `--quick` probe is diffed against, so the probe
/// compares like with like.
#[derive(Debug, Clone, PartialEq)]
pub struct QuickRecord {
    /// Warm-up cycles per quick cell.
    pub warmup_cycles: u64,
    /// Measured cycles per quick cell.
    pub measure_cycles: u64,
    /// The quick matrix.
    pub cells: Vec<BenchCell>,
}

impl BenchDoc {
    /// The canonical `BENCH_<pr>` name.
    #[must_use]
    pub fn name(&self) -> String {
        format!("BENCH_{}", self.pr)
    }

    /// Why `self` and `other` were measured on different hosts, if the
    /// records say so: differing core counts, or differing CPU models or
    /// rustc versions where both records carry them.
    #[must_use]
    pub fn host_mismatch(&self, other: &BenchDoc) -> Option<String> {
        if self.host_cores != other.host_cores {
            return Some(format!(
                "host cores {} vs {}",
                self.host_cores, other.host_cores
            ));
        }
        for (what, a, b) in [
            ("cpu", &self.host_cpu, &other.host_cpu),
            ("rustc", &self.host_rustc, &other.host_rustc),
        ] {
            if let (Some(a), Some(b)) = (a, b) {
                if a != b {
                    return Some(format!("host {what} {a:?} vs {b:?}"));
                }
            }
        }
        None
    }

    /// The recorded quick cells as a quick capture of their own (same
    /// PR, profile and host), if this record has them.
    #[must_use]
    pub fn quick_baseline(&self) -> Option<BenchDoc> {
        let quick = self.quick_record.as_ref()?;
        Some(BenchDoc {
            quick: true,
            warmup_cycles: quick.warmup_cycles,
            measure_cycles: quick.measure_cycles,
            cells: quick.cells.clone(),
            quick_record: None,
            ..self.clone()
        })
    }

    /// Finds a cell by (radix, load).
    #[must_use]
    pub fn cell(&self, radix: u64, load: &str) -> Option<&BenchCell> {
        self.cells
            .iter()
            .find(|c| c.radix == radix && c.load == load)
    }

    /// Parses a schema-3 BENCH document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let root = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = field_u64(&root, "schema")?;
        if schema != CURRENT_SCHEMA {
            return Err(format!("unsupported BENCH schema {schema}"));
        }
        let host = root.get("host").ok_or("missing host object")?;
        let cells = parse_cells(&root)?;
        let quick_record = match root.get("quick_record") {
            None => None,
            Some(quick) => Some(QuickRecord {
                warmup_cycles: field_u64(quick, "warmup_cycles")?,
                measure_cycles: field_u64(quick, "measure_cycles")?,
                cells: parse_cells(quick)?,
            }),
        };
        Ok(BenchDoc {
            schema,
            pr: field_u64(&root, "pr")?,
            profile: root
                .get("profile")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            quick: root.get("quick").and_then(Json::as_bool).unwrap_or(false),
            host_cores: field_u64(host, "cores")?,
            host_cpu: host.get("cpu").and_then(Json::as_str).map(str::to_string),
            host_rustc: host.get("rustc").and_then(Json::as_str).map(str::to_string),
            warmup_cycles: field_u64(&root, "warmup_cycles")?,
            measure_cycles: field_u64(&root, "measure_cycles")?,
            cells,
            quick_record,
        })
    }

    /// Renders the document at the current schema, byte-stable for a
    /// given value (the trajectory lives in git).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {CURRENT_SCHEMA},\n"));
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.name())));
        out.push_str(&format!("  \"pr\": {},\n", self.pr));
        out.push_str(&format!("  \"profile\": \"{}\",\n", escape(&self.profile)));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"host\": {{\"cores\": {}", self.host_cores));
        for (key, value) in [("cpu", &self.host_cpu), ("rustc", &self.host_rustc)] {
            if let Some(value) = value {
                out.push_str(&format!(", \"{key}\": \"{}\"", escape(value)));
            }
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"warmup_cycles\": {},\n  \"measure_cycles\": {},\n  \"cells\": [",
            self.warmup_cycles, self.measure_cycles
        ));
        render_cells(&mut out, &self.cells);
        out.push_str("\n  ]");
        if let Some(quick) = &self.quick_record {
            out.push_str(&format!(
                ",\n  \"quick_record\": {{\"warmup_cycles\": {}, \"measure_cycles\": {}, \"cells\": [",
                quick.warmup_cycles, quick.measure_cycles
            ));
            render_cells(&mut out, &quick.cells);
            out.push_str("\n  ]}");
        }
        out.push_str("\n}\n");
        out
    }
}

fn parse_cells(v: &Json) -> Result<Vec<BenchCell>, String> {
    v.get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing cells array")?
        .iter()
        .map(parse_cell)
        .collect()
}

fn render_cells(out: &mut String, cells: &[BenchCell]) {
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&render_cell(cell));
    }
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    Ok(v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))?
        .to_string())
}

fn parse_cell(cell: &Json) -> Result<BenchCell, String> {
    let mut engines = Vec::new();
    for e in cell
        .get("engines")
        .and_then(Json::as_arr)
        .ok_or("cell missing engines array")?
    {
        engines.push(BenchEngine {
            engine: field_str(e, "engine")?,
            cycles_per_sec: field_f64(e, "cycles_per_sec")?,
            delivered_flits: field_u64(e, "delivered_flits")?,
        });
    }
    let mut phases = Vec::new();
    if let Some(list) = cell.get("phases").and_then(Json::as_arr) {
        for p in list {
            phases.push(BenchPhase {
                phase: field_str(p, "phase")?,
                ns_per_cycle: field_f64(p, "ns_per_cycle")?,
                fraction: field_f64(p, "fraction")?,
            });
        }
    }
    Ok(BenchCell {
        radix: field_u64(cell, "radix")?,
        load: field_str(cell, "load")?,
        phases,
        engines,
    })
}

fn render_cell(cell: &BenchCell) -> String {
    let mut out = format!(
        "    {{\"radix\": {}, \"load\": \"{}\",\n",
        cell.radix,
        escape(&cell.load)
    );
    out.push_str("     \"phases\": [");
    for (i, p) in cell.phases.iter().enumerate() {
        out.push_str(if i == 0 { "" } else { ", " });
        out.push_str(&format!(
            "{{\"phase\": \"{}\", \"ns_per_cycle\": {:.1}, \"fraction\": {:.4}}}",
            escape(&p.phase),
            p.ns_per_cycle,
            p.fraction
        ));
    }
    out.push_str("],\n     \"engines\": [");
    for (i, e) in cell.engines.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "      {{\"engine\": \"{}\", \"cycles_per_sec\": {:.0}, \
             \"delivered_flits\": {}, \"mode\": \"measured\"}}",
            escape(&e.engine),
            e.cycles_per_sec,
            e.delivered_flits
        ));
    }
    out.push_str("\n     ]}");
    out
}

/// The outcome of diffing a fresh capture against a prior one.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// One human-readable line per compared (runner, radix, load) cell.
    pub lines: Vec<String>,
    /// Cells whose throughput ratio fell below the threshold.
    pub regressions: Vec<String>,
    /// Why the comparison was skipped entirely, if it was.
    pub skipped: Option<String>,
}

impl DiffReport {
    /// Whether the diff gate passes (no regression past the threshold).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares `next` against `prev` cell by cell. `threshold` is the
/// minimum acceptable `next/prev` cycles-per-second ratio — 0.5 means
/// "fail if throughput halved". Cross-profile comparisons (debug vs
/// release) and cross-host ones (see [`BenchDoc::host_mismatch`]) are
/// refused: the numbers answer different questions.
#[must_use]
pub fn diff(prev: &BenchDoc, next: &BenchDoc, threshold: f64) -> DiffReport {
    let mut report = DiffReport::default();
    if prev.profile != next.profile {
        report.skipped = Some(format!(
            "profile mismatch ({} vs {}): wall-clock comparison skipped",
            prev.profile, next.profile
        ));
        return report;
    }
    if let Some(why) = prev.host_mismatch(next) {
        report.skipped = Some(format!(
            "host mismatch ({why}): wall-clock comparison refused"
        ));
        return report;
    }
    for cell in &next.cells {
        let Some(prior) = prev.cell(cell.radix, &cell.load) else {
            report.lines.push(format!(
                "radix{} {}: new cell (no {} baseline)",
                cell.radix,
                cell.load,
                prev.name()
            ));
            continue;
        };
        for engine in &cell.engines {
            let label = format!("radix{} {} {}", cell.radix, cell.load, engine.engine);
            let Some(before) = prior.rate(&engine.engine) else {
                report.lines.push(format!("{label}: new runner row"));
                continue;
            };
            if before <= 0.0 {
                report
                    .lines
                    .push(format!("{label}: prior rate was zero, skipped"));
                continue;
            }
            let ratio = engine.cycles_per_sec / before;
            report.lines.push(format!(
                "{label}: {:.0} -> {:.0} cycles/sec ({ratio:.2}x vs {})",
                before,
                engine.cycles_per_sec,
                prev.name()
            ));
            if ratio < threshold {
                report.regressions.push(format!(
                    "{label}: {:.0} -> {:.0} cycles/sec ({ratio:.2}x < {threshold:.2}x threshold)",
                    before, engine.cycles_per_sec
                ));
            }
        }
    }
    report
}

/// Scans a results directory for `BENCH_<n>.json` files, sorted by PR
/// number. Unreadable directories yield an empty list (a fresh checkout
/// has no trajectory yet).
#[must_use]
pub fn find_benches(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|num| num.parse::<u64>().ok())
        {
            found.push((n, entry.path()));
        }
    }
    found.sort_by_key(|(n, _)| *n);
    found
}

/// Renders a set of parsed BENCH documents (oldest first) as one
/// trajectory table: one row per (pr, radix, load, runner).
#[must_use]
pub fn trajectory_table(docs: &[BenchDoc]) -> Table {
    let mut t = Table::with_columns(&[
        "pr",
        "profile",
        "cores",
        "radix",
        "load",
        "runner",
        "cycles/sec",
    ]);
    t.numeric();
    for doc in docs {
        for cell in &doc.cells {
            for engine in &cell.engines {
                t.row(vec![
                    doc.pr.to_string(),
                    doc.profile.clone(),
                    doc.host_cores.to_string(),
                    cell.radix.to_string(),
                    cell.load.clone(),
                    engine.engine.clone(),
                    format!("{:.0}", engine.cycles_per_sec),
                ]);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(pr: u64, dense_rate: f64, skip_rate: f64) -> BenchDoc {
        BenchDoc {
            schema: CURRENT_SCHEMA,
            pr,
            profile: "release".to_string(),
            quick: false,
            host_cores: 4,
            host_cpu: Some("Example CPU @ 2.0GHz".to_string()),
            host_rustc: Some("rustc 1.0.0".to_string()),
            warmup_cycles: 200,
            measure_cycles: 1500,
            cells: vec![BenchCell {
                radix: 16,
                load: "saturated".to_string(),
                phases: vec![
                    BenchPhase {
                        phase: "prepare".to_string(),
                        ns_per_cycle: 1000.0,
                        fraction: 0.2,
                    },
                    BenchPhase {
                        phase: "arbitrate".to_string(),
                        ns_per_cycle: 4000.0,
                        fraction: 0.8,
                    },
                ],
                engines: vec![
                    BenchEngine {
                        engine: "dense".to_string(),
                        cycles_per_sec: dense_rate,
                        delivered_flits: 9000,
                    },
                    BenchEngine {
                        engine: "idle-skip".to_string(),
                        cycles_per_sec: skip_rate,
                        delivered_flits: 9000,
                    },
                ],
            }],
            quick_record: None,
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let original = doc(7, 75_000.0, 71_000.0);
        let text = original.render();
        let parsed = BenchDoc::parse(&text).expect("round trip parses");
        assert_eq!(parsed, original);
        // Byte-stable: rendering the parsed document reproduces the text.
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn quick_record_round_trips_and_serves_as_the_quick_baseline() {
        let mut full = doc(14, 75_000.0, 71_000.0);
        assert_eq!(full.quick_baseline(), None, "no quick cells recorded");
        let quick_cells = doc(0, 30_000.0, 20_000.0).cells;
        full.quick_record = Some(QuickRecord {
            warmup_cycles: 100,
            measure_cycles: 400,
            cells: quick_cells.clone(),
        });
        let text = full.render();
        let parsed = BenchDoc::parse(&text).expect("round trip parses");
        assert_eq!(parsed, full);
        assert_eq!(parsed.render(), text);

        let baseline = parsed.quick_baseline().expect("quick cells recorded");
        assert!(baseline.quick);
        assert_eq!(baseline.cells, quick_cells);
        assert_eq!(
            (baseline.warmup_cycles, baseline.measure_cycles),
            (100, 400)
        );
        // A probe at the quick rates passes against the quick cells,
        // though it would read as a regression against the full matrix.
        let mut probe = doc(0, 30_000.0, 20_000.0);
        probe.quick = true;
        assert!(diff(&baseline, &probe, 0.9).passed());
        assert!(!diff(&parsed, &probe, 0.9).passed());
    }

    #[test]
    fn rejects_other_schemas() {
        let text = doc(7, 1.0, 1.0)
            .render()
            .replace("\"schema\": 3", "\"schema\": 2");
        let err = BenchDoc::parse(&text).expect_err("schema 2 is gone");
        assert!(err.contains("unsupported BENCH schema 2"), "{err}");
    }

    #[test]
    fn diff_accepts_steady_throughput() {
        let prev = doc(6, 75_000.0, 71_000.0);
        let next = doc(7, 74_000.0, 73_000.0);
        let report = diff(&prev, &next, 0.5);
        assert!(report.passed(), "{:?}", report.regressions);
        assert_eq!(report.lines.len(), 2);
        assert!(report.lines[0].contains("0.99x"), "{:?}", report.lines);
    }

    #[test]
    fn diff_fails_on_injected_synthetic_regression() {
        // A synthetic 10x slowdown in one runner cell must fail the gate.
        let prev = doc(6, 75_000.0, 71_000.0);
        let next = doc(7, 7_500.0, 71_000.0);
        let report = diff(&prev, &next, 0.5);
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert!(
            report.regressions[0].contains("saturated dense"),
            "{:?}",
            report.regressions
        );
        assert!(report.regressions[0].contains("0.10x"));
    }

    #[test]
    fn diff_skips_cross_profile_comparison() {
        let prev = doc(6, 75_000.0, 71_000.0);
        let mut next = doc(7, 100.0, 100.0); // debug build: wildly slower
        next.profile = "debug".to_string();
        let report = diff(&prev, &next, 0.5);
        assert!(report.passed(), "skipped, not failed");
        assert!(report.skipped.is_some());
    }

    #[test]
    fn diff_refuses_cross_host_comparison() {
        let prev = doc(6, 75_000.0, 71_000.0);
        for change in [
            |d: &mut BenchDoc| d.host_cpu = Some("Other CPU".to_string()),
            |d: &mut BenchDoc| d.host_rustc = Some("rustc 2.0.0".to_string()),
            |d: &mut BenchDoc| d.host_cores = 64,
        ] {
            let mut next = doc(7, 100.0, 100.0);
            change(&mut next);
            let report = diff(&prev, &next, 0.5);
            assert!(report.passed(), "refused, not failed");
            let note = report.skipped.expect("cross-host diff refused");
            assert!(note.contains("host mismatch"), "{note}");
            assert!(report.lines.is_empty());
        }
    }

    #[test]
    fn records_without_a_host_fingerprint_still_parse_and_compare() {
        let mut old = doc(6, 75_000.0, 71_000.0);
        old.host_cpu = None;
        old.host_rustc = None;
        let text = old.render();
        assert!(text.contains("\"host\": {\"cores\": 4},"), "{text}");
        let parsed = BenchDoc::parse(&text).expect("fingerprint is optional");
        assert_eq!(parsed, old);
        let report = diff(&parsed, &doc(7, 74_000.0, 70_000.0), 0.5);
        assert!(report.skipped.is_none());
        assert!(report.passed());
    }

    #[test]
    fn diff_reports_new_cells_and_rows_without_failing() {
        let mut prev = doc(6, 75_000.0, 71_000.0);
        prev.cells[0].engines.pop(); // prior run had no idle-skip row
        let mut next = doc(7, 74_000.0, 70_000.0);
        next.cells.push(BenchCell {
            radix: 64,
            load: "saturated".to_string(),
            phases: Vec::new(),
            engines: Vec::new(),
        });
        let report = diff(&prev, &next, 0.5);
        assert!(report.passed());
        assert!(report.lines.iter().any(|l| l.contains("new runner row")));
        assert!(report.lines.iter().any(|l| l.contains("new cell")));
    }

    #[test]
    fn find_benches_sorts_by_pr_number() {
        let dir = std::env::temp_dir().join(format!("ssq-prof-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for n in [10, 2, 7] {
            std::fs::write(dir.join(format!("BENCH_{n}.json")), "{}").unwrap();
        }
        std::fs::write(dir.join("BENCH_x.json"), "{}").unwrap(); // ignored
        std::fs::write(dir.join("lint.json"), "{}").unwrap(); // ignored
        let found = find_benches(&dir);
        let numbers: Vec<u64> = found.iter().map(|(n, _)| *n).collect();
        assert_eq!(numbers, vec![2, 7, 10]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trajectory_table_spans_documents() {
        let docs = vec![doc(6, 75_000.0, 71_000.0), doc(7, 80_000.0, 90_000.0)];
        let table = trajectory_table(&docs);
        let csv = table.to_csv();
        assert!(csv.starts_with("pr,profile,cores,radix,load,runner,cycles/sec"));
        assert_eq!(csv.lines().count(), 5, "{csv}");
        assert!(csv.contains("7,release,4,16,saturated,idle-skip,90000"));
    }
}
