//! Results: the per-run [`Outcome`] and its one-line JSON, the
//! `BENCHMARK.json` spec, the all-workloads runner with its schema
//! check, and `repeat` / `compare`.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use fps_json::Json;

use crate::edit::Tally;
use crate::stats::quartiles;
use crate::workloads::NAMES;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub input_hash: u64,
    notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.metrics.iter().all(|(n, ..)| n != name),
            "metric {name} reported twice"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Flags a run whose load was not what the workload promises (late
    /// generator, growing backlog, hit fraction outside its band). The
    /// run still reports — on a shared host a noisy neighbour must not
    /// turn into a failed benchmark — but its numbers should be
    /// discarded by whoever reads them.
    pub fn suspect(&mut self, reason: String) {
        eprintln!("SUSPECT RUN: {reason}");
        self.notes.push(format!("SUSPECT RUN: {reason}"));
    }

    pub fn count(&mut self, tally: Tally) {
        self.attempted += tally.sent;
        self.failed += tally.failed;
    }

    /// Notes one phase's sent / succeeded / failed beside its wall time
    /// and counts them towards the run's totals.
    pub fn phase(&mut self, phase: &str, tally: Tally, wall_s: f64) {
        self.note(format!(
            "{phase}: sent {} ok {} failed {} in {wall_s:.3} s",
            tally.sent, tally.ok, tally.failed
        ));
        self.count(tally);
    }

    /// Human-readable report, then the result object as the last line.
    pub fn print(&self, workload: &str, seed: u64, seconds: f64, traced: bool) {
        println!(
            "# {workload} seed {seed} seconds {seconds} trace {}",
            u8::from(traced)
        );
        for n in &self.notes {
            println!("# {n}");
        }
        let width = self
            .metrics
            .iter()
            .map(|(n, ..)| n.len())
            .max()
            .unwrap_or(0);
        for (name, value, unit) in &self.metrics {
            println!("{name:width$}  {value:>16.6} {unit}");
        }
        println!(
            "# attempted {} failed {} failed_frac {:.6}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!("{}", self.to_json().to_string_compact());
    }

    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().fold(Json::object(), |obj, (n, v, u)| {
            obj.with(n, Json::object().with("value", *v).with("unit", *u))
        });
        Json::object()
            .with("correct", self.failed == 0)
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("{path}: no `{key}` array"))?
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("{path}: metric without `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: s("name")?,
                        unit: s("unit")?,
                        higher_is_better: s("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: no `run_seconds`"))?,
            workloads: json
                .get("workloads")
                .and_then(Json::as_array)
                .ok_or(format!("{path}: no `workloads`"))?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// Every name of the spec appears exactly once with its unit in the
    /// run of the matching kind, and nothing unlisted is printed.
    pub fn check(&self, traced: bool, metrics: &BTreeMap<String, (f64, String)>) -> Vec<String> {
        let want = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut problems = Vec::new();
        for m in want {
            match metrics.get(&m.name) {
                None => problems.push(format!("missing metric {}", m.name)),
                Some((_, unit)) if *unit != m.unit => {
                    problems.push(format!("{}: unit {unit}, spec says {}", m.name, m.unit));
                }
                Some(_) => {}
            }
        }
        for name in metrics.keys() {
            if !want.iter().any(|m| m.name == *name) {
                problems.push(format!("unlisted metric {name}"));
            }
        }
        problems
    }
}

/// Per-layer metrics that are counts or virtual-time results: for one
/// seed they must repeat to the bit, on any host, on any run.
pub const EXACT: [&str; 16] = [
    "tensor.kernel_calls_per_edit",
    "tensor.sparse_kernel_frac",
    "diffusion.flops_per_edit",
    "diffusion.computed_token_frac",
    "diffusion.cache_bytes_per_template",
    "system.evictions",
    "serving.cluster_sim_p95_virtual_s",
    "maskcache.host_hit_frac",
    "fleet.events_per_request",
    "fleet.hit_frac",
    "fleet.goodput_virtual_rps",
    "stagegraph.events_per_request",
    "stagegraph.goodput_virtual_rps",
    "quality.ssim_vs_full_mean",
    "trace.dropped_spans",
    "trace.spans_per_request",
];

/// One parsed result line.
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, (f64, String)>,
}

pub fn parse_result_line(line: &str) -> Result<Parsed, String> {
    let json = Json::parse(line)?;
    let Some(Json::Object(entries)) = json.get("metrics") else {
        return Err("result line has no `metrics` object".into());
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in entries {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or("metric without value")?;
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .ok_or("metric without unit")?;
        if metrics
            .insert(name.clone(), (value, unit.to_string()))
            .is_some()
        {
            return Err(format!("metric {name} appears twice"));
        }
    }
    Ok(Parsed {
        correct: json
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("no `correct`")?,
        attempted: json
            .get("attempted")
            .and_then(Json::as_u64)
            .ok_or("no `attempted`")?,
        failed: json
            .get("failed")
            .and_then(Json::as_u64)
            .ok_or("no `failed`")?,
        metrics,
    })
}

fn host_tag() -> Json {
    let out = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    Json::object()
        .with(
            "cores",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .with(
            "FPS_POOL_THREADS",
            std::env::var("FPS_POOL_THREADS").unwrap_or_else(|_| "default".into()),
        )
        .with("rustc", out("rustc", &["--version"]))
        .with("commit", out("git", &["rev-parse", "--short", "HEAD"]))
}

/// Runs one workload once in a child process (so `peak_rss_mb` is the
/// workload's own) and parses its result line.
fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    parse_result_line(line).map_err(|e| format!("{workload}: {e}"))
}

/// One full pass: every workload untraced, then traced. Prints every
/// metric by name with its unit and returns the pass as JSON
/// (`workload → metric → value`), or the problems found.
pub fn run_all(
    spec: &Spec,
    only: Option<&str>,
    seed: u64,
    seconds: f64,
) -> Result<Json, Vec<String>> {
    let mut problems = Vec::new();
    let mut doc = Json::object();
    for &w in NAMES.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        if !spec.workloads.iter().any(|s| s == w) {
            problems.push(format!("workload {w} is not in BENCHMARK.json"));
        }
        let mut merged = Json::object();
        for traced in [false, true] {
            match run_child(w, seed, seconds, traced) {
                Err(e) => problems.push(e),
                Ok(p) => {
                    let kind = if traced { "per-layer" } else { "end-to-end" };
                    println!(
                        "== {w} ({kind}): attempted {} failed {} correct {}",
                        p.attempted, p.failed, p.correct
                    );
                    for (name, (value, unit)) in &p.metrics {
                        println!("{name:40} {value:>18.6} {unit}");
                        merged = merged.with(name, *value);
                    }
                    if !p.correct || p.failed > 0 {
                        problems.push(format!("{w}: {} of {} failed", p.failed, p.attempted));
                    }
                    problems.extend(
                        spec.check(traced, &p.metrics)
                            .into_iter()
                            .map(|e| format!("{w} ({kind}): {e}")),
                    );
                }
            }
        }
        doc = doc.with(w, merged);
    }
    for s in &spec.workloads {
        if !NAMES.contains(&s.as_str()) {
            problems.push(format!("BENCHMARK.json names unknown workload {s}"));
        }
    }
    if problems.is_empty() {
        Ok(doc)
    } else {
        Err(problems)
    }
}

/// `repeat N`: N full passes on seeds `seed, seed+1, …`; the document
/// holds every value (`workload → metric → [values]`).
pub fn repeat(
    spec: &Spec,
    only: Option<&str>,
    n: usize,
    seed: u64,
    seconds: f64,
) -> Result<Json, Vec<String>> {
    let mut values: BTreeMap<String, BTreeMap<String, Vec<Json>>> = BTreeMap::new();
    for i in 0..n {
        println!("==== pass {} of {n} (seed {}) ====", i + 1, seed + i as u64);
        let Json::Object(pass) = run_all(spec, only, seed + i as u64, seconds)? else {
            unreachable!("run_all returns an object");
        };
        for (w, metrics) in pass {
            let Json::Object(metrics) = metrics else {
                continue;
            };
            for (name, v) in metrics {
                values
                    .entry(w.clone())
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(v);
            }
        }
    }
    let runs = values
        .into_iter()
        .fold(Json::object(), |doc, (w, metrics)| {
            let obj = metrics.into_iter().fold(Json::object(), |o, (name, vs)| {
                o.with(&name, Json::Array(vs))
            });
            doc.with(&w, obj)
        });
    Ok(Json::object()
        .with("host", host_tag())
        .with("seed", seed)
        .with("seconds", seconds)
        .with("passes", n as u64)
        .with("runs", runs))
}

fn values_of(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let entry = doc
        .get("runs")
        .unwrap_or(doc)
        .get(workload)
        .and_then(|w| w.get(metric));
    match entry {
        Some(Json::Array(vs)) => vs.iter().filter_map(Json::as_f64).collect(),
        Some(v) => v.as_f64().into_iter().collect(),
        None => Vec::new(),
    }
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    match values {
        [] => (f64::NAN, f64::NAN, f64::NAN),
        [v] => (*v, *v, *v),
        _ => {
            let [q1, q2, q3] = quartiles(values);
            (q1, q2, q3)
        }
    }
}

/// `compare A.json B.json`: per workload and metric, A's and B's median
/// and quartiles and a verdict. End-to-end metrics are judged against
/// the spec's bounds: `unresolved` when either side's quartile spread
/// exceeds the bound, else `worse` / `better` when B's median differs
/// from A's by more than the bound in that direction, else `same`.
/// Exact metrics must match to the bit. Other per-layer metrics are
/// shown without a verdict (they have no bound). Returns whether any
/// row is `worse`, `unresolved` or an exact mismatch.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> bool {
    let mut bad = false;
    println!(
        "{:18} {:38} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B/A"
    );
    for w in &spec.workloads {
        for (m, end_to_end) in spec
            .end_to_end
            .iter()
            .map(|m| (m, true))
            .chain(spec.per_layer.iter().map(|m| (m, false)))
        {
            let (va, vb) = (values_of(a, w, &m.name), values_of(b, w, &m.name));
            let ((a1, am, a3), (b1, bm, b3)) = (summary(&va), summary(&vb));
            let verdict = if va.is_empty() || vb.is_empty() {
                bad = true;
                "missing".to_string()
            } else if EXACT.contains(&m.name.as_str()) {
                let same = va.len() == vb.len()
                    && va.iter().zip(&vb).all(|(x, y)| x.to_bits() == y.to_bits());
                bad |= !same;
                if same { "exact" } else { "MISMATCH" }.to_string()
            } else if let (true, Some(bound)) = (end_to_end, m.bound) {
                let spread = ((a3 - a1) / am).abs().max(((b3 - b1) / bm).abs());
                let change = if m.higher_is_better { am / bm } else { bm / am } - 1.0;
                let v = if spread > bound {
                    "unresolved"
                } else if change > bound {
                    "worse"
                } else if change < -bound {
                    "better"
                } else {
                    "same"
                };
                bad |= matches!(v, "unresolved" | "worse");
                format!("{v} (bound {bound}, spread {spread:.3})")
            } else {
                String::new()
            };
            println!(
                "{w:18} {:38} {am:>14.5} {bm:>14.5} {:>8.3}  {verdict}",
                m.name,
                bm / am
            );
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec {
            run_seconds: 1.0,
            workloads: vec!["w".into()],
            end_to_end: vec![
                MetricSpec {
                    name: "throughput_per_s".into(),
                    unit: "1/s".into(),
                    higher_is_better: true,
                    bound: Some(0.05),
                },
                MetricSpec {
                    name: "latency_p95_ms".into(),
                    unit: "ms".into(),
                    higher_is_better: false,
                    bound: Some(0.10),
                },
            ],
            per_layer: vec![MetricSpec {
                name: "fleet.hit_frac".into(),
                unit: "frac".into(),
                higher_is_better: true,
                bound: None,
            }],
        }
    }

    fn doc(tput: &[f64], p95: &[f64], hit: &[f64]) -> Json {
        let arr = |v: &[f64]| Json::Array(v.iter().map(|x| Json::F64(*x)).collect());
        Json::object().with(
            "runs",
            Json::object().with(
                "w",
                Json::object()
                    .with("throughput_per_s", arr(tput))
                    .with("latency_p95_ms", arr(p95))
                    .with("fleet.hit_frac", arr(hit)),
            ),
        )
    }

    #[test]
    fn compare_flags_regressions_noise_and_exact_mismatches() {
        let s = spec();
        let base = doc(
            &[100.0, 101.0, 99.0, 100.5],
            &[50.0, 51.0, 49.5, 50.5],
            &[0.5; 4],
        );
        assert!(!compare(&s, &base, &base), "a run equals itself");
        let slower = doc(
            &[90.0, 91.0, 89.0, 90.5],
            &[50.0, 51.0, 49.5, 50.5],
            &[0.5; 4],
        );
        assert!(compare(&s, &base, &slower), "10% less throughput is worse");
        let faster = doc(
            &[110.0, 111.0, 109.0, 110.5],
            &[50.0, 51.0, 49.5, 50.5],
            &[0.5; 4],
        );
        assert!(!compare(&s, &base, &faster), "better is not bad");
        let noisy = doc(
            &[100.0, 101.0, 99.0, 100.5],
            &[40.0, 60.0, 45.0, 58.0],
            &[0.5; 4],
        );
        assert!(
            compare(&s, &base, &noisy),
            "spread over the bound is unresolved"
        );
        let moved = doc(
            &[100.0, 101.0, 99.0, 100.5],
            &[50.0, 51.0, 49.5, 50.5],
            &[0.5, 0.5, 0.5, 0.6],
        );
        assert!(compare(&s, &base, &moved), "an exact metric moved");
    }

    #[test]
    fn schema_check_names_every_problem() {
        let s = spec();
        let mut m = BTreeMap::new();
        m.insert("throughput_per_s".to_string(), (1.0, "1/s".to_string()));
        m.insert("latency_p95_ms".to_string(), (1.0, "s".to_string()));
        m.insert("extra".to_string(), (1.0, "s".to_string()));
        let problems = s.check(false, &m);
        assert_eq!(problems.len(), 2, "{problems:?}");
        m.insert("latency_p95_ms".to_string(), (1.0, "ms".to_string()));
        m.remove("extra");
        assert!(s.check(false, &m).is_empty());
        assert_eq!(s.check(true, &m).len(), 3, "per-layer run lacks its metric");
    }

    #[test]
    fn result_line_round_trips() {
        let mut o = Outcome::default();
        o.put("latency_p95_ms", 12.5, "ms");
        o.count(Tally {
            sent: 10,
            ok: 9,
            failed: 1,
        });
        let p = parse_result_line(&o.to_json().to_string_compact()).unwrap();
        assert!(!p.correct);
        assert_eq!((p.attempted, p.failed), (10, 1));
        assert_eq!(p.metrics["latency_p95_ms"], (12.5, "ms".to_string()));
    }
}
