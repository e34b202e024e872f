#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # bench — experiment harness reproducing every table and figure
//!
//! One binary per paper artifact (run with `cargo run --release -p bench
//! --bin <name>`):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1` | Fig. 1 — hand-tuned C++ speedup over serial C++ |
//! | `fig6` | Fig. 6 — benchmark DAGs (DOT + stream assignment) |
//! | `table1` | Table I — memory footprints per benchmark/GPU |
//! | `fig7` | Fig. 7 — parallel vs serial GrCUDA speedup sweep |
//! | `fig8` | Fig. 8 — GrCUDA vs CUDA Graphs baselines |
//! | `fig9` | Fig. 9 — slowdown vs contention-free bound |
//! | `fig10` | Fig. 10 — example execution timeline (ML) |
//! | `fig11` | Fig. 11 — CT/TC/CC/TOT overlap fractions |
//! | `fig12` | Fig. 12 — hardware metrics serial vs parallel |
//!
//! Beyond the paper's artifacts, `soak` is the long-running harness: it
//! drives ~100k launches across every suite with periodic syncs,
//! asserts that all scheduler-side state stays bounded by the live
//! frontier, and reports sustained launches/sec (`--smoke` runs the
//! reduced CI variant).
//!
//! This library holds the shared experiment plumbing: iteration counts,
//! aggregate statistics and aligned-table rendering.

use benchmarks::{scales, Bench};
use gpu_sim::DeviceProfile;

/// Measured iterations per configuration. The paper uses 30 wall-clock
/// runs; the simulator is deterministic, so a warm-up plus two measured
/// iterations capture steady state.
pub fn iters_for(scale_rank: usize) -> usize {
    if scale_rank >= 3 {
        2
    } else {
        3
    }
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Render an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        line.trim_end().to_string() + "\n"
    };
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push_str(&format!(
        "{}\n",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    ));
    for r in rows {
        out.push_str(&fmt_row(r, &widths));
    }
    out
}

/// The device list of the evaluation, in figure order.
pub fn devices() -> Vec<DeviceProfile> {
    DeviceProfile::paper_devices()
}

/// Scales swept for a benchmark, shared by Figs. 7–9.
pub fn sweep(b: Bench) -> Vec<usize> {
    scales::sweep(b)
}

// ---------------------------------------------------------------------
// Flat benchmark-JSON files (the CI perf-regression trajectory)
// ---------------------------------------------------------------------
//
// `BENCH_sched.json` is a flat `{"metric.name": number, ...}` map — no
// nesting, so the committed baseline diffs cleanly and the gate needs no
// JSON dependency (the vendored serde stand-ins are no-ops). Keys whose
// first segment is `wall` are wall-clock measurements: recorded for the
// artifact but exempt from the regression gate, which only compares
// deterministic virtual-time metrics.

/// Parse a flat `{"key": number}` JSON map written by [`write_bench_json`].
pub fn read_bench_json(content: &str) -> Result<Vec<(String, f64)>, String> {
    let body = content.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| "expected a top-level JSON object".to_string())?;
    let mut out = Vec::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed entry `{entry}`"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted key in `{entry}`"))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad number in `{entry}`: {e}"))?;
        out.push((key.to_string(), value));
    }
    Ok(out)
}

/// Render a flat metric map as the JSON format [`read_bench_json`]
/// parses, keys sorted for stable diffs.
pub fn render_bench_json(entries: &[(String, f64)]) -> String {
    let mut sorted: Vec<&(String, f64)> = entries.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (k, v)) in sorted.iter().enumerate() {
        out.push_str(&format!("  \"{k}\": {v}"));
        out.push_str(if i + 1 < sorted.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Merge `entries` into the flat JSON file at `path` (new keys win),
/// creating it if absent — so `soak --json F` and `multi_gpu --json F`
/// build one combined `BENCH_sched.json`.
pub fn write_bench_json(path: &str, entries: &[(String, f64)]) -> std::io::Result<()> {
    let mut merged: Vec<(String, f64)> = match std::fs::read_to_string(path) {
        Ok(existing) => read_bench_json(&existing)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    for (k, v) in entries {
        if let Some(slot) = merged.iter_mut().find(|(mk, _)| mk == k) {
            slot.1 = *v;
        } else {
            merged.push((k.clone(), *v));
        }
    }
    std::fs::write(path, render_bench_json(&merged))
}

/// Parse the command line the sweep binaries share: `--json FILE`, and
/// `--smoke` for binaries that have a reduced CI variant
/// (`accepts_smoke`). Returns `(smoke, json_path)`, or the usage
/// message for an unknown flag or a `--json` without its file.
pub fn parse_bench_args(
    mut args: impl Iterator<Item = String>,
    accepts_smoke: bool,
) -> Result<(bool, Option<String>), String> {
    let (mut smoke, mut json_path) = (false, None);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" if accepts_smoke => smoke = true,
            "--json" => json_path = Some(args.next().ok_or("--json FILE")?),
            other => {
                let flags = if accepts_smoke {
                    "--smoke/--json FILE"
                } else {
                    "--json FILE"
                };
                return Err(format!("unknown argument `{other}` (try {flags})"));
            }
        }
    }
    Ok((smoke, json_path))
}

/// The tail of every `--json` binary: merge `metrics` into the file the
/// flag named ([`write_bench_json`]) and say so; nothing without the
/// flag.
pub fn emit_bench_json(json_path: Option<&str>, metrics: &[(String, f64)]) -> std::io::Result<()> {
    if let Some(path) = json_path {
        write_bench_json(path, metrics)?;
        println!("wrote {} metrics to {path}", metrics.len());
    }
    Ok(())
}

/// Round to `digits` significant decimal digits. Derived ratios
/// (speedups, scaling factors) go through this before RESULT/JSON
/// emission: the quotient of two exact virtual times can land on a
/// value like `63.999999999999`, and committing that representation
/// makes baseline diffs wobble on pure formatting. Six significant
/// digits keep far more precision than the 15% gate tolerance needs
/// while collapsing such artifacts back to `64`. Raw measurements
/// (times, rates, counts) are **not** rounded — only derived ratios.
pub fn round_sig(x: f64, digits: i32) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let magnitude = x.abs().log10().floor() as i32;
    let factor = 10f64.powi(digits - 1 - magnitude);
    (x * factor).round() / factor
}

/// Pretty milliseconds.
pub fn ms(t: f64) -> String {
    if t >= 0.1 {
        format!("{:.0} ms", t * 1e3)
    } else if t >= 1e-3 {
        format!("{:.1} ms", t * 1e3)
    } else {
        format!("{:.2} ms", t * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["bench", "speedup"],
            &[
                vec!["VEC".into(), "2.54x".into()],
                vec!["HITS".into(), "1.39x".into()],
            ],
        );
        assert!(t.contains("bench"));
        assert!(t.contains("2.54x"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn round_sig_collapses_float_drift() {
        assert_eq!(round_sig(63.999999999999, 6), 64.0);
        assert_eq!(round_sig(63.4567891, 6), 63.4568);
        assert_eq!(round_sig(0.000123456789, 6), 0.000123457);
        assert_eq!(round_sig(-2.0000000001, 6), -2.0);
        assert_eq!(round_sig(0.0, 6), 0.0);
        assert!(round_sig(f64::INFINITY, 6).is_infinite());
    }

    #[test]
    fn ms_formats_ranges() {
        assert_eq!(ms(0.25), "250 ms");
        assert_eq!(ms(0.005), "5.0 ms");
        assert_eq!(ms(0.0005), "0.50 ms");
    }

    #[test]
    fn bench_json_round_trips() {
        let entries = vec![
            ("chain.nvlink-pair.makespan_ms".to_string(), 7.479),
            ("wall.soak.launches_per_s".to_string(), 24000.0),
        ];
        let rendered = render_bench_json(&entries);
        let parsed = read_bench_json(&rendered).unwrap();
        let mut sorted = entries.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(parsed, sorted);
        assert!(read_bench_json("not json").is_err());
        assert!(read_bench_json("{\"k\": nope}").is_err());
        assert_eq!(read_bench_json("{}").unwrap(), vec![]);
    }

    #[test]
    fn bench_args_parse_the_shared_flags() {
        let parse =
            |args: &[&str], smoke| parse_bench_args(args.iter().map(|a| a.to_string()), smoke);
        assert_eq!(parse(&[], true), Ok((false, None)));
        assert_eq!(
            parse(&["--smoke", "--json", "out.json"], true),
            Ok((true, Some("out.json".to_string())))
        );
        assert_eq!(
            parse(&["--json", "out.json"], false),
            Ok((false, Some("out.json".to_string())))
        );
        assert_eq!(
            parse(&["--smoke"], false),
            Err("unknown argument `--smoke` (try --json FILE)".to_string())
        );
        assert_eq!(
            parse(&["--fast"], true),
            Err("unknown argument `--fast` (try --smoke/--json FILE)".to_string())
        );
        assert_eq!(parse(&["--json"], true), Err("--json FILE".to_string()));
    }

    #[test]
    fn bench_json_files_merge_new_keys_over_old() {
        let path = std::env::temp_dir().join("bench_json_merge_test.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        write_bench_json(path, &[("a.x".to_string(), 1.0), ("b.y".to_string(), 2.0)]).unwrap();
        write_bench_json(path, &[("b.y".to_string(), 3.0), ("c.z".to_string(), 4.0)]).unwrap();
        let merged = read_bench_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            merged,
            vec![
                ("a.x".to_string(), 1.0),
                ("b.y".to_string(), 3.0),
                ("c.z".to_string(), 4.0),
            ]
        );
        let _ = std::fs::remove_file(path);
    }
}
