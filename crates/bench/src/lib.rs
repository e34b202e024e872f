#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # bench — experiment harness reproducing every table and figure
//!
//! One binary, `trajectory`, whose nineteen suites are the CI bench
//! trajectory: eight sweeps of the runtime (soak, scheduler stages,
//! multi-GPU, audit, serving, adaptive placement, autotuning, cluster)
//! and one suite per paper artifact:
//!
//! | suite | paper artifact |
//! |---|---|
//! | `fig1` | Fig. 1 — hand-tuned C++ speedup over serial C++ |
//! | `fig6` | Fig. 6 — benchmark DAGs (`--dot`) and stream assignment |
//! | `table1` | Table I — memory footprints per benchmark/GPU |
//! | `fig7` | Fig. 7 — parallel vs serial GrCUDA speedup sweep |
//! | `fig7_blocks` | Fig. 7 — block-size annotations |
//! | `fig8` | Fig. 8 — GrCUDA vs CUDA Graphs baselines |
//! | `fig9` | Fig. 9 — slowdown vs contention-free bound |
//! | `fig10` | Fig. 10 — example execution timeline (ML; `--trace`) |
//! | `fig11` | Fig. 11 — CT/TC/CC/TOT overlap fractions |
//! | `fig12` | Fig. 12 — hardware metrics serial vs parallel |
//! | `ablation` | §IV-C — the scheduler's policies, one at a time |
//!
//! ```text
//! cargo run --release -p bench --bin trajectory -- [--smoke] fig7 fig8 ...
//! ```
//!
//! Every metric declares the direction it is judged in and is gated
//! in-process against the committed `BENCH_baseline.json` (`--smoke`
//! runs the reduced CI scale the baseline records); a `paper.*` metric
//! the paper also reports carries the paper's value and must stay
//! within a factor two of it. `docs/FIDELITY.md` is the resulting
//! simulated-vs-paper table.
//!
//! This library holds the shared experiment plumbing: aggregate
//! statistics, aligned-table rendering and the flat benchmark-JSON
//! format.

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Render an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, c) in widths.iter_mut().zip(r) {
            *w = (*w).max(c.len());
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

// ---------------------------------------------------------------------
// Flat benchmark-JSON files (the CI bench trajectory)
// ---------------------------------------------------------------------
//
// `BENCH_baseline.json` is a flat `{"metric.name": number, ...}` map — no
// nesting, so the committed baseline diffs cleanly and reading it needs
// no JSON dependency (the vendored serde stand-ins are no-ops).

/// Parse a flat `{"key": number}` JSON map rendered by [`render_bench_json`].
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

/// Round to `digits` significant decimal digits. Derived ratios
/// (speedups, scaling factors) go through this before they are
/// recorded: the quotient of two exact virtual times can land on a
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
            ("soak.virtual_launches_per_s".to_string(), 358000.0),
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
}
