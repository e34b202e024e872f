//! Typed metrics and the gate that judges them.
//!
//! A suite pushes each number together with the direction it is judged
//! in — [`Metrics::lower`], [`Metrics::higher`], [`Metrics::exact`], or
//! [`Metrics::info`] for a number that is recorded and never gated — so
//! a verdict is a function of the metric, not of how its key happens to
//! be spelled. Every gated metric is a simulated virtual-time quantity
//! or a count, hence deterministic: a failure is a changed scheduling
//! decision, not noise. A number the source paper also reports carries
//! the paper's value ([`Metric::paper`]) and is held to it as well.

use std::collections::BTreeSet;

/// How far a [`Better::Lower`] / [`Better::Higher`] metric may move the
/// wrong way, relative to its baseline, before the gate fails.
const TOLERANCE: f64 = 0.15;

/// How far a metric may sit from the source paper's value for it, as a
/// factor either way, whatever its own baseline says.
const PAPER_BAND: f64 = 2.0;

/// What opens the fidelity table, here and in `docs/FIDELITY.md`.
const FIDELITY_HEAD: &str = "<!-- fidelity:begin (trajectory --smoke) -->\n\
                             | key | simulated | paper | ratio |\n|---|---|---|---|\n";

/// The direction a metric is judged in.
#[derive(Clone, Copy)]
enum Better {
    /// Times, bytes: fails above the baseline's band.
    Lower,
    /// Rates, speedups, overlap: fails below the baseline's band.
    Higher,
    /// Counts and categorical choices (migrations, evictions, the
    /// tuner's block size): any difference is a changed decision.
    Exact,
}

/// One measured number and how to judge it.
pub struct Metric {
    key: String,
    value: f64,
    better: Better,
    /// False for a number that rides along in the file ungated.
    gate: bool,
    /// See [`Metric::floor`].
    floor: Option<f64>,
    /// See [`Metric::paper`].
    paper: Option<(f64, f64)>,
}

impl Metric {
    /// An absolute floor, enforced on top of the band around the
    /// baseline: a sequence of sub-tolerance regressions, each followed
    /// by a refresh, can never walk the metric below the level a past
    /// optimization was sized for.
    pub fn floor(&mut self, floor: f64) {
        self.floor = Some(floor);
    }

    /// The source paper's value for this number — `lo == hi` — or the
    /// range it gives. Enforced on top of the band around the baseline,
    /// gated or not: the value must stay within a factor
    /// [`PAPER_BAND`] of the range, so a model that drifts away from
    /// the paper one refreshed baseline at a time still fails.
    pub fn paper(&mut self, lo: f64, hi: f64) {
        self.paper = Some((lo, hi));
    }

    /// The paper's value as printed, and the value over the nearest end
    /// of the paper's range (1 inside it).
    fn fidelity(&self) -> Option<(String, f64)> {
        let (lo, hi) = self.paper?;
        let paper = if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}-{hi}")
        };
        // Not `clamp`: a malformed range must reach `judge`, not panic.
        let nearest = self.value.max(lo).min(hi);
        Some((paper, self.value / nearest))
    }

    /// Judge the value against the baseline's value for the same key
    /// (`None`: the baseline has no such key). `Err` carries the reason.
    fn judge(&self, base: Option<f64>) -> Result<(), String> {
        // Checked first and by name: NaN compares false both ways, so a
        // 0/0 rate would otherwise pass in either direction.
        if !self.value.is_finite() {
            return Err("is not finite".into());
        }
        if let Some(floor) = self.floor.filter(|&f| self.value < f) {
            return Err(format!("is below its absolute floor {floor}"));
        }
        if let Some((lo, hi)) = self.paper {
            if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo <= hi) {
                return Err(format!("has a malformed paper reference [{lo}, {hi}]"));
            }
            let (min, max) = (lo / PAPER_BAND, hi * PAPER_BAND);
            if !(min..=max).contains(&self.value) {
                return Err(format!("leaves the paper band [{min}, {max}]"));
            }
        }
        let Some(base) = base.filter(|_| self.gate) else {
            return Ok(());
        };
        if !base.is_finite() {
            return Err("has a non-finite baseline".into());
        }
        let (worse, why) = match self.better {
            Better::Exact => (self.value != base, "differs from its baseline"),
            Better::Lower => (
                self.value > base * (1.0 + TOLERANCE) + 1e-9,
                "is above the band around its baseline",
            ),
            Better::Higher => (
                self.value < base * (1.0 - TOLERANCE),
                "is below the band around its baseline",
            ),
        };
        if worse {
            Err(why.into())
        } else {
            Ok(())
        }
    }
}

/// The metrics of one run, in the order the suites produced them.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, key: &str, value: f64, better: Better) -> &mut Metric {
        self.0.push(Metric {
            key: key.to_string(),
            value,
            better,
            gate: true,
            floor: None,
            paper: None,
        });
        self.0.last_mut().expect("just pushed")
    }

    /// A gated lower-is-better metric.
    pub fn lower(&mut self, key: &str, value: f64) -> &mut Metric {
        self.push(key, value, Better::Lower)
    }

    /// A gated higher-is-better metric.
    pub fn higher(&mut self, key: &str, value: f64) -> &mut Metric {
        self.push(key, value, Better::Higher)
    }

    /// A gated count or categorical choice: must equal its baseline.
    pub fn exact(&mut self, key: &str, value: f64) -> &mut Metric {
        self.push(key, value, Better::Exact)
    }

    /// A number recorded for the trajectory and never gated (nominally
    /// lower-is-better).
    pub fn info(&mut self, key: &str, value: f64) -> &mut Metric {
        let m = self.push(key, value, Better::Lower);
        m.gate = false;
        m
    }

    /// The flat `key → value` map the baseline file stores.
    pub fn flat(&self) -> Vec<(String, f64)> {
        self.0.iter().map(|m| (m.key.clone(), m.value)).collect()
    }

    /// How far the run is from the source paper: one markdown table row
    /// per metric that carries the paper's value — simulated, paper,
    /// ratio — between the two marker lines `docs/FIDELITY.md` quotes it
    /// between (`ci/check_doc_links.sh` compares the two blocks). `None`
    /// when no such metric was produced.
    pub fn fidelity_table(&self) -> Option<String> {
        let row = |m: &Metric| {
            let (paper, ratio) = m.fidelity()?;
            let (key, value) = (&m.key, m.value);
            Some(format!("| `{key}` | {value:.2} | {paper} | {ratio:.2} |\n"))
        };
        let rows: String = self.0.iter().filter_map(row).collect();
        (!rows.is_empty()).then(|| format!("{FIDELITY_HEAD}{rows}<!-- fidelity:end -->"))
    }

    /// Judge every metric against `baseline`, printing one verdict line
    /// per key with its declared direction, and return the failures
    /// (each names its key). A key the baseline lacks is reported as
    /// new, and only its own value and floor are checked; a `complete`
    /// run (every suite) must also produce every key of the baseline.
    pub fn gate(&self, baseline: &[(String, f64)], complete: bool) -> Vec<String> {
        let mut failures = Vec::new();
        let mut produced = BTreeSet::new();
        for m in &self.0 {
            let base = baseline.iter().find(|(k, _)| *k == m.key).map(|&(_, v)| v);
            let verdict = if produced.insert(m.key.as_str()) {
                m.judge(base)
            } else {
                Err("was produced twice in one run".into())
            };
            let direction = match (m.gate, m.better) {
                (false, _) => "info",
                (true, Better::Lower) => "lower",
                (true, Better::Higher) => "higher",
                (true, Better::Exact) => "exact",
            };
            let mut against = match base {
                Some(base) => format!("baseline {base}"),
                None => "no baseline value".into(),
            };
            if let Some((paper, ratio)) = m.fidelity() {
                against += &format!("; paper {paper}, ratio {ratio:.2}");
            }
            let mark = if verdict.is_ok() { "[ok]" } else { "[FAIL]" };
            println!(
                "  {mark:<6} {direction:<6} {}: {} ({against})",
                m.key, m.value
            );
            if let Err(why) = verdict {
                failures.push(format!("{} = {} {why} ({against})", m.key, m.value));
            }
        }
        if complete {
            for (key, _) in baseline {
                if !produced.contains(key.as_str()) {
                    failures.push(format!("{key} is in the baseline but was not produced"));
                }
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Declare = for<'a> fn(&'a mut Metrics, &str, f64) -> &'a mut Metric;

    fn baseline(base: f64) -> [(String, f64); 1] {
        [("k".to_string(), base)]
    }

    /// Declare `value` under key `k` and gate it against `base`.
    fn passes(declare: Declare, value: f64, base: f64) -> bool {
        let mut m = Metrics::default();
        declare(&mut m, "k", value);
        let failures = m.gate(&baseline(base), true);
        assert!(failures.iter().all(|f| f.starts_with("k ")), "{failures:?}");
        failures.is_empty()
    }

    #[test]
    fn counts_and_categorical_choices_gate_exactly() {
        // The seeded count regression: 8 -> 9 migrations is a changed
        // scheduling decision. It sits inside the 15% band counts used
        // to be gated with, which is why they are not `lower`.
        assert!(!passes(Metrics::exact, 9.0, 8.0));
        assert!(passes(Metrics::lower, 9.0, 8.0));
        assert!(passes(Metrics::exact, 8.0, 8.0));
        // A block size is a choice, not a magnitude: the tuner picking
        // 64 instead of 128 is no improvement.
        assert!(!passes(Metrics::exact, 64.0, 128.0));
        assert!(!passes(Metrics::exact, 256.0, 128.0));
    }

    #[test]
    fn floats_keep_the_band_in_their_declared_direction() {
        // The wrong direction passes inside the band and fails outside
        // it; the right direction passes however far it moves.
        for (value, lower_ok, higher_ok) in [
            (110.0, true, true),
            (120.0, false, true),
            (90.0, true, true),
            (80.0, true, false),
        ] {
            assert_eq!(passes(Metrics::lower, value, 100.0), lower_ok, "{value}");
            assert_eq!(passes(Metrics::higher, value, 100.0), higher_ok, "{value}");
        }
        // An informational metric moves freely.
        assert!(passes(Metrics::info, 1e6, 100.0));
        // A floor holds inside the band, and without a baseline.
        for (value, ok) in [(95.0, false), (99.0, true)] {
            let mut m = Metrics::default();
            m.higher("k", value).floor(98.0);
            assert_eq!(m.gate(&baseline(100.0), true).is_empty(), ok, "{value}");
            assert_eq!(m.gate(&[], false).is_empty(), ok, "{value}");
        }
    }

    #[test]
    fn a_paper_reference_is_held_on_top_of_the_baseline_band() {
        // Declare `value` with the paper's range, gate it against a
        // baseline equal to itself: only the reference can fail it.
        let verdict = |declare: Declare, value: f64, (lo, hi): (f64, f64)| {
            let mut m = Metrics::default();
            declare(&mut m, "k", value).paper(lo, hi);
            m.gate(&baseline(value), true)
        };
        let range = (0.6, 0.8);
        let gated: [Declare; 4] = [
            Metrics::lower,
            Metrics::higher,
            Metrics::exact,
            Metrics::info, // recorded ungated, still band-checked
        ];
        for declare in gated {
            for inside in [0.3, 0.6, 0.7, 0.8, 1.6] {
                assert!(verdict(declare, inside, range).is_empty(), "{inside}");
            }
            for outside in [0.49 * 0.6, 2.01 * 0.8] {
                let failures = verdict(declare, outside, range);
                assert_eq!(failures.len(), 1, "{outside}");
                assert!(failures[0].starts_with("k "), "{failures:?}");
                assert!(
                    failures[0].contains("paper band [0.3, 1.6]"),
                    "{failures:?}"
                );
                assert!(failures[0].contains("paper 0.6-0.8"), "{failures:?}");
            }
            for bad in [
                (f64::NAN, 1.0),
                (1.0, f64::INFINITY),
                (0.0, 1.0),
                (2.0, 1.0),
            ] {
                let failures = verdict(declare, 1.0, bad);
                assert!(failures[0].contains("malformed paper reference"), "{bad:?}");
            }
        }
        // The baseline band still applies to a row inside its paper band.
        let mut m = Metrics::default();
        m.higher("k", 1.5).paper(1.44, 1.44);
        assert!(!m.gate(&baseline(2.0), true).is_empty());
        // The table quotes value, reference and ratio to the nearest end
        // of the range; a run with no reference has no table.
        let mut m = Metrics::default();
        m.higher("a", 1.84).paper(1.61, 1.61);
        m.higher("b", 0.13).paper(0.15, 0.2);
        m.higher("c", 0.7).paper(0.6, 0.8);
        m.lower("d", 5.0);
        let table = m.fidelity_table().unwrap();
        assert!(table.contains("| `a` | 1.84 | 1.61 | 1.14 |"), "{table}");
        assert!(
            table.contains("| `b` | 0.13 | 0.15-0.2 | 0.87 |"),
            "{table}"
        );
        assert!(table.contains("| `c` | 0.70 | 0.6-0.8 | 1.00 |"), "{table}");
        assert!(!table.contains("`d`"), "{table}");
        let mut m = Metrics::default();
        m.lower("d", 5.0);
        assert!(m.fidelity_table().is_none());
    }

    #[test]
    fn bad_input_fails_by_name_instead_of_comparing_false() {
        let gated: [Declare; 3] = [Metrics::lower, Metrics::higher, Metrics::exact];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!passes(Metrics::info, bad, 100.0), "current {bad}");
            for declare in gated {
                assert!(!passes(declare, bad, 100.0), "current {bad}");
                assert!(!passes(declare, 100.0, bad), "baseline {bad}");
            }
        }
        // A key produced twice fails even when both values pass.
        let mut m = Metrics::default();
        m.lower("k", 100.0);
        m.lower("k", 100.0);
        let failures = m.gate(&baseline(100.0), true);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("produced twice"), "{failures:?}");
    }

    #[test]
    fn a_subset_gates_only_what_it_produced() {
        let baseline = [("a.x".to_string(), 1.0), ("b.y".to_string(), 2.0)];
        let mut m = Metrics::default();
        m.lower("a.x", 1.0);
        m.exact("c.new", 3.0);
        assert!(m.gate(&baseline, false).is_empty());
        let failures = m.gate(&baseline, true);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("b.y "), "{failures:?}");
        let flat = [("a.x".to_string(), 1.0), ("c.new".to_string(), 3.0)];
        assert_eq!(m.flat(), flat);
    }
}
