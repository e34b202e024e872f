//! The round loop every workload shares.
//!
//! A run is one warm-up round and then rounds of equal operation count
//! until the measuring time is used up (at least [`MIN_ROUNDS`]). A
//! traced run alternates untraced and traced rounds, so the two sets
//! see the same machine state and their difference is the tracing
//! overhead.
//!
//! Host-time metrics are the **lowest decile** over rounds, not the
//! median. The sandbox shares its cores: besides short bursts of
//! `steal` time it has phases, seconds to minutes long, in which the
//! same code runs up to 1.45x slower (process CPU time grows with wall
//! time, so it is the core that is slower, not the process that is
//! waiting). A disturbance only ever makes a round slower, so with
//! rounds of 0.05–0.2 s and fifty or more of them per run the lowest
//! decile measures the undisturbed machine whenever a tenth of the run
//! was undisturbed. Normalising by an interleaved calibration loop was
//! tried and dropped: the loop's speed explains too little of a
//! round's (log-log slopes of 0.4–0.6 with 6–16 % left over), because
//! the disturbance is not one scalar machine speed.

use std::time::Instant;

use crate::stats::Sorted;
use crate::trace::{Name, Tracer};
use crate::Config;

/// Fewest measured rounds of each kind (untraced; traced when tracing).
pub const MIN_ROUNDS: usize = 8;

/// Set-ups per round. A set-up is short next to a round, so each round
/// sets up several times (timing every one, keeping the last) to give
/// `setup_s` enough samples to be steady.
pub const SETUPS_PER_ROUND: usize = 5;

/// What one round measured.
pub struct RoundTime {
    /// Host seconds of every set-up the round made.
    pub setup_s: Vec<f64>,
    /// Host seconds the round's operations took.
    pub wall_s: f64,
    /// Host nanoseconds of every request in the round.
    pub request_ns: Vec<f64>,
}

/// Run `build` [`SETUPS_PER_ROUND`] times under a set-up span; returns
/// each run's host seconds and what the last one built.
pub fn setup<T>(tr: &mut Tracer, mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUPS_PER_ROUND);
    let mut built = None;
    for _ in 0..SETUPS_PER_ROUND {
        drop(built.take());
        let t = Instant::now();
        let s = tr.begin(Name::Setup);
        built = Some(build());
        tr.end(s);
        times.push(t.elapsed().as_secs_f64());
    }
    (times, built.expect("at least one set-up ran"))
}

/// The host-time estimator: nearest-rank lowest decile (see the module
/// docs for why not the median).
pub fn quiet(samples: &[f64]) -> f64 {
    Sorted::new(samples.to_vec()).percentile(10.0)
}

/// All measured rounds of a run.
pub struct Rounds {
    pub setup_s: Vec<f64>,
    /// Untraced rounds: the end-to-end host time.
    pub wall_s: Vec<f64>,
    /// Median request host time of each untraced round, nanoseconds.
    pub request_p50_ns: Vec<f64>,
    /// Traced rounds (empty unless tracing).
    pub traced_wall_s: Vec<f64>,
    pub tracer: Tracer,
}

impl Rounds {
    /// Host seconds of an undisturbed round.
    pub fn wall_s(&self) -> f64 {
        quiet(&self.wall_s)
    }

    /// Host microseconds of the median request of an undisturbed round.
    pub fn request_p50_us(&self) -> f64 {
        quiet(&self.request_p50_ns) / 1e3
    }

    /// Host seconds of an undisturbed set-up.
    pub fn setup_s(&self) -> f64 {
        quiet(&self.setup_s)
    }

    /// Traced over untraced round time, as a percentage on top.
    pub fn trace_overhead_pct(&self) -> f64 {
        (quiet(&self.traced_wall_s) / self.wall_s() - 1.0) * 100.0
    }

    /// One line for the report.
    pub fn describe(&self) -> String {
        let (q1, q2, q3) = Sorted::new(self.wall_s.clone()).quartiles();
        format!(
            "rounds: {} measured (+1 warm-up{}), host time per round min/p10/p25/p50/p75 = \
             {:.4}/{:.4}/{:.4}/{:.4}/{:.4} s; {} set-ups, p10 {:.5} s; host-time metrics use p10 \
             (disturbances only slow a round down)",
            self.wall_s.len(),
            if self.traced_wall_s.is_empty() {
                String::new()
            } else {
                format!(", {} traced", self.traced_wall_s.len())
            },
            self.wall_s.iter().copied().fold(f64::INFINITY, f64::min),
            self.wall_s(),
            q1,
            q2,
            q3,
            self.setup_s.len(),
            self.setup_s(),
        )
    }
}

/// Run `round` once to warm up, then until `cfg.seconds` have passed.
/// `round` sets up and runs one round, recording spans when the tracer
/// it is handed is on.
pub fn rounds(cfg: &Config, mut round: impl FnMut(&mut Tracer) -> RoundTime) -> Rounds {
    let start = Instant::now();
    let mut out = Rounds {
        setup_s: Vec::new(),
        wall_s: Vec::new(),
        request_p50_ns: Vec::new(),
        traced_wall_s: Vec::new(),
        tracer: Tracer::new(false),
    };
    round(&mut out.tracer);
    let mut traced_next = false;
    loop {
        let enough =
            out.wall_s.len() >= MIN_ROUNDS && (!cfg.trace || out.traced_wall_s.len() >= MIN_ROUNDS);
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        out.tracer.set_on(traced_next);
        out.tracer.round = (out.wall_s.len() + out.traced_wall_s.len()) as u32;
        let t = round(&mut out.tracer);
        out.setup_s.extend(t.setup_s);
        if traced_next {
            out.traced_wall_s.push(t.wall_s);
        } else {
            out.wall_s.push(t.wall_s);
            out.request_p50_ns.push(Sorted::new(t.request_ns).median());
        }
        traced_next = cfg.trace && !traced_next;
    }
    out.tracer.set_on(false);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seconds: f64, trace: bool) -> Config {
        Config {
            workload: "pipeline_batch".into(),
            seed: 1,
            seconds,
            trace,
        }
    }

    #[test]
    fn untimed_budget_still_runs_the_minimum_and_alternates_when_tracing() {
        let mut calls = 0;
        let mut traced_calls = 0;
        let r = rounds(&cfg(1e-9, true), |tr| {
            calls += 1;
            traced_calls += tr.is_on() as usize;
            let (setup_s, ()) = setup(tr, || ());
            RoundTime {
                setup_s,
                wall_s: calls as f64,
                request_ns: vec![3.0, 1.0, 2.0],
            }
        });
        assert_eq!(calls, 1 + 2 * MIN_ROUNDS);
        assert_eq!(traced_calls, MIN_ROUNDS);
        assert_eq!(r.wall_s.len(), MIN_ROUNDS);
        assert_eq!(r.traced_wall_s.len(), MIN_ROUNDS);
        assert_eq!(r.setup_s.len(), 2 * MIN_ROUNDS * SETUPS_PER_ROUND);
        assert_eq!(r.request_p50_us(), 2.0 / 1e3);
        // Untraced rounds were calls 2, 4, ...; the lowest decile of
        // eight of them is the first.
        assert_eq!(r.wall_s(), 2.0);
    }

    #[test]
    fn quiet_is_the_lowest_decile() {
        assert_eq!(quiet(&[9.0, 1.0, 5.0, 3.0]), 1.0);
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quiet(&twenty), 2.0);
    }
}
