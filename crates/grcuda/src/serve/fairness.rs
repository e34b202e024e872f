//! Fairness rules of the multi-tenant admission queue.
//!
//! Where [`crate::PlacementPolicy`] decides *where* a computation
//! runs, a [`Fairness`] rule decides *whose* request is admitted next
//! when several tenants have work queued. The service core asks once
//! per admission slot of a pump cycle ([`Admission::next`]); the chosen
//! tenants' requests are then coalesced into a single
//! [`crate::GrCuda::launch_batch`] submission.
//!
//! The rules are data, not a seam: [`Fairness`] is a `Send + Copy`
//! value in [`crate::serve::ServeConfig`], and the one function that
//! reads it looks at the tenant table itself — each tenant's weight and
//! the head of its queue. A fourth rule costs one enum variant and one
//! key (or, if it remembers something between picks, one scan) in
//! [`Admission::next`]; there is no trait to implement because there is
//! nowhere to pass an implementor in.
//!
//! Every rule is deterministic, and every tie-break is declared where
//! the rule is: [`Fairness::Fifo`] and [`Fairness::DeadlineAware`] are
//! one lexicographic key that ends in the tenant id, so no two tenants
//! ever compare equal; [`Fairness::WeightedRoundRobin`] scans from a
//! cursor it advances itself. A given arrival order therefore always
//! produces the same admission order (and the same virtual timeline).

use super::core::Tenant;

/// Which tenant's head-of-queue request is admitted next under
/// contention. The last tie-break of every rule is the lower tenant id
/// (registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fairness {
    /// Global first-come-first-served across tenants: the queued
    /// request that arrived earliest (any tenant) is admitted next.
    Fifo,
    /// Deficit weighted round-robin over the per-tenant weights: each
    /// tenant accrues `weight` admission credits per replenish round
    /// (a zero weight still gets one — fairness throttles, it never
    /// starves), so a tenant that floods its queue can consume at most
    /// its share of a round before the cursor moves on.
    WeightedRoundRobin,
    /// Earliest head-of-queue deadline first: a request with no
    /// deadline sorts after every deadlined one; ties break by arrival
    /// time.
    DeadlineAware,
}

/// The admission state of one service core: its rule, plus what deficit
/// round-robin remembers between picks (unused by the other two).
pub(super) struct Admission {
    rule: Fairness,
    /// Admission credits left to each tenant in this replenish round.
    credit: Vec<u64>,
    /// Where the next round-robin scan starts.
    cursor: usize,
}

impl Admission {
    pub(super) fn new(rule: Fairness) -> Self {
        Admission {
            rule,
            credit: Vec::new(),
            cursor: 0,
        }
    }

    /// The tenant whose head request is admitted next — always one
    /// while anybody is backlogged, `None` when nobody is. Called once
    /// per admission slot, each call seeing the table *after* the
    /// previous admission popped its request.
    pub(super) fn next(&mut self, tenants: &[Tenant]) -> Option<usize> {
        // FIFO and EDF are one ranked pick: (deadline-or-∞ when EDF,
        // head arrival, tenant id), smallest first. `total_cmp` puts a
        // NaN deadline (refused at submit) after every real one.
        let edf = match self.rule {
            Fairness::WeightedRoundRobin => return self.next_round_robin(tenants),
            Fairness::DeadlineAware => true,
            Fairness::Fifo => false,
        };
        let key = |(i, t): (usize, &Tenant)| {
            let head = t.queue.front()?;
            let deadline = head.deadline.filter(|_| edf).unwrap_or(f64::INFINITY);
            Some((deadline, head.arrival, i))
        };
        let (_, _, chosen) = tenants.iter().enumerate().filter_map(key).min_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.cmp(&b.2))
        })?;
        Some(chosen)
    }

    /// Two scans from the cursor: the first spends credit left over
    /// from the current round, the second runs after every tenant has
    /// accrued its weight and therefore finds whoever is backlogged.
    fn next_round_robin(&mut self, tenants: &[Tenant]) -> Option<usize> {
        let n = tenants.len();
        self.credit.resize(n, 0);
        if tenants.iter().all(|t| t.queue.is_empty()) {
            return None;
        }
        for round in 0..2 {
            for k in 0..n {
                let i = (self.cursor + k) % n;
                if !tenants[i].queue.is_empty() && self.credit[i] > 0 {
                    self.credit[i] -= 1;
                    self.cursor = (i + 1) % n;
                    return Some(i);
                }
            }
            if round == 0 {
                for (c, t) in self.credit.iter_mut().zip(tenants) {
                    *c += u64::from(t.weight.max(1));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::super::core::{PendingRequest, RequestId, TenantId};
    use super::*;

    /// A tenant table from per-tenant columns: `queued[i]` copies of a
    /// request with the given head arrival and deadline, and a weight.
    fn table(
        queued: &[usize],
        arrival: &[Option<f64>],
        deadline: &[Option<f64>],
        weights: &[u32],
    ) -> Vec<Tenant> {
        (0..queued.len())
            .map(|i| {
                let mut t = Tenant::new("", weights[i]);
                for seq in 0..queued[i] as u64 {
                    t.queue.push_back(PendingRequest {
                        id: RequestId {
                            tenant: TenantId(i as u32),
                            seq,
                        },
                        arrival: arrival[i].expect("a queued request arrived"),
                        deadline: deadline[i],
                        calls: Vec::new(),
                        written: Vec::new(),
                    });
                }
                t
            })
            .collect()
    }

    #[test]
    fn fifo_picks_earliest_arrival_then_lowest_id() {
        let mut p = Admission::new(Fairness::Fifo);
        let c = table(
            &[1, 1, 1],
            &[Some(3.0), Some(1.0), Some(1.0)],
            &[None, None, None],
            &[1, 1, 1],
        );
        assert_eq!(p.next(&c), Some(1));
        let empty = table(&[0, 0], &[None, None], &[None, None], &[1, 1]);
        assert_eq!(p.next(&empty), None);
    }

    #[test]
    fn deadline_prefers_deadlined_heads() {
        let mut p = Admission::new(Fairness::DeadlineAware);
        let c = table(
            &[1, 1, 1],
            &[Some(0.0), Some(1.0), Some(2.0)],
            &[None, Some(9.0), Some(4.0)],
            &[1, 1, 1],
        );
        assert_eq!(p.next(&c), Some(2));
        // A NaN deadline (the service refuses one at submit) orders
        // after every real one instead of panicking the pump.
        let nan = [Some(f64::NAN), Some(9.0)];
        let c = table(&[1, 1], &[Some(0.0), Some(1.0)], &nan, &[1, 1]);
        assert_eq!(p.next(&c), Some(1));
    }

    #[test]
    fn wrr_respects_weights_over_a_round() {
        let mut p = Admission::new(Fairness::WeightedRoundRobin);
        let c = table(&[100, 100], &[Some(0.0), Some(0.0)], &[None, None], &[3, 1]);
        let mut picks = [0usize; 2];
        for _ in 0..8 {
            picks[p.next(&c).unwrap()] += 1;
        }
        // Two full replenish rounds of 3:1.
        assert_eq!(picks, [6, 2]);
    }

    #[test]
    fn wrr_skips_idle_tenants_without_burning_their_credit() {
        let mut p = Admission::new(Fairness::WeightedRoundRobin);
        // Tenant 0 idle: every admission goes to tenant 1.
        let c = table(&[0, 9], &[None, Some(0.0)], &[None, None], &[5, 1]);
        for _ in 0..5 {
            assert_eq!(p.next(&c), Some(1));
        }
        let c = table(&[0, 0], &[None, None], &[None, None], &[5, 1]);
        assert_eq!(p.next(&c), None);
    }

    /// The seeded corpus the admission-order hashes were recorded over:
    /// per step, every registered tenant's weight and — when it is
    /// backlogged — its head request's `(arrival, deadline)`. Tenants
    /// register as the sequence goes (none for the first 2048 steps, a
    /// twelfth from step 24 576), weights include 0, arrivals and
    /// deadlines come from a handful of values so exact ties are
    /// common, deadlines include `None` and NaN, every 97th step finds
    /// nobody backlogged and every third or so finds almost nobody.
    struct Corpus {
        state: u64,
        weights: Vec<u32>,
    }

    impl Corpus {
        /// SplitMix64.
        fn rand(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// The tenant table of one step, in [`table`]'s columns.
        fn step(&mut self, step: usize) -> Vec<Tenant> {
            let n = (step / 2048).min(12);
            while self.weights.len() < n {
                let w = (self.rand() % 4) as u32;
                self.weights.push(w);
            }
            let sparse = self.rand().is_multiple_of(3);
            let (mut queued, mut arrival, mut deadline) =
                (vec![0; n], vec![None; n], vec![None; n]);
            for i in 0..n {
                let r = self.rand();
                if step.is_multiple_of(97) || (r.is_multiple_of(4) != sparse) {
                    continue;
                }
                queued[i] = 1 + step % 3;
                arrival[i] = Some(((r >> 8) % 6) as f64 * 0.25);
                deadline[i] = match (r >> 16) % 8 {
                    0..=2 => None,
                    7 => Some(f64::NAN),
                    d => Some(d as f64 * 0.5),
                };
            }
            table(&queued, &arrival, &deadline, &self.weights)
        }
    }

    fn fnv1a(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// 131 072 consecutive picks per rule — one `Admission` across all
    /// of them, so credit and cursor evolve and `credit` grows with the
    /// table — fold `(rule, step, chosen)` to the hash the three
    /// `FairnessPolicy` implementations this module replaced produced
    /// over the same corpus (recorded at the parent of the commit that
    /// deleted them, driving `Fairness::build()`'s objects through
    /// `FairnessCtx` columns built from the same rows).
    #[test]
    fn admission_order_matches_the_recorded_policies() {
        const RECORDED: [(Fairness, u64); 3] = [
            (Fairness::Fifo, 0x95c2_272b_6140_5f1e),
            (Fairness::WeightedRoundRobin, 0x3e64_f35d_41e1_f78c),
            (Fairness::DeadlineAware, 0xb46d_922e_732c_53d1),
        ];
        for (rule, (fairness, recorded)) in RECORDED.into_iter().enumerate() {
            let mut admission = Admission::new(fairness);
            let mut corpus = Corpus {
                state: 23,
                weights: Vec::new(),
            };
            let (mut hash, mut picks) = (0xcbf2_9ce4_8422_2325u64, 0);
            for step in 0..131_072usize {
                let chosen = admission.next(&corpus.step(step));
                picks += usize::from(chosen.is_some());
                fnv1a(&mut hash, &[rule as u8]);
                fnv1a(&mut hash, &(step as u64).to_le_bytes());
                fnv1a(
                    &mut hash,
                    &chosen.map_or(u64::MAX, |t| t as u64).to_le_bytes(),
                );
            }
            assert_eq!(
                picks, 124_139,
                "{fairness:?}: steps with somebody backlogged"
            );
            assert_eq!(hash, recorded, "{fairness:?}: admission order moved");
        }
    }
}
