//! Fairness policies for the multi-tenant admission queue.
//!
//! Where [`crate::policy::DeviceSelectionPolicy`] decides *where* a
//! computation runs, a [`FairnessPolicy`] decides *whose* request is
//! admitted next when several tenants have work queued. The service
//! core consults the policy once per admission slot of a pump cycle;
//! the chosen tenants' requests are then coalesced into a single
//! [`crate::GrCuda::launch_batch`] submission.
//!
//! All built-in policies are deterministic: ties break toward the
//! lowest tenant id, so a given arrival order always produces the same
//! admission order (and therefore the same virtual timeline).

/// Everything a fairness policy may look at when choosing the next
/// tenant to admit. All slices are indexed by tenant id.
#[derive(Debug)]
pub struct FairnessCtx<'a> {
    /// Requests waiting in each tenant's queue.
    pub queued: &'a [usize],
    /// Virtual arrival time of each tenant's head-of-queue request
    /// (`None` when the queue is empty).
    pub head_arrival: &'a [Option<f64>],
    /// Absolute virtual deadline of each tenant's head-of-queue request
    /// (`None` when the queue is empty or the request has no deadline).
    pub head_deadline: &'a [Option<f64>],
    /// Configured tenant weights (weighted round-robin shares).
    pub weights: &'a [u32],
    /// Current virtual time.
    pub now: f64,
}

impl FairnessCtx<'_> {
    /// Tenants with at least one queued request.
    fn backlogged(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.queued.len()).filter(|&i| self.queued[i] > 0)
    }
}

/// Chooses which tenant's head-of-queue request is admitted next.
///
/// `next_tenant` is called repeatedly within one pump cycle, each call
/// observing the queue state *after* the previous admission; returning
/// `None` leaves the remaining admission slots unused. Policies may
/// keep internal state (round-robin cursors, deficit counters) — the
/// core owns the policy for the lifetime of the service.
pub trait FairnessPolicy {
    /// Short display name (`fifo`, `wrr`, `deadline`).
    fn name(&self) -> &'static str;

    /// The tenant whose head request should be admitted next, or `None`
    /// if no queued request should be admitted this cycle.
    fn next_tenant(&mut self, ctx: &FairnessCtx<'_>) -> Option<usize>;
}

/// Config-friendly selector for the built-in fairness policies, in the
/// spirit of [`crate::PlacementPolicy`]: a `Send + Clone` value that
/// crosses the service-thread boundary and is built into the stateful
/// policy object inside the service core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fairness {
    /// Global first-come-first-served across tenants.
    Fifo,
    /// Deficit weighted round-robin over the per-tenant weights.
    WeightedRoundRobin,
    /// Earliest head-of-queue deadline first.
    DeadlineAware,
}

impl Fairness {
    /// Build the stateful policy object.
    pub fn build(self) -> Box<dyn FairnessPolicy + Send> {
        match self {
            Fairness::Fifo => Box::new(Fifo),
            Fairness::WeightedRoundRobin => Box::new(WeightedRoundRobin::new()),
            Fairness::DeadlineAware => Box::new(DeadlineAware),
        }
    }
}

/// Global FIFO: the queued request that arrived earliest (any tenant)
/// is admitted next; ties break toward the lower tenant id.
#[derive(Debug, Default)]
struct Fifo;

impl FairnessPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn next_tenant(&mut self, ctx: &FairnessCtx<'_>) -> Option<usize> {
        ctx.backlogged().min_by(|&a, &b| {
            let ta = ctx.head_arrival[a].unwrap_or(f64::INFINITY);
            let tb = ctx.head_arrival[b].unwrap_or(f64::INFINITY);
            ta.total_cmp(&tb).then(a.cmp(&b))
        })
    }
}

/// Deficit weighted round-robin: each tenant accrues `weight` admission
/// credits per replenish round; a misbehaving tenant that floods the
/// queue can consume at most its weight share of each round before the
/// cursor moves on, so well-behaved tenants keep their admission rate.
#[derive(Debug, Default)]
struct WeightedRoundRobin {
    credit: Vec<u64>,
    cursor: usize,
}

impl WeightedRoundRobin {
    /// Fresh policy with no accumulated credit.
    fn new() -> Self {
        Self::default()
    }

    fn replenish(&mut self, ctx: &FairnessCtx<'_>) {
        for (i, c) in self.credit.iter_mut().enumerate() {
            // A zero weight still progresses (minimum share of 1):
            // fairness throttles, it must never starve.
            *c += u64::from(ctx.weights[i].max(1));
        }
    }
}

impl FairnessPolicy for WeightedRoundRobin {
    fn name(&self) -> &'static str {
        "wrr"
    }

    fn next_tenant(&mut self, ctx: &FairnessCtx<'_>) -> Option<usize> {
        let n = ctx.queued.len();
        self.credit.resize(n, 0);
        ctx.backlogged().next()?;
        for round in 0..2 {
            for k in 0..n {
                let i = (self.cursor + k) % n;
                if ctx.queued[i] > 0 && self.credit[i] > 0 {
                    self.credit[i] -= 1;
                    self.cursor = (i + 1) % n;
                    return Some(i);
                }
            }
            if round == 0 {
                self.replenish(ctx);
            }
        }
        None
    }
}

/// Earliest-deadline-first over head-of-queue requests: a request with
/// no deadline sorts after every deadlined one; ties break by arrival
/// time, then tenant id.
#[derive(Debug, Default)]
struct DeadlineAware;

impl FairnessPolicy for DeadlineAware {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn next_tenant(&mut self, ctx: &FairnessCtx<'_>) -> Option<usize> {
        ctx.backlogged().min_by(|&a, &b| {
            let da = ctx.head_deadline[a].unwrap_or(f64::INFINITY);
            let db = ctx.head_deadline[b].unwrap_or(f64::INFINITY);
            let ta = ctx.head_arrival[a].unwrap_or(f64::INFINITY);
            let tb = ctx.head_arrival[b].unwrap_or(f64::INFINITY);
            da.total_cmp(&db).then(ta.total_cmp(&tb)).then(a.cmp(&b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        queued: &'a [usize],
        arrival: &'a [Option<f64>],
        deadline: &'a [Option<f64>],
        weights: &'a [u32],
    ) -> FairnessCtx<'a> {
        FairnessCtx {
            queued,
            head_arrival: arrival,
            head_deadline: deadline,
            weights,
            now: 0.0,
        }
    }

    #[test]
    fn fifo_picks_earliest_arrival_then_lowest_id() {
        let mut p = Fifo;
        let c = ctx(
            &[1, 1, 1],
            &[Some(3.0), Some(1.0), Some(1.0)],
            &[None, None, None],
            &[1, 1, 1],
        );
        assert_eq!(p.next_tenant(&c), Some(1));
        let empty = ctx(&[0, 0], &[None, None], &[None, None], &[1, 1]);
        assert_eq!(p.next_tenant(&empty), None);
    }

    #[test]
    fn deadline_prefers_deadlined_heads() {
        let mut p = DeadlineAware;
        let c = ctx(
            &[1, 1, 1],
            &[Some(0.0), Some(1.0), Some(2.0)],
            &[None, Some(9.0), Some(4.0)],
            &[1, 1, 1],
        );
        assert_eq!(p.next_tenant(&c), Some(2));
        // A NaN deadline (the service refuses one at submit) orders
        // after every real one instead of panicking the pump.
        let nan = [Some(f64::NAN), Some(9.0)];
        let c = ctx(&[1, 1], &[Some(0.0), Some(1.0)], &nan, &[1, 1]);
        assert_eq!(p.next_tenant(&c), Some(1));
    }

    #[test]
    fn wrr_respects_weights_over_a_round() {
        let mut p = WeightedRoundRobin::new();
        let queued = [100, 100];
        let arrival = [Some(0.0), Some(0.0)];
        let deadline = [None, None];
        let weights = [3, 1];
        let mut picks = [0usize; 2];
        for _ in 0..8 {
            let c = ctx(&queued, &arrival, &deadline, &weights);
            picks[p.next_tenant(&c).unwrap()] += 1;
        }
        // Two full replenish rounds of 3:1.
        assert_eq!(picks, [6, 2]);
    }

    #[test]
    fn wrr_skips_idle_tenants_without_burning_their_credit() {
        let mut p = WeightedRoundRobin::new();
        // Tenant 0 idle: every admission goes to tenant 1.
        for _ in 0..5 {
            let c = ctx(&[0, 9], &[None, Some(0.0)], &[None, None], &[5, 1]);
            assert_eq!(p.next_tenant(&c), Some(1));
        }
        let c = ctx(&[0, 0], &[None, None], &[None, None], &[5, 1]);
        assert_eq!(p.next_tenant(&c), None);
    }
}
