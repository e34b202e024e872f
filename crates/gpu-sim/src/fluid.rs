//! Max–min fair rate allocation by progressive filling.
//!
//! At any instant the engine has a set of *active* tasks, each with a
//! [`crate::ResourceDemand`] describing the share of every device resource it
//! would consume when running at full (solo) speed, i.e. rate `x = 1`.
//! The allocator assigns each task a rate `x_i ∈ (0, 1]` such that for
//! every resource `r`: `Σ_i x_i · d_i[r] ≤ cap[r]`, using the classic
//! progressive-filling algorithm: grow all rates uniformly; when a
//! resource saturates, freeze every task using it at the current level;
//! repeat with the remaining capacity.
//!
//! This is the "fluid" in the fluid-rate simulator: it is what makes
//! space-sharing (two half-machine kernels at full speed) and contention
//! (two bandwidth-bound kernels at half speed) fall out of one mechanism,
//! matching the phenomena measured in the paper's §V-E.

/// Max–min fair rates by progressive filling over one resource space:
/// the global form, in which interconnect links join the per-device
/// resources in one solve (a peer link is shared by tasks on *different*
/// devices, so link contention cannot be solved per device). Returns one
/// rate in `(0, 1]` per task; a task with an all-zero demand vector
/// (e.g. a host task) gets rate 1. All demand vectors must have the same
/// length as `caps`.
pub fn max_min_rates_vec(demands: &[Vec<f64>], caps: &[f64]) -> Vec<f64> {
    // Validate shapes up front: a short demand vector would otherwise
    // panic deep inside the solve with an index error that names neither
    // the task nor the expected width.
    let nr = caps.len();
    for (i, d) in demands.iter().enumerate() {
        let got = d.len();
        assert_eq!(
            got, nr,
            "demand vector of task {i} has {got} entries but the solve spans {nr} resources"
        );
    }
    solve(demands, caps)
}

/// One-off solve over a slice of demand vectors, with fresh buffers.
fn solve<D: AsRef<[f64]>>(demands: &[D], caps: &[f64]) -> Vec<f64> {
    let mut rates = vec![0.0; demands.len()];
    let mut scratch = FillScratch::default();
    progressive_fill(|i| demands[i].as_ref(), caps, &mut scratch, &mut rates);
    rates
}

/// Working storage of [`progressive_fill`], kept by the caller so the
/// engine's rate refresh — which runs on every change of the active
/// set — allocates nothing once the buffers have grown to the largest
/// component solved so far.
#[derive(Debug, Default)]
pub(crate) struct FillScratch {
    frozen: Vec<bool>,
    /// Residual capacity after subtracting frozen tasks' consumption.
    residual: Vec<f64>,
}

/// The progressive-filling core, over whatever storage the caller
/// keeps its demand vectors in: `demand(i)` is task `i`'s vector, one
/// entry per resource of `caps`; one rate per task is written to
/// `rates`.
///
/// A resource no task demands carries zero load in every round and is
/// skipped, so leaving such columns out of the matrix changes neither
/// which resource binds, nor the order tasks freeze in, nor any rate:
/// the engine relies on this to solve a component over only the
/// resources its members occupy.
pub(crate) fn progressive_fill<'a>(
    demand: impl Fn(usize) -> &'a [f64],
    caps: &[f64],
    scratch: &mut FillScratch,
    rates: &mut [f64],
) {
    let n = rates.len();
    debug_assert!((0..n).all(|i| demand(i).len() == caps.len()));
    rates.fill(0.0);
    if n == 0 {
        return;
    }
    let FillScratch { frozen, residual } = scratch;
    frozen.clear();
    frozen.resize(n, false);
    residual.clear();
    residual.extend_from_slice(caps);
    // Plain slices from here on: the solve never resizes them.
    let (frozen, residual) = (frozen.as_mut_slice(), residual.as_mut_slice());

    loop {
        // Uniform growth level `t` for all unfrozen tasks, bounded by the
        // most congested resource and by the solo ceiling of 1.0.
        let mut t = 1.0f64;
        let mut binding: Option<usize> = None;
        for (r, res) in residual.iter().enumerate() {
            let load: f64 = (0..n).filter(|&i| !frozen[i]).map(|i| demand(i)[r]).sum();
            if load <= 0.0 {
                continue;
            }
            let limit = (res / load).max(0.0);
            if limit < t {
                t = limit;
                binding = Some(r);
            }
        }

        match binding {
            None => {
                // No resource binds before the solo ceiling: everyone
                // unfrozen runs at full speed.
                for i in 0..n {
                    if !frozen[i] {
                        rates[i] = 1.0;
                    }
                }
                break;
            }
            Some(r) => {
                // Freeze every unfrozen task that uses the binding
                // resource at level `t`; charge its usage to residual.
                let mut any = false;
                for i in 0..n {
                    if !frozen[i] && demand(i)[r] > 0.0 {
                        frozen[i] = true;
                        rates[i] = t;
                        any = true;
                        for (res, d) in residual.iter_mut().zip(demand(i)) {
                            *res -= t * d;
                        }
                    }
                }
                // Float-drift guard: the `res -= t * d` subtractions can
                // round a saturated resource's residual slightly below
                // zero; clamp it back so later rounds see "exhausted",
                // never "negative". (A negative residual and a zero one
                // both yield limit 0, so this is behavior-preserving —
                // the clamp exists so the invariant `residual ≥ 0` holds
                // for callers and future arithmetic on it.)
                for res in residual.iter_mut() {
                    if *res < 0.0 {
                        *res = 0.0;
                    }
                }
                // Loop-progress guard: a binding resource must freeze at
                // least one task, or this loop would spin forever. Float
                // noise (NaN/∞ demands) could in principle report
                // `load > 0` with no freezable user; rather than hang
                // the simulator, release the remaining tasks at solo
                // speed and bail out.
                if !any {
                    for i in 0..n {
                        if !frozen[i] {
                            rates[i] = 1.0;
                        }
                    }
                    break;
                }
                if frozen.iter().all(|&f| f) {
                    break;
                }
            }
        }
    }
    // Numerical guard: tasks must always make progress, and never exceed
    // solo speed.
    for x in rates.iter_mut() {
        *x = x.clamp(1e-9, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{capacities, columns, NUM_RESOURCES};
    use crate::profile::DeviceProfile;
    use crate::task::{TaskKind, TaskSpec};
    use crate::topology::{LinkId, Topology};

    type Row = [f64; NUM_RESOURCES];

    fn dev() -> DeviceProfile {
        DeviceProfile::gtx1660_super()
    }

    /// Capacities of the one device of a `dev` machine.
    fn caps(dev: &DeviceProfile) -> Row {
        let topo = Topology::pcie_only(1, dev);
        capacities(dev, topo.link(topo.host_link(0)))
    }

    /// Rates of the rows of tasks on one device `dev`.
    fn max_min_rates(demands: &[Row], dev: &DeviceProfile) -> Vec<f64> {
        solve(demands, &caps(dev))
    }

    /// The row a task places on the one device of a machine.
    fn row(t: TaskSpec) -> Row {
        columns(1, &t).0
    }

    fn sm(frac: f64) -> Row {
        row(TaskSpec::kernel("k", 0).sm_frac(frac))
    }

    fn dram(bps: f64) -> Row {
        row(TaskSpec::kernel("k", 0).dram(bps))
    }

    /// A host→device copy over the device's host link (PCIe).
    fn h2d(dev: &DeviceProfile) -> Row {
        let topo = Topology::pcie_only(1, dev);
        let host = topo.link(LinkId(0));
        row(TaskSpec::bulk_copy(
            TaskKind::CopyH2D,
            "c",
            0,
            1.0,
            LinkId(0),
            host,
        ))
    }

    #[test]
    fn empty_input() {
        assert!(max_min_rates(&[], &dev()).is_empty());
    }

    #[test]
    fn single_task_runs_solo() {
        let r = max_min_rates(&[sm(1.0)], &dev());
        assert_eq!(r, vec![1.0]);
    }

    #[test]
    fn space_sharing_two_small_kernels() {
        // Two kernels that each fill 30% of the SMs co-run at full speed.
        let r = max_min_rates(&[sm(0.3), sm(0.3)], &dev());
        assert_eq!(r, vec![1.0, 1.0]);
    }

    #[test]
    fn contention_two_full_kernels() {
        // Two full-machine kernels each get half the machine.
        let r = max_min_rates(&[sm(1.0), sm(1.0)], &dev());
        assert!((r[0] - 0.5).abs() < 1e-12);
        assert!((r[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_contention_is_proportional_on_one_resource() {
        // 0.8 + 0.8 SM demand: level t = 1 / 1.6 = 0.625 for both.
        let r = max_min_rates(&[sm(0.8), sm(0.8)], &dev());
        assert!((r[0] - 0.625).abs() < 1e-12);
    }

    #[test]
    fn max_min_protects_light_users() {
        // Task 0 saturates DRAM; task 1 barely uses it and mostly needs
        // SMs. Max-min: they first grow together until DRAM binds; both
        // use DRAM so both freeze — but task 1's demand is tiny so the
        // level is nearly 1.
        let d = dev();
        let heavy = dram(d.dram_bw);
        let light = row(TaskSpec::kernel("k", 0).sm_frac(0.2).dram(d.dram_bw * 0.01));
        let r = max_min_rates(&[heavy, light], &d);
        // level t = cap / (1.01 * cap) ≈ 0.990
        assert!(r[0] > 0.98 && r[0] < 1.0);
        assert!(r[1] > 0.98);
    }

    #[test]
    fn non_users_of_the_binding_resource_keep_growing() {
        let d = dev();
        // Two DRAM-saturating tasks and one pure-compute task: the
        // compute task must still run at full speed.
        let r = max_min_rates(&[dram(d.dram_bw), dram(d.dram_bw), sm(0.4)], &d);
        assert!((r[0] - 0.5).abs() < 1e-12);
        assert!((r[1] - 0.5).abs() < 1e-12);
        assert_eq!(r[2], 1.0);
    }

    #[test]
    fn transfer_and_kernel_do_not_contend() {
        let d = dev();
        let kern = row(TaskSpec::kernel("k", 0).sm_frac(1.0).dram(d.dram_bw * 0.5));
        let r = max_min_rates(&[h2d(&d), kern], &d);
        assert_eq!(r, vec![1.0, 1.0]);
    }

    #[test]
    fn fault_controller_serializes_migrations() {
        let d = dev();
        let fault = row(TaskSpec::fault_migration(
            TaskKind::FaultH2D,
            "f",
            0,
            1.0,
            LinkId(0),
            &d,
        ));
        let r = max_min_rates(&[fault, fault], &d);
        assert!((r[0] - 0.5).abs() < 1e-12);
        assert!((r[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_demand_tasks_run_free() {
        let r = max_min_rates(&[[0.0; NUM_RESOURCES], sm(1.0), sm(1.0)], &dev());
        assert_eq!(r[0], 1.0);
        assert!((r[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ten_way_pcie_contention_matches_bs_benchmark_shape() {
        // B&S issues 10 independent H2D transfers; each should get a
        // tenth of the link.
        let d = dev();
        let r = max_min_rates(&[h2d(&d); 10], &d);
        for x in r {
            assert!((x - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn global_solve_shares_a_link_across_devices() {
        // Resource space: [dev0 sm, dev1 sm, link]. Two kernels on
        // different devices run free; two copies on the shared link
        // halve each other; a copy on another link would be unaffected.
        let caps = vec![1.0, 1.0, 1.0];
        let demands = vec![
            vec![1.0, 0.0, 0.0], // kernel on dev0
            vec![0.0, 1.0, 0.0], // kernel on dev1
            vec![0.0, 0.0, 1.0], // p2p copy on the link
            vec![0.0, 0.0, 1.0], // opposite-direction copy, same link
        ];
        let r = max_min_rates_vec(&demands, &caps);
        assert_eq!(r[0], 1.0);
        assert_eq!(r[1], 1.0);
        assert!((r[2] - 0.5).abs() < 1e-12);
        assert!((r[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "demand vector of task 1 has 2 entries")]
    fn mismatched_demand_length_names_the_task() {
        let caps = vec![1.0, 1.0, 1.0];
        let demands = vec![vec![0.5, 0.5, 0.5], vec![0.5, 0.5]];
        max_min_rates_vec(&demands, &caps);
    }

    #[test]
    fn pathological_inputs_terminate() {
        // NaN demands make `load <= 0` false and `limit = NaN.max(0) = 0`
        // bind with no freezable user — the loop-progress guard must bail
        // out instead of spinning. Infinite and negative demands must
        // also terminate with every rate inside the clamped range.
        let caps = [1.0; NUM_RESOURCES];
        let cases: Vec<Vec<[f64; NUM_RESOURCES]>> = vec![
            vec![
                [f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [1.0; NUM_RESOURCES],
            ],
            vec![
                [f64::INFINITY, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [0.5; NUM_RESOURCES],
            ],
            vec![
                [-2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ],
            vec![[f64::NAN; NUM_RESOURCES]; 3],
        ];
        for demands in cases {
            let rates = solve(&demands, &caps);
            assert_eq!(rates.len(), demands.len());
            for x in rates {
                assert!((1e-9..=1.0).contains(&x), "rate {x} out of range");
            }
        }
    }

    #[test]
    fn global_solve_matches_fixed_width_solver() {
        let d = dev();
        let demands = [sm(1.0), sm(0.3), dram(d.dram_bw)];
        let fixed = max_min_rates(&demands, &d);
        let dvecs: Vec<Vec<f64>> = demands.iter().map(|x| x.to_vec()).collect();
        assert_eq!(fixed, max_min_rates_vec(&dvecs, &caps(&d)));
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use crate::engine::NUM_RESOURCES;
    use exhaustive::sequences;

    /// Exact rational `p/q` with `q > 0`, reduced — the reference
    /// arithmetic for the float-drift regression test. Demands are small
    /// integers over a small scale and round counts are bounded by the
    /// task count, so i128 never overflows here.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Ratio {
        num: i128,
        den: i128,
    }

    impl Ratio {
        fn new(num: i128, den: i128) -> Ratio {
            assert!(den != 0);
            let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
            let g = gcd(num.abs(), den);
            Ratio {
                num: num / g.max(1),
                den: den / g.max(1),
            }
        }
        fn int(v: i128) -> Ratio {
            Ratio { num: v, den: 1 }
        }
        fn sub(self, o: Ratio) -> Ratio {
            Ratio::new(self.num * o.den - o.num * self.den, self.den * o.den)
        }
        fn mul(self, o: Ratio) -> Ratio {
            Ratio::new(self.num * o.num, self.den * o.den)
        }
        fn div(self, o: Ratio) -> Ratio {
            Ratio::new(self.num * o.den, self.den * o.num)
        }
        fn lt(self, o: Ratio) -> bool {
            self.num * o.den < o.num * self.den
        }
        fn to_f64(self) -> f64 {
            self.num as f64 / self.den as f64
        }
    }

    fn gcd(a: i128, b: i128) -> i128 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    /// Progressive filling in exact rational arithmetic: demands are
    /// `demands[i][r] / scale`, every capacity is 1. Mirrors
    /// `progressive_fill` step for step, with no rounding anywhere.
    fn exact_progressive_fill(demands: &[[i128; NUM_RESOURCES]], scale: i128) -> Vec<Ratio> {
        let n = demands.len();
        let mut rates = vec![Ratio::int(0); n];
        let mut frozen = vec![false; n];
        let mut residual = vec![Ratio::int(1); NUM_RESOURCES];
        loop {
            let mut t = Ratio::int(1);
            let mut binding: Option<usize> = None;
            for (r, res) in residual.iter().enumerate() {
                let load: i128 = (0..n).filter(|&i| !frozen[i]).map(|i| demands[i][r]).sum();
                if load <= 0 {
                    continue;
                }
                let limit = res.div(Ratio::new(load, scale));
                if limit.lt(t) {
                    t = limit;
                    binding = Some(r);
                }
            }
            match binding {
                None => {
                    for i in 0..n {
                        if !frozen[i] {
                            rates[i] = Ratio::int(1);
                        }
                    }
                    break;
                }
                Some(r) => {
                    for i in 0..n {
                        if !frozen[i] && demands[i][r] > 0 {
                            frozen[i] = true;
                            rates[i] = t;
                            for (res, d) in residual.iter_mut().zip(demands[i].iter()) {
                                *res = res.sub(t.mul(Ratio::new(*d, scale)));
                            }
                        }
                    }
                    if frozen.iter().all(|&f| f) {
                        break;
                    }
                }
            }
        }
        rates
    }

    /// The demand levels, in eighths of a unit capacity.
    const LEVELS: [i128; 3] = [0, 3, 8];
    const SCALE: i128 = 8;
    /// How many resources a demand may load. The others stay zero, and
    /// a column no task demands changes no rate (`progressive_fill`).
    const LOADED: u32 = 3;

    /// Every task set of 1 to `len` tasks, as integer eighths and as
    /// the float demands the solver sees: each task loads each of the
    /// first three resources at 0, 3/8 or the whole capacity (27
    /// demand vectors, the zero one included).
    fn task_sets(len: u32) -> impl Iterator<Item = Vec<[i128; NUM_RESOURCES]>> {
        let vectors: Vec<[i128; NUM_RESOURCES]> = (0..3usize.pow(LOADED))
            .map(|code| {
                let mut d = [0; NUM_RESOURCES];
                for (r, v) in d.iter_mut().take(LOADED as usize).enumerate() {
                    *v = LEVELS[code / 3usize.pow(r as u32) % 3];
                }
                d
            })
            .collect();
        sequences(vectors.len(), len).map(move |s| s.iter().map(|&v| vectors[v]).collect())
    }

    fn as_f64(tasks: &[[i128; NUM_RESOURCES]]) -> Vec<[f64; NUM_RESOURCES]> {
        tasks
            .iter()
            .map(|d| d.map(|v| v as f64 / SCALE as f64))
            .collect()
    }

    /// Allocated rates never violate any capacity constraint and are
    /// always within (0, 1]: every set of up to three tasks (20 439).
    #[test]
    fn rates_are_feasible() {
        let caps = [1.0; NUM_RESOURCES];
        assert!(solve::<[f64; NUM_RESOURCES]>(&[], &caps).is_empty());
        let mut checked = 0;
        for tasks in task_sets(3) {
            let demands = as_f64(&tasks);
            let rates = solve(&demands, &caps);
            assert_eq!(rates.len(), demands.len());
            for r in 0..NUM_RESOURCES {
                let used: f64 = demands.iter().zip(&rates).map(|(d, x)| d[r] * x).sum();
                assert!(
                    used <= 1.0 + 1e-6,
                    "resource {r} over capacity: {used} for {tasks:?}"
                );
            }
            for (x, d) in rates.iter().zip(&demands) {
                assert!(*x > 0.0 && *x <= 1.0, "{tasks:?}");
                // A task contending on nothing must run at full speed.
                if d.iter().all(|&v| v == 0.0) {
                    assert_eq!(*x, 1.0, "{tasks:?}");
                }
            }
            checked += 1;
        }
        assert_eq!(checked, 20_439);
    }

    /// Float-drift regression (the residual-clamp bugfix): every
    /// returned rate is the fair share computed by the same algorithm
    /// in exact rational arithmetic, within epsilon. Before the clamp,
    /// drift below zero could freeze late tasks at the 1e-9 floor even
    /// though their exact fair share was large. Every set of up to
    /// three tasks (20 439).
    #[test]
    fn rates_match_exact_rational_fair_share() {
        let caps = [1.0; NUM_RESOURCES];
        for tasks in task_sets(3) {
            let float_rates = solve(&as_f64(&tasks), &caps);
            let exact_rates = exact_progressive_fill(&tasks, SCALE);
            for (i, (fx, ex)) in float_rates.iter().zip(&exact_rates).enumerate() {
                let exact = ex.to_f64().clamp(1e-9, 1.0);
                assert!(
                    (fx - exact).abs() <= 1e-9,
                    "task {i}: float rate {fx}, exact fair share {exact} for {tasks:?}"
                );
            }
        }
    }

    /// Adding a task never raises the lowest rate of the others: their
    /// new rates are feasible without it, and max-min filling maximizes
    /// the lowest rate. (It can raise another rate: with A = (3/8, 0)
    /// and B = (1, 1) both run at 8/11, bound by the first resource;
    /// add C = (0, 1) and B and C freeze at 1/2 on the second, which
    /// leaves A alone at full speed.) Every set of one or two tasks
    /// with every task added (20 412 pairs).
    #[test]
    fn adding_load_never_raises_the_lowest_rate() {
        let caps = [1.0; NUM_RESOURCES];
        let mut checked = 0;
        for bigger in task_sets(3).filter(|t| t.len() > 1) {
            let bigger = as_f64(&bigger);
            let base = &bigger[..bigger.len() - 1];
            let lowest = |rates: &[f64]| rates.iter().copied().fold(1.0, f64::min);
            let before = lowest(&solve(base, &caps));
            let after = lowest(&solve(&bigger, &caps)[..base.len()]);
            assert!(after <= before + 1e-9, "{after} > {before} for {bigger:?}");
            checked += 1;
        }
        assert_eq!(checked, 20_412);
    }
}
