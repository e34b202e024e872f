//! Serve: does concurrent submission convert the scheduler's
//! single-thread throughput into *aggregate* multi-client throughput?
//!
//! The serving layer driven as a deterministic
//! [`grcuda::serve::ServiceCore`], so every `serve.*` key is a
//! virtual-time quantity, bit-reproducible across machines. Two
//! phases:
//!
//! 1. **Contention**: the same per-client workload with 1 client and
//!    with 8 clients (200 requests each, 40 with `--smoke`). Eight
//!    tenants' chains are mutually independent, so the scheduler
//!    overlaps them on the device; the run must show ≥ 2× aggregate
//!    virtual throughput, and records per-request p50/p99 virtual
//!    latency. `serve.agg_virtual_launches_per_s` carries an absolute
//!    floor that holds the cross-tenant coalescing win: the 8-client
//!    smoke measures ~1.38M virtual launches/s, and 1M/s still sits
//!    well above the ≥ 2×-over-single-client bar (~380k/s).
//! 2. **Fairness**: three bulk tenants flood long chains while a
//!    latency-sensitive tenant submits short deadlined requests.
//!    Deadline-aware fairness must put its p99 strictly below FIFO's.
//!
//! Admission control (a request that could never fit is rejected as a
//! recoverable per-tenant error while other tenants keep completing)
//! and the threaded `Server` front-end (completeness, isolation,
//! race-freedom) are covered by `tests/serve.rs`; the front-end is
//! measured by `benchmark/`'s `serve_tenants` workload.

use bench::{render_table, round_sig};
use gpu_sim::{DeviceProfile, Grid};
use grcuda::serve::{
    ArgSpec, CallSpec, ElemKind, Fairness, KernelRef, RequestSpec, ServeConfig, ServiceCore,
    TenantId,
};
use grcuda::Options;
use kernels::util::{AXPY, SCALE};
use metrics::LatencySummary;

use crate::metric::Metrics;

const N: usize = 1 << 8;
const CALLS_PER_REQUEST: usize = 3;

struct TenantHandles {
    id: TenantId,
    x: grcuda::serve::ArrayRef,
    y: grcuda::serve::ArrayRef,
    scale: KernelRef,
    axpy: KernelRef,
}

fn setup_tenant(core: &mut ServiceCore, name: &str, weight: u32) -> TenantHandles {
    let id = core.add_tenant(name, weight);
    let x = core.alloc(id, ElemKind::F32, N).unwrap();
    let y = core.alloc(id, ElemKind::F32, N).unwrap();
    core.fill(id, x, 1.0).unwrap();
    let scale = core.register_kernel(id, &SCALE).unwrap();
    let axpy = core.register_kernel(id, &AXPY).unwrap();
    TenantHandles {
        id,
        x,
        y,
        scale,
        axpy,
    }
}

/// One request: a SCALE→AXPY→SCALE chain ping-ponging the tenant's two
/// arrays (dependent within the request and across a tenant's requests,
/// independent across tenants).
fn request(h: &TenantHandles, n: usize) -> RequestSpec {
    let calls = (0..CALLS_PER_REQUEST)
        .map(|i| {
            let (s, d) = if i % 2 == 0 { (h.x, h.y) } else { (h.y, h.x) };
            CallSpec {
                kernel: if i == 1 { h.axpy } else { h.scale },
                grid: Grid::d1(16, 256),
                args: vec![
                    ArgSpec::Array(s),
                    ArgSpec::Array(d),
                    ArgSpec::Scalar(0.5),
                    ArgSpec::Scalar(n as f64),
                ],
            }
        })
        .collect();
    RequestSpec {
        calls,
        deadline_us: None,
    }
}

/// Drive `clients` tenants, each submitting `requests` chain requests,
/// through a deterministic core. Returns (virtual launches/s, pooled
/// per-request latencies in virtual µs).
fn run_contention(clients: usize, requests: usize) -> (f64, Vec<f64>) {
    let config = ServeConfig::new(DeviceProfile::tesla_p100(), Options::parallel())
        .with_pipeline(2 * clients.max(2), clients.max(2));
    let mut core = ServiceCore::new(config);
    let tenants: Vec<TenantHandles> = (0..clients)
        .map(|i| setup_tenant(&mut core, &format!("client{i}"), 1))
        .collect();
    let t0 = core.now();
    for _ in 0..requests {
        for h in &tenants {
            core.submit(h.id, request(h, N)).unwrap();
        }
        core.pump();
    }
    core.drain_all();
    let span = core.now() - t0;
    assert!(span > 0.0, "no virtual time elapsed");
    assert_eq!(core.runtime().races().len(), 0, "contention run raced");
    let mut latencies_us = Vec::new();
    let mut launches = 0u64;
    for s in core.all_stats() {
        assert_eq!(
            s.completed, requests as u64,
            "tenant {} lost requests",
            s.name
        );
        assert_eq!(s.rejected, 0);
        launches += s.launches;
        latencies_us.extend(s.latencies.iter().map(|l| l * 1e6));
    }
    (launches as f64 / span, latencies_us)
}

/// Fairness phase: sensitive tenant's p99 (virtual µs) under the given
/// policy, with three bulk tenants flooding ahead of it every round.
fn run_fairness(fairness: Fairness, rounds: usize) -> f64 {
    let config = ServeConfig::new(DeviceProfile::tesla_p100(), Options::parallel())
        .with_fairness(fairness)
        .with_pipeline(2, 2);
    let mut core = ServiceCore::new(config);
    let bulk: Vec<TenantHandles> = (0..3)
        .map(|i| setup_tenant(&mut core, &format!("bulk{i}"), 1))
        .collect();
    let sens = setup_tenant(&mut core, "sensitive", 1);
    for _ in 0..rounds {
        for h in &bulk {
            core.submit(h.id, request(h, N)).unwrap();
        }
        let mut r = request(&sens, N);
        r.deadline_us = Some(50.0);
        core.submit(sens.id, r).unwrap();
        while core.pump() > 0 {}
    }
    core.drain_all();
    assert_eq!(core.runtime().races().len(), 0, "fairness run raced");
    let stats = core.tenant_stats(sens.id).unwrap();
    assert_eq!(stats.completed, rounds as u64);
    let summary = LatencySummary::from_samples(&stats.latencies).unwrap();
    summary.p99 * 1e6
}

pub fn run(smoke: bool, m: &mut Metrics) {
    let requests = if smoke { 40usize } else { 200 };
    let clients = 8usize;
    let fairness_rounds = if smoke { 12 } else { 40 };

    // Phase 1: contention.
    let (single_rate, _) = run_contention(1, requests);
    let (agg_rate, latencies_us) = run_contention(clients, requests);
    let scaling = round_sig(agg_rate / single_rate, 6);
    assert!(
        scaling >= 2.0,
        "aggregate throughput scaled only {scaling:.2}x over single-client \
         ({agg_rate:.0} vs {single_rate:.0} virtual launches/s)"
    );
    let lat = LatencySummary::from_samples(&latencies_us).expect("latencies");

    // Phase 2: fairness.
    let fifo_p99 = run_fairness(Fairness::Fifo, fairness_rounds);
    let deadline_p99 = run_fairness(Fairness::DeadlineAware, fairness_rounds);
    assert!(
        deadline_p99 < fifo_p99,
        "deadline-aware p99 {deadline_p99:.2}µs not below FIFO p99 {fifo_p99:.2}µs"
    );

    let rows = vec![
        vec![
            "single client".to_string(),
            format!("{single_rate:.0} virtual launches/s"),
            String::new(),
        ],
        vec![
            format!("{clients} clients"),
            format!("{agg_rate:.0} virtual launches/s"),
            format!("{scaling:.2}x aggregate"),
        ],
        vec![
            "request latency".to_string(),
            format!("p50 {:.2} vµs", lat.p50),
            format!("p99 {:.2} vµs", lat.p99),
        ],
        vec![
            "sensitive p99".to_string(),
            format!("fifo {fifo_p99:.2} vµs"),
            format!("deadline {deadline_p99:.2} vµs"),
        ],
    ];
    println!("{}", render_table(&["phase", "measure", "detail"], &rows));

    m.higher("serve.single_virtual_launches_per_s", single_rate);
    m.higher("serve.agg_virtual_launches_per_s", agg_rate)
        .floor(1_000_000.0);
    m.higher("serve.scaling_x", scaling);
    m.lower("serve.p50_virtual_us", lat.p50);
    m.lower("serve.p99_virtual_us", lat.p99);
    m.lower("serve.fifo_sensitive_p99_us", fifo_p99);
    m.lower("serve.deadline_sensitive_p99_us", deadline_p99);
}
