//! Multi-tenant serving contention benchmark: does concurrent
//! submission convert the scheduler's single-thread throughput into
//! *aggregate* multi-client throughput?
//!
//! Four phases:
//!
//! 1. **Contention** (gated): the same per-client workload driven
//!    through a deterministic [`grcuda::serve::ServiceCore`] with 1 client and with 8
//!    clients. Eight tenants' chains are mutually independent, so the
//!    scheduler overlaps them on the device; the run must show ≥ 2×
//!    aggregate virtual throughput, and emits per-request p50/p99
//!    virtual latency.
//! 2. **Fairness** (gated): three bulk tenants flood long chains while
//!    a latency-sensitive tenant submits short deadlined requests.
//!    Deadline-aware fairness must put its p99 strictly below FIFO's.
//! 3. **Admission** (asserted): under finite device memory, a request
//!    that could never fit is rejected as a recoverable per-tenant
//!    error while other tenants keep completing.
//! 4. **Threaded** (informational): 8 OS threads with `Send + Clone`
//!    [`grcuda::serve::Client`] handles submit concurrently through the mpsc server.
//!    Wall throughput is machine-dependent (`wall.*`, exempt from the
//!    gate); completeness, isolation and race-freedom are asserted.
//!
//! Run:  `cargo run --release -p bench --bin serve`
//! CI:   `cargo run --release -p bench --bin serve -- --smoke --json BENCH_sched.json`
//! Args: `--requests N` (per client, default 200), `--smoke` (reduced
//!       CI variant), `--json FILE` (merge metrics into a flat
//!       benchmark-JSON file).
//!
//! Gated `serve.*` keys are virtual-time quantities measured on the
//! deterministic core — bit-reproducible across machines. The last
//! line is the machine-readable `RESULT serve ok ...` record.

use std::time::Instant;

use bench::{emit_bench_json, render_table, round_sig};
use gpu_sim::DeviceProfile;
use grcuda::serve::{
    ArgSpec, CallSpec, ElemKind, Fairness, KernelRef, RequestSpec, ServeConfig, ServeError, Server,
    ServiceCore, TenantId,
};
use grcuda::{EvictionPolicy, Grid, MemoryConfig, Options};
use kernels::util::{AXPY, SCALE};
use metrics::LatencySummary;

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

/// Admission phase: a can-never-fit request must come back as a
/// recoverable per-tenant error while another tenant's work completes.
fn run_admission() {
    let n = 1 << 10;
    let config = ServeConfig::new(DeviceProfile::tesla_p100(), Options::parallel())
        .with_memory(MemoryConfig::with_capacity(3 * 4 * n).with_eviction(EvictionPolicy::Lru));
    let mut core = ServiceCore::new(config);
    let greedy = core.add_tenant("greedy", 1);
    let modest = setup_tenant(&mut core, "modest", 1);
    let big = core.alloc(greedy, ElemKind::F32, 4 * n).unwrap();
    let kg = core.register_kernel(greedy, &SCALE).unwrap();
    let impossible = RequestSpec {
        calls: vec![CallSpec {
            kernel: kg,
            grid: Grid::d1(16, 256),
            args: vec![
                ArgSpec::Array(big),
                ArgSpec::Array(big),
                ArgSpec::Scalar(1.0),
                ArgSpec::Scalar((4 * n) as f64),
            ],
        }],
        deadline_us: None,
    };
    match core.submit(greedy, impossible) {
        Err(ServeError::Rejected(_)) => {}
        other => panic!("expected admission rejection, got {other:?}"),
    }
    for _ in 0..8 {
        core.submit(modest.id, request(&modest, N)).unwrap();
        core.pump();
    }
    core.drain_all();
    let gs = core.tenant_stats(greedy).unwrap();
    let ms = core.tenant_stats(modest.id).unwrap();
    assert_eq!((gs.rejected, gs.completed), (1, 0));
    assert_eq!((ms.rejected, ms.completed), (0, 8));
}

/// Threaded phase: 8 OS threads, one `Client` each, through the mpsc
/// server. Returns (total launches, wall seconds).
fn run_threaded(clients: usize, requests: usize) -> (u64, f64) {
    let config = ServeConfig::new(DeviceProfile::tesla_p100(), Options::parallel())
        .with_fairness(Fairness::WeightedRoundRobin)
        .with_pipeline(2 * clients, clients);
    let server = Server::start(config);
    let wall = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let client = server.client(&format!("thread{c}"), 1);
            std::thread::spawn(move || {
                let x = client.alloc(ElemKind::F32, N).unwrap();
                let y = client.alloc(ElemKind::F32, N).unwrap();
                client.fill(x, (c + 1) as f64).unwrap();
                let sc = client.kernel(&SCALE).unwrap();
                let ax = client.kernel(&AXPY).unwrap();
                for i in 0..requests {
                    let (s, d) = if i % 2 == 0 { (x, y) } else { (y, x) };
                    client
                        .submit(RequestSpec {
                            calls: vec![CallSpec {
                                kernel: if i % 2 == 0 { sc } else { ax },
                                grid: Grid::d1(16, 256),
                                args: vec![
                                    ArgSpec::Array(s),
                                    ArgSpec::Array(d),
                                    ArgSpec::Scalar(0.5),
                                    ArgSpec::Scalar(N as f64),
                                ],
                            }],
                            deadline_us: None,
                        })
                        .unwrap();
                }
                let stats = client.drain().unwrap();
                assert_eq!(stats.completed, requests as u64);
                assert_eq!(stats.rejected, 0);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }
    let report = server.shutdown();
    let wall_s = wall.elapsed().as_secs_f64();
    assert_eq!(report.races, 0, "threaded run raced");
    assert_eq!(report.total_completed(), (clients * requests) as u64);
    (report.total_launches(), wall_s)
}

fn main() {
    let mut requests = 200usize;
    let mut smoke = false;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--requests" => {
                requests = args
                    .next()
                    .expect("--requests N")
                    .parse()
                    .expect("request count");
            }
            "--smoke" => smoke = true,
            "--json" => json_path = Some(args.next().expect("--json FILE")),
            other => panic!("unknown argument `{other}` (try --requests/--smoke/--json FILE)"),
        }
    }
    if smoke {
        requests = requests.min(40);
    }
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

    // Phase 3: admission.
    run_admission();

    // Phase 4: threaded front-end.
    let (threaded_launches, wall_s) = run_threaded(clients, requests);
    let wall_rate = threaded_launches as f64 / wall_s;

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
        vec![
            "threaded (8 os threads)".to_string(),
            format!("{threaded_launches} launches"),
            format!("{wall_rate:.0} launches/s wall"),
        ],
    ];
    println!("{}", render_table(&["phase", "measure", "detail"], &rows));

    let metrics = [
        (
            "serve.single_virtual_launches_per_s".to_string(),
            single_rate,
        ),
        ("serve.agg_virtual_launches_per_s".to_string(), agg_rate),
        ("serve.scaling_x".to_string(), scaling),
        ("serve.p50_virtual_us".to_string(), lat.p50),
        ("serve.p99_virtual_us".to_string(), lat.p99),
        ("serve.fifo_sensitive_p99_us".to_string(), fifo_p99),
        ("serve.deadline_sensitive_p99_us".to_string(), deadline_p99),
        ("wall.serve.threaded_launches_per_s".to_string(), wall_rate),
    ];
    emit_bench_json(json_path.as_deref(), &metrics).expect("write bench json");
    println!(
        "RESULT serve ok clients={clients} requests_per_client={requests} \
         agg_virtual_launches_per_s={agg_rate:.0} scaling_x={scaling} \
         p50_virtual_us={p50:.3} p99_virtual_us={p99:.3} \
         fifo_p99_us={fifo_p99:.3} deadline_p99_us={deadline_p99:.3}",
        p50 = lat.p50,
        p99 = lat.p99,
    );
}
