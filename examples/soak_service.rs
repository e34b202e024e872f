//! Multi-tenant soak service — four concurrent clients, one scheduler.
//!
//! The paper's evaluation runs each benchmark for a handful of
//! iterations from a single host thread; a production runtime serves
//! many clients for the life of the process. This example runs such a
//! service: a [`Server`] owns the scheduler on its service thread, and
//! four tenants submit from their own OS threads through `Send + Clone`
//! [`Client`] handles:
//!
//! * `vec`   — the Fig. 4 VEC pipeline (two independent squares fenced
//!   by a reduction), result checked every round;
//! * `scale` — short SCALE→AXPY chains, result checked every round;
//! * `axpy`  — single-kernel AXPY requests at a steady trickle;
//! * `greedy` — a misbehaving tenant that floods 4 requests per round.
//!
//! The service runs **weighted round-robin** fairness with `greedy`
//! weighted 1 against everyone else's 4: its backlog is admitted one
//! deficit-credit at a time, so flooding buys it queueing delay instead
//! of a larger share of the device. The per-tenant report at the end
//! makes the throttling visible: `greedy` completes everything it
//! submitted, but at a far worse mean/p99 virtual latency than the
//! well-behaved tenants.
//!
//! Cross-client submissions that land in the same pump cycle are
//! coalesced into one `launch_batch`, so the host-side overhead is paid
//! per cycle, not per client. Requests submitted here are admission-
//! checked synchronously and executed asynchronously; each tenant's
//! final `drain()` returns its stats (including per-request virtual
//! latencies), and reading an output element synchronizes with exactly
//! the chain producing it.
//!
//! Run: `cargo run --release --example soak_service`

use gpu_sim::{DeviceProfile, Grid};
use grcuda::serve::{
    ArgSpec, ArrayRef, CallSpec, ElemKind, Fairness, KernelRef, RequestSpec, ServeConfig, Server,
    TenantStats,
};
use grcuda::Options;
use kernels::util::{AXPY, SCALE};
use kernels::vec_ops::{REDUCE_SUM_DIFF, SQUARE};
use metrics::LatencySummary;

const ROUNDS: usize = 300;
const FLOOD_FACTOR: usize = 4;
const N: usize = 1 << 10;

fn grid() -> Grid {
    Grid::d1(16, 256)
}

fn call(kernel: KernelRef, args: Vec<ArgSpec>) -> CallSpec {
    CallSpec {
        kernel,
        grid: grid(),
        args,
    }
}

/// The Fig. 4 VEC pipeline as one request: square x, square y
/// (independent — the scheduler overlaps them), then reduce.
fn run_vec(client: grcuda::serve::Client) -> TenantStats {
    let x = client.alloc(ElemKind::F32, N).unwrap();
    let y = client.alloc(ElemKind::F32, N).unwrap();
    let z = client.alloc(ElemKind::F32, 1).unwrap();
    let square = client.kernel(&SQUARE).unwrap();
    let reduce = client.kernel(&REDUCE_SUM_DIFF).unwrap();
    let nf = N as f64;
    for _ in 0..ROUNDS {
        client.fill(x, 3.0).unwrap();
        client.fill(y, 2.0).unwrap();
        client
            .submit(RequestSpec {
                calls: vec![
                    call(square, vec![ArgSpec::Array(x), ArgSpec::Scalar(nf)]),
                    call(square, vec![ArgSpec::Array(y), ArgSpec::Scalar(nf)]),
                    call(
                        reduce,
                        vec![
                            ArgSpec::Array(x),
                            ArgSpec::Array(y),
                            ArgSpec::Array(z),
                            ArgSpec::Scalar(nf),
                        ],
                    ),
                ],
                deadline_us: None,
            })
            .unwrap();
        // The response read synchronizes with exactly this chain.
        assert_eq!(client.read(z, 0).unwrap(), (N as f32 * 5.0) as f64);
    }
    client.drain().unwrap()
}

/// Short SCALE→AXPY chains: y = 2x, then y += x, so y[0] == 3 with
/// x filled once to 1 — stable across rounds, checked every round.
fn run_scale(client: grcuda::serve::Client) -> TenantStats {
    let (x, y, scale, axpy) = setup_pair(&client);
    let nf = N as f64;
    for _ in 0..ROUNDS {
        client
            .submit(RequestSpec {
                calls: vec![
                    call(
                        scale,
                        vec![
                            ArgSpec::Array(x),
                            ArgSpec::Array(y),
                            ArgSpec::Scalar(2.0),
                            ArgSpec::Scalar(nf),
                        ],
                    ),
                    call(
                        axpy,
                        vec![
                            ArgSpec::Array(x),
                            ArgSpec::Array(y),
                            ArgSpec::Scalar(1.0),
                            ArgSpec::Scalar(nf),
                        ],
                    ),
                ],
                deadline_us: None,
            })
            .unwrap();
        assert_eq!(client.read(y, 0).unwrap(), 3.0);
    }
    client.drain().unwrap()
}

/// A steady trickle of single-AXPY requests, drained at the end.
fn run_axpy(client: grcuda::serve::Client) -> TenantStats {
    let (x, y, _scale, axpy) = setup_pair(&client);
    let nf = N as f64;
    for _ in 0..ROUNDS {
        client
            .submit(RequestSpec {
                calls: vec![call(
                    axpy,
                    vec![
                        ArgSpec::Array(x),
                        ArgSpec::Array(y),
                        ArgSpec::Scalar(0.5),
                        ArgSpec::Scalar(nf),
                    ],
                )],
                deadline_us: None,
            })
            .unwrap();
    }
    client.drain().unwrap()
}

/// The misbehaving tenant: floods several requests per round without
/// ever waiting. Weighted round-robin (weight 1 vs 4) admits its
/// backlog one credit at a time.
fn run_greedy(client: grcuda::serve::Client) -> TenantStats {
    let (x, y, scale, _axpy) = setup_pair(&client);
    let nf = N as f64;
    for _ in 0..ROUNDS {
        for _ in 0..FLOOD_FACTOR {
            client
                .submit(RequestSpec {
                    calls: vec![call(
                        scale,
                        vec![
                            ArgSpec::Array(x),
                            ArgSpec::Array(y),
                            ArgSpec::Scalar(1.5),
                            ArgSpec::Scalar(nf),
                        ],
                    )],
                    deadline_us: None,
                })
                .unwrap();
        }
    }
    client.drain().unwrap()
}

fn setup_pair(client: &grcuda::serve::Client) -> (ArrayRef, ArrayRef, KernelRef, KernelRef) {
    let x = client.alloc(ElemKind::F32, N).unwrap();
    let y = client.alloc(ElemKind::F32, N).unwrap();
    client.fill(x, 1.0).unwrap();
    client.fill(y, 1.0).unwrap();
    let scale = client.kernel(&SCALE).unwrap();
    let axpy = client.kernel(&AXPY).unwrap();
    (x, y, scale, axpy)
}

fn main() {
    let config = ServeConfig::new(DeviceProfile::tesla_p100(), Options::parallel())
        .with_fairness(Fairness::WeightedRoundRobin)
        .with_pipeline(8, 4);
    let server = Server::start(config);

    let start = std::time::Instant::now();
    let workers: Vec<std::thread::JoinHandle<TenantStats>> = vec![
        {
            let c = server.client("vec", 4);
            std::thread::spawn(move || run_vec(c))
        },
        {
            let c = server.client("scale", 4);
            std::thread::spawn(move || run_scale(c))
        },
        {
            let c = server.client("axpy", 4);
            std::thread::spawn(move || run_axpy(c))
        },
        {
            let c = server.client("greedy", 1);
            std::thread::spawn(move || run_greedy(c))
        },
    ];
    let stats: Vec<TenantStats> = workers
        .into_iter()
        .map(|h| h.join().expect("tenant thread panicked"))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    let report = server.shutdown();

    println!("tenant   weight  submitted  completed  launches    mean vµs     p99 vµs");
    println!("{}", "-".repeat(76));
    for s in &stats {
        let lat = LatencySummary::from_samples(&s.latencies).expect("completed requests");
        println!(
            "{:<8} {:>6}  {:>9}  {:>9}  {:>8}  {:>10.2}  {:>10.2}",
            s.name,
            s.weight,
            s.submitted,
            s.completed,
            s.launches,
            lat.mean * 1e6,
            lat.p99 * 1e6,
        );
        assert_eq!(s.completed, s.submitted, "tenant {} lost requests", s.name);
        assert_eq!(s.rejected, 0);
    }
    println!(
        "\n{} requests ({} launches) from 4 client threads in {wall:.2} s wall — \
         virtual time {:.2} ms, {} races",
        report.total_completed(),
        report.total_launches(),
        report.virtual_now * 1e3,
        report.races,
    );
    assert_eq!(report.races, 0);

    // The flooding tenant was throttled, not starved: everything it
    // submitted completed, but its queueing delay dwarfs the
    // well-behaved tenants'.
    let greedy = stats.iter().find(|s| s.name == "greedy").unwrap();
    let scale = stats.iter().find(|s| s.name == "scale").unwrap();
    let g = LatencySummary::from_samples(&greedy.latencies).unwrap();
    let s = LatencySummary::from_samples(&scale.latencies).unwrap();
    println!(
        "greedy mean latency {:.1} vµs vs scale {:.1} vµs — flooding bought delay, not share",
        g.mean * 1e6,
        s.mean * 1e6
    );
}
