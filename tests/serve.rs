//! Integration tests of the multi-tenant serving layer
//! (`grcuda::serve`): tenant isolation, admission control under finite
//! device memory, fairness-policy latency behavior, and the threaded
//! `Server`/`Client` front-end under genuinely concurrent submitters.

mod common;

use gpu_sim::{
    Cluster, DeviceProfile, EvictionPolicy, Grid, MemoryConfig, NicKind, Topology, TopologyKind,
};
use grcuda::serve::{
    ArgSpec, CallSpec, Client, ElemKind, Fairness, RequestSpec, ServeConfig, ServeError, Server,
    ServiceCore,
};
use grcuda::{Options, PlacementPolicy};
use kernels::util::{AXPY, SCALE};
use kernels::vec_ops::SQUARE;
use kernels::{dl::POOL2D, hits::SPMV, image::SOBEL, ml::NB_ROW_MAX};
use metrics::LatencySummary;

fn base_config() -> ServeConfig {
    ServeConfig::new(DeviceProfile::tesla_p100(), Options::parallel())
}

/// A request chain of `len` SCALE/AXPY calls ping-ponging between two
/// arrays.
fn chain(
    len: usize,
    sc: grcuda::serve::KernelRef,
    ax: grcuda::serve::KernelRef,
    x: grcuda::serve::ArrayRef,
    y: grcuda::serve::ArrayRef,
    n: usize,
) -> Vec<CallSpec> {
    (0..len)
        .map(|i| {
            let (s, d) = if i % 2 == 0 { (x, y) } else { (y, x) };
            CallSpec {
                kernel: if i % 2 == 0 { sc } else { ax },
                grid: Grid::d1(16, 128),
                args: vec![
                    ArgSpec::Array(s),
                    ArgSpec::Array(d),
                    ArgSpec::Scalar(1.5),
                    ArgSpec::Scalar(n as f64),
                ],
            }
        })
        .collect()
}

#[test]
fn cross_tenant_handles_are_rejected() {
    let mut core = ServiceCore::new(base_config());
    let a = core.add_tenant("alice", 1);
    let b = core.add_tenant("bob", 1);
    let xa = core.alloc(a, ElemKind::F32, 64).unwrap();
    let ka = core.register_kernel(a, &SCALE).unwrap();
    let xb = core.alloc(b, ElemKind::F32, 64).unwrap();

    // Bob cannot read, write, fill or launch against Alice's array.
    assert!(matches!(
        core.read(b, xa, 0),
        Err(ServeError::CrossTenant {
            owner: 0,
            caller: 1
        })
    ));
    assert!(matches!(
        core.fill(b, xa, 1.0),
        Err(ServeError::CrossTenant { .. })
    ));
    let spec = RequestSpec {
        calls: vec![CallSpec {
            kernel: ka, // Alice's kernel handle...
            grid: Grid::d1(1, 32),
            args: vec![
                ArgSpec::Array(xb),
                ArgSpec::Array(xb),
                ArgSpec::Scalar(1.0),
                ArgSpec::Scalar(64.0),
            ],
        }],
        deadline_us: None,
    };
    assert!(matches!(
        core.submit(b, spec.clone()),
        Err(ServeError::CrossTenant {
            owner: 0,
            caller: 1
        })
    ));
    // ...and Alice cannot smuggle Bob's array into her own launch.
    let mut alice_spec = spec;
    alice_spec.calls[0].kernel = ka;
    assert!(matches!(
        core.submit(a, alice_spec),
        Err(ServeError::CrossTenant {
            owner: 1,
            caller: 0
        })
    ));
    // Alice's own namespace still works.
    assert_eq!(core.read(a, xa, 0).unwrap(), 0.0);
}

#[test]
fn admission_control_rejects_impossible_launches_without_stalling_others() {
    let n = 1 << 10; // 4 KiB arrays
    let capacity = 3 * 4 * n; // three arrays per device
    let memory = MemoryConfig::with_capacity(capacity).with_eviction(EvictionPolicy::Lru);
    let machine = Topology::pcie_only(1, &DeviceProfile::tesla_p100()).with_memory(memory);
    let config = base_config().on(machine, PlacementPolicy::SingleGpu);
    let mut core = ServiceCore::new(config);

    let greedy = core.add_tenant("greedy", 1);
    let modest = core.add_tenant("modest", 1);

    // Greedy allocates an array that alone exceeds device capacity.
    let big = core.alloc(greedy, ElemKind::F32, 4 * n).unwrap();
    let kg = core.register_kernel(greedy, &SCALE).unwrap();
    let impossible = RequestSpec {
        calls: vec![CallSpec {
            kernel: kg,
            grid: Grid::d1(16, 128),
            args: vec![
                ArgSpec::Array(big),
                ArgSpec::Array(big),
                ArgSpec::Scalar(1.0),
                ArgSpec::Scalar((4 * n) as f64),
            ],
        }],
        deadline_us: None,
    };
    // SCALE rejects aliased src/dst? No — the runtime doesn't care;
    // only the byte bound matters here, and it's exceeded.
    let err = core.submit(greedy, impossible.clone()).unwrap_err();
    assert!(matches!(err, ServeError::Rejected(_)), "got {err:?}");

    // The rejection is recoverable: the same tenant can keep
    // submitting requests that fit, and the other tenant is unaffected.
    let xg = core.alloc(greedy, ElemKind::F32, n).unwrap();
    let yg = core.alloc(greedy, ElemKind::F32, n).unwrap();
    core.fill(greedy, xg, 2.0).unwrap();
    let xm = core.alloc(modest, ElemKind::F32, n).unwrap();
    let ym = core.alloc(modest, ElemKind::F32, n).unwrap();
    core.fill(modest, xm, 3.0).unwrap();
    let km = core.register_kernel(modest, &SCALE).unwrap();
    let ok = |k, x, y| RequestSpec {
        calls: vec![CallSpec {
            kernel: k,
            grid: Grid::d1(16, 128),
            args: vec![
                ArgSpec::Array(x),
                ArgSpec::Array(y),
                ArgSpec::Scalar(2.0),
                ArgSpec::Scalar(n as f64),
            ],
        }],
        deadline_us: None,
    };
    core.submit(greedy, ok(kg, xg, yg)).unwrap();
    core.submit(modest, ok(km, xm, ym)).unwrap();
    let _ = core.submit(greedy, impossible).unwrap_err(); // still rejected
    core.drain_all();

    let gs = core.tenant_stats(greedy).unwrap();
    let ms = core.tenant_stats(modest).unwrap();
    assert_eq!((gs.submitted, gs.completed, gs.rejected), (1, 1, 2));
    assert_eq!((ms.submitted, ms.completed, ms.rejected), (1, 1, 0));
    assert_eq!(core.read(modest, ym, 0).unwrap(), 6.0);
    assert_eq!(core.runtime().races().len(), 0);
}

/// Shared workload for the fairness comparison: three bulk tenants
/// flood long chains while one latency-sensitive tenant submits short
/// deadlined requests. Returns the sensitive tenant's latency summary.
fn run_mixed_tenants(fairness: Fairness) -> LatencySummary {
    let n = 1 << 14;
    let config = base_config().with_fairness(fairness).with_pipeline(2, 2);
    let mut core = ServiceCore::new(config);
    let bulk: Vec<_> = (0..3)
        .map(|i| core.add_tenant(&format!("bulk{i}"), 1))
        .collect();
    let sensitive = core.add_tenant("sensitive", 1);

    let mut bulk_handles = Vec::new();
    for &t in &bulk {
        let x = core.alloc(t, ElemKind::F32, n).unwrap();
        let y = core.alloc(t, ElemKind::F32, n).unwrap();
        core.fill(t, x, 1.0).unwrap();
        let sc = core.register_kernel(t, &SCALE).unwrap();
        let ax = core.register_kernel(t, &AXPY).unwrap();
        bulk_handles.push((x, y, sc, ax));
    }
    let xs = core.alloc(sensitive, ElemKind::F32, 256).unwrap();
    let ys = core.alloc(sensitive, ElemKind::F32, 256).unwrap();
    core.fill(sensitive, xs, 1.0).unwrap();
    let scs = core.register_kernel(sensitive, &SCALE).unwrap();
    let axs = core.register_kernel(sensitive, &AXPY).unwrap();

    for _round in 0..12 {
        // Bulk arrives first each round...
        for (i, &t) in bulk.iter().enumerate() {
            let (x, y, sc, ax) = bulk_handles[i];
            core.submit(
                t,
                RequestSpec {
                    calls: chain(4, sc, ax, x, y, n),
                    deadline_us: None,
                },
            )
            .unwrap();
        }
        // ...then the sensitive tenant, with a tight deadline.
        core.submit(
            sensitive,
            RequestSpec {
                calls: chain(2, scs, axs, xs, ys, 256),
                deadline_us: Some(50.0),
            },
        )
        .unwrap();
        // Let the service work through the round's backlog.
        while core.pump() > 0 {}
    }
    core.drain_all();
    assert_eq!(core.runtime().races().len(), 0);
    let stats = core.tenant_stats(sensitive).unwrap();
    assert_eq!(stats.completed, 12);
    LatencySummary::from_samples(&stats.latencies).unwrap()
}

#[test]
fn deadline_aware_fairness_cuts_the_sensitive_tenants_tail() {
    let fifo = run_mixed_tenants(Fairness::Fifo);
    let deadline = run_mixed_tenants(Fairness::DeadlineAware);
    assert!(
        deadline.p99 < fifo.p99,
        "deadline-aware p99 {} should be strictly below FIFO p99 {}",
        deadline.p99,
        fifo.p99
    );
    assert!(deadline.p50 <= fifo.p50);
}

#[test]
fn weighted_round_robin_throttles_a_flooding_tenant() {
    // A flooder submits 4x the requests of a modest tenant; with WRR
    // weights 1:4 the modest tenant's median latency stays close to the
    // uncontended case instead of queueing behind the flood.
    let n = 1 << 12;
    let run = |fairness: Fairness| {
        let mut core = ServiceCore::new(base_config().with_fairness(fairness).with_pipeline(2, 2));
        let flooder = core.add_tenant("flooder", 1);
        let modest = core.add_tenant("modest", 4);
        let mut handles = Vec::new();
        for &t in &[flooder, modest] {
            let x = core.alloc(t, ElemKind::F32, n).unwrap();
            let y = core.alloc(t, ElemKind::F32, n).unwrap();
            core.fill(t, x, 1.0).unwrap();
            let sc = core.register_kernel(t, &SCALE).unwrap();
            let ax = core.register_kernel(t, &AXPY).unwrap();
            handles.push((x, y, sc, ax));
        }
        for _round in 0..10 {
            for _ in 0..4 {
                let (x, y, sc, ax) = handles[0];
                core.submit(
                    flooder,
                    RequestSpec {
                        calls: chain(3, sc, ax, x, y, n),
                        deadline_us: None,
                    },
                )
                .unwrap();
            }
            let (x, y, sc, ax) = handles[1];
            core.submit(
                modest,
                RequestSpec {
                    calls: chain(1, sc, ax, x, y, n),
                    deadline_us: None,
                },
            )
            .unwrap();
            while core.pump() > 0 {}
        }
        core.drain_all();
        let s = core.tenant_stats(modest).unwrap();
        LatencySummary::from_samples(&s.latencies).unwrap().p50
    };
    let fifo_p50 = run(Fairness::Fifo);
    let wrr_p50 = run(Fairness::WeightedRoundRobin);
    assert!(
        wrr_p50 < fifo_p50,
        "WRR should cut the modest tenant's median: wrr {wrr_p50} vs fifo {fifo_p50}"
    );
}

#[test]
fn threaded_clients_submit_concurrently_with_isolation() {
    // Compile-time: the client handle crosses threads and clones.
    fn assert_send_clone<T: Send + Clone>() {}
    assert_send_clone::<Client>();

    let n = 1 << 12;
    let server = Server::start(base_config().with_fairness(Fairness::WeightedRoundRobin));
    let requests_per_client = 24;
    let mut threads = Vec::new();
    for c in 0..4 {
        let client = server.client(&format!("tenant{c}"), 1);
        threads.push(std::thread::spawn(move || {
            let x = client.alloc(ElemKind::F32, n).unwrap();
            let y = client.alloc(ElemKind::F32, n).unwrap();
            client.fill(x, (c + 1) as f64).unwrap();
            let sc = client.kernel(&SCALE).unwrap();
            let ax = client.kernel(&AXPY).unwrap();
            let _ = ax; // chains of one SCALE: y = 1.5·x, repeatably
            for _ in 0..requests_per_client {
                client
                    .submit(RequestSpec {
                        calls: chain(1, sc, sc, x, y, n),
                        deadline_us: None,
                    })
                    .unwrap();
            }
            let stats = client.drain().unwrap();
            // Reads go through the same tenant namespace.
            let v = client.read(y, 0).unwrap();
            (stats, v)
        }));
    }
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for (c, (stats, v)) in results.iter().enumerate() {
        assert_eq!(stats.completed, requests_per_client as u64);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.latencies.len(), requests_per_client);
        // Each tenant's chain scaled its own fill value — no cross-tenant
        // data bleed: y = 1.5 * x with x = c+1.
        assert_eq!(*v, 1.5 * (c + 1) as f64, "tenant {c} data corrupted");
    }
    let report = server.shutdown();
    assert_eq!(report.races, 0);
    assert_eq!(report.total_completed(), 4 * requests_per_client as u64);
    assert_eq!(report.tenants.len(), 4);
}

#[test]
fn clients_outliving_the_server_get_unavailable_not_a_panic() {
    let n = 256;
    let server = Server::start(base_config());
    let client = server.client("survivor", 1);
    let x = client.alloc(ElemKind::F32, n).unwrap();
    let y = client.alloc(ElemKind::F32, n).unwrap();
    let sc = client.kernel(&SCALE).unwrap();
    let request = move || RequestSpec {
        calls: chain(1, sc, sc, x, y, n),
        deadline_us: None,
    };
    client.submit(request()).unwrap();
    let survivor = client.clone();
    let report = server.shutdown();
    assert_eq!(report.total_completed(), 1, "shutdown drained the request");

    // On another thread, as a real straggler would be: every call
    // returns the typed error, and the thread joins cleanly.
    let straggler = std::thread::spawn(move || {
        (
            survivor.alloc(ElemKind::F32, n).err(),
            survivor
                .write(x, gpu_sim::TypedData::F32(vec![1.0; n]))
                .err(),
            survivor.fill(x, 1.0).err(),
            survivor.kernel(&AXPY).err(),
            survivor.submit(request()).err(),
            survivor.read(y, 0).err(),
            survivor.drain().err(),
            survivor.stats().err(),
        )
    });
    let errs = straggler.join().expect("no RPC panicked its thread");
    let down = Some(ServeError::Unavailable);
    assert_eq!(errs.0, down, "alloc");
    assert_eq!(errs.1, down, "write");
    assert_eq!(errs.2, down, "fill");
    assert_eq!(errs.3, down, "kernel");
    assert_eq!(errs.4, down, "submit");
    assert_eq!(errs.5, down, "read");
    assert_eq!(errs.6, down, "drain");
    assert_eq!(errs.7, down, "stats");
    assert_eq!(client.stats().err(), down, "the original handle too");
}

#[test]
fn malformed_requests_fail_cleanly() {
    // Deadline-aware, so a deadline that got past `submit` would be
    // compared against the other tenant's at the next pump.
    let mut core = ServiceCore::new(base_config().with_fairness(Fairness::DeadlineAware));
    let t = core.add_tenant("t", 1);
    // No elements, or more bytes than one allocation may hold, is
    // refused: allocating `usize::MAX` elements would panic the
    // service thread.
    for (kind, n) in [
        (ElemKind::F32, 0),
        (ElemKind::F32, usize::MAX),
        (ElemKind::F64, usize::MAX / 8 + 1),
        (ElemKind::F32, isize::MAX as usize / 4 + 1),
    ] {
        let refused = core.alloc(t, kind, n);
        assert!(matches!(refused, Err(ServeError::Invalid(_))), "{n}");
    }
    // A tenant another core registered is unknown here, and is refused
    // before anything is allocated.
    let mut elsewhere = ServiceCore::new(base_config());
    elsewhere.add_tenant("first", 1);
    let stranger = elsewhere.add_tenant("second", 1);
    for n in [16, usize::MAX] {
        let refused = core.alloc(stranger, ElemKind::F32, n);
        assert_eq!(refused, Err(ServeError::UnknownTenant(1)));
    }
    let x = core.alloc(t, ElemKind::F32, 16).unwrap();
    // A read at the length or at the largest index is refused before it
    // reaches the array: indexing there would panic the service thread,
    // and with it every tenant.
    for i in [16, usize::MAX] {
        assert!(matches!(core.read(t, x, i), Err(ServeError::Invalid(_))));
    }
    let k = core.register_kernel(t, &SCALE).unwrap();
    // Arity mismatch caught at submit, not at pump.
    let bad = RequestSpec {
        calls: vec![CallSpec {
            kernel: k,
            grid: Grid::d1(1, 32),
            args: vec![ArgSpec::Array(x)],
        }],
        deadline_us: None,
    };
    assert!(matches!(core.submit(t, bad), Err(ServeError::Invalid(_))));
    // A NaN for SCALE's `sint32 n` is refused at submit too: admitted, it
    // would panic a debug-built service for every tenant at the next
    // sync. The other tenant's request, already queued, completes.
    let other = core.add_tenant("other", 1);
    let (ox, oy) = (
        core.alloc(other, ElemKind::F32, 16).unwrap(),
        core.alloc(other, ElemKind::F32, 16).unwrap(),
    );
    core.fill(other, ox, 2.0).unwrap();
    let ok = core.register_kernel(other, &SCALE).unwrap();
    let queued = RequestSpec {
        calls: chain(1, ok, ok, ox, oy, 16),
        deadline_us: None,
    };
    core.submit(other, queued).unwrap();
    let mut bad = RequestSpec {
        calls: chain(1, k, k, x, x, 16),
        deadline_us: None,
    };
    bad.calls[0].args[3] = ArgSpec::Scalar(f64::NAN);
    assert!(matches!(core.submit(t, bad), Err(ServeError::Invalid(_))));
    // So is a deadline no ordering can place: one NaN in the queue would
    // take the pump down for both tenants.
    for deadline in [f64::NAN, f64::INFINITY, -1.0] {
        let bad = RequestSpec {
            calls: chain(1, k, k, x, x, 16),
            deadline_us: Some(deadline),
        };
        assert!(matches!(core.submit(t, bad), Err(ServeError::Invalid(_))));
    }
    let refused = core.tenant_stats(t).unwrap();
    assert_eq!(
        (refused.submitted, refused.rejected, refused.queued),
        (0, 0, 0)
    );
    // A negative `sint32 n` is well-formed: a length of no elements.
    core.fill(t, x, 3.0).unwrap();
    let sq = core.register_kernel(t, &SQUARE).unwrap();
    let no_op = RequestSpec {
        calls: vec![CallSpec {
            kernel: sq,
            grid: Grid::d1(1, 32),
            args: vec![ArgSpec::Array(x), ArgSpec::Scalar(-1.0)],
        }],
        deadline_us: Some(10.0),
    };
    core.submit(t, no_op).unwrap();
    // A length past the end of the arrays cannot be refused (the
    // service does not know which scalar is a length): it is admitted,
    // and the kernel stops at its shortest buffer instead of taking the
    // pump down for both tenants when virtual time reaches it.
    let y = core.alloc(t, ElemKind::F32, 16).unwrap();
    let long = RequestSpec {
        calls: chain(1, k, k, x, y, 4096),
        deadline_us: None,
    };
    core.submit(t, long).unwrap();
    // Nor can a shape, or a CSR column, the arrays cannot hold: one
    // kernel per module that indexes by them, in one request. Each
    // returns without writing instead of indexing out of bounds.
    let out = core.alloc(t, ElemKind::F32, 16).unwrap();
    let rowptr = core.alloc(t, ElemKind::I32, 2).unwrap();
    let colidx = core.alloc(t, ElemKind::I32, 2).unwrap();
    let csr = [(rowptr, [0, 2]), (colidx, [0, 99])];
    for (r, v) in csr {
        let data = gpu_sim::TypedData::I32(v.to_vec());
        core.write(t, r, &data).unwrap();
    }
    let mut oversized = Vec::new();
    for (def, arrays, dims) in [
        (&SOBEL, vec![x, out], vec![4096.0, 4096.0]),
        (&NB_ROW_MAX, vec![x, out], vec![4096.0, 10.0]),
        (&POOL2D, vec![x, out], vec![64.0, 64.0, 64.0]),
        (&SPMV, vec![rowptr, colidx, x, x, out], vec![1.0]),
    ] {
        let arrays = arrays.into_iter().map(ArgSpec::Array);
        oversized.push(CallSpec {
            kernel: core.register_kernel(t, def).unwrap(),
            grid: Grid::d1(1, 32),
            args: arrays
                .chain(dims.into_iter().map(ArgSpec::Scalar))
                .collect(),
        });
    }
    let oversized = RequestSpec {
        calls: oversized,
        deadline_us: None,
    };
    core.submit(t, oversized).unwrap();
    core.drain_all();
    assert_eq!(core.tenant_stats(other).unwrap().completed, 1);
    assert_eq!(core.tenant_stats(t).unwrap().completed, 3);
    for i in [0, 15] {
        assert_eq!(core.read(t, out, i).unwrap(), 0.0, "nothing written");
    }
    assert_eq!(core.read(other, oy, 3).unwrap(), 3.0);
    assert_eq!(core.read(t, x, 3).unwrap(), 3.0, "nothing squared");
    assert_eq!(
        core.read(t, y, 15).unwrap(),
        4.5,
        "scaled to the last element"
    );
    // Empty request.
    assert!(matches!(
        core.submit(t, RequestSpec::default()),
        Err(ServeError::Invalid(_))
    ));
    // Type-mismatched write.
    assert!(matches!(
        core.write(t, x, &gpu_sim::TypedData::F64(vec![0.0; 16])),
        Err(ServeError::Invalid(_))
    ));
    // The core still serves after every rejection.
    core.fill(t, x, 2.0).unwrap();
    assert_eq!(core.read(t, x, 3).unwrap(), 2.0);
}

#[test]
fn per_tenant_kernel_attribution_counts_signatures_at_admission() {
    let mut core = ServiceCore::new(base_config());
    let a = core.add_tenant("alice", 1);
    let b = core.add_tenant("bob", 1);
    let n = 256;
    let xa = core.alloc(a, ElemKind::F32, n).unwrap();
    let ya = core.alloc(a, ElemKind::F32, n).unwrap();
    let sca = core.register_kernel(a, &SCALE).unwrap();
    let axa = core.register_kernel(a, &AXPY).unwrap();
    let xb = core.alloc(b, ElemKind::F32, n).unwrap();
    let yb = core.alloc(b, ElemKind::F32, n).unwrap();
    let scb = core.register_kernel(b, &SCALE).unwrap();

    // Alice submits a 4-call SCALE/AXPY chain (two of each signature),
    // Bob a single SCALE. Attribution is per tenant AND per signature.
    core.submit(
        a,
        RequestSpec {
            calls: chain(4, sca, axa, xa, ya, n),
            deadline_us: None,
        },
    )
    .unwrap();
    core.submit(
        b,
        RequestSpec {
            calls: chain(1, scb, scb, xb, yb, n),
            deadline_us: None,
        },
    )
    .unwrap();
    // Counts are attributed at admission (pump), not at submit.
    assert!(core.tenant_kernel_stats(a).unwrap().is_empty());
    core.drain_all();
    assert_eq!(
        core.tenant_kernel_stats(a).unwrap(),
        vec![("axpy".to_string(), 2), ("scale".to_string(), 2)]
    );
    assert_eq!(
        core.tenant_kernel_stats(b).unwrap(),
        vec![("scale".to_string(), 1)]
    );
}

#[test]
fn served_multi_device_placement_computes_what_one_device_does() {
    let n = 1 << 12;
    // Four tenants, three rounds of three-call chains each; returns
    // every value read, how many devices the timeline shows and how
    // many nodes the runtime spans.
    let run = |config: ServeConfig| {
        let mut core = ServiceCore::new(config);
        let tenants: Vec<_> = (0..4)
            .map(|i| {
                let t = core.add_tenant(&format!("t{i}"), 1);
                let x = core.alloc(t, ElemKind::F32, n).unwrap();
                let y = core.alloc(t, ElemKind::F32, n).unwrap();
                core.fill(t, x, 1.0 + i as f64).unwrap();
                let sc = core.register_kernel(t, &SCALE).unwrap();
                let ax = core.register_kernel(t, &AXPY).unwrap();
                (t, x, y, sc, ax)
            })
            .collect();
        for _round in 0..3 {
            for &(t, x, y, sc, ax) in &tenants {
                let calls = chain(3, sc, ax, x, y, n);
                let deadline_us = None;
                core.submit(t, RequestSpec { calls, deadline_us }).unwrap();
            }
        }
        while core.pump() > 0 {}
        let audit = core.runtime().audit();
        assert!(audit.vertices > 0 && audit.is_clean(), "{audit}");
        core.drain_all();
        assert!(core.runtime().races().is_empty());
        let timeline = core.runtime().timeline();
        let mut devices: Vec<u32> = timeline.intervals().iter().map(|iv| iv.device).collect();
        devices.sort_unstable();
        devices.dedup();
        let mut values = Vec::new();
        for &(t, x, y, ..) in &tenants {
            assert_eq!(core.tenant_stats(t).unwrap().completed, 3);
            for i in [0, n / 2, n - 1] {
                values.push(core.read(t, x, i).unwrap());
                values.push(core.read(t, y, i).unwrap());
            }
        }
        core.maintain();
        common::assert_drained(core.runtime(), "served, then maintained");
        let nodes = core.runtime().scheduler_stats().cluster.nodes;
        (values, devices.len(), nodes)
    };
    let dev = DeviceProfile::tesla_p100();
    let (one, one_devices, one_nodes) = run(base_config());
    let (four, four_devices, _) = run(base_config().on(
        Topology::preset(TopologyKind::NvlinkPair, 4, &dev),
        PlacementPolicy::TransferAware,
    ));
    // A served cluster is the same call: two nodes of two GPUs.
    let cluster = Cluster::new(2, 2, TopologyKind::NvlinkPair, NicKind::InfinibandHdr);
    let (clustered, cluster_devices, cluster_nodes) =
        run(base_config().on(cluster.build(&dev), PlacementPolicy::NodeAware));
    assert_eq!(four, one);
    assert_eq!(clustered, one);
    assert_eq!((one_devices, one_nodes), (1, 1));
    assert_eq!(cluster_nodes, 2);
    for (name, devices) in [("4 GPUs", four_devices), ("2x2", cluster_devices)] {
        assert!(devices >= 2, "{name}: {devices} device(s) in the timeline");
    }
}
