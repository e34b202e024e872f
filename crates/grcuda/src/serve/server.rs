//! The threaded front-end: a service thread owning the core, and
//! `Send + Clone` client handles feeding it over an mpsc queue.
//!
//! [`GrCuda`](crate::GrCuda) is an `Rc`-based handle and cannot cross
//! threads, so the [`Server`] ships only the [`ServeConfig`] — plain
//! data, the machine included (a [`gpu_sim::Topology`]), so fully
//! `Send` — to its service thread and builds the [`ServiceCore`] there. Each [`Client`] is an mpsc sender plus a
//! tenant id: cloning is cheap, every clone submits into the same
//! tenant namespace, and handles from different clients cannot be
//! mixed (the core rejects cross-tenant handles).
//!
//! The service loop blocks while idle, drains the message queue while
//! work is pending, and interleaves pump cycles — so submissions from
//! many OS threads coalesce into shared
//! [`launch_batch`](crate::GrCuda::launch_batch) submissions. Virtual
//! metrics from a threaded run depend on OS message-arrival order and
//! are therefore *not* gate-grade; the deterministic figures come from
//! driving a [`ServiceCore`] directly (see the `serve` bench binary).

use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;

use gpu_sim::TypedData;
use kernels::KernelDef;

use super::core::{
    ArrayRef, ElemKind, KernelRef, RequestId, RequestSpec, ServeConfig, ServeError, ServiceCore,
    TenantId, TenantStats,
};

/// Final report returned by [`Server::shutdown`] after the core drains.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Virtual time at shutdown (seconds).
    pub virtual_now: f64,
    /// Data races the simulator detected (always 0 unless dependency
    /// inference was deliberately broken).
    pub races: usize,
    /// Per-tenant statistics, in tenant-id order.
    pub tenants: Vec<TenantStats>,
}

impl ServiceReport {
    /// Total kernel launches across tenants.
    pub fn total_launches(&self) -> u64 {
        self.tenants.iter().map(|t| t.launches).sum()
    }

    /// Total completed requests across tenants.
    pub fn total_completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }
}

/// One message to the service thread: a call to run against the core
/// (the closure sends its own reply), or the order to stop.
enum Envelope {
    Call(Box<dyn FnOnce(&mut ServiceCore) + Send>),
    Shutdown,
}

/// Run `f` against the core on the service thread and wait for its
/// result: the one RPC every [`Client`] method (and tenant registration)
/// is. Fails with [`ServeError::Unavailable`] when the service thread
/// is gone — the send finds the queue closed, or the call is dropped
/// unanswered because a shutdown got in first.
fn call<T: Send + 'static>(
    tx: &Sender<Envelope>,
    f: impl FnOnce(&mut ServiceCore) -> T + Send + 'static,
) -> Result<T, ServeError> {
    let (reply, rx) = std::sync::mpsc::channel();
    let run = move |core: &mut ServiceCore| {
        // A caller that stopped waiting is not the service's problem.
        let _ = reply.send(f(core));
    };
    tx.send(Envelope::Call(Box::new(run)))
        .map_err(|_| ServeError::Unavailable)?;
    rx.recv().map_err(|_| ServeError::Unavailable)
}

/// The service front-end: owns the service thread. Create clients with
/// [`Server::client`], stop (and collect the final report) with
/// [`Server::shutdown`].
pub struct Server {
    tx: Sender<Envelope>,
    handle: Option<JoinHandle<ServiceReport>>,
}

impl Server {
    /// Spawn the service thread and build the core (scheduler included)
    /// on it.
    pub fn start(config: ServeConfig) -> Server {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("grcuda-serve".into())
            .spawn(move || run_service(config, rx))
            .expect("spawn service thread");
        Server {
            tx,
            handle: Some(handle),
        }
    }

    /// Register a tenant and return its client handle. The handle is
    /// `Send + Clone`; clones share the tenant's namespace.
    pub fn client(&self, name: &str, weight: u32) -> Client {
        let name = name.to_string();
        // The server owns the service thread, which stops only through
        // `shutdown(self)` or `Drop`: while `&self` exists it is alive.
        let tenant = call(&self.tx, move |core| core.add_tenant(&name, weight))
            .expect("service thread alive");
        Client {
            tx: self.tx.clone(),
            tenant,
        }
    }

    /// Stop the service: messages queued so far are processed, the core
    /// drains every pending request, and the final per-tenant report
    /// comes back. A [`Client`] call that races the shutdown, or is
    /// made after it, fails with [`ServeError::Unavailable`].
    pub fn shutdown(mut self) -> ServiceReport {
        self.tx
            .send(Envelope::Shutdown)
            .expect("service thread alive");
        self.handle
            .take()
            .expect("shutdown called once")
            .join()
            .expect("service thread panicked")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.tx.send(Envelope::Shutdown);
            let _ = handle.join();
        }
    }
}

/// A tenant's handle to the service: `Send + Clone`, backed by the
/// server's submission queue. All methods are synchronous RPCs (each
/// ships one closure to the service thread and waits for its result);
/// [`Client::submit`] returns as soon as admission control accepts (or
/// rejects) the request — completion is asynchronous, observed via
/// [`Client::drain`] or by [`Client::read`] of an output element.
#[derive(Clone)]
pub struct Client {
    tx: Sender<Envelope>,
    tenant: TenantId,
}

impl Client {
    fn rpc<T: Send + 'static>(
        &self,
        f: impl FnOnce(&mut ServiceCore, TenantId) -> Result<T, ServeError> + Send + 'static,
    ) -> Result<T, ServeError> {
        let tenant = self.tenant;
        call(&self.tx, move |core| f(core, tenant))?
    }

    /// Allocate an array in this tenant's namespace.
    pub fn alloc(&self, kind: ElemKind, n: usize) -> Result<ArrayRef, ServeError> {
        self.rpc(move |core, t| core.alloc(t, kind, n))
    }

    /// Copy host data into a tenant array.
    pub fn write(&self, array: ArrayRef, data: TypedData) -> Result<(), ServeError> {
        self.rpc(move |core, t| core.write(t, array, &data))
    }

    /// Fill a tenant array with a scalar.
    pub fn fill(&self, array: ArrayRef, value: f64) -> Result<(), ServeError> {
        self.rpc(move |core, t| core.fill(t, array, value))
    }

    /// Build a kernel in this tenant's namespace.
    pub fn kernel(&self, def: &'static KernelDef) -> Result<KernelRef, ServeError> {
        self.rpc(move |core, t| core.register_kernel(t, def))
    }

    /// Submit a request (admission-checked synchronously, executed
    /// asynchronously).
    ///
    /// # Examples
    ///
    /// ```
    /// use grcuda::serve::{ArgSpec, CallSpec, ElemKind, RequestSpec, ServeConfig, Server};
    /// use gpu_sim::{DeviceProfile, Grid};
    /// use grcuda::Options;
    /// use kernels::util::SCALE;
    ///
    /// let server = Server::start(ServeConfig::new(
    ///     DeviceProfile::tesla_p100(),
    ///     Options::parallel(),
    /// ));
    /// let client = server.client("alice", 1);
    /// let n = 256;
    /// let x = client.alloc(ElemKind::F32, n).unwrap();
    /// let y = client.alloc(ElemKind::F32, n).unwrap();
    /// client.fill(x, 2.0).unwrap();
    /// let scale = client.kernel(&SCALE).unwrap();
    ///
    /// let request = RequestSpec {
    ///     calls: vec![CallSpec {
    ///         kernel: scale,
    ///         grid: Grid::d1(2, 128),
    ///         args: vec![
    ///             ArgSpec::Array(x),
    ///             ArgSpec::Array(y),
    ///             ArgSpec::Scalar(1.5),
    ///             ArgSpec::Scalar(n as f64),
    ///         ],
    ///     }],
    ///     deadline_us: None,
    /// };
    /// client.submit(request).unwrap(); // admitted now, runs asynchronously
    ///
    /// assert_eq!(client.read(y, 0).unwrap(), 3.0); // syncs with the GPU work
    /// let stats = client.drain().unwrap();
    /// assert_eq!(stats.completed, 1);
    /// server.shutdown();
    /// ```
    pub fn submit(&self, spec: RequestSpec) -> Result<RequestId, ServeError> {
        self.rpc(move |core, t| core.submit(t, spec))
    }

    /// Read one element of a tenant array (synchronizes with the GPU
    /// work producing it).
    pub fn read(&self, array: ArrayRef, index: usize) -> Result<f64, ServeError> {
        self.rpc(move |core, t| core.read(t, array, index))
    }

    /// Block until everything this tenant submitted has completed;
    /// returns the tenant's statistics (including per-request virtual
    /// latencies).
    pub fn drain(&self) -> Result<TenantStats, ServeError> {
        self.rpc(|core, t| core.drain_tenant(t).and_then(|()| core.tenant_stats(t)))
    }

    /// Snapshot this tenant's statistics without waiting.
    pub fn stats(&self) -> Result<TenantStats, ServeError> {
        self.rpc(|core, t| core.tenant_stats(t))
    }
}

fn run_service(config: ServeConfig, rx: Receiver<Envelope>) -> ServiceReport {
    let mut core = ServiceCore::new(config);
    'serve: loop {
        // Idle: block for the next message. Busy: take whatever has
        // arrived (coalescing cross-client submissions into the next
        // pump cycle) without blocking.
        if core.idle() {
            match rx.recv() {
                Ok(Envelope::Call(f)) => f(&mut core),
                Ok(Envelope::Shutdown) | Err(_) => break 'serve,
            }
            // The timeline and retired bookkeeping stay bounded across
            // idle periods of a long-lived service.
            core.maintain();
        } else {
            loop {
                match rx.try_recv() {
                    Ok(Envelope::Call(f)) => f(&mut core),
                    Err(TryRecvError::Empty) => break,
                    Ok(Envelope::Shutdown) | Err(TryRecvError::Disconnected) => break 'serve,
                }
            }
            // One coalesced cycle; when the window is idle-full (no new
            // work arriving), complete the pipeline head so in-flight
            // requests finish even without a drain call.
            if core.pump() == 0 {
                core.complete_oldest();
            }
        }
    }
    core.drain_all();
    ServiceReport {
        virtual_now: core.now(),
        races: core.runtime().races().len(),
        tenants: core.all_stats(),
    }
}
