//! The `serve-hot` workload: an in-process `cbsp-serve` daemon driven
//! over TCP from this process: sweeps on [`CONNECTIONS`] generator
//! threads, one connection each, and a closed loop on one connection.
//!
//! Set-up starts (and stops) a daemon on an empty store and computes
//! each digest's result hash with the library pipeline, which every
//! `pipeline.run` reply must carry. A measured run then repeats rounds
//! until its budget is spent. A round:
//!
//! 1. starts a daemon on an empty store and sends a cold sweep: every
//!    (digest, method) of the working set once, computing everything.
//!    The run's first sweep records the other methods' fingerprints, and
//!    every later reply must match them;
//! 2. sends [`WARM_SWEEPS`] warm sweeps, the same sweep again, where
//!    every request hits the result cache;
//! 3. runs a closed loop: one caller sends the next request of the
//!    seeded stream as soon as its reply is in.
//!
//! The metrics come from the rounds [`calm`] keeps, those the
//! hypervisor took little CPU time from: `cold_s` and `warm_s` are the
//! median sweep, a cold one timed from the daemon's start; `p50_ms` is
//! the median closed-loop request, and `ops_per_s` the median round's
//! closed-loop rate. The sweeps are the same for every seed; the seed
//! sets the closed loop's request stream.

use crate::stats::{calm, median, tail, Steal};
use crate::{fits, input, scale_name, shuffle, Plan, Run, THREADS};
use cbsp_program::rng::SplitMix64;
use cbsp_program::{compile, workloads, Binary, CompileTarget, Scale};
use cbsp_serve::{ServeConfig, Server};
use cbsp_store::content_hash;
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Generator threads of a sweep, each with its own connection.
pub const CONNECTIONS: usize = 2;

/// Warm sweeps in a round.
const WARM_SWEEPS: usize = 4;

/// Seconds of closed loop in a round. With a ~1.1 s cold sweep and
/// ~0.6 s of warm sweeps, a round takes ~3.5 s, so every phase samples
/// the whole run rather than one stretch of it: on a shared host, the
/// machine's speed drifts over tens of seconds. Short rounds also give
/// `cold_s` more sweeps to take its median over: one cold sweep varies
/// by ±15% from the next, as the two connections' cold computes overlap
/// differently.
const LOOP_S: f64 = 1.5;

/// The request mix: (method, requests per digest in a round of
/// [`Mix`]), that is 60% `pipeline.run`, 30% `estimate.cpi` and 10%
/// `simpoints.get`.
const MIX: [(Method, usize); 3] = [
    (Method::PipelineRun, 6),
    (Method::EstimateCpi, 3),
    (Method::SimpointsGet, 1),
];

/// A protocol method the generator sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Method {
    /// `pipeline.run`
    PipelineRun,
    /// `estimate.cpi`
    EstimateCpi,
    /// `simpoints.get`
    SimpointsGet,
}

impl Method {
    /// Every method, in sweep order.
    pub const ALL: [Method; 3] = [
        Method::PipelineRun,
        Method::EstimateCpi,
        Method::SimpointsGet,
    ];

    /// The wire name.
    pub fn wire(self) -> &'static str {
        match self {
            Method::PipelineRun => "pipeline.run",
            Method::EstimateCpi => "estimate.cpi",
            Method::SimpointsGet => "simpoints.get",
        }
    }
}

/// A working set: every (benchmark, interval) digest of it.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Input scale of every digest.
    pub scale: Scale,
    /// Benchmarks of the working set.
    pub benchmarks: Vec<&'static str>,
    /// Interval targets; the working set is benchmarks × intervals.
    pub intervals: Vec<u64>,
}

impl Shape {
    /// Every (benchmark, interval) digest of the working set.
    pub fn digests(&self) -> Vec<(&'static str, u64)> {
        self.benchmarks
            .iter()
            .flat_map(|&b| self.intervals.iter().map(move |&i| (b, i)))
            .collect()
    }
}

/// One request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    /// The method.
    pub method: Method,
    /// Benchmark parameter.
    pub benchmark: &'static str,
    /// Interval parameter.
    pub interval: u64,
}

/// Seeded request stream over a shape, dealt in rounds. A round asks
/// every digest with every method in [`MIX`] proportions and is
/// shuffled. Exact proportions per round keep the streams of two seeds
/// equally costly: drawn one by one, the count of expensive requests
/// would vary from seed to seed by its binomial spread.
pub struct Mix {
    rng: SplitMix64,
    digests: Vec<(&'static str, u64)>,
    round: Vec<Req>,
}

impl Mix {
    /// A stream for `shape` seeded by `seed`.
    pub fn new(shape: &Shape, seed: u64) -> Mix {
        Mix {
            rng: SplitMix64::new(seed),
            digests: shape.digests(),
            round: Vec::new(),
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        if self.round.is_empty() {
            let mut round: Vec<Req> = self
                .digests
                .iter()
                .flat_map(|&(benchmark, interval)| {
                    MIX.iter().flat_map(move |&(method, n)| {
                        std::iter::repeat_n(
                            Req {
                                method,
                                benchmark,
                                interval,
                            },
                            n,
                        )
                    })
                })
                .collect();
            shuffle(&mut self.rng, &mut round);
            self.round = round;
        }
        self.round.pop().expect("a round is never empty")
    }
}

/// A completed closed-loop request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The method sent.
    pub method: Method,
    /// Milliseconds from sending the request to its reply.
    pub latency_ms: f64,
    /// The reply was `ok` and matched its fingerprint.
    pub ok: bool,
}

/// Serve-layer observations of one run, for the traced run's per-layer
/// metrics.
#[derive(Debug, Clone)]
pub struct ServeLayer {
    /// Closed-loop samples.
    pub samples: Vec<Sample>,
    /// Per-request milliseconds of the cold sweeps.
    pub cold_request_ms: Vec<f64>,
    /// `cache.result_hit_ratio` from the last daemon's `GET /metrics`.
    pub result_hit_ratio: f64,
    /// Mean queue wait per request from `GET /metrics`, ms.
    pub queue_wait_ms_mean: f64,
}

/// What a reply is checked under: (benchmark, interval, method).
type Key = (&'static str, u64, Method);

/// A serve workload after set-up: its working set, where its stores go,
/// and the library's result hash for each digest.
pub struct Serving {
    shape: Shape,
    store: PathBuf,
    /// `pipeline.run` keys of the working set → the library's result
    /// hash.
    library: BTreeMap<Key, String>,
}

/// The fingerprints one run's replies must match: the library's result
/// hash for `pipeline.run`, and for every other key the first reply of
/// this run that names it. Each run starts its own, so two runs'
/// fingerprints are two independent observations.
struct Checks {
    scale: &'static str,
    prints: Mutex<BTreeMap<Key, String>>,
}

impl Checks {
    fn new(serving: &Serving) -> Checks {
        Checks {
            scale: scale_name(serving.shape.scale),
            prints: Mutex::new(serving.library.clone()),
        }
    }

    /// Checks a reply against its fingerprint, recording the first
    /// fingerprint of a key.
    fn check(&self, req: &Req, reply: &str) -> bool {
        let Some(print) = fingerprint(req.method, reply) else {
            return false;
        };
        let mut prints = self.prints.lock().expect("fingerprint table lock");
        match prints.get(&(req.benchmark, req.interval, req.method)) {
            Some(want) => *want == print,
            None => {
                prints.insert((req.benchmark, req.interval, req.method), print);
                true
            }
        }
    }

    fn call(&self, client: &mut Client, req: &Req) -> Result<bool, String> {
        let reply = client.call(req, self.scale)?;
        Ok(self.check(req, &reply))
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// What a reply must repeat: the result hash (and, for estimates, the
/// per-binary CPIs; for simpoints, the clustering), or `None` for a
/// reply that is not `ok` or lacks its result.
pub fn fingerprint(method: Method, reply: &str) -> Option<String> {
    let v = serde_json::parse(reply).ok()?;
    if field(&v, "ok") != Some(&Value::Bool(true)) {
        return None;
    }
    let result = field(&v, "result")?;
    let text = |key: &str| field(result, key).and_then(|v| serde_json::to_string(v).ok());
    let hash = match field(result, "result_hash") {
        Some(Value::Str(hash)) => Some(hash.clone()),
        _ => None,
    };
    match method {
        Method::PipelineRun => hash,
        Method::EstimateCpi => Some(format!("{} {}", hash?, text("binaries")?)),
        Method::SimpointsGet => {
            (field(result, "found") == Some(&Value::Bool(true))).then_some(())?;
            text("simpoint")
        }
    }
}

/// One connection to the daemon.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            next_id: 0,
        })
    }

    /// Sends `req` and returns the reply line.
    fn call(&mut self, req: &Req, scale: &str) -> Result<String, String> {
        let name = match req.method {
            Method::PipelineRun => "bench/serve/pipeline.run",
            Method::EstimateCpi => "bench/serve/estimate.cpi",
            Method::SimpointsGet => "bench/serve/simpoints.get",
        };
        let _span =
            cbsp_trace::span_labeled(name, || format!("{}/{}", req.benchmark, req.interval));
        self.next_id += 1;
        let frame = format!(
            "{{\"id\":{},\"method\":\"{}\",\"params\":{{\"benchmark\":\"{}\",\"scale\":\"{scale}\",\"interval\":{}}}}}\n",
            self.next_id,
            req.method.wire(),
            req.benchmark,
            req.interval
        );
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Starts a daemon on a fresh, empty store at `store`.
fn start_daemon(store: &Path) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(store);
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: THREADS,
        workers: THREADS,
        cache_dir: store.to_path_buf(),
        ..ServeConfig::default()
    })
}

fn stop_daemon(server: Server) -> Result<(), String> {
    server.shutdown();
    server.wait()
}

/// Runs `f(connection index, client)` on [`CONNECTIONS`] generator
/// threads and gathers their results in connection order.
fn on_connections<T: Send>(
    addr: SocketAddr,
    f: impl Fn(usize, &mut Client) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let f = &f;
                scope.spawn(move || f(c, &mut Client::connect(addr)?))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "generator thread panicked".to_string())?
            })
            .collect()
    })
}

/// Set-up: a daemon started and stopped on an empty store under `dir`,
/// and the library's result hash for every digest.
pub fn setup(shape: &Shape, dir: &Path) -> Result<Serving, String> {
    let store = dir.join("serve-store");
    stop_daemon(start_daemon(&store)?)?;
    let mut library = BTreeMap::new();
    for &benchmark in &shape.benchmarks {
        let program = workloads::by_name(benchmark)
            .ok_or(format!("unknown benchmark {benchmark}"))?
            .build(shape.scale);
        let binaries: Vec<Binary> = CompileTarget::ALL_FOUR
            .iter()
            .map(|&t| compile(&program, t))
            .collect();
        let refs: Vec<&Binary> = binaries.iter().collect();
        for &interval in &shape.intervals {
            let cross = cbsp_core::run_cross_binary(
                &refs,
                &input(shape.scale),
                &crate::batch::config(interval),
            )
            .map_err(|e| format!("{benchmark}/{interval}: {e}"))?;
            library.insert(
                (benchmark, interval, Method::PipelineRun),
                content_hash(&cross),
            );
        }
    }
    Ok(Serving {
        shape: shape.clone(),
        store,
        library,
    })
}

/// The sweep each connection sends: every (digest, method) once, the
/// benchmarks dealt out whole to the connections in the shape's order,
/// so a benchmark's requests (which share its traces) stay on one. The
/// order is fixed: which cold computes run side by side sets both the
/// sweep's time and its memory peak.
fn sweep_plan(shape: &Shape) -> Vec<Vec<Req>> {
    (0..CONNECTIONS)
        .map(|c| {
            shape
                .benchmarks
                .iter()
                .skip(c)
                .step_by(CONNECTIONS)
                .flat_map(|&benchmark| {
                    Method::ALL.into_iter().flat_map(move |method| {
                        shape.intervals.iter().map(move |&interval| Req {
                            method,
                            benchmark,
                            interval,
                        })
                    })
                })
                .collect()
        })
        .collect()
}

/// Sends one sweep. Returns each request's milliseconds, in plan order,
/// and the failures.
fn sweep(addr: SocketAddr, checks: &Checks, plan: &[Vec<Req>]) -> Result<(Vec<f64>, u64), String> {
    let per_conn = on_connections(addr, |c, client| {
        let mut out = Vec::new();
        for req in &plan[c] {
            let t = Instant::now();
            let ok = checks.call(client, req)?;
            out.push((t.elapsed().as_secs_f64() * 1e3, ok));
        }
        Ok(out)
    })?;
    let all: Vec<(f64, bool)> = per_conn.into_iter().flatten().collect();
    let failures = all.iter().filter(|(_, ok)| !ok).count() as u64;
    Ok((all.into_iter().map(|(ms, _)| ms).collect(), failures))
}

/// Drives a closed loop for `seconds` on one connection: a single caller
/// sends the next request of `stream` as soon as its previous reply is
/// in. One caller, not [`CONNECTIONS`]: with two, a cache hit waits for
/// a CPU behind the other caller's slice replay on two vCPUs, and its
/// latency measures the host's load more than the daemon. Returns the
/// samples and the replies per second.
fn closed_loop(
    addr: SocketAddr,
    checks: &Checks,
    stream: &[Req],
    seconds: f64,
) -> Result<(Vec<Sample>, f64), String> {
    let mut client = Client::connect(addr)?;
    let start = Instant::now();
    let mut samples = Vec::new();
    for req in stream {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let t = Instant::now();
        let ok = checks.call(&mut client, req)?;
        samples.push(Sample {
            method: req.method,
            latency_ms: t.elapsed().as_secs_f64() * 1e3,
            ok,
        });
    }
    let rate = samples.len() as f64 / start.elapsed().as_secs_f64();
    Ok((samples, rate))
}

/// Reads `GET /metrics` from the daemon: (result-cache hit ratio, mean
/// queue wait per request in ms).
fn scrape_metrics(addr: SocketAddr) -> Result<(f64, f64), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .map_err(|e| format!("metrics request: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("metrics reply: {e}"))?;
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    let v = serde_json::parse(body).map_err(|e| format!("metrics body: {e}"))?;
    let num = |section: &str, key: &str| match field(&v, section).and_then(|s| field(s, key)) {
        Some(Value::Float(f)) => Some(*f),
        Some(Value::UInt(n)) => Some(*n as f64),
        _ => None,
    };
    let hit = num("cache", "result_hit_ratio").ok_or("metrics lack result_hit_ratio")?;
    let wait = num("serve", "queue_wait_ms_total").ok_or("metrics lack queue_wait_ms_total")?;
    let requests = num("serve", "requests").ok_or("metrics lack requests")?;
    Ok((hit, crate::stats::ratio(wait, requests)))
}

/// What one round measured.
struct Round {
    /// The cold sweep, from the daemon's start, seconds.
    cold_s: f64,
    /// Each warm sweep, seconds.
    warm_s: Vec<f64>,
    /// Each cold-sweep request, ms.
    cold_request_ms: Vec<f64>,
    /// The closed loop's requests.
    samples: Vec<Sample>,
    /// The closed loop's replies per second.
    rate: f64,
    /// Sweep replies that failed their check.
    failed: u64,
    /// Share of the machine's CPU time stolen during the round.
    steal: f64,
    /// The daemon's result-cache hit ratio and mean queue wait (ms).
    daemon: (f64, f64),
}

/// One round: a daemon started on an empty store, a cold sweep, warm
/// sweeps, then the closed loop for `loop_s` seconds from `stream`.
/// Stops the daemon on every path out.
fn round(
    serving: &Serving,
    checks: &Checks,
    sweeps: &[Vec<Req>],
    stream: &[Req],
    loop_s: f64,
) -> Result<Round, String> {
    let steal = Steal::start();
    let t = Instant::now();
    let server = start_daemon(&serving.store)?;
    let outcome = (|| -> Result<Round, String> {
        let addr = server.addr();
        let (cold_request_ms, mut failed) = sweep(addr, checks, sweeps)?;
        let cold_s = t.elapsed().as_secs_f64();
        let mut warm_s = Vec::new();
        for _ in 0..WARM_SWEEPS {
            let t = Instant::now();
            let (_, bad) = sweep(addr, checks, sweeps)?;
            warm_s.push(t.elapsed().as_secs_f64());
            failed += bad;
        }
        let (samples, rate) = closed_loop(addr, checks, stream, loop_s)?;
        Ok(Round {
            cold_s,
            warm_s,
            cold_request_ms,
            samples,
            rate,
            failed,
            steal: 0.0,
            daemon: scrape_metrics(addr)?,
        })
    })();
    let stopped = stop_daemon(server);
    let mut round = outcome?;
    stopped?;
    round.steal = steal.share();
    Ok(round)
}

/// One measured run (see the module docs).
pub fn measure(serving: &Serving, plan: &Plan, seed: u64) -> Result<Run, String> {
    let sweeps = sweep_plan(&serving.shape);
    let checks = Checks::new(serving);
    let mut mix = Mix::new(&serving.shape, seed);
    // A round's loop takes at most a quarter of the budget, so a short
    // (test) run stays short.
    let loop_s = LOOP_S.min(plan.seconds / 4.0);
    // More requests than the daemon can answer in a round's loop.
    let per_round = (loop_s * 5_000.0) as usize + 1;
    let mut rounds = Vec::new();
    let mut rounds_s = Vec::new();
    let start = Instant::now();
    while rounds_s.len() < plan.reps || fits(&rounds_s, start, plan.seconds) {
        let t = Instant::now();
        let stream: Vec<Req> = (0..per_round).map(|_| mix.next_req()).collect();
        let result = round(serving, &checks, &sweeps, &stream, loop_s);
        let _ = std::fs::remove_dir_all(&serving.store);
        rounds.push(result?);
        rounds_s.push(t.elapsed().as_secs_f64());
    }

    let sweep_len: usize = sweeps.iter().map(Vec::len).sum();
    let samples: Vec<Sample> = rounds.iter().flat_map(|r| r.samples.clone()).collect();
    let attempted = (rounds.len() * (1 + WARM_SWEEPS) * sweep_len + samples.len()) as u64;
    let failed = rounds.iter().map(|r| r.failed).sum::<u64>()
        + samples.iter().filter(|s| !s.ok).count() as u64;
    let prints = checks.prints.into_inner().expect("fingerprint table lock");
    // Every key the sweeps ask: the same for runs of one seed however
    // they were observed.
    let results = content_hash(
        &prints
            .iter()
            .map(|((b, i, m), print)| format!("{b}/{i}/{} {print}", m.wire()))
            .collect::<Vec<String>>(),
    );
    let steal: Vec<f64> = rounds.iter().map(|r| r.steal).collect();
    let kept: Vec<&Round> = rounds
        .iter()
        .zip(calm(&steal))
        .filter_map(|(r, keep)| keep.then_some(r))
        .collect();
    let cold_s: Vec<f64> = kept.iter().map(|r| r.cold_s).collect();
    let warm_s: Vec<f64> = kept.iter().flat_map(|r| r.warm_s.clone()).collect();
    let rates: Vec<f64> = kept.iter().map(|r| r.rate).collect();
    let latency: Vec<f64> = kept
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| s.latency_ms))
        .collect();
    let (result_hit_ratio, queue_wait_ms_mean) = rounds[rounds.len() - 1].daemon;
    Ok(Run {
        cold_s: median(&cold_s),
        warm_s: median(&warm_s),
        op_ms: latency,
        ops_per_s: median(&rates),
        attempted,
        failed,
        results,
        notes: vec![format!(
            "{} digests, {} rounds ({} kept, steal at most {:.2}% in each): \
             {} cold and {} warm sweeps, {} requests in the closed loop",
            serving.shape.digests().len(),
            rounds.len(),
            kept.len(),
            kept.iter().map(|r| r.steal).fold(0.0, f64::max) * 100.0,
            rounds.len(),
            rounds.len() * WARM_SWEEPS,
            samples.len(),
        )],
        serve: Some(ServeLayer {
            samples,
            cold_request_ms: rounds
                .iter()
                .flat_map(|r| r.cold_request_ms.clone())
                .collect(),
            result_hit_ratio,
            queue_wait_ms_mean,
        }),
    })
}

/// Median and tail latency of the samples of `method`, ms.
pub fn method_latency(layer: &ServeLayer, method: Method) -> (f64, f64) {
    let ms: Vec<f64> = layer
        .samples
        .iter()
        .filter(|s| s.method == method)
        .map(|s| s.latency_ms)
        .collect();
    if ms.is_empty() {
        return (0.0, 0.0);
    }
    (median(&ms), tail(&ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn shape() -> Shape {
        Shape {
            scale: Scale::Test,
            benchmarks: vec!["gzip", "mcf", "swim"],
            intervals: vec![100_000, 10_000],
        }
    }

    fn stream(seed: u64, n: usize) -> Vec<Req> {
        let mut mix = Mix::new(&shape(), seed);
        (0..n).map(|_| mix.next_req()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        assert_eq!(stream(7, 900), stream(7, 900));
        assert_ne!(stream(7, 900), stream(8, 900));
    }

    #[test]
    fn sweeps_cover_every_key_once_with_benchmarks_whole() {
        let shape = shape();
        let plan = sweep_plan(&shape);
        let keys: HashSet<(&str, u64, Method)> = plan
            .iter()
            .flatten()
            .map(|r| (r.benchmark, r.interval, r.method))
            .collect();
        assert_eq!(keys.len(), plan.iter().map(Vec::len).sum::<usize>());
        assert_eq!(keys.len(), 3 * 2 * 3);
        for conn in &plan {
            for other in plan.iter().filter(|o| !std::ptr::eq(*o, conn)) {
                assert!(conn
                    .iter()
                    .all(|r| other.iter().all(|o| o.benchmark != r.benchmark)));
            }
        }
    }

    #[test]
    fn every_round_asks_each_digest_in_mix_proportions() {
        let shape = shape();
        // 6 digests × 10 requests a round.
        for round in stream(9, 4 * 60).chunks(60) {
            for (benchmark, interval) in shape.digests() {
                for (method, n) in MIX {
                    let asked = round
                        .iter()
                        .filter(|r| {
                            (r.benchmark, r.interval, r.method) == (benchmark, interval, method)
                        })
                        .count();
                    assert_eq!(asked, n, "{benchmark}/{interval} {method:?}");
                }
            }
        }
    }
}
