//! The four workloads. Each sets itself up several times (the last
//! set-up serves the run), then runs blocks of whole rounds of its fixed
//! mix until `seconds` of timed calls have passed.
//!
//! Timed calls run back to back within a block, and their outputs are
//! checked after it: on this kind of virtual machine an idle gap before
//! a call (the checker's own in-process run of the last query) adds the
//! host's wake-up latency to the call. Every workload but stream-serve
//! follows each block with an update and its inverse through the same
//! path, so update round trips are sampled across the whole run. They
//! go to a second pair of the same shape: an update clears its
//! session's sketch cache, and the queried session's must fill as
//! queries alone would fill it.

use crate::check::{check, Tally, Verdict};
use crate::measure::{median, ms, Spans};
use crate::reference::{Pair, PairSpec, Reference, Rng};
use mpest_comm::{CommError, Party, Role, Seed};
use mpest_core::{
    BatchPlan, Engine, EstimateReport, EstimateRequest, PartyView, PeerInfo, Session, UpdateBatch,
    UpdateSide,
};
use mpest_matrix::{CsrMatrix, PNorm};
use mpest_net::party::PARTY_IO_TIMEOUT;
use mpest_net::{
    fingerprint, run_with_party_view, update_split_party, PartyHost, Registry, ReportsMsg,
    ServeClient, ServeConfig, Server, Snapshot,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = [
    "sketch-inproc",
    "cheap-serve",
    "split-sketch",
    "stream-serve",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Entries each update batch flips, all in Bob's half: one side, so
/// every update costs alike and the median sits inside one class.
const FLIPS: usize = 4;
const UPDATED: UpdateSide = UpdateSide::Bob;
/// Updates and their inverses per update step (see [`update_step`]).
const UPDATE_PAIRS: usize = 3;
/// Seed offset of the pair updates go to (see the module docs).
const UPDATE_PAIR: u64 = 0x7570_6461_7465;
/// Mix rounds per pipelined window on cheap-serve.
const WINDOW_ROUNDS: usize = 4;
/// Pipelined windows, or sequential mix rounds, per block.
const BLOCK_WINDOWS: usize = 2;
const BLOCK_ROUNDS: usize = 8;
/// `latency_p90_ms` windows, each about a second of a run: engine
/// batches on sketch-inproc, blocks on cheap-serve and stream-serve,
/// mix rounds on split-sketch.
const P90_WINDOW_BATCHES: usize = 20;
const P90_WINDOW_BLOCKS: usize = 10;
const P90_WINDOW_ROUNDS: usize = 10;

/// 128×192 · 192×128: one `l0-sample` moves ~24 Mbit, so message
/// encode/decode and sketch kernels carry the query.
const BIG: PairSpec = PairSpec {
    n: 128,
    u: 192,
    density: 0.03,
    planted: 4,
    overlap: 24,
};
/// Small enough that protocol compute is ~0.1 ms a query.
const SMALL: PairSpec = PairSpec {
    n: 48,
    u: 64,
    density: 0.04,
    planted: 2,
    overlap: 16,
};
const STREAM: PairSpec = PairSpec {
    n: 64,
    u: 96,
    density: 0.05,
    planted: 3,
    overlap: 12,
};

/// The paper's statistics on a planted-pairs pair. `at-least-t-join`
/// runs at T just under the planted overlap: at the catalog's T = 2 it
/// costs ~200 ms a query at n = 128.
fn inproc_mix() -> Vec<EstimateRequest> {
    vec![
        EstimateRequest::LpNorm {
            p: PNorm::Zero,
            eps: 0.3,
        },
        EstimateRequest::LpBaseline {
            p: PNorm::ONE,
            eps: 0.4,
        },
        EstimateRequest::L0Sample { eps: 0.3 },
        EstimateRequest::LinfBinary { eps: 0.3 },
        EstimateRequest::HhBinary {
            p: 2.0,
            phi: 0.05,
            eps: 0.03,
        },
        EstimateRequest::AtLeastTJoin {
            t: BIG.overlap as u32 - 4,
            slack: 0.5,
        },
        EstimateRequest::LinfGeneral { kappa: 4 },
        EstimateRequest::HhGeneral {
            p: 2.0,
            phi: 0.05,
            eps: 0.03,
        },
    ]
}

fn cheap_mix() -> Vec<EstimateRequest> {
    vec![
        EstimateRequest::ExactL1,
        EstimateRequest::L1Sample,
        EstimateRequest::SparseMatmul,
        EstimateRequest::HhBinary {
            p: 1.0,
            phi: 0.02,
            eps: 0.01,
        },
        EstimateRequest::LinfKappa { kappa: 4.0 },
        EstimateRequest::TrivialCsr,
    ]
}

/// Three message-heavy protocols and four cheap ones: an odd number of
/// latency classes keeps the median inside one class.
fn split_mix() -> Vec<EstimateRequest> {
    vec![
        EstimateRequest::LpNorm {
            p: PNorm::Zero,
            eps: 0.3,
        },
        EstimateRequest::L0Sample { eps: 0.3 },
        EstimateRequest::LpBaseline {
            p: PNorm::ONE,
            eps: 0.4,
        },
        EstimateRequest::ExactL1,
        EstimateRequest::L1Sample,
        EstimateRequest::LinfKappa { kappa: 4.0 },
        EstimateRequest::TrivialCsr,
    ]
}

/// Reads after each update. The two sketch protocols reuse one seed for
/// the whole run, so only the update's cache clear makes them rebuild
/// their sketches; five latency classes keep the median inside one.
fn stream_mix() -> Vec<EstimateRequest> {
    vec![
        EstimateRequest::ExactL1,
        EstimateRequest::L1Sample,
        EstimateRequest::LinfKappa { kappa: 4.0 },
        EstimateRequest::LpBaseline {
            p: PNorm::ONE,
            eps: 0.4,
        },
        EstimateRequest::LpNorm {
            p: PNorm::Zero,
            eps: 0.3,
        },
    ]
}

/// The protocols a workload's queries run, in mix order.
pub fn mix(workload: &str) -> Vec<EstimateRequest> {
    match workload {
        "sketch-inproc" => inproc_mix(),
        "cheap-serve" => cheap_mix(),
        "split-sketch" => split_mix(),
        _ => stream_mix(),
    }
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Per-operation latency (one engine batch on sketch-inproc, one
    /// query elsewhere).
    pub latency_ms: Vec<f64>,
    /// Latency samples per window of `latency_p90_ms`: whole rounds of
    /// the mix, in the order they ran.
    pub window: usize,
    /// Queries completed in `query_s` of timed calls (the `qps` basis).
    pub queries: u64,
    pub query_s: f64,
    pub update_ms: Vec<f64>,
    /// Transcript totals over the timed queries.
    pub reports: u64,
    pub bits: u64,
    pub messages: u64,
    pub rounds: u64,
    /// `Σ ⌈bits/8⌉` per message: the packed payload bytes.
    pub payload_bytes: u64,
    /// Socket bytes over the timed queries (in-process: payload bytes).
    pub wire_bytes: u64,
    pub tally: Tally,
    /// Per-layer values the run itself observed.
    pub layers: BTreeMap<String, f64>,
    /// Per-layer samples the run collects, by metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub pair: Option<Pair>,
}

impl Run {
    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Checks one timed query's report and folds it into the totals.
    fn checked(
        &mut self,
        request: &EstimateRequest,
        got: &EstimateReport,
        fused: Option<&EstimateReport>,
        r: &Reference,
    ) {
        self.reports += 1;
        self.bits += got.bits();
        self.messages += got.transcript.messages() as u64;
        self.rounds += u64::from(got.rounds());
        self.payload_bytes += got
            .transcript
            .records
            .iter()
            .map(|m| m.bits.div_ceil(8))
            .sum::<u64>();
        self.tally.report(request, got, fused, r);
    }

    /// Checks a block of timed calls against the in-process fused run
    /// over `local` and against the reference. Each call's latency
    /// minus its in-process latency goes to the `overhead` sample (µs,
    /// or ms for a name ending in `_ms`).
    fn settle(
        &mut self,
        block: Vec<Pending>,
        local: &Session,
        r: &Reference,
        overhead: &'static str,
        spans: &Spans,
    ) {
        for p in block {
            let span = spans.open();
            let (want, inproc_ms) = fused(local, &p.request, p.seed);
            spans.close("core.session.estimate_seeded", span, p.op, 0);
            if let Some(latency) = p.latency_ms {
                let scale = if overhead.ends_with("_ms") { 1.0 } else { 1e3 };
                self.sample(overhead, (latency - inproc_ms) * scale);
            }
            match p.result {
                Ok(report) => self.checked(&p.request, &report, Some(&want), r),
                Err(e) => self.tally.error(p.request.name(), &e),
            }
        }
    }
}

/// A timed call whose check waits for the end of its block.
struct Pending {
    request: EstimateRequest,
    seed: u64,
    op: u64,
    /// `None` inside a pipelined window, where calls overlap.
    latency_ms: Option<f64>,
    result: Result<EstimateReport, CommError>,
}

/// Runs `workload`; `None` for an unknown name.
pub fn run(workload: &str, seed: u64, seconds: f64, spans: &Spans) -> Option<Run> {
    let budget = Duration::from_secs_f64(seconds);
    Some(match workload {
        "sketch-inproc" => sketch_inproc(seed, budget, spans),
        "cheap-serve" => cheap_serve(seed, budget, spans),
        "split-sketch" => split_sketch(seed, budget, spans),
        "stream-serve" => stream_serve(seed, budget, spans),
        _ => return None,
    })
}

/// The median of a run-collected sample (0 when the run took none).
pub fn sample_median(run: &Run, name: &str) -> f64 {
    run.samples.get(name).map_or(0.0, |v| median(v))
}

fn expect_ok<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| panic!("{what} failed: {e}"))
}

fn fused(local: &Session, request: &EstimateRequest, seed: u64) -> (EstimateReport, f64) {
    let t = Instant::now();
    let report = expect_ok(
        "the in-process reference run",
        local.estimate_seeded(request, Seed(seed)),
    );
    (report, ms(t.elapsed()))
}

fn first_report(reports: ReportsMsg) -> Result<EstimateReport, CommError> {
    reports
        .reports
        .into_iter()
        .next()
        .ok_or_else(|| CommError::protocol("daemon answered with no report"))
}

fn query_one(
    client: &mut ServeClient,
    a: &CsrMatrix,
    b: &CsrMatrix,
    seed: u64,
    request: &EstimateRequest,
    at_epoch: Option<u64>,
) -> Result<EstimateReport, CommError> {
    let queries = [(seed, request.clone())];
    let outcome = match at_epoch {
        Some(epoch) => client.query_at_epoch(a, b, &queries, epoch)?,
        None => client.query(a, b, &queries)?,
    };
    first_report(outcome.reports)
}

/// Epoch as expected and the updated halves' fingerprints equal to the
/// mirror's.
fn update_verdict(epoch: u64, fps: (u64, u64), mirror: &Session) -> Verdict {
    let (a, b) = mirror.csr_halves().expect("mirror dims");
    let want = (fingerprint(a), fingerprint(b));
    if epoch != mirror.epoch() {
        Verdict::Fail(format!(
            "epoch {epoch} after update, mirror at {}",
            mirror.epoch()
        ))
    } else if fps != want {
        Verdict::Fail(format!(
            "fingerprints {fps:x?} after update, mirror {want:x?}"
        ))
    } else {
        Verdict::Pass
    }
}

/// An `exact-l1` read after an update: equal to the in-process run
/// over the mirror, and to the naive product of the updated pair.
fn read_verdict(
    got: Result<EstimateReport, CommError>,
    mirror: &Session,
    seed: u64,
    after: &Reference,
) -> Verdict {
    let request = EstimateRequest::ExactL1;
    match got {
        Ok(report) if report == fused(mirror, &request, seed).0 => {
            check(&request, &report.output, after)
        }
        Ok(_) => Verdict::Fail("exact-l1 after an update differs from in-process".into()),
        Err(e) => Verdict::Fail(e.to_string()),
    }
}

/// A serving path's update round trip and read, for [`update_step`].
trait UpdatePath {
    /// Applies `batch` through the path, timing the round trip into
    /// `run.update_ms`; returns the epoch and fingerprint verdict.
    fn update(&mut self, run: &mut Run, batch: &UpdateBatch, spans: &Spans) -> Verdict;
    /// An `exact-l1` read through the path, checked against `after`.
    fn read(&mut self, after: &Reference, seed: u64) -> Verdict;
}

/// After each block: a checked read of the update pair, then
/// `UPDATE_PAIRS` times an update on Bob's half, a checked read of the
/// updated pair, and the inverse update, which restores the pair. Every
/// update follows a call on the same path; only the first follows the
/// block's checks, which leave the caches (and, across CPUs, the
/// machine) cold.
fn update_step(
    run: &mut Run,
    reference: &Reference,
    rng: &mut Rng,
    path: &mut impl UpdatePath,
    spans: &Spans,
) {
    let verdict = path.read(reference, rng.next_u64());
    run.tally.record("update-read", 0.0, verdict);
    for _ in 0..UPDATE_PAIRS {
        let batch = reference.update_batch(rng, UPDATED, FLIPS);
        let mut after = reference.clone();
        after.apply(&batch);
        let verdict = path.update(run, &batch, spans);
        run.tally.record("update", 0.0, verdict);
        let verdict = path.read(&after, rng.next_u64());
        run.tally.record("update-read", 0.0, verdict);
        let verdict = path.update(run, &Reference::inverse(&batch), spans);
        run.tally.record("update", 0.0, verdict);
    }
}

struct InProc<'a>(&'a mut Engine);

impl UpdatePath for InProc<'_> {
    fn update(&mut self, run: &mut Run, batch: &UpdateBatch, spans: &Spans) -> Verdict {
        let want = self.0.session().epoch() + 1;
        let span = spans.open();
        let t = Instant::now();
        let epoch = self.0.apply_update(batch);
        let dt = ms(t.elapsed());
        spans.close("core.engine.apply_update", span, want, 0);
        run.update_ms.push(dt);
        run.sample("core.apply_update_us", dt * 1e3);
        match epoch {
            Ok(e) if e == want => Verdict::Pass,
            Ok(e) => Verdict::Fail(format!("epoch {e} after update, expected {want}")),
            Err(e) => Verdict::Fail(e.to_string()),
        }
    }

    fn read(&mut self, after: &Reference, seed: u64) -> Verdict {
        let request = EstimateRequest::ExactL1;
        match self.0.session().estimate_seeded(&request, Seed(seed)) {
            Ok(report) => check(&request, &report.output, after),
            Err(e) => Verdict::Fail(e.to_string()),
        }
    }
}

/// The daemon, with the benchmark's mirror session of its pair.
struct Daemon<'a> {
    client: &'a mut ServeClient,
    mirror: &'a mut Session,
}

impl UpdatePath for Daemon<'_> {
    fn update(&mut self, run: &mut Run, batch: &UpdateBatch, spans: &Spans) -> Verdict {
        let (a, b) = self.mirror.csr_halves().expect("mirror dims");
        let (a, b) = (a.clone(), b.clone());
        let span = spans.open();
        let t = Instant::now();
        let ack = self.client.update(&a, &b, self.mirror.epoch(), batch);
        run.update_ms.push(ms(t.elapsed()));
        spans.close("net.client.update", span, self.mirror.epoch() + 1, 0);
        let t = Instant::now();
        let mirrored = self.mirror.apply_update(batch);
        run.sample("core.apply_update_us", t.elapsed().as_secs_f64() * 1e6);
        match (ack, mirrored) {
            (Ok(ack), Ok(_)) => update_verdict(ack.epoch, (ack.fp_a, ack.fp_b), self.mirror),
            (Err(e), _) | (_, Err(e)) => Verdict::Fail(e.to_string()),
        }
    }

    fn read(&mut self, after: &Reference, seed: u64) -> Verdict {
        let (a, b) = self.mirror.csr_halves().expect("mirror dims");
        let got = query_one(
            self.client,
            a,
            b,
            seed,
            &EstimateRequest::ExactL1,
            Some(self.mirror.epoch()),
        );
        read_verdict(got, self.mirror, seed, after)
    }
}

/// The split pair: the host holds `B`; Alice's view and the benchmark's
/// full-pair mirror stay here.
struct Split<'a> {
    addr: &'a str,
    alice: &'a mut PartyView,
    mirror: &'a mut Session,
    host_fp: u64,
}

impl UpdatePath for Split<'_> {
    /// Pushes Bob's ops to the host and an empty batch to Alice's half,
    /// keeping the per-side epochs in lockstep.
    fn update(&mut self, run: &mut Run, batch: &UpdateBatch, spans: &Spans) -> Verdict {
        let epoch = self.mirror.epoch();
        let span = spans.open();
        let t = Instant::now();
        let pushed = update_split_party(
            self.addr,
            Party::Bob,
            self.host_fp,
            epoch,
            batch,
            Some(PARTY_IO_TIMEOUT),
        );
        let own = self.alice.apply_update(&UpdateBatch::new());
        run.update_ms.push(ms(t.elapsed()));
        spans.close("net.party.update", span, epoch + 1, 0);
        let t = Instant::now();
        let mirrored = self.mirror.apply_update(batch);
        run.sample("core.apply_update_us", t.elapsed().as_secs_f64() * 1e6);
        match (pushed, own, mirrored) {
            (Ok((fp, host_epoch)), Ok(own_epoch), Ok(want)) => {
                self.host_fp = fp;
                let want_fp = fingerprint(self.mirror.csr_halves().expect("mirror dims").1);
                if host_epoch != want || own_epoch != want {
                    Verdict::Fail(format!(
                        "epochs {host_epoch}/{own_epoch} after update, mirror {want}"
                    ))
                } else if fp != want_fp {
                    Verdict::Fail(format!("host fingerprint {fp:#x}, mirror {want_fp:#x}"))
                } else {
                    Verdict::Pass
                }
            }
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Verdict::Fail(e.to_string()),
        }
    }

    fn read(&mut self, after: &Reference, seed: u64) -> Verdict {
        let got = run_with_party_view(self.addr, self.alice, &EstimateRequest::ExactL1, Seed(seed));
        read_verdict(got.map(|(report, _, _)| report), self.mirror, seed, after)
    }
}

fn sketch_inproc(seed: u64, budget: Duration, spans: &Spans) -> Run {
    let pair = BIG.generate(seed);
    let reference = Reference::new(&pair.a, &pair.b);
    let mix = inproc_mix();
    let plan = BatchPlan::default();
    let mut rng = Rng::new(seed ^ 0x696e_7072_6f63);
    let mut run = Run {
        window: P90_WINDOW_BATCHES,
        ..Run::default()
    };
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let registry = Registry::new();
        let mut session = Session::builder(pair.a.clone(), pair.b.clone())
            .seed(Seed(seed))
            .build();
        session.set_obs(&registry);
        expect_ok("warm_views", session.warm_views());
        let engine = Engine::new(session);
        let warm = expect_ok("warm-up batch", engine.run_batch(&mix, &plan));
        run.setup_s.push(t.elapsed().as_secs_f64());
        for (request, report) in mix.iter().zip(&warm.reports) {
            run.tally.report(request, report, None, &reference);
        }
        last = Some((engine, registry));
    }
    let (engine, registry) = last.expect("at least one set-up");
    let before = registry.snapshot();
    let updates = BIG.generate(seed ^ UPDATE_PAIR);
    let update_reference = Reference::new(&updates.a, &updates.b);
    let mut update_engine = Engine::new(Session::new(updates.a, updates.b));
    expect_ok("warm_views", update_engine.session().warm_views());
    let mut measured = Duration::ZERO;
    let mut op = 0u64;
    while measured < budget {
        op += 1;
        let span = spans.open();
        let t = Instant::now();
        let batch = engine.run_batch(&mix, &plan);
        let dt = t.elapsed();
        spans.close("core.engine.run_batch", span, op, 0);
        measured += dt;
        run.latency_ms.push(ms(dt));
        run.queries += mix.len() as u64;
        match batch {
            Ok(batch) => {
                for (request, report) in mix.iter().zip(&batch.reports) {
                    run.checked(request, report, None, &reference);
                }
            }
            Err(e) => mix.iter().for_each(|req| run.tally.error(req.name(), &e)),
        }
        update_step(
            &mut run,
            &update_reference,
            &mut rng,
            &mut InProc(&mut update_engine),
            spans,
        );
    }
    run.query_s = measured.as_secs_f64();
    run.wire_bytes = run.payload_bytes;
    let after = registry.snapshot();
    for name in ["sketch.cache.hits", "sketch.cache.misses"] {
        let count = after.counter(name) - before.counter(name);
        run.layers.insert(name.into(), count as f64);
    }
    run.pair = Some(pair);
    run
}

/// A daemon on loopback, traced when the run is.
fn spawn_daemon(spans: &Spans) -> Server {
    let addr = "127.0.0.1:0";
    let server = if spans.enabled() {
        Server::spawn_traced(addr, ServeConfig::default(), spans.tracer())
    } else {
        Server::spawn_with(addr, ServeConfig::default())
    };
    expect_ok("daemon start", server)
}

/// Per-layer values read off the daemon's registry.
fn daemon_layers(run: &mut Run, snap: &Snapshot) {
    for phase in ["decode", "lookup", "run", "encode"] {
        let p50 = snap
            .histograms
            .get(&format!("phase.{phase}_us"))
            .map_or(0, |h| h.quantile(0.5));
        run.layers
            .insert(format!("net.phase.{phase}_us"), p50 as f64);
    }
    let queue_high = snap.gauges.get("worker.queue_depth").map_or(0, |g| g.high);
    run.layers
        .insert("net.worker.queue_depth".into(), queue_high as f64);
    let wakeups: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("reactor.wakeup."))
        .map(|(_, v)| *v)
        .sum();
    let served = snap.counter("queries.served").max(1);
    run.layers.insert(
        "net.reactor.wakeups_per_query".into(),
        wakeups as f64 / served as f64,
    );
    for (layer, name) in [
        ("net.sessions.superseded", "sessions.superseded"),
        ("sketch.cache.hits", "sketch.cache.hits"),
        ("sketch.cache.misses", "sketch.cache.misses"),
    ] {
        run.layers.insert(layer.into(), snap.counter(name) as f64);
    }
}

/// The daemon's `metrics` snapshot into the run's layers (traced runs).
fn read_daemon_metrics(run: &mut Run, client: &mut ServeClient, spans: &Spans) {
    if spans.enabled() {
        match client.metrics() {
            Ok(snap) => daemon_layers(run, &snap),
            Err(e) => run.tally.error("metrics", &e),
        }
    }
}

fn cheap_serve(seed: u64, budget: Duration, spans: &Spans) -> Run {
    let pair = SMALL.generate(seed);
    let reference = Reference::new(&pair.a, &pair.b);
    let (a, b) = (&pair.a, &pair.b);
    let local = Session::new(a.clone(), b.clone());
    expect_ok("warm_views", local.warm_views());
    let mix = cheap_mix();
    let mut rng = Rng::new(seed ^ 0x0063_6865_6170);
    let mut run = Run {
        window: P90_WINDOW_BLOCKS * BLOCK_ROUNDS * mix.len(),
        ..Run::default()
    };
    let mut last: Option<(Server, ServeClient)> = None;
    for _ in 0..SETUPS {
        if let Some((server, _)) = last.take() {
            server.shutdown();
        }
        let t = Instant::now();
        let server = spawn_daemon(spans);
        let mut client = expect_ok("connect", ServeClient::connect(&server.addr().to_string()));
        let mut warm = Vec::new();
        for request in &mix {
            let s = rng.next_u64();
            warm.push((
                s,
                expect_ok(
                    "warm-up query",
                    query_one(&mut client, a, b, s, request, None),
                ),
            ));
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
        for (request, (s, report)) in mix.iter().zip(&warm) {
            let want = fused(&local, request, *s).0;
            run.tally.report(request, report, Some(&want), &reference);
        }
        last = Some((server, client));
    }
    let (server, mut client) = last.expect("at least one set-up");
    let updates = SMALL.generate(seed ^ UPDATE_PAIR);
    let update_reference = Reference::new(&updates.a, &updates.b);
    expect_ok(
        "update pair upload",
        query_one(
            &mut client,
            &updates.a,
            &updates.b,
            0,
            &EstimateRequest::ExactL1,
            Some(0),
        ),
    );
    let mut mirror = Session::new(updates.a, updates.b);

    // Each round has two blocks on the one connection: a pipelined
    // block keeps a window of frame-id queries in flight (this gives
    // qps), a sequential block sends one query at a time (this gives
    // latency). Alternating them exposes both to the same stretch of
    // the run. Wire bytes count the queries' traffic only.
    let (mut pipelined, mut sequential) = (Duration::ZERO, Duration::ZERO);
    let mut op = 0u64;
    while pipelined + sequential < budget {
        let mut block = Vec::new();
        let (out0, in0) = client.wire_bytes();
        for _ in 0..BLOCK_WINDOWS {
            op += 1;
            let batches: Vec<Vec<(u64, EstimateRequest)>> = (0..WINDOW_ROUNDS)
                .flat_map(|_| mix.iter())
                .map(|request| vec![(rng.next_u64(), request.clone())])
                .collect();
            let span = spans.open();
            let t = Instant::now();
            let replies = client.query_pipelined(a, b, &batches);
            let dt = t.elapsed();
            spans.close("net.client.query_pipelined", span, op, 0);
            pipelined += dt;
            run.queries += batches.len() as u64;
            let replies: Vec<_> = match replies {
                Ok(replies) => replies
                    .into_iter()
                    .map(|r| r.and_then(first_report))
                    .collect(),
                Err(e) => batches.iter().map(|_| Err(e.clone())).collect(),
            };
            for (batch, result) in batches.into_iter().zip(replies) {
                let (seed, request) = batch.into_iter().next().expect("one query a frame");
                block.push(Pending {
                    request,
                    seed,
                    op,
                    latency_ms: None,
                    result,
                });
            }
        }
        for _ in 0..BLOCK_ROUNDS {
            for request in &mix {
                op += 1;
                let s = rng.next_u64();
                let span = spans.open();
                let t = Instant::now();
                let result = query_one(&mut client, a, b, s, request, None);
                let dt = t.elapsed();
                spans.close("net.client.query", span, op, 0);
                sequential += dt;
                run.latency_ms.push(ms(dt));
                block.push(Pending {
                    request: request.clone(),
                    seed: s,
                    op,
                    latency_ms: Some(ms(dt)),
                    result,
                });
            }
        }
        let (out1, in1) = client.wire_bytes();
        run.wire_bytes += (out1 - out0) + (in1 - in0);
        run.settle(block, &local, &reference, "net.rtt_overhead_us", spans);
        let mut path = Daemon {
            client: &mut client,
            mirror: &mut mirror,
        };
        update_step(&mut run, &update_reference, &mut rng, &mut path, spans);
    }
    run.query_s = pipelined.as_secs_f64();
    read_daemon_metrics(&mut run, &mut client, spans);
    server.shutdown();
    run.pair = Some(pair);
    run
}

fn split_sketch(seed: u64, budget: Duration, spans: &Spans) -> Run {
    let pair = BIG.generate(seed ^ 0x0073_706c_6974);
    let reference = Reference::new(&pair.a, &pair.b);
    let (a, b) = (&pair.a, &pair.b);
    let local = Session::new(a.clone(), b.clone());
    expect_ok("warm_views", local.warm_views());
    let mix = split_mix();
    let mut rng = Rng::new(seed ^ 0x0070_6172_7479);
    let mut run = Run {
        window: P90_WINDOW_ROUNDS * mix.len(),
        ..Run::default()
    };
    let mut last: Option<(PartyHost, PartyView, Registry)> = None;
    for _ in 0..SETUPS {
        if let Some((host, _, _)) = last.take() {
            host.shutdown();
        }
        let t = Instant::now();
        let bob = PartyView::new(
            Role::Bob,
            b.clone(),
            PeerInfo::new(a.rows(), a.cols(), true),
        );
        expect_ok("warm_views", bob.warm_views());
        let host = expect_ok(
            "party host start",
            PartyHost::spawn_split("127.0.0.1:0", bob),
        );
        let registry = Registry::new();
        let mut alice = PartyView::new(
            Role::Alice,
            a.clone(),
            PeerInfo::new(b.rows(), b.cols(), true),
        );
        alice.set_obs(&registry);
        expect_ok("warm_views", alice.warm_views());
        let s = rng.next_u64();
        let request = EstimateRequest::ExactL1;
        let (warm, _, _) = expect_ok(
            "warm-up run",
            run_with_party_view(&host.addr().to_string(), &alice, &request, Seed(s)),
        );
        run.setup_s.push(t.elapsed().as_secs_f64());
        let want = fused(&local, &request, s).0;
        run.tally.report(&request, &warm, Some(&want), &reference);
        last = Some((host, alice, registry));
    }
    let (host, alice, registry) = last.expect("at least one set-up");
    let addr = host.addr().to_string();
    let updates = BIG.generate(seed ^ UPDATE_PAIR);
    let update_reference = Reference::new(&updates.a, &updates.b);
    let (ua, ub) = (&updates.a, &updates.b);
    let update_host = expect_ok(
        "update host start",
        PartyHost::spawn_split(
            "127.0.0.1:0",
            PartyView::new(
                Role::Bob,
                ub.clone(),
                PeerInfo::new(ua.rows(), ua.cols(), true),
            ),
        ),
    );
    let update_addr = update_host.addr().to_string();
    let mut update_alice = PartyView::new(
        Role::Alice,
        ua.clone(),
        PeerInfo::new(ub.rows(), ub.cols(), true),
    );
    let mut mirror = Session::new(ua.clone(), ub.clone());
    let mut host_fp = fingerprint(ub);
    let mut measured = Duration::ZERO;
    let mut op = 0u64;
    while measured < budget {
        let mut block = Vec::new();
        for request in &mix {
            op += 1;
            let s = rng.next_u64();
            let span = spans.open();
            let t = Instant::now();
            let result = run_with_party_view(&addr, &alice, request, Seed(s));
            let dt = t.elapsed();
            spans.close("net.party.run_with_party_view", span, op, 0);
            measured += dt;
            run.latency_ms.push(ms(dt));
            run.queries += 1;
            let result = result.map(|(report, out, inn)| {
                run.wire_bytes += out + inn;
                report
            });
            block.push(Pending {
                request: request.clone(),
                seed: s,
                op,
                latency_ms: Some(ms(dt)),
                result,
            });
        }
        run.settle(block, &local, &reference, "net.party.overhead_ms", spans);
        let mut path = Split {
            addr: &update_addr,
            alice: &mut update_alice,
            mirror: &mut mirror,
            host_fp,
        };
        update_step(&mut run, &update_reference, &mut rng, &mut path, spans);
        host_fp = path.host_fp;
    }
    run.query_s = measured.as_secs_f64();
    let snap = registry.snapshot();
    for name in ["sketch.cache.hits", "sketch.cache.misses"] {
        run.layers.insert(name.into(), snap.counter(name) as f64);
    }
    host.shutdown();
    update_host.shutdown();
    run.pair = Some(pair);
    run
}

/// Writes beside reads: each round one update batch on Bob's half, then
/// the mix pinned to the new epoch. Every second batch undoes the one
/// before it, so the pair stays near the generated one and the run's
/// cost does not drift with how long it runs.
fn stream_serve(seed: u64, budget: Duration, spans: &Spans) -> Run {
    let pair = STREAM.generate(seed ^ 0x7374_7265_616d);
    let (a, b) = (&pair.a, &pair.b);
    let mix = stream_mix();
    let mut rng = Rng::new(seed ^ 0x7265_6164);
    let sketch_seed = rng.next_u64();
    let mut reference = Reference::new(a, b);
    let mut run = Run {
        window: P90_WINDOW_BLOCKS * BLOCK_ROUNDS * mix.len(),
        ..Run::default()
    };
    let mut last: Option<(Server, ServeClient)> = None;
    let mut checker = Session::new(a.clone(), b.clone());
    expect_ok("warm_views", checker.warm_views());
    for _ in 0..SETUPS {
        if let Some((server, _)) = last.take() {
            server.shutdown();
        }
        let t = Instant::now();
        let server = spawn_daemon(spans);
        let mut client = expect_ok("connect", ServeClient::connect(&server.addr().to_string()));
        let mut warm = Vec::new();
        for request in &mix {
            let s = rng.next_u64();
            warm.push((
                s,
                expect_ok(
                    "upload and warm-up",
                    query_one(&mut client, a, b, s, request, Some(0)),
                ),
            ));
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
        for (request, (s, report)) in mix.iter().zip(&warm) {
            let want = fused(&checker, request, *s).0;
            run.tally.report(request, report, Some(&want), &reference);
        }
        last = Some((server, client));
    }
    let (server, mut client) = last.expect("at least one set-up");
    // `live` follows the daemon update by update, for the pair the
    // client names and the fingerprints it checks; `checker` and
    // `reference` catch up after each block.
    let mut live = Session::new(a.clone(), b.clone());
    let mut measured = Duration::ZERO;
    let mut round = 0u64;
    while measured < budget {
        let mut plan = Vec::with_capacity(BLOCK_ROUNDS);
        for _ in 0..BLOCK_ROUNDS / 2 {
            let batch = reference.update_batch(&mut rng, UPDATED, FLIPS);
            plan.push(Reference::inverse(&batch));
            plan.insert(plan.len() - 1, batch);
        }
        let mut log = Vec::new();
        let (out0, in0) = client.wire_bytes();
        for batch in plan {
            round += 1;
            let (pre_a, pre_b) = {
                let (pa, pb) = live.csr_halves().expect("live dims");
                (pa.clone(), pb.clone())
            };
            let span = spans.open();
            let t = Instant::now();
            let ack = client.update(&pre_a, &pre_b, round - 1, &batch);
            let dt = t.elapsed();
            let update_span = spans.close("net.client.update", span, round, 0);
            measured += dt;
            run.update_ms.push(ms(dt));
            let span = spans.open();
            let t = Instant::now();
            let applied = live.apply_update(&batch);
            run.sample("core.apply_update_us", t.elapsed().as_secs_f64() * 1e6);
            spans.close("core.session.apply_update", span, round, update_span);
            let verdict = match (ack, applied) {
                (Ok(ack), Ok(_)) => update_verdict(ack.epoch, (ack.fp_a, ack.fp_b), &live),
                (Err(e), _) | (_, Err(e)) => Verdict::Fail(e.to_string()),
            };
            let epoch = live.epoch();
            let (cur_a, cur_b) = live.csr_halves().expect("live dims");
            let mut pending = Vec::new();
            for request in &mix {
                let s = match request {
                    EstimateRequest::LpBaseline { .. } | EstimateRequest::LpNorm { .. } => {
                        sketch_seed
                    }
                    _ => rng.next_u64(),
                };
                let span = spans.open();
                let t = Instant::now();
                let result = query_one(&mut client, cur_a, cur_b, s, request, Some(epoch));
                let dt = t.elapsed();
                spans.close("net.client.query_at_epoch", span, round, 0);
                measured += dt;
                run.latency_ms.push(ms(dt));
                run.queries += 1;
                pending.push(Pending {
                    request: request.clone(),
                    seed: s,
                    op: round,
                    latency_ms: Some(ms(dt)),
                    result,
                });
            }
            log.push((batch, verdict, pending));
        }
        let (out1, in1) = client.wire_bytes();
        run.wire_bytes += (out1 - out0) + (in1 - in0);
        for (batch, verdict, pending) in log {
            expect_ok("checker update", checker.apply_update(&batch));
            reference.apply(&batch);
            run.tally.record("update", 0.0, verdict);
            run.settle(pending, &checker, &reference, "net.rtt_overhead_us", spans);
        }
    }
    run.query_s = measured.as_secs_f64();
    let verdict = match client.stats() {
        Ok(stats) if stats.superseded == round => Verdict::Pass,
        Ok(stats) => Verdict::Fail(format!(
            "{} sessions superseded by {round} updates",
            stats.superseded
        )),
        Err(e) => Verdict::Fail(e.to_string()),
    };
    run.tally.record("superseded", 0.0, verdict);
    read_daemon_metrics(&mut run, &mut client, spans);
    server.shutdown();
    run.pair = Some(pair);
    run
}
