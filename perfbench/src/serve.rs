//! `serve_mixed`: open-loop TCP traffic against a server running on cold-loaded
//! index and model snapshots.
//!
//! Set-up pre-trains and briefly fine-tunes a model on the DBLP-Scholar x20 tables,
//! embeds table B into a sharded index the way a memory-limited deployment stores it
//! (4096-row shards, a zero resident budget so every shard stays on disk, i8
//! quantization), saves index and model snapshots, loads both back cold and starts a
//! server on them.
//!
//! One generator with two connections then sends requests on a fixed schedule: 70%
//! KNN (8 table-A embeddings, k=10; a quarter of the batches come from a small hot
//! set, so the query cache hits), 15% EMBED (16 texts) and 15% MATCH (16 pairs). The
//! client never retries. Latency is timed from each request's due time, so a stalled
//! reply also delays the requests queued behind it. The run holds the nominal rate,
//! climbs a ladder of higher rates until one misses the p99 limit, and ends with a
//! capacity phase that keeps both connections busy back to back.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sudowoodo_core::matcher::{FineTuneConfig, PairMatcher, TrainPair};
use sudowoodo_core::model_snapshot::{self, MatcherBackend, MODEL_SNAPSHOT_FILE};
use sudowoodo_core::SudowoodoConfig;
use sudowoodo_index::{BlockingIndex, QuantSpec};
use sudowoodo_serve::{ClientConfig, RetryPolicy, ServeClient, Server, ServerConfig, ServerStats};
use sudowoodo_text::serialize_record;

use crate::block::{self, SHARD_CAPACITY};
use crate::em::self_metric;
use crate::report::{median, peak_rss_mb, quantile, ratio, Report};
use crate::trace::{self, Tracer};
use crate::Ctx;

/// Neighbours per KNN query.
const K: usize = 10;
const KNN_BATCH: usize = 8;
const EMBED_BATCH: usize = 16;
const MATCH_BATCH: usize = 16;
/// Distinct batches in the hot set.
const HOT_BATCHES: usize = 4;
/// Generator connections; request `i` goes out on connection `i % CONNECTIONS`.
const CONNECTIONS: usize = 2;
/// Requests per second of the nominal phase, which takes `NOMINAL_SHARE` of the run.
const NOMINAL_RPS: f64 = 60.0;
const NOMINAL_SHARE: f64 = 0.45;
/// Rates (requests per second) tried after the nominal phase, each for
/// `STEP_SECONDS`. The climb stops at the first rate that is not sustained.
const LADDER: [f64; 7] = [80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0];
const STEP_SECONDS: f64 = 1.25;
/// The capacity phase takes `CAPACITY_SHARE` of the run, scheduling requests at
/// `SATURATING_RPS`, far above what the server answers.
const CAPACITY_SHARE: f64 = 0.25;
const SATURATING_RPS: f64 = 1000.0;
/// Nominal-rate traffic sent, untimed, before anything is measured.
const WARMUP_SECONDS: f64 = 1.0;
/// A rate is sustained when the p99 latency of all its requests stays within this.
const P99_LIMIT_MS: f64 = 50.0;
/// Labeled pairs the served matcher is fine-tuned on in set-up.
const FINETUNE_PAIRS: usize = 256;
/// Every `KEEP_EVERY`-th reply is kept and checked against in-process calls.
const KEEP_EVERY: u64 = 8;
/// KNN batches of the nominal phase replayed in process (join time and counters).
const REPLAY_JOINS: usize = 200;
/// Set-ups before the traffic; they are traced in a traced run.
const SETUPS: usize = 2;
/// Set-ups after the traffic, untraced. `setup_s` is the median of all of them: the
/// shared host's speed drifts over seconds, and set-ups 20 seconds apart see more of
/// that drift than set-ups in a row.
const SETUPS_AFTER: usize = 1;

/// What the server was started on, and what loading it cost.
struct Deployment {
    server: Server,
    model: Arc<MatcherBackend>,
    /// Table-A embeddings from the served model: the KNN queries.
    queries: Vec<Vec<f32>>,
    texts_a: Vec<String>,
    texts_b: Vec<String>,
    /// Labeled `(a, b)` pairs: the MATCH inputs.
    pairs: Vec<(usize, usize)>,
    /// Gold matches by table-A row.
    gold: BTreeMap<usize, Vec<usize>>,
    index_load_s: f64,
    model_load_s: f64,
    index_bytes: u64,
    model_bytes: u64,
}

fn file_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| keep(&e.file_name().to_string_lossy()))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn setup(seed: u64, tracer: &Tracer, dir: &Path) -> std::io::Result<Deployment> {
    let (dataset, encoder, _) = block::setup(seed, tracer);
    let serialize = |table: &[sudowoodo_text::Record]| -> Vec<String> {
        tracer.span("text.serialize", || {
            table.iter().map(serialize_record).collect()
        })
    };
    let texts_a = serialize(&dataset.table_a);
    let texts_b = serialize(&dataset.table_b);

    let config = SudowoodoConfig::default();
    let mut matcher = PairMatcher::new(encoder, config.use_diff_head, config.seed);
    let train: Vec<TrainPair> = dataset
        .train
        .iter()
        .take(FINETUNE_PAIRS)
        .map(|p| TrainPair::new(texts_a[p.a].clone(), texts_b[p.b].clone(), p.label))
        .collect();
    tracer.span("matcher.fine_tune", || {
        matcher.fine_tune(
            &train,
            &FineTuneConfig {
                epochs: 1,
                batch_size: config.finetune_batch_size,
                learning_rate: config.finetune_lr,
                seed: config.seed,
            },
        )
    });
    let emb_b = tracer.span("encoder.embed_all", || matcher.encoder.embed_all(&texts_b));
    let queries = tracer.span("encoder.embed_all", || matcher.encoder.embed_all(&texts_a));
    let built = tracer.span("index.build", || {
        BlockingIndex::build_with_options(
            emb_b,
            Some(SHARD_CAPACITY),
            Some(0),
            Some(QuantSpec::default()),
        )
    });
    let model_path = dir.join(MODEL_SNAPSHOT_FILE);
    tracer.span("snapshot.save_index", || built.save_snapshot(dir))?;
    tracer.span("snapshot.save_model", || {
        model_snapshot::save_matcher(&matcher, &model_path)
    })?;
    drop((built, matcher));

    let start = Instant::now();
    let mut index = tracer.span("snapshot.load_index", || BlockingIndex::load_snapshot(dir))?;
    let index_load_s = start.elapsed().as_secs_f64();
    prepare_served(&mut index);
    let start = Instant::now();
    let model = tracer.span("snapshot.load_model", || {
        model_snapshot::load_matcher(&model_path)
    })?;
    let model_load_s = start.elapsed().as_secs_f64();
    let model = Arc::new(MatcherBackend(model));
    let server = Server::spawn_with_model(
        Arc::new(index),
        Arc::clone(&model) as Arc<dyn sudowoodo_serve::ModelBackend>,
        "127.0.0.1:0",
        ServerConfig::default(),
    )?;
    let mut pairs: Vec<(usize, usize)> = dataset.all_pairs().iter().map(|p| (p.a, p.b)).collect();
    pairs.truncate(4096);
    Ok(Deployment {
        server,
        model,
        queries,
        texts_a,
        texts_b,
        pairs,
        gold: dataset
            .gold_matches
            .iter()
            .fold(BTreeMap::new(), |mut gold, &(a, b)| {
                gold.entry(a).or_insert_with(Vec::new).push(b);
                gold
            }),
        index_load_s,
        model_load_s,
        index_bytes: file_bytes(dir, |name| name != MODEL_SNAPSHOT_FILE),
        model_bytes: file_bytes(dir, |name| name == MODEL_SNAPSHOT_FILE),
    })
}

/// The memory-limited deployment's settings on a cold-loaded index: a zero resident
/// budget (shards stay on disk and fault in per query) and the default query cache.
fn prepare_served(index: &mut BlockingIndex) {
    if let BlockingIndex::Sharded(sharded) = index {
        sharded.set_memory_budget(Some(0));
    }
    index.set_query_cache_capacity(SudowoodoConfig::default().blocking_query_cache);
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Knn,
    Embed,
    Match,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Knn => "serve.knn",
            Kind::Embed => "serve.embed",
            Kind::Match => "serve.match",
        }
    }
}

/// One scheduled request with its payload built ahead of time.
enum Payload {
    Knn(Vec<Vec<f32>>),
    Embed(Vec<String>),
    Match(Vec<(String, String)>),
}

struct Planned {
    id: u64,
    due: Duration,
    /// Table-A rows of a KNN batch (for recall).
    rows: Vec<usize>,
    payload: Payload,
}

impl Planned {
    fn kind(&self) -> Kind {
        match self.payload {
            Payload::Knn(_) => Kind::Knn,
            Payload::Embed(_) => Kind::Embed,
            Payload::Match(_) => Kind::Match,
        }
    }
}

enum Reply {
    Knn(Vec<(usize, usize, f32)>),
    Embed(Vec<Vec<f32>>),
    Match(Vec<f32>),
}

/// What happened to one request.
struct Outcome {
    id: u64,
    kind: Kind,
    /// Why the request failed, if it did.
    error: Option<String>,
    /// When the reply arrived, from the start of the phase.
    done_ms: f64,
    latency_ms: f64,
    late_ms: f64,
    reply: Option<Reply>,
}

/// The request mix, dealt in shuffled decks so every 20 requests hold exactly 14 KNN
/// (70%), 3 EMBED (15%) and 3 MATCH (15%), and every 4 KNN batches one hot batch.
const MIX: [(Kind, usize); 3] = [(Kind::Knn, 14), (Kind::Embed, 3), (Kind::Match, 3)];
const HOT_EVERY: usize = 4;

/// Deals cards from a deck that is reshuffled whenever it runs out.
struct Dealer<T> {
    deck: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Dealer<T> {
    fn new(deck: Vec<T>) -> Self {
        Dealer {
            deck,
            left: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut StdRng) -> T {
        if self.left.is_empty() {
            self.left = self.deck.clone();
            self.left.shuffle(rng);
        }
        self.left.pop().expect("a non-empty deck")
    }
}

/// Traffic of one run: the hot set and the dealers, shared by all phases.
struct Traffic {
    rng: StdRng,
    hot: Vec<Vec<usize>>,
    kinds: Dealer<Kind>,
    hot_knn: Dealer<bool>,
    /// Id of the next planned request; ids are unique across phases.
    next_id: u64,
}

impl Traffic {
    fn new(seed: u64, queries: usize) -> Traffic {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E);
        let hot = (0..HOT_BATCHES)
            .map(|_| (0..KNN_BATCH).map(|_| rng.gen_range(0..queries)).collect())
            .collect();
        let kinds = MIX
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        let mut hot_knn = vec![false; HOT_EVERY];
        hot_knn[0] = true;
        Traffic {
            rng,
            hot,
            kinds: Dealer::new(kinds),
            hot_knn: Dealer::new(hot_knn),
            next_id: 0,
        }
    }

    /// Builds `rate * seconds` requests due at even intervals.
    fn plan(&mut self, d: &Deployment, rate: f64, seconds: f64) -> Vec<Planned> {
        let n = (rate * seconds).round().max(1.0) as u64;
        let first_id = self.next_id;
        self.next_id += n;
        let rng = &mut self.rng;
        (0..n)
            .map(|i| {
                let (rows, payload) = match self.kinds.deal(rng) {
                    Kind::Knn => {
                        let rows: Vec<usize> = if self.hot_knn.deal(rng) {
                            self.hot[rng.gen_range(0..self.hot.len())].clone()
                        } else {
                            (0..KNN_BATCH)
                                .map(|_| rng.gen_range(0..d.queries.len()))
                                .collect()
                        };
                        let batch = rows.iter().map(|&r| d.queries[r].clone()).collect();
                        (rows, Payload::Knn(batch))
                    }
                    Kind::Embed => {
                        let texts = (0..EMBED_BATCH)
                            .map(|_| {
                                let r = rng.gen_range(0..d.texts_a.len() + d.texts_b.len());
                                d.texts_a
                                    .get(r)
                                    .unwrap_or_else(|| &d.texts_b[r - d.texts_a.len()])
                                    .clone()
                            })
                            .collect();
                        (Vec::new(), Payload::Embed(texts))
                    }
                    Kind::Match => {
                        let pairs = (0..MATCH_BATCH)
                            .map(|_| {
                                let (a, b) = d.pairs[rng.gen_range(0..d.pairs.len())];
                                (d.texts_a[a].clone(), d.texts_b[b].clone())
                            })
                            .collect();
                        (Vec::new(), Payload::Match(pairs))
                    }
                };
                Planned {
                    id: first_id + i,
                    due: Duration::from_secs_f64(i as f64 / rate),
                    rows,
                    payload,
                }
            })
            .collect()
    }
}

/// Sends `planned` on its schedule over `CONNECTIONS` connections and records every
/// outcome. Every `KEEP_EVERY`-th reply, and every KNN reply, is kept.
/// With `stop` set, nothing more is sent once the phase has run that long.
fn send(
    addr: std::net::SocketAddr,
    planned: &[Planned],
    stop: Option<Duration>,
    tracer: &Tracer,
) -> Vec<Outcome> {
    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(10)),
        retry: RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
    };
    let start = Instant::now();
    let mut outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect_with_config(addr, config);
                    let mut out = Vec::new();
                    for p in planned
                        .iter()
                        .filter(|p| p.id % CONNECTIONS as u64 == c as u64)
                    {
                        if stop.is_some_and(|stop| start.elapsed() > stop) {
                            break;
                        }
                        if let Some(wait) = p.due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        let reply = match &mut client {
                            Ok(client) => tracer.request_span(p.kind().span(), p.id, || {
                                match &p.payload {
                                    Payload::Knn(q) => client.knn_join(q, K).map(Reply::Knn),
                                    Payload::Embed(t) => client.embed(t).map(Reply::Embed),
                                    Payload::Match(m) => client.match_pairs(m).map(Reply::Match),
                                }
                                .map_err(|e| e.to_string())
                            }),
                            Err(e) => Err(format!("connect: {e}")),
                        };
                        let done = start.elapsed();
                        let keep = p.kind() == Kind::Knn || p.id % KEEP_EVERY == 0;
                        out.push(Outcome {
                            id: p.id,
                            kind: p.kind(),
                            error: reply.as_ref().err().cloned(),
                            done_ms: done.as_secs_f64() * 1e3,
                            latency_ms: (done - p.due).as_secs_f64() * 1e3,
                            late_ms: (sent.saturating_sub(p.due)).as_secs_f64() * 1e3,
                            reply: reply.ok().filter(|_| keep),
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread"))
            .collect()
    });
    outcomes.sort_by_key(|o| o.id);
    outcomes
}

impl Outcome {
    fn ok(&self) -> bool {
        self.error.is_none()
    }
}

fn latencies(outcomes: &[Outcome], kind: Option<Kind>) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.ok() && kind.is_none_or(|k| o.kind == k))
        .map(|o| o.latency_ms)
        .collect()
}

/// `true` when the generator fell further behind over the phase: the sends of its
/// last third ran later than those of its first third by more than the p99 limit.
fn backlog_grows(outcomes: &[Outcome]) -> bool {
    let third = outcomes.len() / 3;
    if third == 0 {
        return false;
    }
    let late = |o: &[Outcome]| median(&o.iter().map(|o| o.late_ms).collect::<Vec<_>>());
    late(&outcomes[outcomes.len() - third..]) > late(&outcomes[..third]) + P99_LIMIT_MS
}

/// Counter increase between two `ServerStats` reads.
///
/// The served index runs joins on the server's threads while this process reads.
/// `routing_report()` zeroes its per-join scan counters on entry to every join
/// (`crates/index/src/sharded.rs`, `RoutingCounters::reset_scan`), so reading it here
/// would race with the server and mix joins. `ServerStats` counters only go up, so
/// their differences are exact. Scan counters come from an in-process replay instead.
struct StatsDelta {
    knn_joins: u64,
    batched_joins: u64,
    cache_hits: u64,
    busy_rejections: u64,
}

fn delta(before: &ServerStats, after: &ServerStats) -> StatsDelta {
    StatsDelta {
        knn_joins: (after.cache_hits + after.cache_misses)
            - (before.cache_hits + before.cache_misses),
        batched_joins: after.batched_joins - before.batched_joins,
        cache_hits: after.cache_hits - before.cache_hits,
        busy_rejections: after.busy_rejections - before.busy_rejections,
    }
}

/// Checks the kept replies against in-process calls on the served (cold-loaded)
/// index and model: ids and score bits for KNN, every float bit for EMBED and MATCH.
/// Returns the seconds each in-process MATCH batch took.
fn check_replies(
    report: &mut Report,
    d: &Deployment,
    planned: &[Planned],
    outcomes: &[Outcome],
    tracer: &Tracer,
) -> Vec<f64> {
    let index = d.server.index();
    let mut predict = Vec::new();
    for (p, o) in planned.iter().zip(outcomes) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (&p.payload, &o.reply) {
            (Payload::Knn(q), Some(Reply::Knn(pairs))) if o.id % KEEP_EVERY == 0 => {
                let expected = index.knn_join(q, K);
                let same = expected.len() == pairs.len()
                    && expected
                        .iter()
                        .zip(pairs)
                        .all(|(e, g)| e.0 == g.0 && e.1 == g.1 && e.2.to_bits() == g.2.to_bits());
                report.check(same, || {
                    format!("served KNN reply {} differs from in-process knn_join", o.id)
                });
            }
            (Payload::Embed(texts), Some(Reply::Embed(vectors))) => {
                let expected =
                    tracer.span("encoder.embed_all", || d.model.0.encoder.embed_all(texts));
                let same = expected.len() == vectors.len()
                    && expected
                        .iter()
                        .zip(vectors)
                        .all(|(e, g)| bits(e) == bits(g));
                report.check(same, || {
                    format!(
                        "served EMBED reply {} differs from in-process embed_all",
                        o.id
                    )
                });
            }
            (Payload::Match(pairs), Some(Reply::Match(scores))) => {
                let start = Instant::now();
                let expected =
                    tracer.span("matcher.predict_scores", || d.model.0.predict_scores(pairs));
                predict.push(start.elapsed().as_secs_f64());
                report.check(bits(&expected) == bits(scores), || {
                    format!(
                        "served MATCH reply {} differs from in-process predict_scores",
                        o.id
                    )
                });
            }
            _ => {}
        }
    }
    predict
}

/// Served KNN recall: the share of gold matches of the queried table-A rows that
/// appear among the k neighbours returned for them.
fn served_recall(d: &Deployment, planned: &[Planned], outcomes: &[Outcome]) -> f64 {
    let (mut found, mut wanted) = (0usize, 0usize);
    for (p, o) in planned.iter().zip(outcomes) {
        let Some(Reply::Knn(pairs)) = &o.reply else {
            continue;
        };
        let returned: HashSet<(usize, usize)> =
            pairs.iter().map(|&(q, b, _)| (p.rows[q], b)).collect();
        for &a in &p.rows {
            for &b in d.gold.get(&a).into_iter().flatten() {
                wanted += 1;
                found += returned.contains(&(a, b)) as usize;
            }
        }
    }
    ratio(found as f64, wanted as f64)
}

/// One phase at one rate: the outcomes plus the server-counter increase.
struct Phase {
    rate: f64,
    planned: Vec<Planned>,
    outcomes: Vec<Outcome>,
    stats: StatsDelta,
}

impl Phase {
    fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok()).count()
    }

    fn p99_all(&self) -> f64 {
        quantile(&latencies(&self.outcomes, None), 0.99)
    }

    fn sustained(&self) -> bool {
        self.failed() == 0 && self.p99_all() <= P99_LIMIT_MS && !backlog_grows(&self.outcomes)
    }
}

/// Sends `rate * seconds` requests due at even intervals. A saturating phase stops
/// sending after `seconds`, whatever is still queued: it measures capacity.
fn run_phase(
    d: &Deployment,
    traffic: &mut Traffic,
    rate: f64,
    seconds: f64,
    saturate: bool,
    tracer: &Tracer,
) -> Phase {
    let mut planned = traffic.plan(d, rate, seconds);
    let before = d.server.stats();
    let stop = saturate.then(|| Duration::from_secs_f64(seconds));
    let outcomes = send(d.server.addr(), &planned, stop, tracer);
    let sent: HashSet<u64> = outcomes.iter().map(|o| o.id).collect();
    planned.retain(|p| sent.contains(&p.id));
    let stats = delta(&before, &d.server.stats());
    Phase {
        rate,
        planned,
        outcomes,
        stats,
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut setups = Vec::new();
    let mut deployment = None;
    for i in 0..SETUPS {
        let dir = ctx.scratch.join(format!("snapshot-{i}"));
        let start = Instant::now();
        match setup(ctx.seed, &ctx.tracer, &dir) {
            Ok(d) => {
                setups.push(start.elapsed().as_secs_f64());
                if let Some(previous) = deployment.replace((d, dir)) {
                    previous.0.server.shutdown();
                }
            }
            Err(e) => report.check(false, || format!("set-up failed: {e}")),
        }
    }
    let Some((d, dir)) = deployment else { return };
    let setup_spans = ctx.tracer.spans_since(0);

    let mut traffic = Traffic::new(ctx.seed, d.queries.len());
    let untraced = Tracer::new(false);
    let nominal_s = ctx.seconds * NOMINAL_SHARE;
    let warmup = run_phase(
        &d,
        &mut traffic,
        NOMINAL_RPS,
        WARMUP_SECONDS,
        false,
        &untraced,
    );

    // Traced runs first hold the nominal rate untraced, as the overhead baseline.
    let baseline = ctx
        .traced()
        .then(|| run_phase(&d, &mut traffic, NOMINAL_RPS, nominal_s, false, &untraced));
    let mark = ctx.tracer.mark();
    let nominal = run_phase(&d, &mut traffic, NOMINAL_RPS, nominal_s, false, &ctx.tracer);
    let mut max_rps = if nominal.sustained() {
        NOMINAL_RPS
    } else {
        0.0
    };
    let mut ladder = Vec::new();
    if max_rps > 0.0 {
        for rate in LADDER {
            let phase = run_phase(&d, &mut traffic, rate, STEP_SECONDS, false, &ctx.tracer);
            let sustained = phase.sustained();
            if sustained {
                max_rps = phase.rate;
            }
            ladder.push(phase);
            if !sustained {
                break;
            }
        }
    }
    // Capacity: requests due far faster than they can be answered keep both
    // connections busy back to back; completions per second is what the server does.
    let saturated = run_phase(
        &d,
        &mut traffic,
        SATURATING_RPS,
        ctx.seconds * CAPACITY_SHARE,
        true,
        &ctx.tracer,
    );
    // Answers per second in each whole second of the phase; their median shrugs off a
    // stall of the shared host that lasts a second or less.
    let mut per_second = vec![0.0; (ctx.seconds * CAPACITY_SHARE) as usize];
    for o in saturated.outcomes.iter().filter(|o| o.ok()) {
        if let Some(count) = per_second.get_mut((o.done_ms / 1e3) as usize) {
            *count += 1.0;
        }
    }
    let capacity = median(&per_second);
    let traffic_spans = ctx.tracer.spans_since(mark);

    // Output checks and the in-process replay run after the timed traffic.
    let predict = check_replies(report, &d, &nominal.planned, &nominal.outcomes, &ctx.tracer);
    for phase in [&warmup]
        .into_iter()
        .chain(&baseline)
        .chain([&nominal])
        .chain(&ladder)
        .chain([&saturated])
    {
        for o in &phase.outcomes {
            report.check(o.ok(), || {
                let error = o.error.as_deref().unwrap_or_default();
                format!(
                    "{:?} request {} failed at {} rps: {error}",
                    o.kind, o.id, phase.rate
                )
            });
        }
    }
    let recall = served_recall(&d, &nominal.planned, &nominal.outcomes);
    report.check(recall > 0.0, || "served KNN recall is 0".into());

    let knn = latencies(&nominal.outcomes, Some(Kind::Knn));
    let (knn_p50, knn_p99) = (median(&knn), quantile(&knn, 0.99));
    // The tail reported end to end is the highest percentile, up to p99, with at
    // least ten samples beyond it.
    let knn_p90 = quantile(&knn, 0.90);
    let embed_p50 = median(&latencies(&nominal.outcomes, Some(Kind::Embed)));
    let match_p50 = median(&latencies(&nominal.outcomes, Some(Kind::Match)));
    let timed: Vec<&Phase> = std::iter::once(&nominal)
        .chain(&ladder)
        .chain([&saturated])
        .collect();
    let attempted: usize = timed.iter().map(|p| p.outcomes.len()).sum();
    let failed: usize = timed.iter().map(|p| p.failed()).sum();
    let failed_frac = ratio(failed as f64, attempted as f64);
    // The later set-ups run after the traffic's peak memory is read; each one's
    // server is stopped before the next starts.
    let peak_rss = peak_rss_mb();
    for i in SETUPS..SETUPS + SETUPS_AFTER {
        let dir = ctx.scratch.join(format!("snapshot-{i}"));
        let start = Instant::now();
        match setup(ctx.seed, &untraced, &dir) {
            Ok(later) => {
                setups.push(start.elapsed().as_secs_f64());
                later.server.shutdown();
            }
            Err(e) => report.check(false, || format!("set-up failed: {e}")),
        }
    }
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_rss);
    report.set("p50_ms", knn_p50);
    report.set("rate_per_s", capacity);
    report.set("quality", recall);
    report.line(format!(
        "serve_mixed: {} KNN batches of {KNN_BATCH} over {} table-B rows (shards of \
         {SHARD_CAPACITY}, budget 0, i8), {CONNECTIONS} connections, nominal {NOMINAL_RPS} rps \
         for {nominal_s} s",
        knn.len(),
        d.texts_b.len()
    ));
    report.line(format!("serve_knn_p50_ms = {knn_p50:.3} ms"));
    report.line(format!(
        "serve_knn_p99_ms = {knn_p99:.3} ms ({} KNN samples; p90 {knn_p90:.3} ms; all \
         requests p99 {:.3} ms)",
        knn.len(),
        nominal.p99_all()
    ));
    report.line(format!("serve_embed_p50_ms = {embed_p50:.3} ms"));
    report.line(format!("serve_match_p50_ms = {match_p50:.3} ms"));
    report.line(format!(
        "serve_max_rps = {max_rps} (p99 limit {P99_LIMIT_MS} ms; ladder {})",
        ladder
            .iter()
            .map(|p| format!(
                "{} rps: p99 {:.1} ms, {} failed{}",
                p.rate,
                p.p99_all(),
                p.failed(),
                if backlog_grows(&p.outcomes) {
                    ", backlog grows"
                } else {
                    ""
                }
            ))
            .collect::<Vec<_>>()
            .join("; ")
    ));
    report.line(format!(
        "serve capacity = {capacity:.1} requests/s ({} answered back to back on {CONNECTIONS} \
         connections)",
        saturated.outcomes.len()
    ));
    report.line(format!(
        "serve_failed_frac = {failed_frac} ({failed} of {attempted})"
    ));
    report.line(format!("served KNN recall@{K} = {recall:.4}"));
    report.line(format!(
        "setup_s = {:.4} s (median of {SETUPS} before and {SETUPS_AFTER} after the traffic: \
         {setups:.3?})",
        median(&setups)
    ));
    report.line(format!("peak_rss_mb = {peak_rss:.1} MB"));

    if ctx.traced() {
        layer_metrics(
            report,
            &d,
            &dir,
            &nominal,
            &setup_spans,
            &traffic_spans,
            &predict,
        );
        report.set("serve.knn_p99_ms", knn_p99);
        report.set("serve.embed_p50_ms", embed_p50);
        report.set("serve.match_p50_ms", match_p50);
        report.set("serve.max_rps", max_rps);
        report.set("serve.failed_frac", failed_frac);
        let base = median(&latencies(
            &baseline.expect("traced runs hold a baseline").outcomes,
            Some(Kind::Knn),
        ));
        let overhead_s = (knn_p50 - base) * 1e-3;
        report.set("trace.overhead_s", overhead_s);
        report.set("trace.overhead_frac", ratio(knn_p50 - base, base));
        report.set("trace.spans", ctx.tracer.mark() as f64);
        report.line(format!(
            "tracing overhead: served KNN p50 traced {knn_p50:.3} ms - untraced {base:.3} ms"
        ));
        report.absent("pseudo.", "serving does no pseudo labeling");
        report.absent("stage.", "the stage split belongs to em_pipeline");
        report.absent("trace.f1_delta", "serving computes no F1");
    }
    d.server.shutdown();
}

fn layer_metrics(
    report: &mut Report,
    d: &Deployment,
    dir: &Path,
    nominal: &Phase,
    setup_spans: &[trace::Span],
    traffic_spans: &[trace::Span],
    predict: &[f64],
) {
    let per_setup = |name: &str| trace::total(setup_spans, name) / SETUPS as f64;
    let records = (d.texts_a.len() + d.texts_b.len()) as f64;
    let pretrain_s = median(&trace::durations(setup_spans, "pretrain.pretrain"));
    report.set("pretrain.s", pretrain_s);
    report.set(
        "pretrain.records_per_s",
        ratio(
            (block::PRETRAIN_CORPUS * block::pretrain_config().pretrain_epochs) as f64,
            pretrain_s,
        ),
    );
    report.set("text.serialize_s", per_setup("text.serialize"));
    let embed_s = per_setup("encoder.embed_all");
    report.set("encoder.embed_s", embed_s);
    report.set("encoder.embed_records_per_s", ratio(records, embed_s));
    let finetune_s = per_setup("matcher.fine_tune");
    report.set("matcher.finetune_s", finetune_s);
    report.set(
        "matcher.finetune_pairs_per_s",
        ratio(FINETUNE_PAIRS as f64, finetune_s),
    );
    let predict_s = median(predict);
    report.set("matcher.predict_s", predict_s);
    report.set(
        "matcher.predict_pairs_per_s",
        ratio(MATCH_BATCH as f64, predict_s),
    );
    report.set("index.build_s", per_setup("index.build"));
    report.set("snapshot.index_load_s", d.index_load_s);
    report.set("snapshot.model_load_s", d.model_load_s);
    report.set("snapshot.index_bytes", d.index_bytes as f64);
    report.set("snapshot.model_bytes", d.model_bytes as f64);

    // In-process replay of the nominal phase's KNN batches on a second cold load of
    // the same snapshot: one join at a time on this thread, so `routing_report()`
    // read right after each join describes that join alone.
    let mut replay = BlockingIndex::load_snapshot(dir).expect("snapshot loads again");
    prepare_served(&mut replay);
    let BlockingIndex::Sharded(sharded) = &replay else {
        report.check(false, || "the served snapshot is not sharded".into());
        return;
    };
    let mut joins = Vec::new();
    let mut totals = [0u64; 5];
    for p in nominal
        .planned
        .iter()
        .filter(|p| p.kind() == Kind::Knn)
        .take(REPLAY_JOINS)
    {
        let Payload::Knn(queries) = &p.payload else {
            continue;
        };
        let start = Instant::now();
        std::hint::black_box(replay.knn_join_report(queries, K));
        joins.push(start.elapsed().as_secs_f64());
        let r = sharded.routing_report();
        for (t, v) in totals.iter_mut().zip([
            r.shards_visited,
            r.shards_pruned,
            r.spill_faults,
            r.quant_scans,
            r.rescored_rows,
        ]) {
            *t += v;
        }
    }
    let join_s = median(&joins);
    let scored = (KNN_BATCH * d.texts_b.len()) as f64;
    report.set("index.join_s", join_s);
    report.set("index.join_pairs_per_s", ratio(scored, join_s));
    report.set(
        "index.join_gflops",
        ratio(2.0 * scored * d.queries[0].len() as f64, join_s) * 1e-9,
    );
    for (name, v) in [
        "index.shards_visited",
        "index.shards_pruned",
        "index.spill_faults",
        "index.quant_scans",
        "index.rescored_rows",
    ]
    .into_iter()
    .zip(totals)
    {
        report.set(name, v as f64);
    }
    report.set(
        "index.prune_ratio",
        ratio(totals[1] as f64, (totals[0] + totals[1]) as f64),
    );

    let count = |kind: Kind, ok: Option<bool>| {
        nominal
            .outcomes
            .iter()
            .filter(|o| o.kind == kind && ok.is_none_or(|ok| o.ok() == ok))
            .count() as f64
    };
    for (kind, names) in [
        (
            Kind::Knn,
            ["serve.knn.sent", "serve.knn.ok", "serve.knn.failed"],
        ),
        (
            Kind::Embed,
            ["serve.embed.sent", "serve.embed.ok", "serve.embed.failed"],
        ),
        (
            Kind::Match,
            ["serve.match.sent", "serve.match.ok", "serve.match.failed"],
        ),
    ] {
        report.set(names[0], count(kind, None));
        report.set(names[1], count(kind, Some(true)));
        report.set(names[2], count(kind, Some(false)));
    }
    let s = &nominal.stats;
    report.set("serve.busy_rejections", s.busy_rejections as f64);
    report.set("serve.knn_joins", s.knn_joins as f64);
    report.set(
        "serve.coalesce_ratio",
        ratio(s.batched_joins as f64, s.knn_joins as f64),
    );
    report.set(
        "serve.cache_hit_ratio",
        ratio(s.cache_hits as f64, s.knn_joins as f64),
    );
    report.set(
        "serve.gen_late_p99_ms",
        quantile(
            &nominal
                .outcomes
                .iter()
                .map(|o| o.late_ms)
                .collect::<Vec<_>>(),
            0.99,
        ),
    );
    let served_p50 = median(&latencies(&nominal.outcomes, Some(Kind::Knn)));
    report.set("serve.knn_overhead_ms", served_p50 - join_s * 1e3);
    report.line(format!(
        "ServerStats deltas at nominal: {} KNN joins, {} coalesced, {} cache hits, {} busy; \
         replay of {} joins: {} shard visits, {} pruned, {} spill faults, {} quantized scans, \
         {} rescored rows",
        s.knn_joins,
        s.batched_joins,
        s.cache_hits,
        s.busy_rejections,
        joins.len(),
        totals[0],
        totals[1],
        totals[2],
        totals[3],
        totals[4]
    ));

    // Self time per layer: one set-up's share plus the timed traffic.
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (spans, runs) in [(setup_spans, SETUPS), (traffic_spans, 1)] {
        for (layer, (_, own)) in trace::layer_times(spans) {
            if let Some(name) = self_metric(layer) {
                *layers.entry(name).or_default() += own / runs as f64;
            }
        }
    }
    for (name, own) in layers {
        report.set(name, own);
    }
}
