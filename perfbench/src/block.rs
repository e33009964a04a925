//! `block_join`: paper-style blocking of two large tables.
//!
//! One operation serializes and embeds both tables of a DBLP-Scholar-shaped dataset
//! (about 10k x 32k records), builds the blocking index over table B, joins every
//! table-A record to its k nearest table-B records, and pseudo-labels the candidates.
//! A short pre-training run in set-up provides the encoder; nothing trains while the
//! run is timed.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sudowoodo_core::config::SudowoodoConfig;
use sudowoodo_core::encoder::Encoder;
use sudowoodo_core::pretrain::pretrain;
use sudowoodo_core::pseudo::generate_pseudo_labels;
use sudowoodo_datasets::em::{EmDataset, EmProfile};
use sudowoodo_index::{evaluate_blocking, BlockingIndex, CosineIndex, RoutingReport};
use sudowoodo_text::serialize_record;

use crate::em::self_metric;
use crate::report::{median, peak_rss_mb, ratio, Report};
use crate::trace::{self, Tracer};
use crate::Ctx;

/// Dataset scale: DBLP-Scholar x20 is 10k x 32k records.
const SCALE: f32 = 20.0;
/// Neighbours per query.
const K: usize = 10;
/// Rows per index shard.
pub const SHARD_CAPACITY: usize = 4096;
/// Records the set-up pre-training samples from the corpus.
pub const PRETRAIN_CORPUS: usize = 1000;
/// Set-ups before the timed joins; they are traced in a traced run.
const SETUPS: usize = 3;
/// Set-ups after the timed joins, untraced. `setup_s` is the median of all of them:
/// the shared host's speed drifts over seconds, and set-ups 20 seconds apart see more
/// of that drift than set-ups in a row.
const SETUPS_AFTER: usize = 2;
/// Queries whose join answer is checked against a dense `CosineIndex`.
const CHECK_QUERIES: usize = 256;
/// Pseudo labels requested per operation (the em_pipeline target for 500 labels).
const PSEUDO_TARGET: usize = 3500;

/// The short pre-training both large-table workloads run in set-up. The training
/// seed is the default one: `--seed` varies the inputs, not the program.
pub fn pretrain_config() -> SudowoodoConfig {
    SudowoodoConfig {
        pretrain_epochs: 1,
        max_corpus_size: PRETRAIN_CORPUS,
        ..SudowoodoConfig::default()
    }
}

/// Generates the DBLP-Scholar x20 tables and pre-trains an encoder on them.
pub fn setup(seed: u64, tracer: &Tracer) -> (EmDataset, Encoder, f64) {
    let dataset = EmProfile::dblp_scholar().generate(SCALE, seed);
    let config = pretrain_config();
    let start = Instant::now();
    let (encoder, report) =
        tracer.span("pretrain.pretrain", || pretrain(&dataset.corpus(), &config));
    let records_per_s = ratio(
        (report.corpus_size * config.pretrain_epochs) as f64,
        start.elapsed().as_secs_f64(),
    );
    (dataset, encoder, records_per_s)
}

/// What one blocking operation produced.
struct Blocked {
    wall: f64,
    pairs: Vec<(usize, usize, f32)>,
    degraded: bool,
    routing: Option<RoutingReport>,
    recall: f32,
    pseudo_labels: usize,
    pseudo_quality: (f32, f32),
    /// Table-B embeddings, kept only when asked for (to check the join).
    corpus: Option<Vec<Vec<f32>>>,
    queries: Vec<Vec<f32>>,
}

fn block(tracer: &Tracer, dataset: &EmDataset, encoder: &Encoder, keep: bool) -> Blocked {
    let start = Instant::now();
    let texts_a: Vec<String> = tracer.span("text.serialize", || {
        dataset.table_a.iter().map(serialize_record).collect()
    });
    let texts_b: Vec<String> = tracer.span("text.serialize", || {
        dataset.table_b.iter().map(serialize_record).collect()
    });
    let emb_a = tracer.span("encoder.embed_all", || encoder.embed_all(&texts_a));
    let emb_b = tracer.span("encoder.embed_all", || encoder.embed_all(&texts_b));
    let mut wall = start.elapsed().as_secs_f64();
    let corpus = keep.then(|| emb_b.clone());

    let start = Instant::now();
    let defaults = SudowoodoConfig::default();
    let index = tracer.span("index.build", || {
        let mut index = BlockingIndex::build_with_options(
            emb_b,
            Some(SHARD_CAPACITY),
            defaults.shard_memory_budget,
            defaults.shard_quantization,
        );
        index.set_query_cache_capacity(defaults.blocking_query_cache);
        index
    });
    let outcome = tracer.span("index.join", || index.knn_join_report(&emb_a, K));
    // This join is the only one on this index and runs on this thread, so the
    // per-join scan counters that `routing_report()` zeroes on entry to every join
    // describe exactly this join. (The served index runs joins concurrently; there
    // the counters would mix joins, so serve_mixed never reads them.)
    let routing = match &index {
        BlockingIndex::Sharded(sharded) => Some(sharded.routing_report()),
        BlockingIndex::Dense(_) => None,
    };
    let pairs: Vec<(usize, usize)> = outcome.pairs.iter().map(|&(a, b, _)| (a, b)).collect();
    let quality = evaluate_blocking(
        &pairs,
        &dataset.gold_matches,
        dataset.table_a.len(),
        dataset.table_b.len(),
    );
    let pseudo = tracer.span("pseudo.generate", || {
        generate_pseudo_labels(
            &outcome.pairs,
            defaults.pseudo_positive_ratio,
            PSEUDO_TARGET,
        )
    });
    wall += start.elapsed().as_secs_f64();
    let gold: HashSet<(usize, usize)> = dataset.gold_matches.iter().copied().collect();
    Blocked {
        wall,
        pairs: outcome.pairs,
        degraded: outcome.degraded,
        routing,
        recall: quality.recall,
        pseudo_labels: pseudo.labels.len(),
        pseudo_quality: pseudo.quality(|a, b| gold.contains(&(a, b))),
        corpus,
        queries: emb_a,
    }
}

/// Checks the join answer of a seeded sample of queries against a dense
/// `CosineIndex` over the same vectors: same ids, same score bits.
fn check_against_dense(report: &mut Report, seed: u64, blocked: &Blocked) {
    let corpus = blocked.corpus.clone().expect("corpus kept for the check");
    let dense = CosineIndex::build(corpus);
    let mut sample: Vec<usize> = (0..blocked.queries.len()).collect();
    sample.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xB10C));
    sample.truncate(CHECK_QUERIES);
    let queries: Vec<Vec<f32>> = sample.iter().map(|&q| blocked.queries[q].clone()).collect();
    let expected = dense.knn_join(&queries, K);
    let mut by_query: BTreeMap<usize, Vec<(usize, u32)>> = BTreeMap::new();
    for &(q, b, s) in &blocked.pairs {
        by_query.entry(q).or_default().push((b, s.to_bits()));
    }
    for (i, &q) in sample.iter().enumerate() {
        let want: Vec<(usize, u32)> = expected
            .iter()
            .filter(|p| p.0 == i)
            .map(|&(_, b, s)| (b, s.to_bits()))
            .collect();
        let got = by_query.get(&q).cloned().unwrap_or_default();
        report.check(got == want, || {
            format!("knn_join answer for query {q} differs from the dense CosineIndex")
        });
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut setups = Vec::new();
    let mut pretrain_rates = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (dataset, encoder, rate) = setup(ctx.seed, &ctx.tracer);
        setups.push(start.elapsed().as_secs_f64());
        pretrain_rates.push(rate);
        state = Some((dataset, encoder));
    }
    let (dataset, encoder) = state.expect("at least one set-up");
    let setup_spans = ctx.tracer.spans_since(0);
    let records = (dataset.table_a.len() + dataset.table_b.len()) as f64;
    let untraced = Tracer::new(false);

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first: Option<Vec<(usize, usize, f32)>> = None;
    let mut recall = 0.0f32;
    let mut last: Option<Blocked> = None;
    loop {
        let blocked = block(&untraced, &dataset, &encoder, first.is_none());
        report.check(!blocked.degraded, || "the join came back degraded".into());
        report.check(blocked.recall > 0.0, || "blocking recall is 0".into());
        match &first {
            None => {
                check_against_dense(report, ctx.seed, &blocked);
                recall = blocked.recall;
                first = Some(blocked.pairs.clone());
            }
            Some(pairs) => report.check(*pairs == blocked.pairs, || {
                "two joins of the same tables gave different answers".into()
            }),
        }
        walls.push(blocked.wall);
        let mut per_op = blocked.wall;
        if ctx.traced() {
            let start = Instant::now();
            let traced = block(&ctx.tracer, &dataset, &encoder, false);
            let traced_wall = start.elapsed().as_secs_f64();
            report.check(Some(&traced.pairs) == first.as_ref(), || {
                "the traced join differs from the untraced one".into()
            });
            traced_walls.push(traced.wall);
            per_op += traced_wall;
            last = Some(traced);
        }
        if started.elapsed().as_secs_f64() + per_op > ctx.seconds {
            break;
        }
    }

    // The later set-ups run after the timed joins' peak memory is read.
    let peak_rss = peak_rss_mb();
    for _ in 0..SETUPS_AFTER {
        let start = Instant::now();
        std::hint::black_box(setup(ctx.seed, &untraced));
        setups.push(start.elapsed().as_secs_f64());
    }

    let wall = median(&walls);
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_rss);
    report.set("p50_ms", wall * 1e3);
    report.set("rate_per_s", records / wall);
    report.set("quality", f64::from(recall));
    report.line(format!(
        "block_join: DBLP-Scholar x{SCALE} ({} x {} records), k={K}, shard capacity \
         {SHARD_CAPACITY}, {} joins",
        dataset.table_a.len(),
        dataset.table_b.len(),
        walls.len()
    ));
    report.line(format!(
        "block_wall_s = {wall:.4} s (median; joins {walls:.3?})"
    ));
    report.line(format!("block_recall = {recall:.4}"));
    report.line(format!(
        "setup_s = {:.4} s (median of {SETUPS} before and {SETUPS_AFTER} after the joins: \
         {setups:.3?})",
        median(&setups)
    ));
    report.line(format!("peak_rss_mb = {peak_rss:.1} MB"));

    if ctx.traced() {
        let blocked = last.expect("at least one traced join");
        let spans = ctx.tracer.spans_since(0);
        let per_join = |name: &str| trace::total(&spans, name) / traced_walls.len() as f64;
        let (queries, corpus) = (dataset.table_a.len(), dataset.table_b.len());
        let pretrain_s = median(&trace::durations(&setup_spans, "pretrain.pretrain"));
        report.set("pretrain.s", pretrain_s);
        report.set("pretrain.records_per_s", median(&pretrain_rates));
        report.set("text.serialize_s", per_join("text.serialize"));
        let embed_s = per_join("encoder.embed_all");
        report.set("encoder.embed_s", embed_s);
        report.set("encoder.embed_records_per_s", ratio(records, embed_s));
        report.set("index.build_s", per_join("index.build"));
        let join_s = median(&trace::durations(&spans, "index.join"));
        let scored = (queries * corpus) as f64;
        report.set("index.join_s", join_s);
        report.set("index.join_pairs_per_s", ratio(scored, join_s));
        report.set(
            "index.join_gflops",
            ratio(2.0 * scored * encoder.dim() as f64, join_s) * 1e-9,
        );
        let routing = blocked.routing.expect("the sharded layout reports routing");
        report.set("index.shards_visited", routing.shards_visited as f64);
        report.set("index.shards_pruned", routing.shards_pruned as f64);
        report.set(
            "index.prune_ratio",
            ratio(
                routing.shards_pruned as f64,
                (routing.shards_visited + routing.shards_pruned) as f64,
            ),
        );
        report.set("index.spill_faults", routing.spill_faults as f64);
        report.set("index.quant_scans", routing.quant_scans as f64);
        report.set("index.rescored_rows", routing.rescored_rows as f64);
        report.set(
            "pseudo.s",
            median(&trace::durations(&spans, "pseudo.generate")),
        );
        report.set("pseudo.labels", blocked.pseudo_labels as f64);
        report.set("pseudo.tpr", f64::from(blocked.pseudo_quality.0));
        report.set("pseudo.tnr", f64::from(blocked.pseudo_quality.1));
        // Self time per layer and per join (set-up pre-training counted once).
        for (layer, (_, own)) in trace::layer_times(&spans) {
            if let Some(name) = self_metric(layer) {
                let calls = if layer == "pretrain" {
                    SETUPS
                } else {
                    traced_walls.len()
                };
                report.set(name, own / calls as f64);
            }
        }
        let overhead = median(&traced_walls) - wall;
        report.set("trace.overhead_s", overhead);
        report.set("trace.overhead_frac", overhead / wall);
        report.set("trace.spans", spans.len() as f64);
        report.line(format!(
            "routing: {} shard visits, {} pruned; tracing overhead {overhead:.4}s per join",
            routing.shards_visited, routing.shards_pruned
        ));
        report.absent(
            "matcher.",
            "nothing is fine-tuned or matched in this workload",
        );
        report.absent("snapshot.", "the index is built in memory, never persisted");
        report.absent("serve.", "no serving in this workload");
        report.absent("stage.", "the stage split belongs to em_pipeline");
        report.absent("trace.f1_delta", "nothing is fine-tuned, so there is no F1");
    }
}
