//! `em_pipeline`: one `EmPipeline::run` per operation on a DBLP-Scholar-shaped dataset,
//! with the paper's semi-supervised label budget.
//!
//! The traced run replays the same pipeline from its public stage functions, in the
//! order `EmPipeline::run` calls them, with a span around every layer call. Its F1
//! must match the untraced run's within `F1_TOLERANCE`.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use sudowoodo_core::config::SudowoodoConfig;
use sudowoodo_core::matcher::{FineTuneConfig, PairMatcher, TrainPair};
use sudowoodo_core::pipeline::em::evaluate_matcher;
use sudowoodo_core::pipeline::EmPipeline;
use sudowoodo_core::pseudo::{generate_pseudo_labels, ScoredPair};
use sudowoodo_datasets::em::{EmDataset, EmProfile};
use sudowoodo_index::{evaluate_blocking, BlockingIndex};
use sudowoodo_ml::metrics::best_f1_threshold;
use sudowoodo_text::serialize_record;

use crate::report::{median, peak_rss_mb, ratio, Report};
use crate::trace::{self, Tracer};
use crate::Ctx;

/// Manually labeled pairs: the paper's semi-supervised setting.
const LABEL_BUDGET: usize = 500;
/// Dataset scale: 1000 x 3200 records, 4800 labeled pairs.
const SCALE: f32 = 2.0;
/// Seconds of back-to-back set-ups before the timed runs, and again after them;
/// `setup_s` is the median of all of them. One set-up takes about 20 ms, while the
/// shared host's speed moves between levels up to half apart that each last a second
/// or more. A handful of set-ups in a row would read whichever level the host was at,
/// so the median of a run could land on either; two windows half a minute apart read
/// the mix.
const SETUP_WINDOW_S: f64 = 3.0;
/// Largest accepted difference between the traced replay's F1 and em_f1.
///
/// It should be 0: the replay makes the same calls on the same inputs. But training
/// is not reproducible today. `AdamW` collects gradients into a `HashMap`
/// (`crates/nn/src/optim.rs`), so the global gradient norm used for clipping is
/// summed in a different order on every step call, and two runs drift apart by
/// up to about 0.03 F1. `trace.f1_delta` reports the measured difference; set this to 0
/// once the optimizer is deterministic.
const F1_TOLERANCE: f64 = 0.08;
/// Largest share of the traced replay's wall time its stage spans may leave uncovered.
const STAGE_COVERAGE: f64 = 0.02;
/// The pipeline stages of the traced run, in order: (span, metric).
const STAGES: [(&str, &str); 5] = [
    ("stage.pretrain", "stage.pretrain_s"),
    ("stage.embed", "stage.embed_s"),
    ("stage.block", "stage.block_s"),
    ("stage.finetune", "stage.finetune_s"),
    ("stage.match", "stage.match_s"),
];

/// `SudowoodoConfig::default()` with the epochs cut so one run takes about half a
/// minute on a 2-core host, not the two minutes of the paper defaults. Fine-tuning
/// keeps two epochs: with one, the test F1 spread between seeds was wider (an
/// interquartile range of 17% of the median over ten seeds, against 14%). The
/// training seed is the default one: `--seed` varies the inputs, not the program.
pub fn config() -> SudowoodoConfig {
    SudowoodoConfig {
        pretrain_epochs: 1,
        finetune_epochs: 2,
        ..SudowoodoConfig::default()
    }
}

/// Generates the dataset again and again for `SETUP_WINDOW_S` seconds, pushing each
/// set-up's time to `times`, and returns the last dataset.
fn setup_window(seed: u64, times: &mut Vec<f64>) -> EmDataset {
    let window = Instant::now();
    loop {
        let start = Instant::now();
        let dataset = EmProfile::dblp_scholar().generate(SCALE, seed);
        times.push(start.elapsed().as_secs_f64());
        if window.elapsed().as_secs_f64() >= SETUP_WINDOW_S {
            return dataset;
        }
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut setups = Vec::new();
    let dataset = setup_window(ctx.seed, &mut setups);
    let config = config();
    let pipeline = EmPipeline::new(config.clone());
    let records = (dataset.table_a.len() + dataset.table_b.len()) as f64;

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut f1s: Vec<f64> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layer_runs: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    loop {
        let start = Instant::now();
        let result = pipeline.run(&dataset, Some(LABEL_BUDGET));
        let wall = start.elapsed().as_secs_f64();
        let f1 = result.matching.f1;
        report.check(f1 > 0.0 && f1 <= 1.0, || {
            format!("em_f1 {f1} outside (0, 1]")
        });
        report.check(result.blocking.recall > 0.0, || {
            "blocking recall is 0".into()
        });
        walls.push(wall);
        f1s.push(f64::from(f1));
        let mut per_op = wall;

        if ctx.traced() {
            let mark = ctx.tracer.mark();
            let start = Instant::now();
            let (traced_f1, mut layers) = traced_run(&ctx.tracer, &config, &dataset);
            let traced_wall = start.elapsed().as_secs_f64();
            let f1_delta = (f64::from(traced_f1) - f64::from(f1)).abs();
            report.check(f1_delta <= F1_TOLERANCE, || {
                format!(
                    "traced run F1 {traced_f1} differs from em_f1 {f1} by more than {F1_TOLERANCE}"
                )
            });
            if f1_delta > 0.0 {
                report.line(format!(
                    "NOTE: traced F1 {traced_f1} != em_f1 {f1}: training is not reproducible \
                     (AdamW sums gradient norms in HashMap order)"
                ));
            }
            let spans = ctx.tracer.spans_since(mark);
            let mut stage_sum = 0.0;
            for (span, metric) in STAGES {
                let secs = trace::total(&spans, span);
                layers.insert(metric, secs);
                stage_sum += secs;
            }
            // The stage spans must cover the traced replay. Against the untraced
            // em_wall_s the sum is only reported: two runs of the same pipeline differ
            // by up to a quarter on a shared 2-core host.
            report.check(
                (stage_sum / traced_wall - 1.0).abs() <= STAGE_COVERAGE,
                || format!("stage spans sum to {stage_sum:.3}s of a {traced_wall:.3}s traced run"),
            );
            let sum_over_wall = stage_sum / wall;
            layers.insert("stage.sum_over_wall", sum_over_wall);
            layers.insert("trace.f1_delta", f1_delta);
            for (layer, (_, own)) in trace::layer_times(&spans) {
                if let Some(name) = self_metric(layer) {
                    layers.insert(name, own);
                }
            }
            traced_walls.push(traced_wall);
            layer_runs.push(layers);
            per_op += traced_wall;
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + per_op > ctx.seconds {
            break;
        }
    }

    // The second window runs after the pipeline's peak memory is read.
    let peak_rss = peak_rss_mb();
    setup_window(ctx.seed, &mut setups);

    let wall = median(&walls);
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_rss);
    report.set("p50_ms", wall * 1e3);
    report.set("rate_per_s", records / wall);
    let f1 = median(&f1s);
    report.set("quality", f1);
    report.line(format!(
        "em_pipeline: DBLP-Scholar x{SCALE} ({} x {} records), {LABEL_BUDGET} labels, \
         {} runs",
        dataset.table_a.len(),
        dataset.table_b.len(),
        walls.len()
    ));
    report.line(format!(
        "em_wall_s = {wall:.4} s (median; runs {walls:.3?})"
    ));
    report.line(format!("em_f1 = {f1:.4} (median; runs {f1s:.4?})"));
    report.line(format!(
        "setup_s = {:.4} s (median of {} in two {SETUP_WINDOW_S} s windows, before and \
         after the runs)",
        median(&setups),
        setups.len()
    ));
    report.line(format!("peak_rss_mb = {peak_rss:.1} MB"));

    if ctx.traced() {
        for name in layer_runs[0].keys() {
            let values: Vec<f64> = layer_runs.iter().map(|m| m[name]).collect();
            report.set(name, median(&values));
        }
        let overhead = median(&traced_walls) - wall;
        report.set("trace.overhead_s", overhead);
        report.set("trace.overhead_frac", overhead / wall);
        report.set("trace.spans", ctx.tracer.mark() as f64);
        report.line(format!(
            "stage split: pretrain {:.3}s -> embed {:.3}s -> block {:.3}s -> fine-tune {:.3}s \
             -> match {:.3}s (sum / em_wall_s = {:.3})",
            report.metrics["stage.pretrain_s"],
            report.metrics["stage.embed_s"],
            report.metrics["stage.block_s"],
            report.metrics["stage.finetune_s"],
            report.metrics["stage.match_s"],
            report.metrics["stage.sum_over_wall"],
        ));
        report.line(format!(
            "tracing overhead: traced {:.4}s - untraced {wall:.4}s = {overhead:.4}s",
            median(&traced_walls)
        ));
        report.absent(
            "index.shards",
            "the default config builds the dense layout, which has no shards",
        );
        report.absent("index.prune", "dense layout: no shards to route");
        report.absent("index.spill", "dense layout: nothing spills");
        report.absent("index.quant", "dense layout: no quantized tier");
        report.absent("index.rescored", "dense layout: no quantized tier");
        report.absent(
            "snapshot.",
            "the pipeline persists no snapshot (snapshot_dir is None)",
        );
        report.absent("serve.", "no serving in this workload");
    }
}

/// The per-layer self-time metric of a span layer.
pub fn self_metric(layer: &str) -> Option<&'static str> {
    Some(match layer {
        "text" => "text.self_s",
        "pretrain" => "pretrain.self_s",
        "encoder" => "encoder.self_s",
        "index" => "index.self_s",
        "pseudo" => "pseudo.self_s",
        "matcher" => "matcher.self_s",
        "snapshot" => "snapshot.self_s",
        "serve" => "serve.self_s",
        _ => return None,
    })
}

/// `EmPipeline::run`, replayed from its public pieces with a span around each layer
/// call. Returns the test F1 and the per-layer metrics of this replay.
fn traced_run(
    tracer: &Tracer,
    config: &SudowoodoConfig,
    dataset: &EmDataset,
) -> (f32, BTreeMap<&'static str, f64>) {
    let pipeline = EmPipeline::new(config.clone());
    let mark = tracer.mark();
    let mut m = BTreeMap::new();
    let serialize = |table: &[sudowoodo_text::Record]| -> Vec<String> {
        tracer.span("text.serialize", || {
            table.iter().map(serialize_record).collect()
        })
    };

    // 1. pretrain_encoder
    let (encoder, pretrain_report) = tracer.span("stage.pretrain", || {
        tracer.span("pretrain.pretrain", || pipeline.pretrain_encoder(dataset))
    });

    // 2. block, split into its embed and index halves (the order of EmPipeline::block).
    let (emb_a, emb_b) = tracer.span("stage.embed", || {
        let texts_a = serialize(&dataset.table_a);
        let texts_b = serialize(&dataset.table_b);
        let emb_a = tracer.span("encoder.embed_all", || encoder.embed_all(&texts_a));
        let emb_b = tracer.span("encoder.embed_all", || encoder.embed_all(&texts_b));
        (emb_a, emb_b)
    });
    let (queries, corpus, dim) = (emb_a.len(), emb_b.len(), encoder.dim());
    let candidates = tracer.span("stage.block", || {
        let index = tracer.span("index.build", || {
            let mut index = BlockingIndex::build_with_options(
                emb_b,
                config.blocking_shard_capacity,
                config.shard_memory_budget,
                config.shard_quantization,
            );
            index.set_query_cache_capacity(config.blocking_query_cache);
            index
        });
        let candidates = tracer.span("index.join", || index.knn_join(&emb_a, config.blocking_k));
        let pairs: Vec<(usize, usize)> = candidates.iter().map(|&(a, b, _)| (a, b)).collect();
        let quality = evaluate_blocking(
            &pairs,
            &dataset.gold_matches,
            dataset.table_a.len(),
            dataset.table_b.len(),
        );
        std::hint::black_box(quality);
        candidates
    });

    // 3-4. sample_labels, generate_pseudo_labels, fine_tune, threshold selection.
    let (matcher, threshold, train_len, threshold_pairs) = tracer.span("stage.finetune", || {
        let labeled = pipeline.sample_labels(dataset, Some(LABEL_BUDGET));
        assert!(
            !labeled.is_empty(),
            "a {LABEL_BUDGET}-label budget samples labels"
        );
        let labeled_keys: HashSet<(usize, usize)> = labeled.iter().map(|p| (p.a, p.b)).collect();
        let gold: HashSet<(usize, usize)> = dataset.gold_matches.iter().copied().collect();
        let unlabeled: Vec<ScoredPair> = candidates
            .iter()
            .copied()
            .filter(|(a, b, _)| !labeled_keys.contains(&(*a, *b)))
            .collect();
        let target = labeled
            .len()
            .saturating_mul(config.pseudo_multiplier.saturating_sub(1));
        let pseudo = tracer.span("pseudo.generate", || {
            generate_pseudo_labels(&unlabeled, config.pseudo_positive_ratio, target)
        });
        let (tpr, tnr) = pseudo.quality(|a, b| gold.contains(&(a, b)));
        m.insert("pseudo.labels", pseudo.labels.len() as f64);
        m.insert("pseudo.tpr", f64::from(tpr));
        m.insert("pseudo.tnr", f64::from(tnr));

        let texts_a = serialize(&dataset.table_a);
        let texts_b = serialize(&dataset.table_b);
        let mut train: Vec<TrainPair> = labeled
            .iter()
            .map(|p| TrainPair::new(texts_a[p.a].clone(), texts_b[p.b].clone(), p.label))
            .collect();
        train.extend(
            pseudo
                .labels
                .iter()
                .map(|p| TrainPair::new(texts_a[p.a].clone(), texts_b[p.b].clone(), p.label)),
        );
        let mut matcher = PairMatcher::new(encoder, config.use_diff_head, config.seed);
        tracer.span("matcher.fine_tune", || {
            matcher.fine_tune(
                &train,
                &FineTuneConfig {
                    epochs: config.finetune_epochs,
                    batch_size: config.finetune_batch_size,
                    learning_rate: config.finetune_lr,
                    seed: config.seed,
                },
            )
        });
        let eval_pairs: Vec<(String, String)> = labeled
            .iter()
            .map(|p| (texts_a[p.a].clone(), texts_b[p.b].clone()))
            .collect();
        let scores = tracer.span("matcher.predict_scores", || {
            matcher.predict_scores(&eval_pairs)
        });
        let gold_labels: Vec<bool> = labeled.iter().map(|p| p.label).collect();
        (
            matcher,
            best_f1_threshold(&scores, &gold_labels).0,
            train.len(),
            eval_pairs.len(),
        )
    });

    // 5. evaluate_matcher on the held-out test pairs.
    let matching = tracer.span("stage.match", || {
        tracer.span("matcher.evaluate", || {
            evaluate_matcher(&matcher, dataset, &dataset.test, threshold)
        })
    });

    let spans = tracer.spans_since(mark);
    let secs = |name: &str| trace::total(&spans, name);
    let pretrain_s = secs("pretrain.pretrain");
    m.insert("pretrain.s", pretrain_s);
    m.insert(
        "pretrain.records_per_s",
        ratio(
            (pretrain_report.corpus_size * config.pretrain_epochs) as f64,
            pretrain_s,
        ),
    );
    let embed_s = secs("encoder.embed_all");
    m.insert("encoder.embed_s", embed_s);
    m.insert(
        "encoder.embed_records_per_s",
        ratio((queries + corpus) as f64, embed_s),
    );
    m.insert("text.serialize_s", secs("text.serialize"));
    m.insert("index.build_s", secs("index.build"));
    let join_s = secs("index.join");
    m.insert("index.join_s", join_s);
    let scored = (queries * corpus) as f64;
    m.insert("index.join_pairs_per_s", ratio(scored, join_s));
    m.insert(
        "index.join_gflops",
        ratio(2.0 * scored * dim as f64, join_s) * 1e-9,
    );
    m.insert("pseudo.s", secs("pseudo.generate"));
    let finetune_s = secs("matcher.fine_tune");
    m.insert("matcher.finetune_s", finetune_s);
    m.insert(
        "matcher.finetune_pairs_per_s",
        ratio((train_len * config.finetune_epochs) as f64, finetune_s),
    );
    // The threshold-selection scores and the test evaluation.
    let predict_pairs = (threshold_pairs + dataset.test.len()) as f64;
    let predict_s = secs("matcher.predict_scores") + secs("matcher.evaluate");
    m.insert("matcher.predict_s", predict_s);
    m.insert(
        "matcher.predict_pairs_per_s",
        ratio(predict_pairs, predict_s),
    );
    (matching.f1, m)
}
