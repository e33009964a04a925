//! Criterion micro-benchmarks of the Sudowoodo building blocks.
//!
//! These complement the experiment binaries (which regenerate the paper's tables and
//! figures) by measuring the throughput-critical primitives: encoder forward/backward,
//! the contrastive and Barlow Twins losses, TF-IDF + k-means clustering, kNN blocking, and
//! the data-augmentation operators.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sudowoodo_augment::{augment, CutoffKind, CutoffPlan, DaOp};
use sudowoodo_cluster::{kmeans, BatchSampler, BatchStrategy, KMeansConfig, TfIdfVectorizer};
use sudowoodo_core::config::{EncoderConfig, EncoderKind, SudowoodoConfig};
use sudowoodo_core::encoder::Encoder;
use sudowoodo_core::loss::{barlow_twins_loss, combined_loss, nt_xent_loss};
use sudowoodo_datasets::em::EmProfile;
use sudowoodo_index::{CosineIndex, ShardedCosineIndex};
use sudowoodo_nn::matrix::Matrix;
use sudowoodo_nn::tape::Tape;
use sudowoodo_text::serialize::serialize_record;

fn corpus() -> Vec<String> {
    EmProfile::abt_buy().generate(0.2, 7).corpus()
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    for size in [128usize, 256, 512, 1024] {
        let a = Matrix::random_normal(size, size, 1.0, &mut rng);
        let b = Matrix::random_normal(size, size, 1.0, &mut rng);
        c.bench_function(&format!("matmul_{size}x{size}"), |bench| {
            bench.iter(|| black_box(black_box(&a).matmul(black_box(&b))))
        });
        c.bench_function(&format!("matmul_transpose_b_{size}x{size}"), |bench| {
            bench.iter(|| black_box(black_box(&a).matmul_transpose_b(black_box(&b))))
        });
        if size <= 512 {
            // The naive reference gets slow fast; keep the comparison points bounded.
            c.bench_function(&format!("matmul_naive_{size}x{size}"), |bench| {
                bench.iter(|| black_box(black_box(&a).matmul_naive(black_box(&b))))
            });
        }
    }
}

fn bench_knn_join(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let dim = 32;
    let corpus: Vec<Vec<f32>> = (0..10_000)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let queries: Vec<Vec<f32>> = (0..10_000)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let index = CosineIndex::build(corpus.clone());
    c.bench_function("knn_join_10kx10k_k20", |bench| {
        bench.iter(|| black_box(index.knn_join(black_box(&queries), 20)))
    });
    // Sharded variants: same join through fixed-capacity shards (the streaming layout).
    for capacity in [1024usize, 4096] {
        let sharded = ShardedCosineIndex::from_vectors(&corpus, capacity);
        c.bench_function(
            &format!("knn_join_sharded_cap{capacity}_10kx10k_k20"),
            |bench| bench.iter(|| black_box(sharded.knn_join(black_box(&queries), 20))),
        );
    }
    // Streaming ingestion: building the sharded index batch-by-batch.
    c.bench_function("sharded_add_batch_10k_cap1024", |bench| {
        bench.iter(|| {
            let mut sharded = ShardedCosineIndex::new(1024);
            for chunk in corpus.chunks(500) {
                sharded.add_batch(black_box(chunk));
            }
            black_box(sharded.len())
        })
    });
}

fn bench_encoder(c: &mut Criterion) {
    let texts = corpus();
    let transformer = Encoder::from_corpus(
        EncoderConfig {
            kind: EncoderKind::Transformer,
            dim: 32,
            layers: 1,
            heads: 2,
            ff_hidden: 64,
            max_len: 32,
        },
        &texts,
        1,
    );
    let meanpool = Encoder::from_corpus(
        EncoderConfig {
            kind: EncoderKind::MeanPool,
            dim: 32,
            layers: 1,
            heads: 2,
            ff_hidden: 64,
            max_len: 32,
        },
        &texts,
        1,
    );
    let batch: Vec<&str> = texts.iter().take(16).map(|s| s.as_str()).collect();
    c.bench_function("encoder_forward_transformer_batch16", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            black_box(transformer.encode_batch(&mut tape, black_box(&batch), &CutoffPlan::noop()))
        })
    });
    c.bench_function("encoder_forward_meanpool_batch16", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            black_box(meanpool.encode_batch(&mut tape, black_box(&batch), &CutoffPlan::noop()))
        })
    });
    c.bench_function("encoder_forward_backward_meanpool_batch16", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let z = meanpool.encode_batch(&mut tape, black_box(&batch), &CutoffPlan::noop());
            let sq = tape.pow2(z);
            let loss = tape.mean_all(sq);
            black_box(tape.backward(loss));
        })
    });
    let batch64: Vec<&str> = texts.iter().take(64).map(|s| s.as_str()).collect();
    c.bench_function("encode_batch_meanpool_batch64", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            black_box(meanpool.encode_batch(&mut tape, black_box(&batch64), &CutoffPlan::noop()))
        })
    });
    let chunk64: Vec<String> = texts.iter().take(64).cloned().collect();
    c.bench_function("infer_chunk_meanpool_batch64", |b| {
        b.iter(|| black_box(meanpool.infer_chunk(black_box(&chunk64))))
    });
    // The Transformer paths: one padded batched tape graph per 64-item chunk, and the
    // tape-free per-sequence inference over the same chunk.
    c.bench_function("encode_batch_transformer_batch64", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            black_box(transformer.encode_batch(&mut tape, black_box(&batch64), &CutoffPlan::noop()))
        })
    });
    c.bench_function("infer_chunk_transformer_batch64", |b| {
        b.iter(|| black_box(transformer.infer_chunk(black_box(&chunk64))))
    });
}

fn bench_losses(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let a = Matrix::random_normal(32, 32, 1.0, &mut rng);
    let b = Matrix::random_normal(32, 32, 1.0, &mut rng);
    c.bench_function("nt_xent_loss_batch32_dim32", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            let av = tape.constant(a.clone());
            let bv = tape.constant(b.clone());
            let loss = nt_xent_loss(&mut tape, av, bv, 0.07);
            black_box(tape.backward(loss));
        })
    });
    c.bench_function("barlow_twins_loss_batch32_dim32", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            let av = tape.constant(a.clone());
            let bv = tape.constant(b.clone());
            let loss = barlow_twins_loss(&mut tape, av, bv, 3.9e-3);
            black_box(tape.backward(loss));
        })
    });
    c.bench_function("combined_loss_batch32_dim32", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            let av = tape.constant(a.clone());
            let bv = tape.constant(b.clone());
            let loss = combined_loss(&mut tape, av, bv, 0.07, 3.9e-3, 1e-3);
            black_box(tape.backward(loss));
        })
    });
}

fn bench_clustering(c: &mut Criterion) {
    let texts = corpus();
    let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
    c.bench_function("tfidf_fit_transform", |b| {
        b.iter(|| {
            let v = TfIdfVectorizer::fit(refs.iter().copied());
            black_box(v.transform_all(refs.iter().copied()))
        })
    });
    let vectorizer = TfIdfVectorizer::fit(refs.iter().copied());
    let points = vectorizer.transform_all(refs.iter().copied());
    c.bench_function("kmeans_k12", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(kmeans(
                &points,
                &KMeansConfig {
                    k: 12,
                    max_iterations: 5,
                    num_features: vectorizer.num_features(),
                },
                &mut rng,
            ))
        })
    });
    c.bench_function("clustered_batch_sampling", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(4);
            let sampler = BatchSampler::new(
                &texts,
                BatchStrategy::Clustered { num_clusters: 12 },
                32,
                &mut rng,
            );
            black_box(sampler.epoch_batches(&mut rng))
        })
    });
}

fn bench_blocking(c: &mut Criterion) {
    let dataset = EmProfile::amazon_google().generate(0.2, 5);
    let mut config = SudowoodoConfig::test_config();
    config.pretrain_epochs = 1;
    config.max_corpus_size = 300;
    let texts_a: Vec<String> = dataset.table_a.iter().map(serialize_record).collect();
    let texts_b: Vec<String> = dataset.table_b.iter().map(serialize_record).collect();
    let encoder = Encoder::from_corpus(config.encoder, &dataset.corpus(), 5);
    let emb_a = encoder.embed_all(&texts_a);
    let emb_b = encoder.embed_all(&texts_b);
    c.bench_function("knn_blocking_k10", |b| {
        b.iter(|| {
            let index = CosineIndex::build(emb_b.clone());
            black_box(index.knn_join(&emb_a, 10))
        })
    });
}

fn bench_augmentation(c: &mut Criterion) {
    let texts = corpus();
    let sample = texts[0].clone();
    c.bench_function("da_operator_token_del", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(6);
            black_box(augment(black_box(&sample), DaOp::TokenDel, &mut rng))
        })
    });
    c.bench_function("cutoff_span_seq32_dim64", |b| {
        let embeddings = Matrix::full(32, 64, 1.0);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            let plan = CutoffPlan::sample(CutoffKind::Span, 0.05, 64, &mut rng);
            black_box(plan.apply(black_box(&embeddings)))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_matmul, bench_encoder, bench_losses, bench_clustering, bench_blocking,
        bench_knn_join, bench_augmentation
}
criterion_main!(benches);
