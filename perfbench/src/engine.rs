//! `engine`: offline classification in process.
//!
//! 64 seeded CIFAR-10-like images run one at a time through the default
//! `Engine::new` plan on CNV-W2A2 (primary) and its 25 %-pruned library
//! variant (secondary), whose channel counts do not fill 64-bit words. All
//! the work is in `adaflow-nn`; none is in sockets or the DES. The traced
//! pass adds the engine's own per-layer spans and the all-core
//! `BatchRunner` rate.

use crate::reference::{self, Answer, Calibration};
use crate::{median, ms_since, tail, Outcome, Params};
use adaflow_model::{topology, CnnGraph, Layer};
use adaflow_nn::{Activations, BatchRunner, DatasetSpec, Engine, SyntheticDataset};
use adaflow_pruning::{DataflowAwarePruner, FinnConfig};
use adaflow_telemetry::{Event, EventKind, SinkHandle, TelemetrySink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BATCH: usize = 64;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The two models of the workload, as (metric key, graph).
pub struct Models(pub Vec<(&'static str, CnnGraph)>);

/// Builds CNV-W2A2 and prunes it to its 25 % library variant.
pub fn build_models() -> Result<Models, String> {
    let w2a2 = topology::cnv_w2a2_cifar10().map_err(|e| e.to_string())?;
    let folding = FinnConfig::cnv_reference(&w2a2).map_err(|e| e.to_string())?;
    let p25 = DataflowAwarePruner::new(folding)
        .prune(&w2a2, 0.25)
        .map_err(|e| e.to_string())?
        .graph;
    Ok(Models(vec![("w2a2", w2a2), ("w2a2_p25", p25)]))
}

/// The seeded input batch.
pub fn images(seed: u64) -> Vec<Activations> {
    SyntheticDataset::new(DatasetSpec::cifar10_like(), seed)
        .batch(0, BATCH)
        .into_iter()
        .map(|s| s.image)
        .collect()
}

/// Set-up timed `SETUPS` times: graph construction, pruning and
/// `Engine::new` for both models. Returns the models of the last set-up,
/// the median set-up seconds and the first `Engine::new` time in ms.
fn timed_setup() -> Result<(Models, f64, f64), String> {
    let mut times = Vec::new();
    let mut first_engine_ms = f64::NAN;
    let mut models = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let built = build_models()?;
        for (_, graph) in &built.0 {
            let te = Instant::now();
            std::hint::black_box(Engine::new(graph).map_err(|e| e.to_string())?);
            if first_engine_ms.is_nan() {
                first_engine_ms = ms_since(te);
            }
        }
        times.push(t.elapsed().as_secs_f64());
        models = Some(built);
    }
    Ok((
        models.expect("at least one set-up"),
        median(&times),
        first_engine_ms,
    ))
}

fn references(models: &Models, imgs: &[Activations]) -> Vec<Vec<Answer>> {
    let inputs: Vec<Vec<u8>> = imgs.iter().map(|i| i.as_slice().to_vec()).collect();
    models
        .0
        .iter()
        .map(|(_, g)| reference::forward_all(g, &inputs))
        .collect()
}

/// Untimed check: every image's logits equal the reference on one and on
/// two workers.
fn check_workers(
    out: &mut Outcome,
    key: &str,
    engine: &Engine,
    imgs: &[Activations],
    refs: &[Answer],
) -> Result<(), String> {
    for threads in [1, 2] {
        let results = BatchRunner::new(engine.clone())
            .with_threads(threads)
            .run_full(imgs)
            .map_err(|e| e.to_string())?;
        for (i, (r, want)) in results.iter().zip(refs).enumerate() {
            out.check(r.logits == want.logits && r.label == want.label, || {
                format!(
                    "{key} image {i} on {threads} worker(s): logits {:?} != reference {:?}",
                    r.logits, want.logits
                )
            });
        }
    }
    Ok(())
}

/// Images timed between two calibration passes.
const CAL_BLOCK: usize = 8;

pub fn run(params: Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (models, setup_s, _) = timed_setup()?;
    let imgs = images(params.seed);
    let refs = references(&models, &imgs);
    let engines: Vec<Engine> = models
        .0
        .iter()
        .map(|(_, g)| Engine::new(g).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    print_plan(&engines[0]);
    for (((key, _), engine), r) in models.0.iter().zip(&engines).zip(&refs) {
        check_workers(&mut out, key, engine, &imgs, r)?;
    }

    // Per model: single-worker per-image latencies, raw and calibrated
    // against the conv kernel timed before each block of images.
    let mut cal = Calibration::conv();
    let mut raw_ms: Vec<Vec<f64>> = vec![Vec::new(); engines.len()];
    let mut cal_ms: Vec<Vec<f64>> = vec![Vec::new(); engines.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(params.seconds);
    let mut rounds = 0;
    while rounds < 3 || Instant::now() < deadline {
        rounds += 1;
        for (m, engine) in engines.iter().enumerate() {
            let mut scratch = engine.scratch();
            let mut factor = 1.0;
            for (i, img) in imgs.iter().enumerate() {
                if i % CAL_BLOCK == 0 {
                    factor = cal.factor();
                }
                let t = Instant::now();
                let r = engine.run_with_scratch(img, &mut scratch);
                let ms = ms_since(t);
                out.attempted += 1;
                match r {
                    Ok(r) => out.check(r.logits == refs[m][i].logits, || {
                        format!(
                            "{} image {i}: logits differ from the reference",
                            models.0[m].0
                        )
                    }),
                    Err(e) => {
                        out.failed += 1;
                        out.errors.push(e.to_string());
                    }
                }
                raw_ms[m].push(ms);
                cal_ms[m].push(ms * factor);
            }
        }
    }

    println!(
        "  rounds {rounds}, calibration pass median {:.3} ms",
        median(&cal.samples)
    );
    out.metric("setup_s", setup_s, "s");
    for (m, (role, (key, _))) in ["primary", "secondary"].iter().zip(&models.0).enumerate() {
        let tail = tail(&raw_ms[m])
            .map_or_else(String::new, |(pct, ms)| format!(", p{pct:.1} {ms:.3} ms"));
        println!(
            "  {role} = {key}: one-worker image p50 {:.3} ms raw{tail} over {} images; calibrated p50 {:.3} ms",
            median(&raw_ms[m]),
            raw_ms[m].len(),
            median(&cal_ms[m])
        );
        out.metric(format!("{role}.p50_ms"), median(&cal_ms[m]), "ms");
    }
    Ok(out)
}

fn print_plan(engine: &Engine) {
    let t = adaflow_nn::kernel_thresholds();
    let plan: Vec<String> = engine
        .kernels()
        .iter()
        .map(|k| format!("{}:{}", k.layer, k.kernel))
        .collect();
    println!(
        "  kernel_thresholds: gemm_min_k {}, packed_min_rows {}",
        t.gemm_min_k, t.packed_min_rows
    );
    println!("  plan: {}", plan.join(" "));
}

/// Sums span durations per layer name (the kernel suffix stripped).
#[derive(Default)]
struct SpanSum {
    state: Mutex<(f64, BTreeMap<String, f64>)>,
}

impl TelemetrySink for SpanSum {
    fn record(&self, event: Event) {
        let mut state = self.state.lock().expect("span sum poisoned");
        match event.kind {
            EventKind::SpanBegin { .. } => state.0 = event.t_s,
            EventKind::SpanEnd { name } => {
                let layer = name.split('[').next().unwrap_or(&name).to_string();
                let begin = state.0;
                *state.1.entry(layer).or_default() += event.t_s - begin;
            }
            _ => {}
        }
    }
}

/// Multiply-accumulates and bytes touched per image, from tensor sizes:
/// each layer reads its input (1 B per activation, 4 B per accumulator),
/// writes its output the same way, and reads its weights at their stored
/// bit width.
fn work_per_image(graph: &CnnGraph) -> (f64, f64) {
    let mut bytes = 0.0;
    let mut acc_in = false;
    for node in graph.iter() {
        let acc_out = matches!(node.layer, Layer::Conv2d(_) | Layer::Dense(_));
        let width = |acc: bool| if acc { 4.0 } else { 1.0 };
        bytes += node.input_shape.elements() as f64 * width(acc_in);
        bytes += node.output_shape.elements() as f64
            * width(acc_out && !matches!(node.layer, Layer::LabelSelect(_)));
        bytes += match &node.layer {
            Layer::Conv2d(c) => c.weight_bits() as f64 / 8.0,
            Layer::Dense(d) => d.weight_bits() as f64 / 8.0,
            Layer::MultiThreshold(t) => (t.table.channels() * t.table.levels() * 4) as f64,
            _ => 0.0,
        };
        acc_in = acc_out;
    }
    (graph.total_macs() as f64, bytes)
}

/// The traced pass: per-layer self time from the engine's own spans,
/// interleaved with untraced passes so the tracing overhead is measured.
pub fn traced(params: Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (models, _, first_engine_ms) = timed_setup()?;
    out.metric("nn.engine_new_ms", first_engine_ms, "ms");
    let imgs = images(params.seed);
    let refs = references(&models, &imgs);
    let mut cal = Calibration::conv();
    let deadline = Instant::now() + Duration::from_secs_f64(params.seconds);
    for (m, (key, graph)) in models.0.iter().enumerate() {
        let (macs, bytes) = work_per_image(graph);
        out.metric(format!("nn.{key}.macs_per_img"), macs, "count");
        out.metric(format!("nn.{key}.bytes_per_img"), bytes, "B");
        let plain = Engine::new(graph).map_err(|e| e.to_string())?;
        let sum = Arc::new(SpanSum::default());
        let traced = plain.clone().with_sink(SinkHandle::new(sum.clone()));
        let (mut plain_ms, mut traced_ms, mut images) = (0.0, 0.0, 0usize);
        let model_deadline =
            Instant::now() + (deadline - Instant::now()) / (models.0.len() - m) as u32;
        let mut all_core_rate = Vec::new();
        let mut image_ms = Vec::new();
        while images == 0 || Instant::now() < model_deadline {
            cal.factor();
            for (engine, total) in [(&plain, &mut plain_ms), (&traced, &mut traced_ms)] {
                let mut scratch = engine.scratch();
                for (i, img) in imgs.iter().enumerate() {
                    let t = Instant::now();
                    let r = engine
                        .run_with_scratch(img, &mut scratch)
                        .map_err(|e| e.to_string())?;
                    let ms = ms_since(t);
                    *total += ms;
                    if std::ptr::eq(engine, &plain) {
                        image_ms.push(ms);
                    }
                    out.check(r.logits == refs[m][i].logits, || {
                        format!("traced {key} image {i}: logits differ")
                    });
                }
                out.attempted += BATCH as u64;
            }
            images += BATCH;
            let t = Instant::now();
            BatchRunner::new(plain.clone())
                .run_full(&imgs)
                .map_err(|e| e.to_string())?;
            all_core_rate.push(BATCH as f64 / t.elapsed().as_secs_f64());
            out.attempted += BATCH as u64;
        }
        let totals = sum.state.lock().expect("span sum poisoned").1.clone();
        let span_ms: f64 = totals.values().sum::<f64>() * 1e3;
        for (layer, s) in &totals {
            if layer != "top1" {
                out.metric(
                    format!("nn.{key}.{layer}.self_ms"),
                    s * 1e3 / images as f64,
                    "ms",
                );
            }
        }
        println!(
            "  {key}: span sum covers {:.2} % of traced wall time",
            100.0 * span_ms / traced_ms
        );
        out.metric(
            format!("nn.{key}.span_coverage_pct"),
            100.0 * span_ms / traced_ms,
            "%",
        );
        out.metric(format!("nn.{key}.image_p50_ms"), median(&image_ms), "ms");
        let (pct, tail_ms) = tail(&image_ms).ok_or("too few traced images for a tail")?;
        println!("  {key}: untraced one-worker image p50 {:.3} ms, p{pct:.1} {tail_ms:.3} ms over {} images", median(&image_ms), image_ms.len());
        out.metric(format!("nn.{key}.image_tail_ms"), tail_ms, "ms");
        out.metric(
            format!("nn.{key}.tracing_overhead_pct"),
            100.0 * (traced_ms / plain_ms - 1.0),
            "%",
        );
        out.metric(
            format!("nn.{key}.batch64_img_per_s"),
            median(&all_core_rate),
            "1/s",
        );
        if m == 0 {
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            let one = images as f64 / (plain_ms / 1e3);
            out.metric(
                "nn.batch64.parallel_eff",
                median(&all_core_rate) / (threads as f64 * one),
                "ratio",
            );
            print_plan(&plain);
        }
    }
    out.metric("calib.kernel_ms", median(&cal.samples), "ms");
    Ok(out)
}
