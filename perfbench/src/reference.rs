//! Independent reference forward pass and the calibration kernel.
//!
//! The reference implements the documented layer semantics of the model
//! crate directly from the stored weights and threshold rows, without
//! calling any `adaflow-nn` kernel:
//!
//! * convolution: `acc[o][y][x] = Σ_i Σ_ky Σ_kx w[o][i][ky][kx] ·
//!   in[i][y·s + ky − p][x·s + kx − p]`, zero outside the input;
//! * multi-threshold: the number of thresholds of the channel's row that
//!   the accumulator meets or exceeds;
//! * max-pool: the maximum over the window, clipped at the border;
//! * dense: `acc[o] = Σ_i w[o][i] · in[i]` over the CHW-flattened input;
//! * label-select: the index of the largest logit, lowest index on ties.

use adaflow_model::{CnnGraph, Conv2d, Layer, TensorShape};

/// Logits and label of one reference inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub logits: Vec<i32>,
    pub label: usize,
}

/// Either quantized activations or raw accumulators, with their shape.
enum Value {
    Act(Vec<u8>, TensorShape),
    Acc(Vec<i32>, TensorShape),
}

/// Runs `input` (CHW bytes) through `graph` with the naive semantics above.
///
/// # Panics
///
/// Panics when the layer chain alternates accumulators and activations in
/// a way the semantics do not define (the engine refuses such graphs too).
pub fn forward(graph: &CnnGraph, input: &[u8]) -> Answer {
    let mut value = Value::Act(input.to_vec(), graph.input_shape());
    for node in graph.iter() {
        let out_shape = node.output_shape;
        value = match (&node.layer, value) {
            (Layer::Conv2d(c), Value::Act(x, shape)) => {
                Value::Acc(conv(c, &x, shape, out_shape), out_shape)
            }
            (Layer::Dense(d), Value::Act(x, _)) => {
                let w = d.weights.as_slice();
                let acc = (0..d.out_features)
                    .map(|o| {
                        let row = &w[o * d.in_features..(o + 1) * d.in_features];
                        row.iter()
                            .zip(&x)
                            .map(|(&w, &a)| i32::from(w) * i32::from(a))
                            .sum()
                    })
                    .collect();
                Value::Acc(acc, out_shape)
            }
            (Layer::MultiThreshold(t), Value::Acc(acc, shape)) => {
                let spatial = shape.spatial();
                let act = acc
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| {
                        t.table
                            .row(i / spatial)
                            .iter()
                            .filter(|&&th| a >= th)
                            .count() as u8
                    })
                    .collect();
                Value::Act(act, shape)
            }
            (Layer::MaxPool2d(p), Value::Act(x, shape)) => {
                Value::Act(pool(p.kernel, p.stride, &x, shape, out_shape), out_shape)
            }
            (Layer::LabelSelect(_), Value::Acc(logits, _)) => {
                let mut label = 0;
                for (i, &v) in logits.iter().enumerate() {
                    if v > logits[label] {
                        label = i;
                    }
                }
                return Answer { logits, label };
            }
            (layer, _) => panic!(
                "reference: {} cannot consume the current value",
                layer.kind()
            ),
        };
    }
    panic!("reference: graph has no label-select output")
}

/// Direct convolution, one output plane at a time. The innermost loop runs
/// along an output row so the compiler can vectorise it.
fn conv(c: &Conv2d, x: &[u8], in_shape: TensorShape, out_shape: TensorShape) -> Vec<i32> {
    let (ih, iw) = (in_shape.height as isize, in_shape.width as isize);
    let (oh, ow) = (out_shape.height, out_shape.width);
    let (k, s, p) = (c.kernel, c.stride as isize, c.padding as isize);
    let w = c.weights.as_slice();
    let mut out = vec![0i32; c.out_channels * oh * ow];
    for o in 0..c.out_channels {
        let plane = &mut out[o * oh * ow..(o + 1) * oh * ow];
        for i in 0..c.in_channels {
            let src = &x
                [i * in_shape.height * in_shape.width..(i + 1) * in_shape.height * in_shape.width];
            for ky in 0..k {
                for kx in 0..k {
                    let wv = i32::from(w[((o * c.in_channels + i) * k + ky) * k + kx]);
                    if wv == 0 {
                        continue;
                    }
                    // Output columns whose input column `xo·s + kx − p` lies
                    // inside the row.
                    let shift = kx as isize - p;
                    let lo = ((-shift).max(0) + s - 1) / s;
                    let hi = ((iw - shift + s - 1) / s).clamp(0, ow as isize);
                    if lo >= hi {
                        continue;
                    }
                    let (lo, hi) = (lo as usize, hi as usize);
                    for y in 0..oh {
                        let sy = y as isize * s + ky as isize - p;
                        if sy < 0 || sy >= ih {
                            continue;
                        }
                        let row = &src[sy as usize * iw as usize..(sy as usize + 1) * iw as usize];
                        let dst = &mut plane[y * ow + lo..y * ow + hi];
                        let first = (lo as isize * s + shift) as usize;
                        if s == 1 {
                            for (d, &a) in dst.iter_mut().zip(&row[first..]) {
                                *d += wv * i32::from(a);
                            }
                        } else {
                            for (d, &a) in
                                dst.iter_mut().zip(row[first..].iter().step_by(s as usize))
                            {
                                *d += wv * i32::from(a);
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn pool(
    kernel: usize,
    stride: usize,
    x: &[u8],
    in_shape: TensorShape,
    out_shape: TensorShape,
) -> Vec<u8> {
    let (ih, iw) = (in_shape.height, in_shape.width);
    let mut out = Vec::with_capacity(out_shape.elements());
    for c in 0..out_shape.channels {
        for y in 0..out_shape.height {
            for xo in 0..out_shape.width {
                let mut best = 0u8;
                for ky in y * stride..(y * stride + kernel).min(ih) {
                    for kx in xo * stride..(xo * stride + kernel).min(iw) {
                        best = best.max(x[(c * ih + ky) * iw + kx]);
                    }
                }
                out.push(best);
            }
        }
    }
    out
}

/// Reference answers for many inputs, split over two threads.
pub fn forward_all(graph: &CnnGraph, inputs: &[Vec<u8>]) -> Vec<Answer> {
    let half = inputs.len().div_ceil(2);
    std::thread::scope(|scope| {
        let tail = scope.spawn(|| {
            inputs[half..]
                .iter()
                .map(|x| forward(graph, x))
                .collect::<Vec<_>>()
        });
        let mut head: Vec<Answer> = inputs[..half].iter().map(|x| forward(graph, x)).collect();
        head.extend(tail.join().expect("reference thread"));
        head
    })
}

/// A fixed benchmark-owned calibration kernel. Its time tracks how fast
/// this host runs that kind of code at the moment; it never depends on the
/// program under test. On a shared host whose speed drifts between (and
/// within) runs, a time measured next to a calibration pass and scaled by
/// `reference_ms / pass` repeats far better than the raw time.
pub struct Calibration {
    pass: Box<dyn Fn() -> u64>,
    /// The median pass over the reference runs (see README), so that
    /// scaled figures read close to raw ones on that host. A pure scale:
    /// it changes no spread and no ratio between two runs.
    reference_ms: f64,
    /// Every pass timed so far, ms.
    pub samples: Vec<f64>,
}

impl Calibration {
    /// A 32→32 3×3 naive convolution over 16×16 (about 1.8 M integer
    /// multiply-accumulates, the engine's kind of work).
    pub fn conv() -> Self {
        let mut layer = Conv2d::new(32, 32, 3, 1, 0, adaflow_model::QuantSpec::w2a2());
        let mut rng = crate::SplitMix::new(0xca1);
        for w in layer.weights.as_mut_slice() {
            *w = (rng.next_u64() % 4) as i8 - 2;
        }
        let in_shape = TensorShape::new(32, 16, 16);
        let input: Vec<u8> = (0..in_shape.elements())
            .map(|_| (rng.next_u64() % 4) as u8)
            .collect();
        let out_shape = TensorShape::new(32, 14, 14);
        let pass = move || {
            conv(&layer, std::hint::black_box(&input), in_shape, out_shape)
                .iter()
                .map(|&v| v as u64)
                .sum()
        };
        Self {
            pass: Box::new(pass),
            reference_ms: 1.6,
            samples: Vec::new(),
        }
    }

    /// A small event loop of the simulators' kind: a binary heap of
    /// timestamps, a hash map of counters and short-lived vectors.
    pub fn scalar() -> Self {
        let pass = || {
            let mut rng = crate::SplitMix::new(0xca2);
            let mut heap = std::collections::BinaryHeap::with_capacity(1024);
            let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            let mut acc = 0u64;
            for i in 0..20_000u64 {
                let x = rng.next_u64();
                heap.push(std::cmp::Reverse(x >> 16));
                if heap.len() > 512 {
                    acc ^= heap.pop().map_or(0, |r| r.0);
                }
                *counts.entry(x % 4096).or_default() += i;
                if i % 64 == 0 {
                    let v: Vec<u64> = (0..32).map(|k| k ^ x).collect();
                    acc = acc.wrapping_add(v.iter().sum::<u64>());
                }
            }
            acc.wrapping_add(counts.len() as u64)
        };
        Self {
            pass: Box::new(pass),
            reference_ms: 1.5,
            samples: Vec::new(),
        }
    }

    /// Times one pass and returns `reference_ms / pass`: the factor that
    /// turns a time measured now into reference-host time.
    pub fn factor(&mut self) -> f64 {
        let t = std::time::Instant::now();
        std::hint::black_box((self.pass)());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples.push(ms);
        self.reference_ms / ms
    }
}
