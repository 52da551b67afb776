//! `wire`: CNV-W1A2 served over loopback, straight to one `LiveServer`
//! (primary) and through `adaflow-gateway` over two backends (secondary).
//!
//! Each path runs two phases on a freshly started stack:
//!
//! * `light` — an open loop of Poisson arrivals at `LIGHT_RPS`, where a
//!   batch holds about one request and the 20 ms batch timer dominates;
//! * `sat` — a pipelined closed loop with `SAT_OUTSTANDING` requests in
//!   flight, enough to fill `max_batch` 16 twice over, so the engine is
//!   the limit. A closed loop stands in for a rate search because open
//!   loops near capacity flip between a steady and a collapsed queue.
//!
//! W1A2 is served because its answers vary with the input, so a
//! misrouted answer is caught by the label check.

use crate::loadgen::{self, PhaseLoad, Shape};
use crate::reference;
use crate::{median, ms_since, tail, Outcome, Params, SplitMix};
use adaflow_gateway::{Gateway, GatewayConfig, GatewayReport, WarmupSpec};
use adaflow_model::{topology, CnnGraph};
use adaflow_net::{preflight, LiveConfig, LiveReport, LiveServer, ServerHandle};
use adaflow_proto::{decode_frame, encode_frame, Frame, ProtoClient, RequestFrame};
use adaflow_serve::ServeConfig;
use adaflow_telemetry::SinkHandle;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const MODEL: &str = "cnv-w1a2";
/// Seeded tensors in the request pool.
const POOL: usize = 48;
/// Distinct reference classes the pool must span.
const MIN_CLASSES: usize = 3;
/// Low enough that on a slow host (service ≈ 50 ms) most requests still
/// find the engine idle and wait only for the batch timer.
const LIGHT_RPS: f64 = 8.0;
/// Share of the traced run each light phase gets; the two sat phases
/// share the rest. Light phases need the time: their tail needs ≥ 40
/// samples.
const LIGHT_SHARE: f64 = 0.35;
/// Shortest light phase: at `LIGHT_RPS` it expects 64 requests, so the
/// tail's 40 samples are all but certain even in the shorter traced run.
const MIN_LIGHT_S: f64 = 8.0;
/// Shortest sat phase, warm-up included.
const MIN_SAT_S: f64 = 2.0;
const SAT_OUTSTANDING: usize = 32;
const SAT_WARMUP: Duration = Duration::from_millis(300);

#[derive(Clone, Copy, PartialEq)]
enum Path {
    Direct,
    Gateway,
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Light,
    Sat,
}

/// The untraced run measures only the light phases (its end-to-end
/// metrics), half the run each; the traced run adds the sat phases.
const LIGHT_PHASES: [(Path, Phase); 2] =
    [(Path::Direct, Phase::Light), (Path::Gateway, Phase::Light)];
const ALL_PHASES: [(Path, Phase); 4] = [
    (Path::Direct, Phase::Light),
    (Path::Direct, Phase::Sat),
    (Path::Gateway, Phase::Light),
    (Path::Gateway, Phase::Sat),
];

fn name(path: Path, phase: Phase) -> String {
    let p = if path == Path::Direct {
        "direct"
    } else {
        "gateway"
    };
    let q = if phase == Phase::Light {
        "light"
    } else {
        "sat"
    };
    format!("{p}.{q}")
}

/// One phase on one freshly started stack.
struct PhaseRun {
    path: Path,
    phase: Phase,
    load: PhaseLoad,
    setup_s: f64,
    direct_ready_ms: f64,
    gateway_ready_ms: f64,
    backends: Vec<LiveReport>,
    gateway: GatewayReport,
}

/// Shuts the stack down even when the phase fails, so the scope that
/// runs the servers can join them.
struct Shutdown {
    gateway: adaflow_gateway::GatewayHandle,
    backends: Vec<ServerHandle>,
}

impl Drop for Shutdown {
    fn drop(&mut self) {
        self.gateway.shutdown();
        for b in &self.backends {
            b.shutdown();
        }
    }
}

fn live_config() -> LiveConfig {
    LiveConfig {
        model_id: MODEL.to_string(),
        ..LiveConfig::default()
    }
}

/// Sends tensor 0 to `addr` until it is answered; returns ms waited.
fn first_answer(
    addr: SocketAddr,
    shape: &Shape,
    pool: &[Vec<u8>],
    want: usize,
) -> Result<f64, String> {
    let t = Instant::now();
    let mut client = ProtoClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| e.to_string())?;
    let request = RequestFrame {
        id: 0,
        deadline_us: 0,
        model: shape.model.clone(),
        channels: shape.channels,
        height: shape.height,
        width: shape.width,
        data: pool[0].clone(),
    };
    client.send(&request).map_err(|e| e.to_string())?;
    match client
        .recv_id(0, Duration::from_secs(30))
        .map_err(|e| e.to_string())?
    {
        Some(r) if r.status.is_ok() && usize::from(r.label) == want => Ok(ms_since(t)),
        Some(r) => Err(format!(
            "first answer from {addr}: {} label {} (reference {want})",
            r.status.label(),
            r.label
        )),
        None => Err(format!("{addr} did not answer its first request")),
    }
}

/// Starts two backends and a gateway, waits until each has answered a
/// first request, runs `phase`, and shuts everything down.
fn run_phase(
    graph: &CnnGraph,
    shape: &Shape,
    pool: &[Vec<u8>],
    labels: &[usize],
    (path, phase): (Path, Phase),
    seconds: f64,
    seed: u64,
) -> Result<PhaseRun, String> {
    std::thread::scope(|scope| {
        let t0 = Instant::now();
        let b0 = LiveServer::bind("127.0.0.1:0", graph, live_config(), SinkHandle::null())
            .map_err(|e| e.to_string())?;
        let b1 = LiveServer::bind("127.0.0.1:0", graph, live_config(), SinkHandle::null())
            .map_err(|e| e.to_string())?;
        let addrs = [
            b0.local_addr().map_err(|e| e.to_string())?,
            b1.local_addr().map_err(|e| e.to_string())?,
        ];
        let handles = vec![b0.handle(), b1.handle()];
        let gateway = Gateway::bind(
            "127.0.0.1:0",
            &addrs,
            GatewayConfig {
                model_id: MODEL.to_string(),
                warmup: Some(WarmupSpec {
                    model: MODEL.to_string(),
                    channels: shape.channels,
                    height: shape.height,
                    width: shape.width,
                    iters: 2,
                }),
                ..GatewayConfig::default()
            },
            SinkHandle::null(),
        )
        .map_err(|e| e.to_string())?;
        let front = gateway.local_addr().map_err(|e| e.to_string())?;
        let guard = Shutdown {
            gateway: gateway.handle(),
            backends: handles,
        };
        let j0 = scope.spawn(move || b0.run());
        let j1 = scope.spawn(move || b1.run());
        let jg = scope.spawn(move || gateway.run());

        let ready = (|| {
            let direct = first_answer(addrs[0], shape, pool, labels[0])?
                .max(first_answer(addrs[1], shape, pool, labels[0])?);
            let t = Instant::now();
            let via_gateway = first_answer(front, shape, pool, labels[0])?;
            Ok::<_, String>((
                direct,
                ms_since(t).max(via_gateway),
                t0.elapsed().as_secs_f64(),
            ))
        })();
        let measured = ready.map(|(direct_ready_ms, gateway_ready_ms, setup_s)| {
            let target = if path == Path::Direct {
                addrs[0]
            } else {
                front
            };
            let mut rng = SplitMix::new(seed ^ 0x5eed_0001);
            let load = match phase {
                Phase::Light => {
                    let mut schedule = Vec::new();
                    let mut t = 0.0;
                    loop {
                        t += -(1.0 - rng.unit()).ln() / LIGHT_RPS;
                        if t >= seconds {
                            break;
                        }
                        schedule.push((t, (rng.next_u64() % POOL as u64) as usize));
                    }
                    loadgen::open_loop(target, shape, pool, &schedule)
                }
                Phase::Sat => {
                    let tensors: Vec<usize> = (0..4096)
                        .map(|_| (rng.next_u64() % POOL as u64) as usize)
                        .collect();
                    let measure = Duration::from_secs_f64(seconds)
                        .saturating_sub(SAT_WARMUP)
                        .max(Duration::from_millis(200));
                    loadgen::closed_loop(
                        target,
                        shape,
                        pool,
                        &tensors,
                        SAT_OUTSTANDING,
                        SAT_WARMUP,
                        measure,
                    )
                }
            };
            (load, direct_ready_ms, gateway_ready_ms, setup_s)
        });
        // Drain the gateway before the backends go away, or its workers
        // would see the connections drop and record an ejection.
        guard.gateway.shutdown();
        let gateway = jg
            .join()
            .expect("gateway thread")
            .map_err(|e| e.to_string());
        drop(guard);
        let b0 = j0
            .join()
            .expect("backend thread")
            .map_err(|e| e.to_string());
        let b1 = j1
            .join()
            .expect("backend thread")
            .map_err(|e| e.to_string());
        let (load, direct_ready_ms, gateway_ready_ms, setup_s) = measured?;
        Ok(PhaseRun {
            path,
            phase,
            load,
            setup_s,
            direct_ready_ms,
            gateway_ready_ms,
            backends: vec![b0?, b1?],
            gateway: gateway?,
        })
    })
}

/// Everything one wire run measured.
struct Measured {
    runs: Vec<PhaseRun>,
    preflight_ms: f64,
    shape: Shape,
    pool: Vec<Vec<u8>>,
}

/// Candidates drawn per reference batch while building the pool.
const DRAW: usize = 16;
/// Candidates drawn at most while looking for `MIN_CLASSES` classes.
const MAX_CANDIDATES: usize = 1024;

/// Seeded uniform-random tensors, each with its own value range. The pool
/// is the first `POOL` candidates; when they span fewer than
/// `MIN_CLASSES` reference classes, further candidates are drawn and the
/// first one of each missing class replaces a tensor of the most common
/// class, so a misrouted answer is always caught.
fn tensor_pool(graph: &CnnGraph, seed: u64) -> (Vec<Vec<u8>>, Vec<usize>) {
    let mut rng = SplitMix::new(seed);
    let n = graph.input_shape().elements();
    let mut draw = |count: usize| -> Vec<Vec<u8>> {
        (0..count)
            .map(|_| {
                let range = 1u64 << (2 + rng.next_u64() % 7);
                (0..n).map(|_| (rng.next_u64() % range) as u8).collect()
            })
            .collect()
    };
    let mut pool = draw(POOL);
    let mut labels: Vec<usize> = reference::forward_all(graph, &pool)
        .into_iter()
        .map(|a| a.label)
        .collect();
    let mut drawn = POOL;
    let classes = |labels: &[usize]| {
        let mut c = labels.to_vec();
        c.sort_unstable();
        c.dedup();
        c
    };
    while classes(&labels).len() < MIN_CLASSES && drawn < MAX_CANDIDATES {
        let extra = draw(DRAW);
        drawn += DRAW;
        let answers = reference::forward_all(graph, &extra);
        for (tensor, answer) in extra.into_iter().zip(answers) {
            if labels.contains(&answer.label) {
                continue;
            }
            let common = *labels
                .iter()
                .max_by_key(|&&c| {
                    (
                        labels.iter().filter(|&&l| l == c).count(),
                        std::cmp::Reverse(c),
                    )
                })
                .expect("pool is not empty");
            let slot = labels
                .iter()
                .rposition(|&l| l == common)
                .expect("the common class is present");
            pool[slot] = tensor;
            labels[slot] = answer.label;
        }
    }
    println!("  tensor pool: drew {drawn} candidates");
    (pool, labels)
}

fn measure(
    params: Params,
    phases: &[(Path, Phase)],
    out: &mut Outcome,
) -> Result<Measured, String> {
    let graph = topology::cnv_w1a2_cifar10().map_err(|e| e.to_string())?;
    let (pool, labels) = tensor_pool(&graph, params.seed);
    let mut classes = labels.clone();
    classes.sort_unstable();
    classes.dedup();
    println!("  tensor pool: {POOL} tensors, reference classes {classes:?}");
    out.check(classes.len() >= MIN_CLASSES, || {
        format!("tensor pool spans only {} reference classes", classes.len())
    });

    let serve = ServeConfig::default();
    let t = Instant::now();
    preflight(
        &graph,
        &serve,
        LIGHT_RPS,
        0.0,
        &adaflow_verify::LintConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let preflight_ms = ms_since(t);

    let input = graph.input_shape();
    let shape = Shape {
        model: MODEL.to_string(),
        channels: input.channels as u16,
        height: input.height as u16,
        width: input.width as u16,
    };
    let mut runs = Vec::new();
    let light_share = if phases.len() == LIGHT_PHASES.len() {
        0.5
    } else {
        LIGHT_SHARE
    };
    for (k, &(path, phase)) in phases.iter().enumerate() {
        let phase_s = if phase == Phase::Light {
            (params.seconds * light_share).max(MIN_LIGHT_S)
        } else {
            (params.seconds * (0.5 - light_share)).max(MIN_SAT_S)
        };
        let t = Instant::now();
        let run = run_phase(
            &graph,
            &shape,
            &pool,
            &labels,
            (path, phase),
            phase_s,
            params.seed.wrapping_add(k as u64),
        )?;
        let med = |f: fn(&adaflow_proto::ResponseFrame) -> u32| {
            median(
                &run.load
                    .answered
                    .iter()
                    .map(|a| f64::from(f(&a.response)) / 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        println!(
            "  {}: {:.2} s on the wall for a {phase_s:.2} s phase; rtt p50 {:.2} ms, server queue {:.2} / service {:.2} / latency {:.2} ms",
            name(path, phase),
            t.elapsed().as_secs_f64(),
            median(&run.load.answered.iter().map(|a| a.rtt_ms).collect::<Vec<_>>()),
            med(|r| r.queue_us),
            med(|r| r.service_us),
            med(|r| r.latency_us)
        );
        // Three readiness requests per stack, then the phase's load.
        out.attempted += 3 + run.load.sent;
        let bad = run
            .load
            .answered
            .iter()
            .filter(|a| !a.response.status.is_ok())
            .count() as u64;
        out.failed += bad + (run.load.sent - run.load.answered.len() as u64);
        for a in &run.load.answered {
            let want = labels[a.tensor];
            out.check(
                !a.response.status.is_ok() || usize::from(a.response.label) == want,
                || {
                    format!(
                        "{}: id {} answered label {} for a tensor of reference class {want}",
                        name(path, phase),
                        a.response.id,
                        a.response.label
                    )
                },
            );
        }
        for e in &run.load.errors {
            out.errors.push(format!("{}: {e}", name(path, phase)));
        }
        out.check(
            run.gateway.conservation_holds() && run.gateway.protocol_errors == 0,
            || format!("{}: gateway ledger broken", name(path, phase)),
        );
        for b in &run.backends {
            out.check(
                b.summary.conservation_holds() && b.protocol_errors == 0,
                || format!("{}: backend ledger broken", name(path, phase)),
            );
        }
        runs.push(run);
    }
    Ok(Measured {
        runs,
        preflight_ms,
        shape,
        pool,
    })
}

fn rtts(run: &PhaseRun) -> Vec<f64> {
    run.load
        .answered
        .iter()
        .filter(|a| a.in_window)
        .map(|a| a.rtt_ms)
        .collect()
}

/// Light-load latency outside the engine: client RTT minus the service
/// time the server reports, per request, ms.
fn outside_engine(run: &PhaseRun) -> Vec<f64> {
    run.load
        .answered
        .iter()
        .filter(|a| a.in_window)
        .map(|a| a.rtt_ms - f64::from(a.response.service_us) / 1e3)
        .collect()
}

fn find(m: &Measured, path: Path, phase: Phase) -> &PhaseRun {
    m.runs
        .iter()
        .find(|r| r.path == path && r.phase == phase)
        .expect("every phase runs")
}

pub fn run(params: Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let m = measure(params, &LIGHT_PHASES, &mut out)?;
    out.metric(
        "setup_s",
        median(&m.runs.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        "s",
    );
    for (role, path) in [("primary", Path::Direct), ("secondary", Path::Gateway)] {
        let light = find(&m, path, Phase::Light);
        let rtt = rtts(light);
        let tail =
            tail(&rtt).map_or_else(String::new, |(pct, ms)| format!(", p{pct:.1} {ms:.3} ms"));
        let outside = outside_engine(light);
        println!(
            "  {role} = {}: light rtt p50 {:.3} ms{tail} over {} requests; outside the engine p50 {:.3} ms",
            if path == Path::Direct { "direct" } else { "gateway" },
            median(&rtt),
            rtt.len(),
            median(&outside)
        );
        out.metric(format!("{role}.p50_ms"), median(&outside), "ms");
    }
    Ok(out)
}

/// Per-layer figures read from the response's stage fields and the
/// gateway and backend reports.
pub fn traced(params: Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let m = measure(params, &ALL_PHASES, &mut out)?;
    out.metric("verify.preflight_ms", m.preflight_ms, "ms");

    // Codec cost of one request frame, timed around the public calls.
    let request = Frame::Request(RequestFrame {
        id: 1,
        deadline_us: 0,
        model: m.shape.model.clone(),
        channels: m.shape.channels,
        height: m.shape.height,
        width: m.shape.width,
        data: m.pool[0].clone(),
    });
    const CODEC_REPS: u32 = 2000;
    let t = Instant::now();
    let mut bytes = Vec::new();
    for _ in 0..CODEC_REPS {
        bytes = std::hint::black_box(encode_frame(std::hint::black_box(&request)));
    }
    out.metric(
        "proto.encode_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(CODEC_REPS),
        "us",
    );
    let t = Instant::now();
    for _ in 0..CODEC_REPS {
        let decoded = decode_frame(std::hint::black_box(&bytes)).map_err(|e| e.to_string())?;
        std::hint::black_box(decoded);
    }
    out.metric(
        "proto.decode_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(CODEC_REPS),
        "us",
    );
    out.metric("proto.request_bytes", bytes.len() as f64, "B");

    out.metric(
        "net.floor_ms",
        median(
            &m.runs
                .iter()
                .flat_map(|r| r.backends.iter().map(|b| b.min_service_s * 1e3))
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    out.metric(
        "net.ready_ms",
        median(&m.runs.iter().map(|r| r.direct_ready_ms).collect::<Vec<_>>()),
        "ms",
    );
    out.metric(
        "gateway.ready_ms",
        median(
            &m.runs
                .iter()
                .map(|r| r.gateway_ready_ms)
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    out.metric(
        "gateway.retries",
        m.runs.iter().map(|r| r.gateway.retries as f64).sum(),
        "count",
    );
    for run in &m.runs {
        let key = name(run.path, run.phase);
        let window: Vec<_> = run.load.answered.iter().filter(|a| a.in_window).collect();
        let field = |f: fn(&adaflow_proto::ResponseFrame) -> u32| {
            median(
                &window
                    .iter()
                    .map(|a| f64::from(f(&a.response)) / 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        out.metric(format!("net.{key}.queue_ms"), field(|r| r.queue_us), "ms");
        out.metric(
            format!("net.{key}.service_ms"),
            field(|r| r.service_us),
            "ms",
        );
        out.metric(
            format!("net.{key}.server_ms"),
            field(|r| r.latency_us),
            "ms",
        );
        out.metric(
            format!("net.{key}.wire_ms"),
            median(
                &window
                    .iter()
                    .map(|a| a.rtt_ms - f64::from(a.response.latency_us) / 1e3)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        );
        let (batches, completed) = run.backends.iter().fold((0.0, 0.0), |(b, c), r| {
            (b + r.summary.batches, c + r.summary.completed)
        });
        out.metric(
            format!("net.{key}.mean_batch"),
            completed / batches.max(1.0),
            "count",
        );
        if run.phase == Phase::Sat {
            out.metric(format!("net.{key}.rtt_p50_ms"), median(&rtts(run)), "ms");
            out.metric(format!("net.{key}.req_per_s"), run.load.window_rate, "1/s");
        } else {
            let all = rtts(run);
            let (pct, tail_ms) =
                tail(&all).ok_or_else(|| format!("{key}: only {} samples", all.len()))?;
            println!(
                "  {key}: client rtt p50 {:.3} ms, p{pct:.1} {tail_ms:.3} ms over {} requests",
                median(&all),
                all.len()
            );
            out.metric(format!("load.{key}.rtt_p50_ms"), median(&all), "ms");
            out.metric(format!("load.{key}.rtt_tail_ms"), tail_ms, "ms");
        }
        let mut late = run.load.lateness_ms.clone();
        late.sort_by(f64::total_cmp);
        let p99 = late
            .get((late.len() * 99 / 100).min(late.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0.0);
        out.metric(format!("load.{key}.lateness_p99_ms"), p99, "ms");
        if run.path == Path::Gateway {
            let phase = if run.phase == Phase::Light {
                "light"
            } else {
                "sat"
            };
            let direct = find(&m, Path::Direct, run.phase);
            out.metric(
                format!("gateway.{phase}.hop_ms"),
                median(&rtts(run)) - median(&rtts(direct)),
                "ms",
            );
            let (ok, weighted) = run.gateway.backends.iter().fold((0.0, 0.0), |(n, w), b| {
                (n + b.ok as f64, w + b.ok as f64 * b.rtt_p50_s * 1e3)
            });
            out.metric(
                format!("gateway.{phase}.backend_rtt_p50_ms"),
                weighted / ok.max(1.0),
                "ms",
            );
        }
    }
    Ok(out)
}
