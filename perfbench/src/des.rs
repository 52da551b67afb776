//! `des`: the `serve` and `fleet` discrete-event simulations and the edge
//! experiment over the generated CNV-W2A2 library, for Scenario 2 and
//! Scenario 1+2, one seed per round.
//!
//! Rounds alternate between the untraced calls (primary) and the `report`
//! path (secondary): a recorded run, `TraceForest::from_events`, then
//! `Waterfall::from_forest`. All the work is in serve/fleet/edge/core/
//! telemetry; none is in `adaflow-nn` kernels or sockets.

use crate::{median, ms_since, tail, Outcome, Params};
use adaflow::{Library, LibraryGenerator, RuntimeConfig};
use adaflow_edge::{Experiment, Scenario, WorkloadSpec};
use adaflow_fleet::{FleetExperiment, FleetSummary};
use adaflow_model::topology;
use adaflow_nn::DatasetKind;
use adaflow_serve::{AdaFlowServePolicy, ServeExperiment, ServeSummary};
use adaflow_telemetry::{Event, SinkHandle, TraceForest, Waterfall};
use std::time::{Duration, Instant};

/// Untraced rounds per report round: a report round costs about this
/// many untraced ones, so the two get similar shares of the run.
const PLAIN_PER_REPORT: u64 = 8;
/// Library generations timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
const SCENARIOS: [Scenario; 2] = [Scenario::Unpredictable, Scenario::Shifting];
/// Ring capacity of each recording: the recorder allocates all of it up
/// front, so it is sized to these runs (about 0.12 M events each) with
/// room to spare, and an overflow fails the check below.
const RECORDER_EVENTS: usize = 1 << 18;
/// Largest waterfall residual accepted, as a share of the end-to-end mean.
const RESIDUAL_TOLERANCE: f64 = 1e-9;

fn generate() -> Result<Library, String> {
    let graph = topology::cnv_w2a2_cifar10().map_err(|e| e.to_string())?;
    LibraryGenerator::default_edge_setup()
        .generate(&graph, DatasetKind::Cifar10)
        .map_err(|e| e.to_string())
}

/// Library generation timed `SETUPS` times; returns the last library and
/// the median seconds.
fn timed_setup() -> Result<(Library, f64), String> {
    let mut times = Vec::new();
    let mut library = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        library = Some(generate()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((library.expect("at least one set-up"), median(&times)))
}

/// The per-seed round seed: rounds walk consecutive seeds from the run's.
fn round_seed(params: Params, round: u64) -> u64 {
    params.seed.wrapping_mul(1_000_003).wrapping_add(round)
}

/// Untraced summaries of one seed across both scenarios.
#[derive(PartialEq, Debug)]
struct Plain {
    serve: Vec<ServeSummary>,
    fleet: Vec<FleetSummary>,
    edge: Vec<adaflow_edge::RunMetrics>,
}

/// Untraced wall times (ms) and simulated items, summed by module.
#[derive(Default)]
struct CallTimes {
    serve: f64,
    fleet: f64,
    edge: f64,
    serve_items: f64,
    fleet_items: f64,
    edge_items: f64,
}

fn plain_round(library: &Library, seed: u64, times: &mut CallTimes) -> Plain {
    let mut plain = Plain {
        serve: Vec::new(),
        fleet: Vec::new(),
        edge: Vec::new(),
    };
    for scenario in SCENARIOS {
        let spec = WorkloadSpec::paper_edge(scenario);
        let t = Instant::now();
        plain.serve.push(
            ServeExperiment::new(library, spec.clone())
                .runs(1)
                .seed(seed)
                .run_adaflow(RuntimeConfig::default()),
        );
        times.serve += ms_since(t);
        times.serve_items += plain.serve.last().map_or(0.0, |s| s.arrived);
        let t = Instant::now();
        plain.fleet.push(
            FleetExperiment::new(library, spec.clone())
                .runs(1)
                .seed(seed)
                .run(),
        );
        times.fleet += ms_since(t);
        times.fleet_items += plain.fleet.last().map_or(0.0, |f| f.arrived);
        let t = Instant::now();
        plain.edge.push(
            Experiment::new(library, spec)
                .runs(1)
                .seed(seed)
                .run_adaflow(RuntimeConfig::default()),
        );
        times.edge += ms_since(t);
        times.edge_items += plain.edge.last().map_or(0.0, |e| e.offered);
    }
    plain
}

/// Simulated requests and edge frames of one untraced round.
fn plain_items(p: &Plain) -> f64 {
    p.serve.iter().map(|s| s.arrived).sum::<f64>()
        + p.fleet.iter().map(|f| f.arrived).sum::<f64>()
        + p.edge.iter().map(|e| e.offered).sum::<f64>()
}

fn check_plain(out: &mut Outcome, p: &Plain, seed: u64) {
    for s in &p.serve {
        out.check(s.conservation_holds(), || {
            format!(
                "serve seed {seed}: arrived {} != completed {} + shed {}",
                s.arrived, s.completed, s.shed
            )
        });
    }
    for f in &p.fleet {
        out.check(f.conservation_holds(), || {
            format!(
                "fleet seed {seed}: arrived {} != completed {} + shed {}",
                f.arrived, f.completed, f.shed
            )
        });
    }
    for e in &p.edge {
        out.check(
            (e.offered - e.processed - e.lost).abs() <= 1e-6 * e.offered.max(1.0),
            || {
                format!(
                    "edge seed {seed}: offered {} != processed {} + lost {}",
                    e.offered, e.processed, e.lost
                )
            },
        );
    }
}

/// Report-path timings of one round, ms.
#[derive(Default)]
struct ReportTimes {
    record: f64,
    forest: f64,
    waterfall: f64,
    events: f64,
}

/// One `report` call per (mode, scenario): a recorded run, the span
/// forest, the waterfall. Returns the simulated requests it covered.
fn report_round(
    out: &mut Outcome,
    library: &Library,
    seed: u64,
    times: &mut ReportTimes,
) -> Result<f64, String> {
    let mut items = 0.0;
    for scenario in SCENARIOS {
        for mode in ["serve", "fleet"] {
            let spec = WorkloadSpec::paper_edge(scenario);
            let (sink, recorder) = SinkHandle::recorder(RECORDER_EVENTS);
            let t = Instant::now();
            let (arrived, conserved) = if mode == "serve" {
                let deadline = adaflow_serve::ServeConfig::default().deadline_s;
                let s = ServeExperiment::new(library, spec)
                    .runs(1)
                    .seed(seed)
                    .run_traced(seed, sink, || {
                        Box::new(
                            AdaFlowServePolicy::new(library, RuntimeConfig::default())
                                .with_deadline(deadline),
                        )
                    });
                (s.arrived, s.conservation_holds())
            } else {
                let f = FleetExperiment::new(library, spec)
                    .runs(1)
                    .seed(seed)
                    .run_traced(seed, sink);
                (f.arrived, f.conservation_holds())
            };
            let events: Vec<Event> = recorder.drain();
            times.record += ms_since(t);
            out.check(conserved, || {
                format!("traced {mode} seed {seed}: conservation violated")
            });
            out.check(recorder.overwritten() == 0, || {
                format!("traced {mode} seed {seed}: recorder overflowed")
            });
            let t = Instant::now();
            let forest = TraceForest::from_events(&events);
            forest
                .validate()
                .map_err(|e| format!("{mode} seed {seed}: invalid span forest: {e}"))?;
            times.forest += ms_since(t);
            let t = Instant::now();
            let waterfall = Waterfall::from_forest(&forest, 3);
            times.waterfall += ms_since(t);
            times.events += events.len() as f64;
            let residual = waterfall.attribution_residual_s.abs();
            out.check(
                residual <= RESIDUAL_TOLERANCE * waterfall.end_to_end_mean_s.max(1e-9),
                || format!("{mode} seed {seed}: waterfall residual {residual:e} s"),
            );
            items += arrived;
            out.attempted += 3;
        }
    }
    Ok(items)
}

/// Same seed, same process, twice: the summaries must be identical.
fn check_determinism(out: &mut Outcome, library: &Library, seed: u64) {
    let mut scratch = CallTimes::default();
    let first = plain_round(library, seed, &mut scratch);
    let second = plain_round(library, seed, &mut scratch);
    out.check(first == second, || {
        format!("seed {seed}: a repeated run diverged")
    });
}

/// Rounds of one kind, with their wall times and items.
#[derive(Default)]
struct Rounds {
    ms: Vec<f64>,
    /// Round times scaled by the calibration factor taken next to them.
    cal_ms: Vec<f64>,
    items: f64,
    wall_ms: f64,
}

impl Rounds {
    fn push(&mut self, ms: f64, items: f64, factor: f64) {
        self.ms.push(ms);
        self.cal_ms.push(ms * factor);
        self.items += items;
        self.wall_ms += ms;
    }

    fn rate(&self) -> f64 {
        self.items / (self.wall_ms / 1e3)
    }
}

struct Measured {
    setup_s: f64,
    plain: Rounds,
    report: Rounds,
    calls: CallTimes,
    report_times: ReportTimes,
}

fn measure(params: Params, out: &mut Outcome) -> Result<Measured, String> {
    let (library, setup_s) = timed_setup()?;
    check_determinism(out, &library, round_seed(params, 0));
    let mut m = Measured {
        setup_s,
        plain: Rounds::default(),
        report: Rounds::default(),
        calls: CallTimes::default(),
        report_times: ReportTimes::default(),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(params.seconds);
    let mut round = 0u64;
    let mut cal = crate::reference::Calibration::scalar();
    while round < 2 || Instant::now() < deadline {
        for k in 0..PLAIN_PER_REPORT {
            let factor = cal.factor();
            let seed = round_seed(params, round * PLAIN_PER_REPORT + k);
            let t = Instant::now();
            let plain = plain_round(&library, seed, &mut m.calls);
            m.plain.push(ms_since(t), plain_items(&plain), factor);
            check_plain(out, &plain, seed);
            out.attempted += 3 * SCENARIOS.len() as u64;
        }
        let seed = round_seed(params, round);
        let factor = cal.factor();
        let t = Instant::now();
        let items = report_round(out, &library, seed, &mut m.report_times)?;
        let ms = ms_since(t);
        m.report.push(ms, items, (factor + cal.factor()) / 2.0);
        round += 1;
    }
    Ok(m)
}

pub fn run(params: Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let m = measure(params, &mut out)?;
    out.metric("setup_s", m.setup_s, "s");
    for (role, rounds) in [("primary", &m.plain), ("secondary", &m.report)] {
        let tail = tail(&rounds.ms)
            .map_or_else(String::new, |(pct, ms)| format!(", p{pct:.1} {ms:.3} ms"));
        println!(
            "  {role}: {} rounds, raw p50 {:.3} ms{tail}, {:.0} simulated items/s; calibrated p50 {:.3} ms",
            rounds.ms.len(),
            median(&rounds.ms),
            rounds.rate(),
            median(&rounds.cal_ms)
        );
        out.metric(format!("{role}.p50_ms"), median(&rounds.cal_ms), "ms");
    }
    Ok(out)
}

/// Per-layer figures: each public experiment and analysis call timed from
/// outside.
pub fn traced(params: Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    generate()?;
    out.metric("core.library_ms", ms_since(t), "ms");
    let m = measure(params, &mut out)?;
    out.metric("des.sim_req_per_s", m.plain.rate(), "1/s");
    out.metric("des.report_req_per_s", m.report.rate(), "1/s");
    let calls = (m.plain.ms.len() * SCENARIOS.len()) as f64;
    let reports = (m.report.ms.len() * SCENARIOS.len() * 2) as f64;
    for (module, ms, items) in [
        ("serve", m.calls.serve, m.calls.serve_items),
        ("fleet", m.calls.fleet, m.calls.fleet_items),
        ("edge", m.calls.edge, m.calls.edge_items),
    ] {
        out.metric(format!("{module}.run_ms"), ms / calls, "ms");
        out.metric(format!("{module}.sim_requests"), items / calls, "count");
    }
    out.metric("telemetry.events", m.report_times.events / reports, "count");
    out.metric("telemetry.record_ms", m.report_times.record / reports, "ms");
    out.metric("telemetry.forest_ms", m.report_times.forest / reports, "ms");
    out.metric(
        "telemetry.waterfall_ms",
        m.report_times.waterfall / reports,
        "ms",
    );
    let untraced_ms = (m.calls.serve + m.calls.fleet) / (2.0 * calls);
    out.metric(
        "telemetry.tracing_overhead_pct",
        100.0 * (m.report_times.record / reports / untraced_ms - 1.0),
        "%",
    );
    Ok(out)
}
