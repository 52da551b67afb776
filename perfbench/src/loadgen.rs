//! The benchmark's load generator, built on the public `ProtoClient`.
//!
//! Two loops, one connection each:
//!
//! * [`open_loop`] sends on a precomputed schedule from one thread and
//!   reads responses on a second. Each request is timed from the moment
//!   it was *due*, so a stall in the generator or the server counts
//!   against every request it delays, and the generator's own lateness is
//!   reported beside the RTTs it measures.
//! * [`closed_loop`] keeps a fixed number of requests outstanding on one
//!   thread, sending a replacement as each response arrives.
//!
//! Both check that every response id was sent and is answered exactly
//! once.

use adaflow_proto::{ProtoClient, RequestFrame, ResponseFrame};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Give up when no response arrives for this long.
const STALL: Duration = Duration::from_secs(5);
const READ_WINDOW: Duration = Duration::from_millis(20);

/// One answered request.
pub struct Answered {
    /// Index of the tensor sent, into the pool.
    pub tensor: usize,
    pub response: ResponseFrame,
    /// Client round trip, ms.
    pub rtt_ms: f64,
    /// Whether the response arrived inside the measurement window.
    pub in_window: bool,
}

/// What one phase of load produced.
pub struct PhaseLoad {
    pub answered: Vec<Answered>,
    /// How late the generator issued each request, ms.
    pub lateness_ms: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Completion rate inside the measurement window, per second (closed
    /// loop only).
    pub window_rate: f64,
    /// Exactly-once violations and transport failures.
    pub errors: Vec<String>,
}

/// The request shape every frame carries.
#[derive(Clone)]
pub struct Shape {
    pub model: String,
    pub channels: u16,
    pub height: u16,
    pub width: u16,
}

fn frame(shape: &Shape, id: u64, data: &[u8]) -> RequestFrame {
    RequestFrame {
        id,
        deadline_us: 0,
        model: shape.model.clone(),
        channels: shape.channels,
        height: shape.height,
        width: shape.width,
        data: data.to_vec(),
    }
}

/// Records `response` against the ledger of sent ids; returns the index
/// of the request it answers, or an exactly-once violation.
fn settle(answered: &mut [bool], response: &ResponseFrame) -> Result<usize, String> {
    let id = usize::try_from(response.id)
        .map_err(|_| format!("response id {} out of range", response.id))?;
    match answered.get_mut(id) {
        None => Err(format!("response for id {id}, which was never sent")),
        Some(true) => Err(format!("id {id} answered twice")),
        Some(slot) => {
            *slot = true;
            Ok(id)
        }
    }
}

fn unanswered(answered: &[bool]) -> Option<String> {
    let missing = answered.iter().filter(|a| !**a).count();
    (missing > 0).then(|| format!("{missing} request(s) never answered"))
}

/// Open loop: request `i` is due at `schedule[i].0` seconds after the
/// start and carries tensor `schedule[i].1`.
pub fn open_loop(
    addr: SocketAddr,
    shape: &Shape,
    pool: &[Vec<u8>],
    schedule: &[(f64, usize)],
) -> PhaseLoad {
    let mut load = PhaseLoad {
        answered: Vec::new(),
        lateness_ms: Vec::new(),
        sent: 0,
        window_rate: 0.0,
        errors: Vec::new(),
    };
    let connected = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        let r = s.try_clone()?;
        Ok((s, r))
    });
    let (write_half, read_half) = match connected {
        Ok(halves) => halves,
        Err(e) => {
            load.errors.push(format!("connect {addr}: {e}"));
            return load;
        }
    };
    let mut tx = ProtoClient::from_stream(write_half);
    let mut rx = ProtoClient::from_stream(read_half);
    if let Err(e) = rx.set_read_timeout(Some(READ_WINDOW)) {
        load.errors.push(e.to_string());
        return load;
    }
    let n = schedule.len();
    let start = Instant::now() + Duration::from_millis(10);
    let due = |i: usize| start + Duration::from_secs_f64(schedule[i].0);
    let received = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut got = Vec::with_capacity(n);
            let mut last = Instant::now();
            while got.len() < n && last.elapsed() < STALL {
                match rx.try_recv() {
                    Ok(Some(response)) => {
                        last = Instant::now();
                        got.push((response, last));
                    }
                    Ok(None) => {}
                    Err(e) => return (got, Some(e.to_string())),
                }
            }
            (got, None)
        });
        for (i, &(_, tensor)) in schedule.iter().enumerate() {
            let when = due(i);
            let now = Instant::now();
            if now < when {
                std::thread::sleep(when - now);
            }
            load.lateness_ms
                .push(Instant::now().saturating_duration_since(when).as_secs_f64() * 1e3);
            if let Err(e) = tx.send(&frame(shape, i as u64, &pool[tensor])) {
                load.errors.push(format!("send: {e}"));
                break;
            }
            load.sent += 1;
        }
        reader.join().expect("reader thread")
    });
    let (responses, error) = received;
    load.errors.extend(error);
    let mut answered = vec![false; load.sent as usize];
    for (response, at) in responses {
        match settle(&mut answered, &response) {
            Ok(i) => load.answered.push(Answered {
                tensor: schedule[i].1,
                rtt_ms: at.saturating_duration_since(due(i)).as_secs_f64() * 1e3,
                response,
                in_window: true,
            }),
            Err(e) => load.errors.push(e),
        }
    }
    load.errors.extend(unanswered(&answered));
    load
}

/// Responses come back a batch at a time, so counting them in a fixed
/// window is quantised to whole batches. The rate is instead taken between
/// the first and the last completion of the window: the responses after
/// the first batch, over the time they took.
fn completion_rate(window: &[Instant]) -> f64 {
    /// Responses this close to the first one belong to the same batch.
    const SAME_BATCH: Duration = Duration::from_millis(2);
    let (Some(&first), Some(&last)) = (window.first(), window.last()) else {
        return 0.0;
    };
    let after_first = window
        .iter()
        .filter(|&&t| t.duration_since(first) >= SAME_BATCH)
        .count();
    let span = last.duration_since(first).as_secs_f64();
    if span > 0.0 {
        after_first as f64 / span
    } else {
        0.0
    }
}

/// Closed loop with `outstanding` requests in flight. Responses arriving
/// in `[warmup, warmup + measure)` form the measurement window; after it
/// no replacement is sent and the loop drains. Tensors are taken in the
/// order of `tensors`, cycling.
pub fn closed_loop(
    addr: SocketAddr,
    shape: &Shape,
    pool: &[Vec<u8>],
    tensors: &[usize],
    outstanding: usize,
    warmup: Duration,
    measure: Duration,
) -> PhaseLoad {
    let mut load = PhaseLoad {
        answered: Vec::new(),
        lateness_ms: Vec::new(),
        sent: 0,
        window_rate: 0.0,
        errors: Vec::new(),
    };
    let mut client = match ProtoClient::connect(addr)
        .and_then(|c| c.set_read_timeout(Some(READ_WINDOW)).map(|()| c))
    {
        Ok(c) => c,
        Err(e) => {
            load.errors.push(format!("connect {addr}: {e}"));
            return load;
        }
    };
    let start = Instant::now();
    let (open, close) = (start + warmup, start + warmup + measure);
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut answered: Vec<bool> = Vec::new();
    let send = |client: &mut ProtoClient, sent_at: &mut Vec<Instant>, answered: &mut Vec<bool>| {
        let id = sent_at.len();
        let tensor = tensors[id % tensors.len()];
        sent_at.push(Instant::now());
        answered.push(false);
        client
            .send(&frame(shape, id as u64, &pool[tensor]))
            .map_err(|e| format!("send: {e}"))
    };
    for _ in 0..outstanding {
        if let Err(e) = send(&mut client, &mut sent_at, &mut answered) {
            load.errors.push(e);
            return load;
        }
    }
    let mut last = Instant::now();
    let mut window: Vec<Instant> = Vec::new();
    while answered.iter().any(|a| !a) && last.elapsed() < STALL {
        let response = match client.try_recv() {
            Ok(Some(r)) => r,
            Ok(None) => continue,
            Err(e) => {
                load.errors.push(e.to_string());
                break;
            }
        };
        let now = Instant::now();
        last = now;
        let i = match settle(&mut answered, &response) {
            Ok(i) => i,
            Err(e) => {
                load.errors.push(e);
                continue;
            }
        };
        let in_window = now >= open && now < close;
        if in_window {
            window.push(now);
        }
        load.answered.push(Answered {
            tensor: tensors[i % tensors.len()],
            rtt_ms: now.duration_since(sent_at[i]).as_secs_f64() * 1e3,
            response,
            in_window,
        });
        if now < close {
            if let Err(e) = send(&mut client, &mut sent_at, &mut answered) {
                load.errors.push(e);
                break;
            }
            load.lateness_ms.push(now.elapsed().as_secs_f64() * 1e3);
        }
    }
    load.sent = sent_at.len() as u64;
    load.errors.extend(unanswered(&answered));
    load.window_rate = completion_rate(&window);
    load
}
