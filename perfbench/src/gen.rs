//! The benchmark's own HTTP load generator (`gen` layer).
//!
//! One request per connection, as the server speaks `Connection: close`.
//! Each generator thread owns one connection at a time, so threads and
//! connections are the same count, and no dispatcher thread exists.
//!
//! In an open loop request `i` is due at `start + schedule[i]` whether or
//! not earlier requests have finished; its latency is measured from that
//! due time, so a stalled server is charged for the wait it imposes on
//! every later request, and the generator's own lateness (`lag`) is kept
//! as a sample of its own. In a closed loop each thread sends its next
//! request when the previous one returns, and latency runs from the send.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A response as read off the wire.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body bytes (exactly `Content-Length` of them).
    pub body: String,
}

/// One request's outcome and timing, all in ms.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// How late the send started against its due time (0 in a closed loop).
    pub lag_ms: f64,
    /// From due time (open loop) or send (closed loop) to the last byte.
    pub latency_ms: f64,
    /// TCP connect time.
    pub connect_ms: f64,
    /// From the request's last byte written to the response's first byte.
    pub ttfb_ms: f64,
    /// 2xx, framed correctly, and the body passed the caller's check.
    pub ok: bool,
}

/// A request to send: method, path and body.
pub struct Request<'a> {
    /// HTTP method.
    pub method: &'a str,
    /// Request target.
    pub path: &'a str,
    /// Request body (empty for `GET`).
    pub body: &'a str,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends one request on a fresh connection; returns the reply with the
/// connect and time-to-first-byte split.
pub fn send(addr: SocketAddr, req: &Request<'_>) -> std::io::Result<(Reply, f64, f64)> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let head = format!(
        "{} {} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        req.method,
        req.path,
        req.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(req.body.as_bytes())?;
    let written = Instant::now();
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let mut first = None;
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        first.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
    }
    let first = first.ok_or_else(|| std::io::Error::other("empty response"))?;
    let reply = parse_reply(&buf).map_err(std::io::Error::other)?;
    Ok((reply, ms(connected - t0), ms(first - written)))
}

/// Frames a complete `Connection: close` response.
pub fn parse_reply(bytes: &[u8]) -> Result<Reply, String> {
    let split = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&bytes[..split]).map_err(|_| "non-UTF-8 response head")?;
    let body = &bytes[split + 4..];
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("response has no status code")?;
    let length = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())?
        })
        .ok_or("response has no Content-Length")?;
    if length != body.len() {
        return Err(format!(
            "Content-Length {length} but {} body bytes",
            body.len()
        ));
    }
    let body = String::from_utf8(body.to_vec()).map_err(|_| "non-UTF-8 response body")?;
    Ok(Reply { status, body })
}

/// Runs requests `0..count` from `threads` generator threads and returns
/// one sample per request, in request order.
///
/// With `schedule` (offsets in seconds from the start, one per request)
/// the loop is open; without it, closed. `request(i)` builds request `i`
/// and `check(i, reply)` decides whether a 2xx reply is correct.
pub fn run<'r>(
    addr: SocketAddr,
    threads: usize,
    count: usize,
    schedule: Option<&[f64]>,
    request: &(dyn Fn(usize) -> Request<'r> + Sync),
    check: &(dyn Fn(usize, &Reply) -> bool + Sync),
) -> Vec<Sample> {
    if let Some(s) = schedule {
        assert!(s.len() >= count, "schedule shorter than the request count");
    }
    let next = AtomicUsize::new(0);
    let out = Mutex::new(vec![None; count]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= count {
                    break;
                }
                let (due, sent) = match schedule {
                    Some(s) => {
                        let due = start + Duration::from_secs_f64(s[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        (due, Instant::now())
                    }
                    None => {
                        let now = Instant::now();
                        (now, now)
                    }
                };
                let req = request(i);
                let result = send(addr, &req);
                let done = Instant::now();
                let (ok, connect_ms, ttfb_ms) = match result {
                    Ok((reply, c, t)) => {
                        ((200..300).contains(&reply.status) && check(i, &reply), c, t)
                    }
                    Err(_) => (false, 0.0, 0.0),
                };
                let sample = Sample {
                    lag_ms: ms(sent.saturating_duration_since(due)),
                    latency_ms: ms(done - due),
                    connect_ms,
                    ttfb_ms,
                    ok,
                };
                out.lock().expect("sample table lock")[i] = Some(sample);
            });
        }
    });
    out.into_inner()
        .expect("sample table lock")
        .into_iter()
        .map(|s| s.expect("every request index was taken by a thread"))
        .collect()
}

/// `count` open-loop arrivals: `(offset in seconds, offered rate)` each.
///
/// Time is cut into slots of width `1 / rate_at(slot start)`, one arrival
/// per slot at a seeded uniform position in the middle half of its slot.
/// Arrivals keep a random phase against periodic work in the server (a
/// fixed-interval schedule would phase-lock to a poll period), yet two
/// arrivals are never closer than half a slot.
pub fn jittered_schedule(
    rng: &mut crate::stats::Rng,
    count: usize,
    rate_at: impl Fn(f64) -> f64,
) -> Vec<(f64, f64)> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let rate = rate_at(t);
            let width = 1.0 / rate;
            let due = t + width * (0.25 + 0.5 * rng.uniform());
            t += width;
            (due, rate)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const OK: &str = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok";

    /// A server that answers every connection, but holds the first one
    /// for `stall` before answering.
    fn stalling_server(stall: Duration, conns: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for k in 0..conns {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = s.read(&mut buf).unwrap();
                if k == 0 {
                    std::thread::sleep(stall);
                }
                s.write_all(OK.as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_later_request() {
        let stall = Duration::from_millis(200);
        let (addr, server) = stalling_server(stall, 5);
        let schedule = [0.0, 0.01, 0.02, 0.03, 0.04];
        let req = |_| Request {
            method: "GET",
            path: "/",
            body: "",
        };
        let samples = run(addr, 1, 5, Some(&schedule), &req, &|_, r| r.body == "ok");
        server.join().unwrap();
        assert!(samples.iter().all(|s| s.ok));
        // The first request waits the stall out; request i, due 10·i ms
        // later, cannot be sent before the stall ends, so its latency from
        // its due time is at least the rest of the stall.
        assert!(samples[0].latency_ms >= 200.0);
        for (i, s) in samples.iter().enumerate().skip(1) {
            let rest = 200.0 - 10.0 * i as f64;
            assert!(s.lag_ms >= rest, "request {i}: lag {} < {rest}", s.lag_ms);
            assert!(
                s.latency_ms >= rest,
                "request {i}: latency {} < {rest}",
                s.latency_ms
            );
        }
    }

    #[test]
    fn closed_loop_latency_starts_at_send() {
        let (addr, server) = stalling_server(Duration::from_millis(100), 3);
        let req = |_| Request {
            method: "GET",
            path: "/",
            body: "",
        };
        let samples = run(addr, 1, 3, None, &req, &|_, _| true);
        server.join().unwrap();
        assert!(samples[0].latency_ms >= 100.0);
        // Later requests are not charged for the stall they waited behind.
        assert!(samples[2].latency_ms < 100.0);
        assert!(samples.iter().all(|s| s.lag_ms == 0.0));
    }

    #[test]
    fn framing_rejects_short_bodies() {
        assert!(parse_reply(OK.as_bytes()).is_ok());
        let short = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok";
        assert!(parse_reply(short.as_bytes()).is_err());
        assert!(parse_reply(b"garbage").is_err());
    }

    #[test]
    fn jittered_schedule_is_seeded_and_keeps_half_a_slot_apart() {
        let a = jittered_schedule(&mut crate::stats::Rng::new(1, 0), 1000, |_| 100.0);
        let b = jittered_schedule(&mut crate::stats::Rng::new(1, 0), 1000, |_| 100.0);
        assert_eq!(a, b);
        for (i, &(t, rate)) in a.iter().enumerate() {
            let slot = i as f64 / 100.0;
            assert!(
                (slot + 0.0025..slot + 0.0075).contains(&t),
                "arrival {i} at {t}"
            );
            assert_eq!(rate, 100.0);
        }
        assert!(a.windows(2).all(|w| w[1].0 - w[0].0 >= 0.005 - 1e-12));
        // A rising rate narrows the slots.
        let ramp = jittered_schedule(&mut crate::stats::Rng::new(1, 0), 100, |t| {
            100.0 + 1000.0 * t
        });
        assert!(ramp.windows(2).all(|w| w[1].1 > w[0].1));
    }
}
