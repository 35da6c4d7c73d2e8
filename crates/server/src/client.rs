//! A minimal blocking HTTP/1.1 client for the session API.
//!
//! Keeps one keep-alive connection to the server and reconnects once,
//! transparently, when the pooled connection has gone stale. All failures
//! surface as [`QfeError::Http`] naming the request that failed.
//!
//! ## Retries
//!
//! Without a [`RetryPolicy`], the client performs one transparent resend
//! only when the server *provably never saw* the request (connect/write
//! failure, or zero status bytes on a stale pooled connection) — a failure
//! mid-response is not retried, because the server may already have applied
//! a non-idempotent action.
//!
//! With a policy ([`HttpClient::with_retry`]), the client retries failed
//! and `503`-refused requests under exponential backoff with seeded jitter,
//! bounded by a total sleep budget. Ambiguous failures (the request may
//! have been applied) are retried only for requests sent through
//! [`HttpClient::post_idempotent`], which stamps an idempotency key into
//! the body so the server replays the original response instead of
//! re-executing — making *every* retry safe, not just provably-unprocessed
//! ones. A caller that repeats a request itself (say, after a `5xx` the
//! policy gave up on) keeps it one logical request by minting the key once
//! with [`HttpClient::idempotency_key`] and resending it through
//! [`HttpClient::post_with_key`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, SystemTime};

use qfe_core::{QfeError, Result};
use qfe_wire::Json;

/// Socket timeout for reads: a hung server fails the request instead of
/// hanging the fleet thread forever.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Days since 1970-01-01 for a proleptic-Gregorian civil date (negative
/// before the epoch). Howard Hinnant's `days_from_civil` algorithm.
fn days_from_civil(year: i64, month: u32, day: u32) -> i64 {
    let year = if month <= 2 { year - 1 } else { year };
    let era = if year >= 0 { year } else { year - 399 } / 400;
    let year_of_era = year - era * 400;
    let month_points = (i64::from(month) + 9) % 12;
    let day_of_year = (153 * month_points + 2) / 5 + i64::from(day) - 1;
    let day_of_era = year_of_era * 365 + year_of_era / 4 - year_of_era / 100 + day_of_year;
    era * 146_097 + day_of_era - 719_468
}

/// Parses an RFC 1123 HTTP-date (`Sun, 06 Nov 1994 08:49:37 GMT`) to Unix
/// seconds. The weekday prefix is optional and untrusted; only `GMT`/`UTC`
/// zones are accepted. `None` for anything malformed or pre-epoch.
fn parse_http_date(value: &str) -> Option<u64> {
    let rest = value
        .split_once(',')
        .map(|(_, rest)| rest)
        .unwrap_or(value)
        .trim();
    let mut parts = rest.split_whitespace();
    let day: u32 = parts.next()?.parse().ok()?;
    let month = match parts.next()? {
        "Jan" => 1,
        "Feb" => 2,
        "Mar" => 3,
        "Apr" => 4,
        "May" => 5,
        "Jun" => 6,
        "Jul" => 7,
        "Aug" => 8,
        "Sep" => 9,
        "Oct" => 10,
        "Nov" => 11,
        "Dec" => 12,
        _ => return None,
    };
    let year: i64 = parts.next()?.parse().ok()?;
    let mut clock = parts.next()?.split(':');
    let hours: u64 = clock.next()?.parse().ok()?;
    let minutes: u64 = clock.next()?.parse().ok()?;
    let seconds: u64 = clock.next()?.parse().ok()?;
    let zone = parts.next()?;
    if clock.next().is_some() || parts.next().is_some() {
        return None;
    }
    if !(zone == "GMT" || zone == "UTC")
        || !(1..=31).contains(&day)
        || hours > 23
        || minutes > 59
        || seconds > 60
    {
        return None;
    }
    let days = days_from_civil(year, month, day);
    if days < 0 {
        return None;
    }
    Some(days as u64 * 86_400 + hours * 3_600 + minutes * 60 + seconds)
}

/// Cap on a parsed delta: a year. Anything a server advertises beyond this
/// is nonsense, and the cap keeps `Duration::from_secs_f64` panic-free.
const RETRY_AFTER_CAP_SECS: f64 = 31_536_000.0;

/// Parses a `Retry-After` header value: delta-seconds (integral *or*
/// fractional, e.g. `"0.5"`) or an RFC 1123 HTTP-date, anchored at `now`.
/// A date already in the past is `Some(ZERO)` (retry immediately); anything
/// malformed is `None`, so the caller falls back to its own backoff instead
/// of failing the request over a bad header.
fn parse_retry_after(value: &str, now: SystemTime) -> Option<Duration> {
    let value = value.trim();
    if value.is_empty() {
        return None;
    }
    if let Ok(secs) = value.parse::<f64>() {
        return (secs.is_finite() && secs >= 0.0)
            .then(|| Duration::from_secs_f64(secs.min(RETRY_AFTER_CAP_SECS)));
    }
    let target = Duration::from_secs(parse_http_date(value)?);
    let now = now.duration_since(SystemTime::UNIX_EPOCH).ok()?;
    Some(target.saturating_sub(now))
}

/// One step of the splitmix64 sequence — the client's whole PRNG, used for
/// backoff jitter and idempotency-key uniqueness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How hard to retry: exponential backoff with jitter under a sleep budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Most resends of one logical request (beyond the first attempt).
    pub max_retries: u32,
    /// First backoff delay; doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling per delay (also caps an advertised `Retry-After`).
    pub max_delay: Duration,
    /// Total sleep allowed across all retries of one logical request.
    pub budget: Duration,
    /// Seed for the jitter sequence — pin it for reproducible schedules.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            budget: Duration::from_secs(2),
            seed: 0x5EED,
        }
    }
}

/// A keep-alive JSON-over-HTTP client bound to one server address.
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    stream: Option<TcpStream>,
    retry: Option<RetryPolicy>,
    rng: u64,
    idem_seq: u64,
    retries: usize,
    last_retry_after: Option<Duration>,
}

fn http_err(context: &str, message: impl std::fmt::Display) -> QfeError {
    QfeError::Http {
        context: context.to_string(),
        message: message.to_string(),
    }
}

impl HttpClient {
    /// A client for the server at `addr` (`"127.0.0.1:8080"`). Connects
    /// lazily on the first request.
    pub fn new(addr: impl Into<String>) -> HttpClient {
        HttpClient {
            addr: addr.into(),
            stream: None,
            retry: None,
            rng: 0x5EED,
            idem_seq: 0,
            retries: 0,
            last_retry_after: None,
        }
    }

    /// A client that retries under `policy` (see the module docs).
    pub fn with_retry(addr: impl Into<String>, policy: RetryPolicy) -> HttpClient {
        let mut client = HttpClient::new(addr);
        client.rng = policy.seed;
        client.retry = Some(policy);
        client
    }

    /// How many resends this client has performed (across all requests).
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// GETs `path`, returning the status and parsed JSON body.
    pub fn get(&mut self, path: &str) -> Result<(u16, Json)> {
        self.request("GET", path, None, false)
    }

    /// POSTs `body` to `path`, returning the status and parsed JSON body.
    pub fn post(&mut self, path: &str, body: &Json) -> Result<(u16, Json)> {
        self.request("POST", path, Some(body.render()), false)
    }

    /// POSTs `body` with a fresh idempotency key stamped into it (`"idem"`
    /// field), making the request safe to resend even after an ambiguous
    /// failure: the server dedups replays and returns the original
    /// response. Use for the mutating session verbs (`answer`, `reject`,
    /// `park`). Requires an object body.
    pub fn post_idempotent(&mut self, path: &str, body: &Json) -> Result<(u16, Json)> {
        let key = self.idempotency_key();
        self.post_with_key(path, body, &key)
    }

    /// A fresh idempotency key, unique per logical request.
    pub fn idempotency_key(&mut self) -> String {
        self.idem_seq += 1;
        format!("i{:016x}-{}", splitmix64(&mut self.rng), self.idem_seq)
    }

    /// [`Self::post_idempotent`] under a caller-chosen `key`: every send
    /// with the same key is one logical request to the server, which
    /// replays its remembered response instead of re-executing.
    pub fn post_with_key(&mut self, path: &str, body: &Json, key: &str) -> Result<(u16, Json)> {
        let Json::Object(mut fields) = body.clone() else {
            return self.post(path, body);
        };
        fields.push(("idem".to_string(), Json::Str(key.to_string())));
        self.request("POST", path, Some(Json::Object(fields).render()), true)
    }

    /// Sends a DELETE to `path`.
    pub fn delete(&mut self, path: &str) -> Result<(u16, Json)> {
        self.request("DELETE", path, None, false)
    }

    fn connect(&mut self, context: &str) -> Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(|e| http_err(context, e))?;
            stream
                .set_read_timeout(Some(CLIENT_READ_TIMEOUT))
                .map_err(|e| http_err(context, e))?;
            // Requests are written as one buffer; never wait on Nagle.
            stream.set_nodelay(true).map_err(|e| http_err(context, e))?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("stream just ensured"))
    }

    /// Draws a jitter factor in `[0.5, 1.0)` from the seeded sequence.
    fn jitter(&mut self) -> f64 {
        0.5 + 0.5 * ((splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<String>,
        idempotent: bool,
    ) -> Result<(u16, Json)> {
        let context = format!("{method} {path}");
        let policy = self.retry.clone();
        let max_retries = policy.as_ref().map(|p| p.max_retries).unwrap_or(1);
        let mut attempt: u32 = 0;
        let mut slept = Duration::ZERO;
        loop {
            self.last_retry_after = None;
            match self.try_request(&context, method, path, body.as_deref()) {
                // A 503 is a refusal issued *before* execution (load shed or
                // drain), so it is safe to retry regardless of idempotency —
                // but only a policy-carrying client bothers.
                Ok((503, _)) if policy.is_some() && attempt < max_retries => {}
                Ok(reply) => return Ok(reply),
                Err((unprocessed, err)) => {
                    // Ambiguous failures (the request may have been applied)
                    // are only retried when an idempotency key protects the
                    // resend.
                    let retryable = unprocessed || (idempotent && policy.is_some());
                    if !retryable || attempt >= max_retries {
                        self.stream = None;
                        return Err(err);
                    }
                }
            }
            self.stream = None;
            self.retries += 1;
            attempt += 1;
            if let Some(policy) = &policy {
                // Exponential backoff with jitter, honoring an advertised
                // Retry-After up to `max_delay`, under the total budget.
                let shift = (attempt - 1).min(16);
                let mut delay = policy
                    .base_delay
                    .saturating_mul(1u32 << shift)
                    .min(policy.max_delay);
                if let Some(advertised) = self.last_retry_after {
                    delay = delay.max(advertised.min(policy.max_delay));
                }
                let delay = delay
                    .mul_f64(self.jitter())
                    .min(policy.budget.saturating_sub(slept));
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                    slept += delay;
                }
            }
        }
    }

    fn try_request(
        &mut self,
        context: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::result::Result<(u16, Json), (bool, QfeError)> {
        let stream = self.connect(context).map_err(|e| (true, e))?;
        let body = body.unwrap_or("");
        // Head and body go out as one write (and one segment — see nodelay).
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: qfe\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        message.push_str(body);
        stream
            .write_all(message.as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| (true, http_err(context, e)))?;

        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| (false, http_err(context, e)))?,
        );
        let mut status_line = String::new();
        reader
            .read_line(&mut status_line)
            .map_err(|e| (true, http_err(context, e)))?;
        if status_line.is_empty() {
            return Err((true, http_err(context, "server closed the connection")));
        }
        self.finish_response(context, reader, &status_line)
            .map_err(|e| (false, e))
    }

    fn finish_response(
        &mut self,
        context: &str,
        mut reader: BufReader<TcpStream>,
        status_line: &str,
    ) -> Result<(u16, Json)> {
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| http_err(context, format!("bad status line {status_line:?}")))?;

        let mut content_length = 0usize;
        let mut keep_alive = true;
        loop {
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .map_err(|e| http_err(context, e))?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = value
                        .parse()
                        .map_err(|e| http_err(context, format!("bad content-length: {e}")))?;
                }
                "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
                "retry-after" => {
                    self.last_retry_after = parse_retry_after(value, SystemTime::now())
                }
                _ => {}
            }
        }
        let mut buf = vec![0u8; content_length];
        reader
            .read_exact(&mut buf)
            .map_err(|e| http_err(context, e))?;
        if !keep_alive {
            self.stream = None;
        }
        let text = String::from_utf8(buf)
            .map_err(|e| http_err(context, format!("response not UTF-8: {e}")))?;
        let json = Json::parse(&text)
            .map_err(|e| http_err(context, format!("response not JSON ({e}): {text}")))?;
        Ok((status, json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unix(secs: u64) -> SystemTime {
        SystemTime::UNIX_EPOCH + Duration::from_secs(secs)
    }

    #[test]
    fn retry_after_accepts_delta_seconds() {
        let now = unix(1_000_000);
        assert_eq!(
            parse_retry_after("120", now),
            Some(Duration::from_secs(120))
        );
        assert_eq!(
            parse_retry_after(" 0.5 ", now),
            Some(Duration::from_secs_f64(0.5))
        );
        assert_eq!(parse_retry_after("0", now), Some(Duration::ZERO));
        // Absurd deltas are capped, not panicked on.
        assert_eq!(
            parse_retry_after("1e300", now),
            Some(Duration::from_secs_f64(RETRY_AFTER_CAP_SECS))
        );
    }

    #[test]
    fn retry_after_accepts_http_dates() {
        // "Sun, 06 Nov 1994 08:49:37 GMT" == 784111777 (RFC 7231's own
        // example date).
        let target = 784_111_777;
        let now = unix(target - 90);
        for form in [
            "Sun, 06 Nov 1994 08:49:37 GMT",
            "06 Nov 1994 08:49:37 GMT",
            "Sun, 06 Nov 1994 08:49:37 UTC",
        ] {
            assert_eq!(
                parse_retry_after(form, now),
                Some(Duration::from_secs(90)),
                "{form}"
            );
        }
        // A date in the past means "retry now", not an error.
        assert_eq!(
            parse_retry_after("Sun, 06 Nov 1994 08:49:37 GMT", unix(target + 5)),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn malformed_retry_after_falls_back_to_none() {
        let now = unix(1_000_000);
        for bad in [
            "",
            "soon",
            "-5",
            "nan",
            "inf",
            "Sun, 06 Nov 1994 08:49:37 PST",
            "Sun, 06 Nov 1994 08:49 GMT",
            "Sun, 32 Nov 1994 08:49:37 GMT",
            "Sun, 06 Nov 1994 25:49:37 GMT",
            "Sun, 06 Foo 1994 08:49:37 GMT",
            "Sun, 06 Nov 1994 08:49:37 GMT extra",
        ] {
            assert_eq!(parse_retry_after(bad, now), None, "{bad:?}");
        }
    }
}
