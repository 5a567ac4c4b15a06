//! The client side of the serving protocol: [`HttpClient`] plus a
//! [`RetryPolicy`] with jittered backoff for transient failures. A
//! daemon and a gateway serve the same `/v1/*` routes, so one client
//! reaches either. Backs the `lagoon remote` subcommand and the
//! integration tests.

use std::time::{Duration, Instant};

use lagoon_diag::gen::SplitMix64;

use crate::http::{HttpClient, HttpResponse};
use crate::json::{self, obj, Json};

/// Retry-with-backoff settings for [`repeat_request`].
///
/// A request is retried when the transport fails outright (refused,
/// reset mid-read — e.g. the server is restarting) or when the server
/// marks its response retryable with an `x-lagoon-retry-after-ms`
/// header: a daemon shedding for `queue-full`, `workers-degraded` or
/// `workers-unavailable`, or a gateway with no reachable shard. Errors
/// produced by the *program* — including its own budget exhaustion —
/// are never retried.
///
/// Delays follow truncated binary exponential backoff with full
/// jitter: attempt `k` sleeps a uniform-ish random duration in
/// `[base/2, min(base · 2^k, max)]`, drawn from a seeded splitmix64
/// stream (the workspace builds offline; no rand crate).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub attempts: u32,
    /// First-retry backoff target.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// Jitter seed; vary per client to avoid thundering herds.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(25),
            max: Duration::from_millis(800),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before retry number `attempt` (1-based).
    pub fn delay(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let ceil = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max)
            .max(self.base);
        let floor = self.base / 2;
        let span = ceil.saturating_sub(floor).as_millis().max(1) as u64;
        floor + Duration::from_millis(rng.below(span))
    }
}

/// The server's retry hint: a retryable response carries
/// `x-lagoon-retry-after-ms`, sized to how long the condition usually
/// lasts (a draining queue: tens of milliseconds; a dead worker pool:
/// hundreds). `None` means the response is final.
pub fn retry_hint(response: &HttpResponse) -> Option<Duration> {
    let ms = response.header("x-lagoon-retry-after-ms")?.parse().ok()?;
    Some(Duration::from_millis(ms))
}

/// The delay before retrying a response that carried `hint`: the hint
/// plus up to 50% jitter, so a shed burst does not return in lockstep,
/// capped at the policy's ceiling.
fn hinted_delay(policy: &RetryPolicy, hint: Duration, rng: &mut SplitMix64) -> Duration {
    let jitter_ms = (hint.as_millis() / 2).max(1) as u64;
    (hint + Duration::from_millis(rng.below(jitter_ms))).min(policy.max)
}

/// The outcome of [`repeat_request`]: per-request responses plus the
/// connection-level counters that show the reuse actually happened.
#[derive(Debug, Default)]
pub struct RepeatOutcome {
    /// Responses with `"ok": true`.
    pub ok: u64,
    /// Responses that were errors (after retries were exhausted).
    pub errors: u64,
    /// Retries taken across all requests.
    pub retries: u64,
    /// Fresh connections dialed after the first (0 = one connection
    /// served every request).
    pub reconnects: u64,
    /// Wall-clock for the whole batch.
    pub wall: Duration,
    /// The final response body of each request, in order.
    pub responses: Vec<String>,
}

/// Sends one request `repeat` times over **one** keep-alive
/// [`HttpClient`], reconnecting only when the transport fails (server
/// restart, reset) or the server closes the connection, and retrying
/// retryable responses — after their `x-lagoon-retry-after-ms` hint —
/// per `policy`. Backs `lagoon remote`.
///
/// # Errors
///
/// Returns the final I/O error only if a request never got a response
/// within the policy's attempts; retryable responses that stay so, and
/// program errors, are recorded in the outcome, not raised.
pub fn repeat_request(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
    repeat: u64,
    timeout: Option<Duration>,
    policy: &RetryPolicy,
) -> std::io::Result<RepeatOutcome> {
    let started = Instant::now();
    let mut rng = SplitMix64::new(policy.seed);
    let attempts = policy.attempts.max(1);
    let mut outcome = RepeatOutcome::default();
    let mut conn: Option<HttpClient> = None;
    let mut dialed = false;
    for _ in 0..repeat.max(1) {
        let mut tries = 0u32;
        let response = loop {
            tries += 1;
            let sent = match conn.take() {
                Some(client) => Ok(client),
                None => HttpClient::connect(addr, timeout).inspect(|_| {
                    outcome.reconnects += u64::from(dialed);
                    dialed = true;
                }),
            }
            .and_then(|mut client| {
                let response = client.request(method, target, &[], body)?;
                Ok((client, response))
            });
            match sent {
                Ok((client, response)) => {
                    if !response.closes() {
                        conn = Some(client);
                    }
                    match retry_hint(&response) {
                        Some(hint) if tries < attempts => {
                            outcome.retries += 1;
                            std::thread::sleep(hinted_delay(policy, hint, &mut rng));
                        }
                        _ => break response,
                    }
                }
                Err(e) if tries >= attempts => return Err(e),
                Err(_) => {
                    outcome.retries += 1;
                    std::thread::sleep(policy.delay(tries, &mut rng));
                }
            }
        };
        let body = response.body_str();
        let ok = json::parse(&body)
            .ok()
            .and_then(|r| r.get("ok").and_then(Json::as_bool))
            == Some(true);
        if ok {
            outcome.ok += 1;
        } else {
            outcome.errors += 1;
        }
        outcome.responses.push(body);
    }
    outcome.wall = started.elapsed();
    Ok(outcome)
}

/// A keep-alive connection taking request lines that carry an `"op"`
/// field, each posted without it to `/v1/{op}`, answered with the
/// response body. It keeps the request-line interface the benchmark
/// drives a daemon through; new callers use [`HttpClient`].
pub struct Connection(HttpClient);

impl Connection {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str, timeout: Option<Duration>) -> std::io::Result<Connection> {
        HttpClient::connect(addr, timeout).map(Connection)
    }

    /// Posts one request line, less its `"op"`, to the route that field
    /// names (the daemon takes no `"op"` field: the route is the op) and
    /// returns the response body. A line that is not a JSON object is
    /// posted as it is, to `/v1/`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        let (op, body) = match json::parse(line) {
            Ok(Json::Obj(mut fields)) => {
                let op = fields.remove("op");
                let op = op.as_ref().and_then(Json::as_str).unwrap_or_default();
                (op.to_string(), Json::Obj(fields).to_string())
            }
            _ => (String::new(), line.to_string()),
        };
        let response = self
            .0
            .request("POST", &format!("/v1/{op}"), &[], body.as_bytes())?;
        Ok(response.body_str())
    }
}

/// Builds a run/expand/check request body for an inline source text,
/// with per-request `limits` (which may only tighten the server's).
pub fn inline_request(source: &str, limits: Vec<(&str, u64)>) -> String {
    let mut fields = vec![("source", Json::Str(source.to_string()))];
    if !limits.is_empty() {
        let limits = limits
            .into_iter()
            .map(|(k, v)| (k, Json::Num(v as f64)))
            .collect();
        fields.push(("limits", obj(limits)));
    }
    obj(fields).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(headers: &[(&str, &str)]) -> HttpResponse {
        HttpResponse {
            status: 503,
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        }
    }

    #[test]
    fn retry_hint_is_read_from_the_header() {
        let shed = response(&[("X-Lagoon-Retry-After-Ms", "25")]);
        assert_eq!(retry_hint(&shed), Some(Duration::from_millis(25)));
        assert_eq!(retry_hint(&response(&[("retry-after", "1")])), None);
        assert_eq!(
            retry_hint(&response(&[("x-lagoon-retry-after-ms", "soon")])),
            None
        );
    }

    #[test]
    fn hinted_delay_stays_near_the_hint_and_below_the_ceiling() {
        let policy = RetryPolicy::default();
        let mut rng = SplitMix64::new(7);
        for _ in 0..32 {
            let d = hinted_delay(&policy, Duration::from_millis(100), &mut rng);
            assert!(d >= Duration::from_millis(100) && d <= Duration::from_millis(150));
        }
        // A hint above the ceiling is clamped to it.
        let d = hinted_delay(&policy, Duration::from_secs(10), &mut rng);
        assert!(d <= policy.max);
    }
}
